#include "dfg/stats.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "model/case_walk.hpp"
#include "support/si.hpp"

namespace st::dfg {

std::string ActivityStat::load_label() const {
  std::string out = "Load:" + format_ratio(rel_dur);
  if (has_bytes) out += " (" + format_bytes(static_cast<double>(bytes)) + ")";
  return out;
}

std::string ActivityStat::dr_label() const {
  if (rate_samples == 0) return {};
  return "DR: " + std::to_string(max_concurrency) + "x" + format_rate_mbps(mean_rate);
}

double deterministic_pairwise_sum(std::span<const double> xs) {
  // Shape is a pure function of xs.size(): halve, recurse, add.
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  const std::size_t half = xs.size() / 2;
  return deterministic_pairwise_sum(xs.first(half)) +
         deterministic_pairwise_sum(xs.subspan(half));
}

void IoStatistics::Partial::add_case(const model::MappedCase& walk) {
  // One local slot per distinct activity, filled in event order (so
  // each rate sum adds in event order, as the per-event fold did), then
  // moved into the case's map once per activity.
  std::vector<ActivityContribution> slots(walk.activities().size());
  const auto ids = walk.ids();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const model::Event& e = walk.event(k);
    ActivityContribution& slot = slots[ids[k]];
    slot.total_dur += e.dur;
    ++slot.event_count;
    if (e.has_size()) {
      slot.bytes += e.size;
      slot.has_bytes = true;
      if (e.dur > 0) {
        slot.rate_sum += static_cast<double>(e.size) /
                         (static_cast<double>(e.dur) / static_cast<double>(kMicrosPerSecond));
        ++slot.rate_samples;
      }
    }
    slot.intervals.push_back(Interval{e.start, e.end()});
  }
  CaseContribution contribution;
  contribution.id = walk.source().id();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    contribution.activities.emplace(walk.activities()[i], std::move(slots[i]));
  }
  cases_.push_back(std::move(contribution));
}

void IoStatistics::Partial::merge(Partial&& other) {
  if (cases_.empty()) {
    cases_ = std::move(other.cases_);
    return;
  }
  cases_.insert(cases_.end(), std::make_move_iterator(other.cases_.begin()),
                std::make_move_iterator(other.cases_.end()));
  other.cases_.clear();
}

IoStatistics IoStatistics::Partial::finalize() const {
  struct Gathered {
    ActivityStat stat;
    std::vector<double> rate_sums;  ///< one leaf per contributing case, input order
    std::vector<Interval> intervals;
    std::set<model::CaseId> cases;
  };
  std::map<model::Activity, Gathered> acc;

  for (const CaseContribution& c : cases_) {
    for (const auto& [activity, con] : c.activities) {
      Gathered& slot = acc[activity];
      slot.stat.total_dur += con.total_dur;
      slot.stat.event_count += con.event_count;
      slot.stat.bytes += con.bytes;
      slot.stat.has_bytes = slot.stat.has_bytes || con.has_bytes;
      slot.stat.rate_samples += con.rate_samples;
      if (con.rate_samples > 0) slot.rate_sums.push_back(con.rate_sum);
      slot.intervals.insert(slot.intervals.end(), con.intervals.begin(), con.intervals.end());
      slot.cases.insert(c.id);
    }
  }

  IoStatistics out;
  for (const auto& [activity, slot] : acc) {
    out.total_dur_ += slot.stat.total_dur;
  }
  for (auto& [activity, slot] : acc) {
    ActivityStat stat = slot.stat;
    stat.rel_dur = out.total_dur_ > 0
                       ? static_cast<double>(stat.total_dur) / static_cast<double>(out.total_dur_)
                       : 0.0;
    stat.mean_rate = stat.rate_samples > 0
                         ? deterministic_pairwise_sum(slot.rate_sums) /
                               static_cast<double>(stat.rate_samples)
                         : 0.0;
    stat.max_concurrency = get_max_concurrency(std::move(slot.intervals));
    stat.rank_count = slot.cases.size();
    out.stats_.emplace(activity, std::move(stat));
  }
  return out;
}

std::vector<TimelineEntry> IoStatistics::Partial::timeline(const model::Activity& a) const {
  std::vector<TimelineEntry> out;
  for (const CaseContribution& c : cases_) {
    const auto it = c.activities.find(a);
    if (it == c.activities.end()) continue;
    for (const Interval& interval : it->second.intervals) {
      out.push_back(TimelineEntry{c.id, interval});
    }
  }
  // The pre-sort sequence equals IoStatistics::timeline's (cases in
  // input order, intervals in event order), so the same sort yields
  // the same output — ties included.
  std::sort(out.begin(), out.end(), [](const TimelineEntry& x, const TimelineEntry& y) {
    return x.interval.start < y.interval.start;
  });
  return out;
}

IoStatistics::Partial IoStatistics::Partial::from_cases(std::vector<CaseContribution> cases) {
  Partial p;
  p.cases_ = std::move(cases);
  return p;
}

IoStatistics IoStatistics::compute(const model::EventLog& log, const model::Mapping& f) {
  Partial partial;
  model::MappedCase walk;
  for (const model::Case& c : log.cases()) {
    walk.assign(c, f);
    partial.add_case(walk);
  }
  return partial.finalize();
}

const ActivityStat* IoStatistics::find(const model::Activity& a) const {
  const auto it = stats_.find(a);
  return it == stats_.end() ? nullptr : &it->second;
}

std::vector<TimelineEntry> IoStatistics::timeline(const model::EventLog& log,
                                                  const model::Mapping& f,
                                                  const model::Activity& a) {
  std::vector<TimelineEntry> out;
  model::MappedCase walk;
  for (const model::Case& c : log.cases()) {
    walk.assign(c, f);
    const auto id = walk.find(a);
    if (!id) continue;
    const auto ids = walk.ids();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] != *id) continue;
      const model::Event& e = walk.event(k);
      out.push_back(TimelineEntry{c.id(), Interval{e.start, e.end()}});
    }
  }
  std::sort(out.begin(), out.end(), [](const TimelineEntry& x, const TimelineEntry& y) {
    return x.interval.start < y.interval.start;
  });
  return out;
}

}  // namespace st::dfg
