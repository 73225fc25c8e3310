#include "model/activity_log.hpp"

#include <cstdint>
#include <utility>

#include "model/case_walk.hpp"

namespace st::model {

ActivityTrace activity_trace(const MappedCase& walk) {
  ActivityTrace trace;
  trace.reserve(walk.size());
  for (const std::uint32_t id : walk.ids()) trace.push_back(walk.activities()[id]);
  return trace;
}


void merge_variant_counts(VariantCounts& to, VariantCounts&& from) {
  if (to.empty()) {
    to = std::move(from);
    return;
  }
  while (!from.empty()) {
    auto node = from.extract(from.begin());
    const auto result = to.insert(std::move(node));
    if (!result.inserted) result.position->second += result.node.mapped();
  }
}

void ActivityLog::add_case(const MappedCase& walk) {
  ActivityTrace trace = activity_trace(walk);
  for (const Activity& a : walk.activities()) activities_.insert(a);
  total_instances_ += trace.size();
  per_case_.emplace(walk.source().id(), trace);
  ++variants_[std::move(trace)];
  ++case_count_;
}

void ActivityLog::merge(ActivityLog&& other) {
  merge_variant_counts(variants_, std::move(other.variants_));
  per_case_.merge(std::move(other.per_case_));  // first-wins, like emplace
  activities_.merge(std::move(other.activities_));
  case_count_ += other.case_count_;
  total_instances_ += other.total_instances_;
}

ActivityLog ActivityLog::from_parts(VariantCounts variants, std::map<CaseId, ActivityTrace> per_case,
                                    std::set<Activity> activities, std::size_t case_count,
                                    std::size_t total_instances) {
  ActivityLog out;
  out.variants_ = std::move(variants);
  out.per_case_ = std::move(per_case);
  out.activities_ = std::move(activities);
  out.case_count_ = case_count;
  out.total_instances_ = total_instances;
  return out;
}

ActivityLog ActivityLog::build(const EventLog& log, const Mapping& f) {
  ActivityLog out;
  MappedCase walk;
  for (const Case& c : log.cases()) {
    walk.assign(c, f);
    out.add_case(walk);
  }
  return out;
}

}  // namespace st::model
