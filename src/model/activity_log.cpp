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
