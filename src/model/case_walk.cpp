#include "model/case_walk.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "support/errors.hpp"

namespace st::model {

namespace {

constexpr std::uint32_t kEmpty = UINT32_MAX;

/// Table size for at most `n` keys: a power of two, at least 2n.
std::size_t table_size(std::size_t n) { return std::bit_ceil(std::max<std::size_t>(16, 2 * n)); }

std::size_t edge_hash(MappedCase::Edge e) {
  const std::uint64_t packed = (std::uint64_t{e.from} << 32) | e.to;
  return static_cast<std::size_t>((packed * 0x9E3779B97F4A7C15ULL) >> 32);
}

/// Linear probe from `pos`: the slot holding the id `same` accepts, or
/// the first empty slot.
template <typename Same>
std::size_t probe(const std::vector<std::uint32_t>& slots, std::size_t pos, Same same) {
  const std::size_t mask = slots.size() - 1;
  while (slots[pos] != kEmpty && !same(slots[pos])) pos = (pos + 1) & mask;
  return pos;
}

}  // namespace

void MappedCase::assign(const Case& c, const Mapping& f) {
  const auto events = c.events();
  if (events.size() >= kEmpty) {
    throw LogicError("MappedCase: case has too many events for 32-bit ids");
  }
  case_ = &c;
  activities_.clear();
  hashes_.clear();
  ids_.clear();
  event_indices_.clear();
  edges_.clear();
  edge_ids_.clear();
  // Both tables are sized by the case (distinct activities and edges
  // are each bounded by its event count), so resetting them costs what
  // the walk itself costs.
  const std::size_t mask = table_size(events.size()) - 1;
  activity_slots_.assign(mask + 1, kEmpty);
  edge_slots_.assign(mask + 1, kEmpty);

  for (std::size_t i = 0; i < events.size(); ++i) {
    std::optional<Activity> a = f(events[i]);
    if (!a) continue;

    const std::size_t h = std::hash<Activity>{}(*a);
    const std::size_t pos = probe(activity_slots_, h & mask, [&](std::uint32_t id) {
      return hashes_[id] == h && activities_[id] == *a;
    });
    if (activity_slots_[pos] == kEmpty) {
      activity_slots_[pos] = static_cast<std::uint32_t>(activities_.size());
      activities_.push_back(std::move(*a));
      hashes_.push_back(h);
    }
    const std::uint32_t id = activity_slots_[pos];

    if (!ids_.empty()) {
      const Edge e{ids_.back(), id};
      const std::size_t epos = probe(edge_slots_, edge_hash(e) & mask, [&](std::uint32_t eid) {
        return edges_[eid].from == e.from && edges_[eid].to == e.to;
      });
      if (edge_slots_[epos] == kEmpty) {
        edge_slots_[epos] = static_cast<std::uint32_t>(edges_.size());
        edges_.push_back(e);
      }
      edge_ids_.push_back(edge_slots_[epos]);
    }
    ids_.push_back(id);
    event_indices_.push_back(static_cast<std::uint32_t>(i));
  }
}

std::optional<std::uint32_t> MappedCase::find(const Activity& a) const {
  if (activity_slots_.empty()) return std::nullopt;
  const std::size_t h = std::hash<Activity>{}(a);
  const std::size_t pos =
      probe(activity_slots_, h & (activity_slots_.size() - 1),
            [&](std::uint32_t id) { return hashes_[id] == h && activities_[id] == a; });
  if (activity_slots_[pos] == kEmpty) return std::nullopt;
  return activity_slots_[pos];
}

}  // namespace st::model
