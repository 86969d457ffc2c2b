#include "cluster/plan.h"

#include <algorithm>

#include "support/seed.h"

namespace mobivine::cluster {

using support::Mix64;

void HashRing::Rebuild(const PartitionPlan& plan) {
  points_.clear();
  points_.reserve(plan.members.size() *
                  static_cast<std::size_t>(kVnodesPerMember));
  for (const PlanMember& member : plan.members) {
    for (int vnode = 0; vnode < kVnodesPerMember; ++vnode) {
      // Two rounds so worker_id and vnode index both diffuse fully; a
      // single xor-then-mix leaves adjacent ids with correlated points.
      const std::uint64_t point =
          Mix64(Mix64(member.worker_id) ^ static_cast<std::uint64_t>(vnode));
      points_.emplace_back(point, member.worker_id);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::uint64_t HashRing::OwnerFor(std::uint64_t client_id) const {
  const std::uint64_t hash = Mix64(client_id);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), hash,
      [](const auto& point, std::uint64_t value) { return point.first < value; });
  // Clockwise wrap: past the last point lands on the first.
  return it == points_.end() ? points_.front().second : it->second;
}

}  // namespace mobivine::cluster
