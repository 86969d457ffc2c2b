// M-Cluster partition plans: who owns which client ids, as an epoch plus
// a member list, with ownership computed by a consistent-hash ring.
//
// A plan is deliberately tiny — (epoch, [(worker_id, data_port)...]) —
// because both sides recompute ownership deterministically from it: the
// controller never ships per-key assignments, and a worker and a client
// holding the same plan always agree on who owns a given client id. The
// epoch is the only coordination token: it increases exactly when the
// member set changes (join/leave/death), workers stamp it into
// kWrongWorker responses, and clients refresh until they hold at least
// the epoch a worker rejected them with.
//
// The ring hashes each member onto kVnodesPerMember points
// (support::Mix64 of worker_id x vnode index); a client id is owned by
// the member whose point is the first at or clockwise after the id's
// hash. Virtual nodes keep the load split even-ish and — the property
// the membership unit test pins — make a single join/leave move only
// O(1/n) of the keyspace, never reshuffle it.
#pragma once

#include <cstdint>
#include <vector>

namespace mobivine::cluster {

struct PlanMember {
  std::uint64_t worker_id = 0;  ///< stable, caller-chosen, >= 1
  std::uint16_t data_port = 0;  ///< the worker's WireServer (loopback)

  friend bool operator==(const PlanMember&, const PlanMember&) = default;
};

/// One partition plan. epoch == 0 means "no plan yet" (empty cluster or a
/// peer that has not registered); real plans start at epoch 1.
struct PartitionPlan {
  std::uint64_t epoch = 0;
  std::vector<PlanMember> members;  ///< sorted by worker_id (canonical)

  [[nodiscard]] bool empty() const { return members.empty(); }
  friend bool operator==(const PartitionPlan&, const PartitionPlan&) = default;
};

/// Consistent-hash ring over a plan's members. Build once per plan
/// (cheap: members * kVnodesPerMember points, sorted), then OwnerFor is
/// one binary search — it sits on the cluster client's per-request path.
class HashRing {
 public:
  static constexpr int kVnodesPerMember = 64;

  HashRing() = default;
  explicit HashRing(const PartitionPlan& plan) { Rebuild(plan); }

  void Rebuild(const PartitionPlan& plan);

  /// The worker_id owning `client_id`. Ring must be non-empty.
  [[nodiscard]] std::uint64_t OwnerFor(std::uint64_t client_id) const;

  [[nodiscard]] bool empty() const { return points_.empty(); }

 private:
  /// (point hash, worker_id), sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> points_;
};

}  // namespace mobivine::cluster
