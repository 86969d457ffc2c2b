#include "gateway/stats.h"

#include <algorithm>
#include <utility>

namespace mobivine::gateway {

GatewaySnapshot Aggregate(std::vector<ShardSnapshot> shards) {
  GatewaySnapshot snap;
  snap.shards = std::move(shards);
  std::uint64_t deepest = 0;
  for (const ShardSnapshot& shard : snap.shards) {
    support::AddCounters(kShardCounters, shard, snap.totals);
    deepest = std::max(deepest, shard.max_queue_depth);
    snap.totals.latency.Merge(shard.latency);
  }
  snap.totals.max_queue_depth = deepest;  // high-water marks do not add
  return snap;
}

}  // namespace mobivine::gateway
