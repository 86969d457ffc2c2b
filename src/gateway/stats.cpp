#include "gateway/stats.h"

#include <algorithm>
#include <utility>

namespace mobivine::gateway {

GatewaySnapshot Aggregate(std::vector<ShardSnapshot> shards) {
  GatewaySnapshot snap;
  snap.shards = std::move(shards);
  for (const ShardSnapshot& shard : snap.shards) {
    support::AddCounters(kShardCounters, shard, snap.totals);
    snap.totals.queue_depth += shard.queue_depth;
    snap.totals.max_queue_depth =
        std::max(snap.totals.max_queue_depth, shard.max_queue_depth);
    snap.totals.latency.Merge(shard.latency);
  }
  return snap;
}

}  // namespace mobivine::gateway
