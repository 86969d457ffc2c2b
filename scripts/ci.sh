#!/usr/bin/env bash
# CI entry point: build + test the matrix of presets a change must survive.
#
#   default  RelWithDebInfo, the configuration developers and benches use
#   asan     Debug + AddressSanitizer
#   ubsan    Debug + UndefinedBehaviorSanitizer
#
# The tsan preset (gateway/failover/interner/wire/cluster/push/script/
# fleet concurrency checking) is not in the default matrix because a
# full-suite TSan run is slow; the wire leg below runs a *filtered* TSan
# pass (-R 'Script|Push|Cluster|Wire|Gateway|Tenant|Fleet|Trace|Failover|Interner|BufferPool') instead.
# The filter covers the shard queue too: its suites (GatewayQueue.*, with
# the 4-producer/1-consumer test, and GatewayPin.*) match 'Gateway', as
# does GatewayHeap.*, the live-heap check that mobivine_heap_tests runs
# in every preset (it replaces operator new, so it has its own binary).
# 'Trace' adds the M-Scope suite, where threads create their span buffers
# on their first event while the exporter reads the registry. 'Failover',
# 'Interner' and 'BufferPool' add the threaded fault-injection soak, the
# shared interner under concurrent intern/lookup and the frame-buffer
# pool's thread-exit flush. 'Script' covers the gateway-wide parse cache
# that every shard reads and inserts into.
# Opt in to the full suite with
#   MOBIVINE_CI_PRESETS="default asan ubsan tsan" scripts/ci.sh
# or run the filtered leg directly:
#   cmake --preset tsan && cmake --build build-tsan -j && \
#     ctest --test-dir build-tsan \
#       -R 'Script|Push|Cluster|Wire|Gateway|Tenant|Fleet|Trace|Failover|Interner|BufferPool' \
#       --output-on-failure
set -euo pipefail

cd "$(dirname "$0")/.."

# Docs leg first: it needs no build and fails fast. Every relative link
# and #anchor across README/DESIGN/EXPERIMENTS/CHANGES/docs must resolve.
echo "==== [docs] markdown cross-reference check ===="
python3 scripts/check_docs.py

PRESETS=${MOBIVINE_CI_PRESETS:-"default asan ubsan"}
JOBS=${MOBIVINE_CI_JOBS:-$(nproc)}

for preset in $PRESETS; do
  echo "==== [$preset] configure ===="
  cmake --preset "$preset"
  echo "==== [$preset] build ===="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==== [$preset] test ===="
  ctest --preset "$preset" -j "$JOBS" --output-on-failure
  if [[ "$preset" == "default" ]]; then
    # Repeat leg: the tests that race the wire and cluster frame paths
    # (teardown vs in-flight sends, stop with busy clients, connection
    # death, plan repair of subscriptions, requests and scripts) run 50
    # times over, so a rare interleaving fails here, not in the field.
    echo "==== [default] wire/cluster frame-path races x50 ===="
    race_tests=(
      'WireClientTeardown.*'
      'WireServerTest.StopWithBusyClients*'
      'WireServerTest.ClientSurfacesTransportError*'
      'PushServerTest.ConnectionDeath*'
      'ClusterEndToEnd.PushSubscriptionFollowsPlan*'
      'ClusterEndToEnd.KillWorker*'
      'ClusterEndToEnd.ScriptFollowsPlan*'
    )
    ./build/tests/mobivine_tests --gtest_repeat=50 --gtest_brief=1 \
      --gtest_filter="$(IFS=:; echo "${race_tests[*]}")"
    # perfbench builds its own tree (.bench_build/) from the same src/.
    echo "==== [default] perfbench tests ===="
    python3 perfbench/run.py --test
  fi
done

# M-Scope leg: run the trace-enabled gateway scenario and validate both
# exporter outputs against the checked-in schema. A malformed or empty
# export (or a trace missing either layer's spans) fails the build.
echo "==== [mscope] traced gateway bench + export validation ===="
MSCOPE_DIR=$(mktemp -d)
trap 'rm -rf "$MSCOPE_DIR"' EXIT
./build/bench/bench_scenarios gateway "$MSCOPE_DIR/bench.json" \
  --trace-only --trace "$MSCOPE_DIR/trace.json" \
  --metrics "$MSCOPE_DIR/metrics.json"
python3 scripts/validate_mscope.py \
  "$MSCOPE_DIR/trace.json" "$MSCOPE_DIR/metrics.json" \
  scripts/mscope_schema.json

# M-Wire leg: the socket front-end's traced scenario must export wire.*
# spans on labeled wire-loop threads plus wire.* counters that reconcile
# with the gateway's (every submission in that run crossed a real socket),
# and the epoll reactor + client must be race-clean under TSan. The TSan
# pass is filtered to the wire/gateway suites so it stays fast; skip it
# with MOBIVINE_CI_WIRE_TSAN=0 (e.g. when the full tsan preset already ran).
echo "==== [wire] traced wire bench + export validation ===="
./build/bench/bench_scenarios wire "$MSCOPE_DIR/wire_bench.json" \
  --trace-only --trace "$MSCOPE_DIR/wire_trace.json" \
  --metrics "$MSCOPE_DIR/wire_metrics.json"
python3 scripts/validate_mscope.py \
  "$MSCOPE_DIR/wire_trace.json" "$MSCOPE_DIR/wire_metrics.json" \
  scripts/mscope_schema.json --require-wire

# Perf smokes: each --smoke run makes several shortened passes and
# reports same-run ratios (each measured by the same binary in the same
# pass, both sides bound by the same resource, so host speed cancels);
# scripts/check_perf.py gates them against scripts/perf_bounds.json,
# which documents every bound. The wire smoke's median wire/in-process
# CPU per request must stay under its ceiling (its throughput ratio is
# reported but not gated: a round-trip-bound wire loop over a CPU-bound
# baseline swung past any floor on an unchanged tree) and its worst pass
# keep frame-buffer allocations ~0; the script smoke's median ns/step of
# a MiniJS call, `continue` and `break` loop over a plain arithmetic
# loop must stay under their ceilings, and its median requests/script
# p50 ratio must clear its floor; the cluster smoke's median 3-worker
# over 1-worker requests/s (both bound by the backend's wall-clock tau,
# not CPU) must clear its floor. One pass flaked on a 4-core
# shared host; a median of passes absorbs a noisy one. Skip with
# MOBIVINE_CI_PERF=0 on hosts too noisy to bench (the bounds assume a
# mostly-idle machine).
if [[ "${MOBIVINE_CI_PERF:-1}" != "0" ]]; then
  echo "==== [perf] wire, script and cluster smokes vs checked-in bounds ===="
  ./build/bench/bench_scenarios wire "$MSCOPE_DIR/wire_perf.json" --smoke
  ./build/bench/bench_scenarios script "$MSCOPE_DIR/script_perf.json" --smoke
  ./build/bench/bench_scenarios cluster "$MSCOPE_DIR/cluster_perf.json" --smoke
  python3 scripts/check_perf.py "$MSCOPE_DIR/wire_perf.json" \
    "$MSCOPE_DIR/script_perf.json" "$MSCOPE_DIR/cluster_perf.json"
fi

# M-Cluster leg: the distributed topology's traced scenario (controller
# + worker + plan-routing client, all over real loopback TCP) must
# export cluster.* control-plane events and counters — a published plan
# (epoch >= 1), live heartbeats, labeled cluster-ctrl/cluster-agent
# threads — alongside the usual gateway.* and wire.* planes.
echo "==== [cluster] traced cluster bench + export validation ===="
./build/bench/bench_scenarios cluster "$MSCOPE_DIR/cluster_bench.json" \
  --trace-only --trace "$MSCOPE_DIR/cluster_trace.json" \
  --metrics "$MSCOPE_DIR/cluster_metrics.json"
python3 scripts/validate_mscope.py \
  "$MSCOPE_DIR/cluster_trace.json" "$MSCOPE_DIR/cluster_metrics.json" \
  scripts/mscope_schema.json --require-wire --require-cluster

# M-Push leg: the subscription plane's traced scenario (a live
# subscription with cursor replay plus mixed request traffic on the
# same connection) must export push.* events and the PushFeed/wire
# subscription counters — at least one subscription opened, events
# published, and events delivered — alongside the request plane.
echo "==== [push] traced push bench + export validation ===="
./build/bench/bench_scenarios push "$MSCOPE_DIR/push_bench.json" \
  --trace-only --trace "$MSCOPE_DIR/push_trace.json" \
  --metrics "$MSCOPE_DIR/push_metrics.json"
python3 scripts/validate_mscope.py \
  "$MSCOPE_DIR/push_trace.json" "$MSCOPE_DIR/push_metrics.json" \
  scripts/mscope_schema.json --require-wire --require-push

# M-Script leg: the composite-invocation plane's traced scenario (a mix
# of composite scripts, deliberately hostile scripts that must die on
# budget, and ordinary request traffic) must export the script.run
# execution span and the script.* counters — scripts executed, at least
# one budget kill proving the sandbox fires — and the wire dispatch
# reconcile must still balance with scripts in the mix.
echo "==== [script] traced script bench + export validation ===="
./build/bench/bench_scenarios script "$MSCOPE_DIR/script_bench.json" \
  --trace-only --trace "$MSCOPE_DIR/script_trace.json" \
  --metrics "$MSCOPE_DIR/script_metrics.json"
python3 scripts/validate_mscope.py \
  "$MSCOPE_DIR/script_trace.json" "$MSCOPE_DIR/script_metrics.json" \
  scripts/mscope_schema.json --require-wire --require-script

# Checked bench writes: every bench checks its JSON, trace and metrics
# streams after writing, so one pointed at a path it cannot create must
# exit non-zero instead of printing "wrote".
echo "==== [script] bench with an unwritable output path must fail ===="
if ./build/bench/bench_scenarios script --trace-only \
    --trace "$MSCOPE_DIR/missing-dir/script_trace.json" >/dev/null 2>&1; then
  echo "bench_scenarios exited 0 for a missing output directory" >&2
  exit 1
fi

# Checked flags: a misspelt flag must exit 2 with usage, not become the
# output path while the run silently skips what the flag asked for.
echo "==== [script] bench with a misspelt flag must fail ===="
set +e
./build/bench/bench_scenarios script --trace-only \
  --trace "$MSCOPE_DIR/flag_trace.json" \
  --metrcs "$MSCOPE_DIR/flag_metrics.json" >/dev/null 2>&1
status=$?
set -e
if [[ "$status" != "2" ]]; then
  echo "bench_scenarios exited $status, not 2, for a misspelt flag" >&2
  exit 1
fi

# M-Fleet leg: the device-fleet simulator's traced scenario (two tenants
# of flyweight devices driving the gateway open-loop) must export the
# fleet.run span on labeled fleet-gen-N producer threads, the fleet.*
# counters (quiescent: completed == submitted), and per-tenant
# gateway.tenant.<name>.* rows that each reconcile exactly.
echo "==== [fleet] traced fleet bench + export validation ===="
./build/bench/bench_scenarios fleet "$MSCOPE_DIR/fleet_bench.json" \
  --trace-only --trace "$MSCOPE_DIR/fleet_trace.json" \
  --metrics "$MSCOPE_DIR/fleet_metrics.json"
python3 scripts/validate_mscope.py \
  "$MSCOPE_DIR/fleet_trace.json" "$MSCOPE_DIR/fleet_metrics.json" \
  scripts/mscope_schema.json --require-fleet

# Descriptor leg: the A2 bench drives the XML parser, DOM, schema
# validator and DescriptorStore::LoadDirectory on the shipped store. One
# short run as a smoke test: it must load every document and exit 0.
# There is no timing gate.
echo "==== [descriptor] A2 descriptor bench smoke ===="
./build/bench/bench_a2_descriptor \
  --benchmark_filter='LoadFullDescriptorStore|XmlParse' \
  --benchmark_min_time=0.05

if [[ "${MOBIVINE_CI_WIRE_TSAN:-1}" != "0" ]]; then
  tsan_filter='Script|Push|Cluster|Wire|Gateway|Tenant|Fleet|Trace|Failover|Interner|BufferPool'
  echo "==== [wire] tsan: $tsan_filter suites ===="
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS"
  ctest --test-dir build-tsan -R "$tsan_filter" -j "$JOBS" \
    --output-on-failure
fi

echo "==== all presets green: $PRESETS (+ docs, mscope, wire, cluster, push, script, fleet, descriptor) ===="
