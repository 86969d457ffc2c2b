#!/usr/bin/env python3
"""CI perf smoke for the M-Wire front-end.

Usage:
    python3 scripts/check_wire_perf.py BENCH.json [FLOOR.json]

BENCH.json is `bench_scenarios wire` output (in CI a `--smoke` run, which
makes three passes); FLOOR.json defaults to scripts/wire_perf_floor.json.
Stdlib-only (CI must not install packages).

Two assertions, both against the bench's own "overhead" summary:

  * wire_over_in_process >= min_wire_over_in_process — the median pass
    of the wire path must stay within its priced overhead band of the
    in-process baseline measured by the same binary in the same pass
    (so host speed cancels out; see the floor file for the tolerance
    rationale). One short pass on a shared host can dip below the floor
    on noise alone; the median of several cannot without a real cause;
  * frame_buffer_allocs_per_req <= max_frame_buffer_allocs_per_req —
    the worst pass's pooled-buffer no-allocation claim, which is ~0 at
    steady state and jumps by whole allocations per request when a copy
    sneaks back into the frame path.

Exit code 0 on success, 1 with a message on any failure.
"""

import json
import pathlib
import sys


def fail(message: str) -> None:
    print(f"check_wire_perf: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        fail(f"usage: {argv[0]} BENCH.json [FLOOR.json]")
    bench_path = pathlib.Path(argv[1])
    floor_path = (pathlib.Path(argv[2]) if len(argv) == 3 else
                  pathlib.Path(__file__).parent / "wire_perf_floor.json")
    try:
        bench = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read bench output {bench_path}: {error}")
    try:
        floor = json.loads(floor_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read floor file {floor_path}: {error}")

    overhead = bench.get("overhead")
    if not isinstance(overhead, dict):
        fail(f"{bench_path}: no 'overhead' summary — wrong or partial file?")

    ratio = overhead.get("wire_over_in_process")
    min_ratio = floor["min_wire_over_in_process"]
    if not isinstance(ratio, (int, float)):
        fail(f"{bench_path}: overhead.wire_over_in_process missing")
    repeat = overhead.get("repeat", 1)
    if ratio < min_ratio:
        fail(
            f"wire_over_in_process {ratio:.4f} (median of {repeat} passes, "
            f"min {overhead.get('wire_over_in_process_min', ratio):.4f}, "
            f"max {overhead.get('wire_over_in_process_max', ratio):.4f}) "
            f"below floor {min_ratio} "
            f"(best pipelined wire {overhead.get('best_pipelined_wire_rps')} "
            f"req/s vs in-process {overhead.get('in_process_rps')} req/s) — "
            "the wire path regressed structurally; see "
            f"{floor_path.name} before touching the floor"
        )

    allocs = overhead.get("frame_buffer_allocs_per_req")
    max_allocs = floor.get("max_frame_buffer_allocs_per_req")
    if max_allocs is not None:
        if not isinstance(allocs, (int, float)):
            fail(f"{bench_path}: overhead.frame_buffer_allocs_per_req missing")
        if allocs > max_allocs:
            fail(
                f"frame_buffer_allocs_per_req {allocs:.4f} (worst of "
                f"{repeat} passes) above cap "
                f"{max_allocs} — per-frame heap allocation is back on the "
                "wire hot path"
            )

    print(
        f"check_wire_perf: OK: wire_over_in_process {ratio:.4f} "
        f"(median of {repeat} passes) >= {min_ratio}, "
        f"frame_buffer_allocs_per_req {float(allocs):.4f} "
        f"(worst pass) <= {max_allocs}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
