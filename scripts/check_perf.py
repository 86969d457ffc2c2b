#!/usr/bin/env python3
"""CI perf smoke: gate bench results against scripts/perf_bounds.json.

Usage:
    python3 scripts/check_perf.py BENCH.json [BENCH.json ...]

Each BENCH.json is a `bench_scenarios <plane> --smoke` result file. Its
"bench" member selects its bounds in perf_bounds.json, each keyed by a
dotted JSON path into the file and holding a "min" (floor) or a "max"
(ceiling); perf_bounds.json documents why each bound sits where it does.
A bounded value the file lacks fails the check, so a full run (which
writes no smoke keys) or a partial file cannot pass by omission.
Stdlib-only (CI must not install packages).

Every bound is checked and every failure reported. Exit code 0 when all
hold, 1 otherwise.
"""

import json
import pathlib
import sys

BOUNDS = pathlib.Path(__file__).parent / "perf_bounds.json"


def fail(message: str) -> None:
    print(f"check_perf: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_json(path: pathlib.Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")


def lookup(doc, path: str):
    """The member at dotted `path` and the object holding it, or Nones."""
    parent = None
    value = doc
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None, None
        parent, value = value, value[key]
    return value, parent


def spread(parent: dict, leaf: str) -> str:
    """The passes behind a smoke value, as the bench reports them."""
    repeat = parent.get("repeat")
    low, high = parent.get(f"{leaf}_min"), parent.get(f"{leaf}_max")
    if low is not None and high is not None:
        return f" (median of {repeat} passes, min {low:.4f}, max {high:.4f})"
    return f" ({repeat} passes)" if repeat is not None else ""


def check(bench_path: pathlib.Path, bounds: dict) -> list:
    doc = read_json(bench_path)
    bench = doc.get("bench") if isinstance(doc, dict) else None
    rules = bounds.get(bench)
    if not isinstance(rules, dict):
        fail(f"{bench_path}: no bounds for bench {bench!r} in {BOUNDS.name}")
    failures = []
    for path, rule in rules.items():
        if path.startswith("$"):
            continue
        value, parent = lookup(doc, path)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            failures.append(f"{bench_path}: {path} missing (not a --smoke "
                            "run, or a partial file?)")
            continue
        shown = f"{bench} {path} {value:.4f}{spread(parent, path.split('.')[-1])}"
        if "min" in rule and value < rule["min"]:
            failures.append(f"{shown} below floor {rule['min']}")
        elif "max" in rule and value > rule["max"]:
            failures.append(f"{shown} above ceiling {rule['max']}")
        else:
            bound = (f">= {rule['min']}" if "min" in rule
                     else f"<= {rule['max']}")
            print(f"check_perf: OK: {shown} {bound}")
    return failures


def main(argv):
    if len(argv) < 2:
        fail(f"usage: {argv[0]} BENCH.json [BENCH.json ...]")
    bounds = read_json(BOUNDS)
    failures = []
    for arg in argv[1:]:
        failures += check(pathlib.Path(arg), bounds)
    for failure in failures:
        print(f"check_perf: FAIL: {failure}", file=sys.stderr)
    if failures:
        print(f"check_perf: a bound failed; read its $comment in "
              f"{BOUNDS} before touching it", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
