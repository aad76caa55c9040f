#!/usr/bin/env python3
"""Compare a perfbench run's per-layer event counts with pinned values.

A change that means to keep every simulated result bit-for-bit must also
keep the number of engine events each layer schedules. perfbench's
`--trace 1` ledger reports them as the `*.events` metrics of its last JSON
line; `.github/perfbench-event-pins.json` holds the expected counts per
workload (seed 1). Every `*.events` metric the run reports must equal its
pin, and every pin must be reported.

Usage:
    python3 perfbench/run.py --workload quartet --seed 1 --seconds 0 \\
        --trace 1 > perfbench-trace.log
    python3 tools/check_event_pins.py quartet perfbench-trace.log \\
        [.github/perfbench-event-pins.json]
"""
import json
import sys
from pathlib import Path

DEFAULT_PINS = Path(__file__).resolve().parent.parent / ".github" / "perfbench-event-pins.json"


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the log is empty")
    return json.loads(lines[-1])


def mismatches(workload, result, pins):
    """Human-readable differences between the run's event counts and the
    pins of `workload`; empty when they agree."""
    if workload not in pins:
        return [f"no pins for workload {workload!r}"]
    expected = pins[workload]
    got = {
        name: metric["value"]
        for name, metric in result.get("metrics", {}).items()
        if name.endswith(".events")
    }
    out = []
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            out.append(f"{name}: pinned {expected[name]}, not reported")
        elif name not in expected:
            out.append(f"{name}: reported {got[name]}, not pinned")
        elif got[name] != expected[name]:
            out.append(f"{name}: pinned {expected[name]}, got {got[name]}")
    return out


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    workload, log_path = argv[1], argv[2]
    pins_path = Path(argv[3]) if len(argv) == 4 else DEFAULT_PINS
    result = last_json_line(Path(log_path).read_text(encoding="utf-8"))
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    if result.get("failed", 1) != 0:
        print(f"{workload}: the run failed ({result.get('failed')} failed)")
        return 1
    diffs = mismatches(workload, result, pins)
    for line in diffs:
        print(f"{workload}: {line}")
    if not diffs:
        print(f"{workload}: {len(pins[workload])} event counts match their pins")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
