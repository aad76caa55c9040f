#!/usr/bin/env python3
"""Unit tests for check_event_pins.py. Registered with ctest as
check_event_pins_test; also runnable directly:

    python3 tools/test_check_event_pins.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_event_pins as cep  # noqa: E402

PINS = {"quartet": {"sim.events": 10, "plfs.events": 0}}


def result(events, failed=0):
    metrics = {name: {"value": float(v), "unit": "count"} for name, v in events.items()}
    metrics["sim.share"] = {"value": 0.5, "unit": "ratio"}
    return {"correct": failed == 0, "attempted": 3, "failed": failed,
            "metrics": metrics}


def run(workload, log_text):
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "run.log")
        pins = os.path.join(tmp, "pins.json")
        with open(log, "w", encoding="utf-8") as f:
            f.write(log_text)
        with open(pins, "w", encoding="utf-8") as f:
            json.dump(PINS, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cep.main(["check_event_pins.py", workload, log, pins])
        return code, out.getvalue()


class CheckEventPins(unittest.TestCase):
    def test_equal_counts_pass(self):
        text = "perfbench: built\n" + json.dumps(
            result({"sim.events": 10, "plfs.events": 0})) + "\n"
        code, out = run("quartet", text)
        self.assertEqual(code, 0, out)

    def test_changed_count_fails(self):
        code, out = run("quartet", json.dumps(
            result({"sim.events": 11, "plfs.events": 0})))
        self.assertEqual(code, 1)
        self.assertIn("sim.events: pinned 10, got 11", out)

    def test_missing_and_unpinned_counts_fail(self):
        code, out = run("quartet", json.dumps(
            result({"sim.events": 10, "hw.disk.events": 4})))
        self.assertEqual(code, 1)
        self.assertIn("plfs.events: pinned 0, not reported", out)
        self.assertIn("hw.disk.events: reported 4.0, not pinned", out)

    def test_unknown_workload_and_failed_run_fail(self):
        good = json.dumps(result({"sim.events": 10, "plfs.events": 0}))
        self.assertEqual(run("fleet1000", good)[0], 1)
        bad = json.dumps(result({"sim.events": 10, "plfs.events": 0}, failed=1))
        self.assertEqual(run("quartet", bad)[0], 1)


if __name__ == "__main__":
    unittest.main()
