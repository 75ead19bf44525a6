#!/usr/bin/env python3
"""Short-mode checks of the benchmark command against BENCHMARK.json.

    python3 perfbench/test_run.py

Run from the repository root. Each workload runs for one second: the
result must be the last stdout line, correct, and name exactly the
end-to-end metrics (untraced) or the per-layer metrics (traced) that
BENCHMARK.json lists, with their units. Bad arguments must fail
without printing a result.
"""

import json
import subprocess
import sys
import unittest

with open("BENCHMARK.json", encoding="utf-8") as f:
    SPEC = json.load(f)


def bench(*args):
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class ShortRuns(unittest.TestCase):
    def check_run(self, workload, trace, section):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result(proc)
        self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, units(section))
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], "0", "end_to_end")

    def test_traced_run(self):
        self.check_run(SPEC["workloads"][0]["name"], "1", "per_layer")

    def test_bad_arguments(self):
        for args in (
            ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            ["--workload", "pairs", "--seed", "1", "--seconds", "abc", "--trace", "0"],
            ["--workload", "pairs", "--seed", "1", "--seconds", "0", "--trace", "0"],
            ["--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ):
            with self.subTest(args=args):
                proc = bench(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
