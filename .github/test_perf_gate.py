"""Unit tests of the benchmark gate's verdicts; no benchmark runs.

    python3 -m unittest discover -s .github -p 'test_perf_gate.py'
"""

import json
import os
import unittest

import perf_gate

with open(os.path.join(perf_gate.ROOT, "BENCHMARK.json")) as file:
    BENCHMARK = json.load(file)
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}


def verdict(name, parent_runs, change_runs):
    metric = METRICS[name]
    return perf_gate.compare(parent_runs, change_runs, metric["better"], metric["bound"])["verdict"]


def result_line(correct=True, attempted=100, failed=0, drop=()):
    metrics = {name: {"value": 1.0, "unit": metric["unit"]}
               for name, metric in METRICS.items() if name not in drop}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def stdout(line):
    host = '{"nproc":2,"cpu":"x","avx2":true,"avx512f":true,"rustc":"r",' \
           '"git_sha":"unknown","workload":"w","seed":1,"telemetry":false}'
    return f"host: {host}\ncheck: ok\n{line}\n"


def parse(text, returncode=0):
    return perf_gate.parse_run(returncode, text, list(METRICS))


class Verdicts(unittest.TestCase):
    PARENT = [990.0, 1000.0, 1010.0]

    def test_a_drop_in_throughput_regresses_beyond_its_bound_only(self):
        self.assertEqual(verdict("decisions_per_s", self.PARENT, [1000 / 1.3] * 3), "regressed")
        self.assertEqual(verdict("decisions_per_s", self.PARENT, [1000 / 1.2] * 3), "ok")

    def test_a_rise_in_latency_regresses(self):
        self.assertEqual(verdict("decision_p50_us", self.PARENT, [1300.0] * 3), "regressed")
        self.assertEqual(verdict("decision_p50_us", self.PARENT, [800.0] * 3), "ok")

    def test_peak_rss_is_held_to_its_tighter_bound(self):
        self.assertEqual(METRICS["peak_rss_mb"]["bound"], 0.15)
        self.assertEqual(verdict("peak_rss_mb", self.PARENT, [1160.0] * 3), "regressed")
        self.assertEqual(verdict("peak_rss_mb", self.PARENT, [1140.0] * 3), "ok")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [600.0, 1000.0, 1400.0]
        self.assertEqual(verdict("setup_s", noisy, [2000.0] * 3), "unresolved")
        self.assertEqual(verdict("setup_s", noisy, [1000.0] * 3), "unresolved")
        self.assertEqual(verdict("setup_s", noisy, [500.0] * 3), "ok")


class Failures(unittest.TestCase):
    def judge(self, parent_text, change_text):
        runs = {"w": {"parent": [parse(parent_text)], "change": [parse(change_text)]}}
        return perf_gate.judge(BENCHMARK, runs)[1]

    def test_equal_runs_pass(self):
        self.assertEqual(self.judge(stdout(result_line()), stdout(result_line())), [])

    def test_a_higher_failed_share_fails(self):
        failures = self.judge(stdout(result_line()), stdout(result_line(failed=1)))
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_a_regression_fails_and_names_its_workload_and_metric(self):
        change = json.loads(result_line())
        change["metrics"]["decisions_per_s"]["value"] = 0.5
        failures = self.judge(stdout(result_line()), stdout(json.dumps(change)))
        self.assertEqual(failures, ["w decisions_per_s regressed beyond its bound of 0.25"])

    def test_unusable_runs_are_refused(self):
        for text, returncode, reason in [
            (stdout(result_line(correct=False)), 0, "correct: false"),
            (stdout(result_line(drop=("decision_p50_us",))), 0, "lacks decision_p50_us"),
            ("host: {}\nperfbench: interrupted\n", 0, "no result line"),
            ("", 0, "no result line"),
            (stdout(result_line()), 1, "status 1"),
        ]:
            with self.assertRaisesRegex(ValueError, reason):
                parse(text, returncode)

    def test_the_host_fingerprint_drops_per_run_fields(self):
        host = parse(stdout(result_line()))["host"]
        self.assertEqual(sorted(host), ["avx2", "avx512f", "cpu", "nproc", "rustc"])


if __name__ == "__main__":
    unittest.main()
