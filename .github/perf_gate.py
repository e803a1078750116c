#!/usr/bin/env python3
"""Back-to-back benchmark gate: the checked-out commit against its parent.

Usage, from a git checkout that holds the parent commit too (CI checks out
with fetch-depth 2):

    python3 .github/perf_gate.py

The parent (HEAD^1) and the change (HEAD) are checked out into temporary
git worktrees, so the checkout itself is never touched. The change's
perfbench/ and BENCHMARK.json are copied over the parent's, so both sides
run the same benchmark code; each side builds into its own target
directory. BENCHMARK.json names the workloads, the end-to-end metrics with
their direction and bound, and the run length. Every workload runs PAIRS
alternated pairs: pair i uses seed i on both sides, and the side that runs
first flips every pair.

A metric regresses when the change's median is worse than the parent's by
a ratio above 1 + bound, in the metric's own direction. It is unresolved
when the parent's spread (IQR over median) is wider than the bound, unless
every run of the change reads better than every run of the parent;
unresolved metrics are reported but do not fail the gate. The gate also
fails when a run exits non-zero, prints no result line, lacks a metric or
reports correct: false, and when the change fails a larger share of the
operations it attempted than the parent.

Every verdict is printed; the last line of standard output is one JSON
object with both commits, the host, and per workload and metric the two
medians, the parent's IQR and the verdict. The exit status is 1 when the
gate fails.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3
SIDES = (("parent", "HEAD^1"), ("change", "HEAD"))
# Fingerprint fields that describe the run rather than the host.
PER_RUN_FIELDS = ("git_sha", "workload", "seed", "telemetry")


def quartiles(values):
    """(first quartile, median, third quartile), interpolating between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse_ratio(parent, change, better):
    """How many times worse `change` reads than `parent`; above 1 is worse."""
    worse, base = (change, parent) if better == "lower" else (parent, change)
    if base <= 0:
        return 1.0 if worse <= 0 else math.inf
    return worse / base


def compare(parent_runs, change_runs, better, bound):
    """The medians, the parent's IQR and the verdict for one metric."""
    q1, parent_median, q3 = quartiles(parent_runs)
    change_median = statistics.median(change_runs)
    if q3 - q1 > bound * abs(parent_median):
        always_better = all(
            worse_ratio(p, c, better) < 1 for p in parent_runs for c in change_runs
        )
        verdict = "ok" if always_better else "unresolved"
    elif worse_ratio(parent_median, change_median, better) > 1 + bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "verdict": verdict,
    }


def parse_run(returncode, stdout, metrics):
    """One perfbench run's counts, metric values and host fingerprint.

    Raises ValueError naming what makes the run unusable.
    """
    if returncode != 0:
        raise ValueError(f"exited with status {returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise ValueError("printed no result line") from None
    if result.get("correct") is not True:
        raise ValueError("reported correct: false")
    missing = [name for name in metrics if name not in values]
    if missing:
        raise ValueError("result line lacks " + ", ".join(missing))
    host = next((json.loads(line[6:]) for line in lines if line.startswith("host: ")), {})
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "values": {name: float(values[name]["value"]) for name in metrics},
        "host": {key: value for key, value in host.items() if key not in PER_RUN_FIELDS},
    }


def failed_share(runs):
    return sum(run["failed"] for run in runs) / max(sum(run["attempted"] for run in runs), 1)


def judge(benchmark, results):
    """Verdicts per workload and metric, and the reasons the gate fails.

    `results` maps each workload to its parsed "parent" and "change" runs.
    """
    report, failures = {}, []
    for workload, runs in results.items():
        if not runs["parent"] or not runs["change"]:
            continue
        report[workload] = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = compare(
                [run["values"][name] for run in runs["parent"]],
                [run["values"][name] for run in runs["change"]],
                metric["better"],
                metric["bound"],
            )
            report[workload][name] = row
            if row["verdict"] == "regressed":
                failures.append(f"{workload} {name} regressed beyond its bound of {metric['bound']}")
        parent_share, change_share = failed_share(runs["parent"]), failed_share(runs["change"])
        if change_share > parent_share:
            failures.append(f"{workload} failed share rose from {parent_share:.3g} to {change_share:.3g}")
    return report, failures


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def run_perfbench(tree, target, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    return run.returncode, run.stdout


def main():
    shas = {side: git("rev-parse", rev) for side, rev in SIDES}
    results, failures, host = {}, [], {}
    with tempfile.TemporaryDirectory(prefix="perf_gate_") as scratch:
        trees = {}
        try:
            for side, sha in shas.items():
                path = os.path.join(scratch, side)
                git("worktree", "add", "--detach", "--quiet", path, sha)
                trees[side] = path
            shutil.rmtree(os.path.join(trees["parent"], "perfbench"))
            shutil.copytree(os.path.join(trees["change"], "perfbench"),
                            os.path.join(trees["parent"], "perfbench"))
            shutil.copy2(os.path.join(trees["change"], "BENCHMARK.json"), trees["parent"])
            with open(os.path.join(trees["change"], "BENCHMARK.json")) as file:
                benchmark = json.load(file)
            metrics = [metric["name"] for metric in benchmark["end_to_end"]]
            for workload in (entry["name"] for entry in benchmark["workloads"]):
                results[workload] = {"parent": [], "change": []}
                for seed in range(1, PAIRS + 1):
                    order = ("parent", "change") if seed % 2 else ("change", "parent")
                    for side in order:
                        target = os.path.join(scratch, side + "-target")
                        returncode, stdout = run_perfbench(
                            trees[side], target, workload, seed, benchmark["run_seconds"])
                        try:
                            run = parse_run(returncode, stdout, metrics)
                        except ValueError as error:
                            failures.append(f"{workload} {side} seed {seed}: {error}")
                            continue
                        results[workload][side].append(run)
                        host = host or run["host"]
        finally:
            for tree in trees.values():
                git("worktree", "remove", "--force", tree)
    report, regressions = judge(benchmark, results)
    failures += regressions
    for workload, rows in report.items():
        for name, row in rows.items():
            print(f"{workload:<16} {name:<16} parent {row['parent_median']:<12.6g} "
                  f"[IQR {row['parent_iqr']:.3g}]  change {row['change_median']:<12.6g} "
                  f"{row['verdict']}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print(json.dumps({
        "parent": shas["parent"],
        "change": shas["change"],
        "host": host,
        "pairs": PAIRS,
        "run_seconds": benchmark["run_seconds"],
        "passed": not failures,
        "workloads": report,
    }, separators=(",", ":")))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
