#!/usr/bin/env python3
"""Steadiness check: run each workload k times and compare the spreads to the bounds.

Usage::

    python3 perfbench/steady.py --runs 10 [--sets 2] [--trace 1]

Each workload of ``BENCHMARK.json`` runs ``--runs`` times, with seeds 1, 2,
..., each run for ``BENCHMARK.json``'s ``run_seconds``.  For every end-to-end
metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread -- the distance
between the quartiles as a share of the median -- next to the metric's
bound.  A spread must stay within the bound, and is meant to stay within a
third of it.  With ``--sets 2`` a second set of
runs over the same seeds follows, and the command also checks that the
second median is no worse than the first by more than the bound and that
the share of failed operations is the same.  The exit status is 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({completed.returncode}):\n"
                         f"{completed.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    # run.py logs the host probe at the start and end of every run: a slower
    # host reads higher, so drift between runs can be told from the program.
    probes = [line for line in completed.stderr.splitlines() if line.startswith("host probe:")]
    result["host_probe"] = probes[-1].split(":", 1)[1].strip() if probes else "?"
    return result


def summarize(results: list[dict], metric: dict) -> dict:
    values = [r["metrics"][metric["name"]]["value"] for r in results]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="also make one traced run per seed and report the overhead")
    args = parser.parse_args()
    seeds = list(range(1, args.runs + 1))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for number in range(args.sets):
            results = []
            for seed in seeds:
                result = run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                    ok = False
                results.append(result)
                print(f"{workload} set {number + 1} seed {seed} ({result['wall_s']:.0f} s; "
                      f"host probe {result['host_probe']}): "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(results)
        summaries = []
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for number, results in enumerate(sets, start=1):
            summary = {"failed_share": [r["failed"] / r["attempted"] for r in results]}
            for metric in spec["end_to_end"]:
                stats = summarize(results, metric)
                summary[metric["name"]] = stats
                flag = ""
                if stats["spread"] > metric["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif stats["spread"] > metric["bound"] / 3:
                    flag = "  over a third"
                print(f"  {metric['name']:<18} {number:>3} {stats['median']:>12.4f} "
                      f"{stats['q1']:>12.4f} {stats['q3']:>12.4f} {stats['spread']:>8.3f} "
                      f"{metric['bound']:>6.2f}{flag}")
            summaries.append(summary)
        if args.sets == 2:
            first, second = summaries
            for metric in spec["end_to_end"]:
                drift = worse_by(first[metric["name"]]["median"], second[metric["name"]]["median"],
                                 metric["better"])
                verdict = "ok" if drift <= metric["bound"] else "WORSE THAN BOUND"
                ok &= drift <= metric["bound"]
                print(f"  {metric['name']:<18} second median worse by {drift:+.3f} ({verdict})")
            same = sorted(first["failed_share"]) == sorted(second["failed_share"])
            ok &= same
            print(f"  failed share identical across sets: {same}")
        if args.trace:
            traced = [run_once(spec["command"], workload, seed, spec["run_seconds"], 1)
                      for seed in seeds]
            p50 = statistics.median(t["metrics"]["trace.latency_p50_ms"]["value"] for t in traced)
            untraced = summaries[0]["latency_p50_ms"]["median"]
            print(f"  tracing overhead on latency_p50_ms: {p50 / untraced - 1.0:+.3f} "
                  f"(traced {p50:.3f} ms, untraced {untraced:.3f} ms)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
