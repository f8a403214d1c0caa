#!/usr/bin/env python3
"""Run two sets of benchmark runs of one tree and check that they agree.

Usage (from the repository root):

    python3 perfbench/steadiness.py

Each set makes ten untraced runs of every workload in BENCHMARK.json, each
with its own seed (set 1 uses seeds 1-10, set 2 seeds 11-20), for the
``run_seconds`` in BENCHMARK.json. For each workload and end-to-end metric it
prints both sets' medians and quartiles and the spread (quartile distance
over median), and checks the rules a benchmark must meet to be trusted:

- every run is correct;
- each spread is within the metric's bound;
- the two sets' medians differ by no more than the bound, as a share of the
  first set's median;
- the share of failed invocations is the same in both sets.

Exits 1 if any rule fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload in each set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [{w: [] for w in workloads} for _ in range(2)]
    for s, results in enumerate(sets):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for w in workloads:
                result = run_once(w, seed, bench["run_seconds"])
                results[w].append(result)
                values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"set {s + 1} {w} seed={seed} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)

    ok = True
    print(f"\n{'workload':9} {'metric':12} {'set':>3} {'median':>9} {'q1':>9} {'q3':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        shares = []
        for results in sets:
            ok &= all(r["correct"] for r in results[w])
            shares.append(sum(r["failed"] for r in results[w]) / sum(r["attempted"] for r in results[w]))
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between sets: {shares[0]} vs {shares[1]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in results[w]]) for results in sets]
            for s, (med, q1, q3, sp) in enumerate(stats):
                verdicts = []
                if sp > bound:
                    verdicts.append("SPREAD OVER BOUND")
                    ok = False
                if s == 1:
                    change = (med - stats[0][0]) / stats[0][0]
                    verdicts.append(f"median {change:+.3f} vs set 1")
                    if abs(change) > bound:
                        verdicts.append("MEDIANS DIFFER BY MORE THAN BOUND")
                        ok = False
                print(f"{w:9} {name:12} {s + 1:>3} {med:9.4f} {q1:9.4f} {q3:9.4f} {sp:7.3f} "
                      f"{bound:6.2f}  {'; '.join(verdicts)}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
