#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``hwvqe`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload soft16 --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``. For ``--seconds`` the
benchmark runs the workload's ``hwvqe`` command again and again, one fresh
process at a time, with the numeric libraries fixed to one thread. It checks
the artifacts against reference computations, and prints as its last line a
JSON object: ``correct``, ``attempted`` and ``failed`` invocations, and the
metrics, each the median over the run's invocations. With ``--trace 0`` they
are the end-to-end metrics (``run_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` every invocation records spans at the layer boundaries and the
metrics are the per-layer ones (see tracing.py). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# OpenBLAS otherwise starts busy-waiting threads that compete with the
# process's own thread on a small machine and make wall times swing.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One invocation takes a few seconds; one that takes this long is killed and
# counts as failed.
INVOCATION_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def warm_up(env: dict[str, str]) -> None:
    """Import the program once, untimed, so bytecode and file caches are warm."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hwvqe.cli"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=INVOCATION_TIMEOUT_S)


def invoke(argv: list[str], record: Path, trace: int, env: dict[str, str]):
    """One fresh-process invocation; returns (spawn time, record) or an error."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(record), str(trace), "--", *argv]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0 or not record.is_file():
        lines = err.strip().splitlines()
        return None, f"exit {proc.returncode}: {lines[-1] if lines else ''}"
    return (spawned, json.loads(record.read_text())), None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hwvqe" / "cli.py").is_file():
        print(f"error: no hwvqe sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    case = WORKLOADS[args.workload](args.seed, work)
    env = child_env()
    warm_up(env)

    done: list[tuple[Path, float, dict]] = []
    errors: list[str] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        out = work / f"out{len(done) + len(errors)}"
        result, error = invoke(case.argv(out), work / f"{out.name}.json", args.trace, env)
        if error:
            errors.append(error)
            print(f"invocation failed: {error}", file=sys.stderr)
        else:
            done.append((out, *result))
    if not done:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1

    first = done[0][0]
    problems = case.check(first)
    for out, _, _ in done[1:]:
        for name in case.artifacts:
            if (out / name).read_bytes() != (first / name).read_bytes():
                problems.append(f"{out.name}/{name} differs from {first.name}/{name}")
    runs = [rec["end"] - rec["setup_done"] for _, _, rec in done]
    info = [f"workload={args.workload}", f"seed={args.seed}", f"invocations={len(done) + len(errors)}",
            f"threads={THREADS}", f"run_s={statistics.median(runs):.4f}"]

    if args.trace:
        layers = [rec["layers"] for _, _, rec in done]
        widest = max(layer.get("qsim.simulate", {}).get("max_qubits", 0) for layer in layers)
        if case.max_qubits is not None and widest > case.max_qubits:
            problems.append(f"a qsim.simulate call used {widest} qubits, limit {case.max_qubits}")
        per_inv = [tracing.per_layer_metrics(layer) for layer in layers]
        units = {f"{span}.{quantity}": unit for span, quantity, unit in tracing.METRICS}
        # counts repeat exactly; median_low keeps them whole numbers
        metrics = {
            name: {"value": (statistics.median_low if units[name] == "count" else statistics.median)(
                m[name] for m in per_inv), "unit": units[name]}
            for name in per_inv[0]
        }
        cobyla = statistics.median(layer.get("vqe.minimize", {}).get("self_s", 0.0) for layer in layers)
        info += [f"max_qubits={widest}", f"cobyla_self_s={cobyla:.4f}"]
        missing = done[0][2]["missing"]
        if missing:
            info.append("absent=" + ",".join(missing))
    else:
        metrics = {
            "run_s": {"value": statistics.median(runs), "unit": "s"},
            "setup_s": {"value": statistics.median(rec["setup_done"] - spawned
                                                    for _, spawned, rec in done), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rec["maxrss_kb"] / 1024 for _, _, rec in done),
                            "unit": "MB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("perfbench " + " ".join(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(done) + len(errors),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
