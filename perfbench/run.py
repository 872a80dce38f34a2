"""otdetect benchmark: one workload, measured end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig2_n10 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload untraced for half the time and traced for the other half
and reports the per-layer metrics.  Every run checks each grid point the
CLI wrote against the independent oracles in oracle.py.  A report goes to
stdout and to perfbench/_out/; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  See NOTES.md for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import oracle
from spans import FIELDS, LAYERS, layer_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Set-up samples taken before and again after the measured loop: host speed
# drifts over tens of seconds, so samples spread over the run are steadier.
SETUP_REPEATS = 2
SETUP_CODE = (
    "import time; t = time.perf_counter(); import otdetect.cli; "
    "print(time.perf_counter() - t)"
)
SETUP_TIMEOUT_S = 30
WORKER_GRACE_S = 60  # a call that starts just before the deadline may run this long
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "protocol.run_batch.calls": "count",
    "protocol.trials": "count",
    "protocol.run_batch.self_s": "s",
    "protocol.run_batch.us_per_trial": "us",
    "protocol.stop_fraction": "ratio",
    "analysis.transmission_savings_bounds.self_s": "s",
    "analysis.transmission_savings_bounds.ms_per_point": "ms",
    "analysis.expected_transmissions.self_s": "s",
    "analysis.expected_transmissions.samples": "count",
    "analysis.analytic_error_probs.self_s": "s",
    "attack.self_s": "s",
    "core.calls": "count",
    "core.self_s": "s",
    "sweep.points": "count",
    "sweep.self_s": "s",
    "sweep.emit_csv_s": "s",
    "sweep.csv_bytes": "bytes",
    "sweep.parallel_efficiency": "ratio",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds for a fresh interpreter to import otdetect.cli, once per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("importing otdetect.cli did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"cannot import otdetect.cli:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(env, workload: str, seed: int, seconds: float, workers: int,
               out_dir: Path, traced: bool) -> dict:
    """Run one worker process to completion and return its result."""
    result_path = out_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--workers", str(workers), "--out", str(out_dir), "--result", str(result_path),
    ] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} failed:\n{proc.stderr.strip()}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_calls(workload, calls: list[dict], identity_points: set[int]) -> tuple[int, int]:
    """(attempted, failed) grid points over all calls, against the oracles."""
    attempted = failed = 0
    for call in calls:
        attempted += workload.points
        if call["exit"] != 0:
            failed += workload.points
            continue
        for alpha0, path in zip(workload.alpha0s, workload.csv_paths(Path(call["dir"]))):
            try:
                _, rows = oracle.read_csv(path)
            except (OSError, ValueError, StopIteration):
                failed += len(workload.d_grid)
                continue
            verdicts = oracle.check_rows(workload, alpha0, rows, identity_points)
            failed += verdicts.count(False)
    return attempted, failed


def csv_digests(workload, call: dict) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in workload.csv_paths(Path(call["dir"]))
        if path.is_file()
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, as text."""
    n = len(values)
    if n <= 10:
        return "p-- (fewer than 11 samples)"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"


def summary_line(name: str, unit: str, values: list[float]) -> str:
    return (f"  {name:<12} median {statistics.median(values):.6g} {unit}  "
            f"mean {statistics.fmean(values):.6g} {unit}  "
            f"{tail_percentile(values)}  n={len(values)}")


def provenance(args, workers: int, digests: dict[str, str]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "csv_sha256_first_call": digests,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "otdetect" / "cli.py").is_file():
        raise BenchError(f"no otdetect sources under {SRC}")
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    # The sweep pool never gets more threads than this process may use.
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    env = child_env()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup = measure_setup(env)
        if args.trace:
            half = args.seconds / 2.0
            plain = run_worker(env, args.workload, args.seed, half, workers,
                               run_dir / "plain", traced=False)
            traced = run_worker(env, args.workload, args.seed, half, workers,
                                run_dir / "traced", traced=True)
            calls = plain["calls"] + traced["calls"]
            measured = plain
        else:
            measured = run_worker(env, args.workload, args.seed, args.seconds, workers,
                                  run_dir / "plain", traced=False)
            calls = measured["calls"]
        setup += measure_setup(env)
        identity_points = set(random.Random(args.seed).sample(range(len(workload.d_grid)), 2))
        attempted, failed = check_calls(workload, calls, identity_points)
        digests = csv_digests(workload, calls[0])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wall = [c["wall_s"] for c in measured["calls"]]
    cpu = [c["cpu_s"] for c in measured["calls"]]
    trials = workload.trials * workload.points
    report = {
        "provenance": provenance(args, workers, digests),
        "setup_s": setup,
        "wall_s": wall,
        "cpu_s": cpu,
        "trials_per_s": [trials / w for w in wall] if trials else None,
        "peak_rss_mb": measured["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "oracle_identity_points": sorted(workload.d_grid[i] for i in identity_points),
    }

    print(f"otdetect benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  why: {workload.why}")
    print("  " + json.dumps(report["provenance"], sort_keys=True))
    print(summary_line("setup_s", "s", setup))
    print(summary_line("wall_s", "s", wall))
    print(summary_line("cpu_s", "s", cpu))
    if trials:
        print(summary_line("trials_per_s", "1/s", report["trials_per_s"]))
    print(f"  {'peak_rss_mb':<12} {measured['peak_rss_mb']:.6g} MB")
    print(f"  {'error_rate':<12} {failed}/{attempted} = {failed / attempted:.6g}")

    if args.trace:
        # A call that failed may have left spans without their attributes.
        ok_calls = {i for i, c in enumerate(traced["calls"]) if c["exit"] == 0}
        spans = [s for s in traced["spans"] if s[FIELDS.index("call")] in ok_calls]
        if not spans:
            raise BenchError("no traced call succeeded")
        table = layer_table(spans)
        table["trace_overhead_s"] = (
            statistics.median(c["wall_s"] for c in traced["calls"]) - statistics.median(wall)
        )
        report["per_layer"] = table
        print("  per-layer, median per CLI call over "
              f"{len(traced['calls'])} traced calls:")
        for name, unit in PER_LAYER.items():
            print(f"    {name:<48} {table[name]:.6g} {unit}")
        ranking = sorted(LAYERS, key=lambda layer: -table[f"layer.{layer}.self_s"])
        print("  layer self time, largest first: " + ", ".join(
            f"{layer} {table[f'layer.{layer}.self_s']:.4g} s" for layer in ranking))
        (OUT / f"spans_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps(spans), encoding="utf-8")
        metrics = {name: {"value": table[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            # Means, not medians: see "Steadiness and bounds" in NOTES.md.
            "wall_s": statistics.fmean(wall),
            "cpu_s": statistics.fmean(cpu),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    (OUT / f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
