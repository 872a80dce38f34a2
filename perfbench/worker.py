"""One workload in a fresh interpreter: otdetect CLI calls in a closed loop.

Run by run.py, never by hand.  Each call goes through the public entry
point ``otdetect.cli.main(argv)``; the next call starts when the previous
one has returned, until ``--seconds`` have passed.  Writes a JSON result
with the per-call wall and CPU times, exit codes and, with ``--traced``,
the spans of every call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    import otdetect.cli

    cli_main = otdetect.cli.main
    tracer = None
    if args.traced:
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap(ROOT, cli_main)

    call_seeds = random.Random(args.seed)
    calls = []
    with open(os.devnull, "w") as devnull:
        start = perf_counter()
        while not calls or perf_counter() - start < args.seconds:
            index = len(calls)
            seed = call_seeds.getrandbits(63)
            out_dir = args.out / f"call{index:04d}"
            out_dir.mkdir(parents=True)
            argv = workload.argv(seed, out_dir, args.workers)
            if tracer is not None:
                tracer.call = index
            with contextlib.redirect_stdout(devnull):
                w0, c0 = perf_counter(), process_time()
                code = cli_main(argv)
                wall, cpu = perf_counter() - w0, process_time() - c0
            calls.append({"seed": seed, "exit": code, "wall_s": wall, "cpu_s": cpu,
                          "dir": str(out_dir)})

    result = {
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else None,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
