"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root, after a change that moves output bytes on
purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites every CSV and ``.meta.json`` sidecar in this directory from
:data:`CALLS` at ``--workers 1``; ``git diff tests/golden`` then shows which
cells moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

from otdetect.cli import main
from otdetect.sweep import PRESET_NAMES

GOLDEN_DIR = Path(__file__).resolve().parent

# (output name, CLI arguments).  Every preset at desk scale, then one sweep
# per swept parameter with all 8 metrics and an unequal prior; the grids
# reach N = 1, alpha0 = 0 and alpha0 = 1, where some metrics are NA.
ALL_METRICS = "pe_analytic,pe_empirical,nt_analytic,ns_empirical,ns_lb,ns_ub,dc,d_star"
CALLS = [
    *((name, ["preset", name, "--trials", "200"]) for name in PRESET_NAMES),
    ("sweep_N.csv", ["sweep", "--param", "N", "--grid", "1,2,3,5,10,30", "--metrics", ALL_METRICS,
                     "--s", "2", "--alpha0", "0.3", "--D", "2.5", "--prior-h1", "0.3",
                     "--trials", "200", "--seed", "3"]),
    ("sweep_s.csv", ["sweep", "--param", "s", "--grid", "0.5:4:0.5", "--metrics", ALL_METRICS,
                     "--N", "10", "--alpha0", "0.3", "--D", "4", "--prior-h1", "0.7",
                     "--trials", "200", "--seed", "4"]),
    ("sweep_D.csv", ["sweep", "--param", "D", "--grid", "0:8:1", "--metrics", ALL_METRICS,
                     "--N", "30", "--s", "3", "--alpha0", "0.4", "--prior-h1", "0.6",
                     "--trials", "200", "--seed", "5"]),
    ("sweep_alpha0.csv", ["sweep", "--param", "alpha0", "--grid", "0:1:0.25",
                          "--metrics", ALL_METRICS, "--N", "10", "--s", "3", "--D", "5",
                          "--prior-h1", "0.3", "--trials", "200", "--seed", "6"]),
]


def write_outputs(out_dir: Path, workers: int) -> None:
    """Run every call of :data:`CALLS`, writing its CSVs and sidecars into ``out_dir``."""
    for name, argv in CALLS:
        code = main([*argv, "--workers", str(workers), "--out", str(out_dir / name)])
        if code != 0:
            raise RuntimeError(f"otdetect {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    for old in [*GOLDEN_DIR.glob("*.csv"), *GOLDEN_DIR.glob("*.meta.json")]:
        old.unlink()
    write_outputs(GOLDEN_DIR, workers=1)
    sys.exit(0)
