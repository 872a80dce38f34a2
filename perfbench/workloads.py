"""The benchmark's workloads: one otdetect CLI call each, repeated in a closed loop.

Each workload is a fixed command line plus a per-call seed.  The model
parameters are recorded here too, because the oracle checks need them and
must not read them back from the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_sensors: int
    signal: float
    alpha0s: tuple[float, ...]
    d_grid: tuple[float, ...]
    trials: int  # Monte-Carlo trials per grid point; 0 when no run_batch call is made
    metrics: tuple[str, ...]
    preset: str | None = None  # CLI preset name, or None for an explicit sweep
    workers: int = 1  # sweep threads; the benchmark caps this at nproc

    @property
    def points(self) -> int:
        """Grid points one CLI call evaluates (one CSV row each)."""
        return len(self.alpha0s) * len(self.d_grid)

    def argv(self, seed: int, out_dir: Path, workers: int) -> list[str]:
        """The CLI arguments of one call, writing its CSVs under ``out_dir``."""
        common = ["--seed", str(seed), "--workers", str(workers)]
        if self.trials:
            common += ["--trials", str(self.trials)]
        if self.preset is not None:
            return ["preset", self.preset, *common, "--out", str(out_dir / self.preset)]
        step = self.d_grid[1] - self.d_grid[0]
        (alpha0,) = self.alpha0s
        return [
            "sweep",
            "--param", "D",
            "--grid", f"{self.d_grid[0]:g}:{self.d_grid[-1]:g}:{step:g}",
            "--metrics", ",".join(self.metrics),
            "--N", str(self.n_sensors),
            "--s", f"{self.signal:g}",
            "--alpha0", f"{alpha0:g}",
            *common,
            "--out", str(out_dir / f"{self.name}.csv"),
        ]

    def csv_paths(self, out_dir: Path) -> list[Path]:
        """The CSV files one call writes, one per α0 curve, in α0 order."""
        if self.preset is not None:
            return [out_dir / f"{self.preset}_alpha{a:g}.csv" for a in self.alpha0s]
        return [out_dir / f"{self.name}.csv"]


def _d_grid(step: float, stop: float = 12.0) -> tuple[float, ...]:
    return tuple(i * step for i in range(int(round(stop / step)) + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig2_n10",
            why="run_batch on short rows (N=10), where per-call numpy overhead dominates; "
            "the sweep thread pool runs with 2 workers",
            n_sensors=10,
            signal=3.0,
            alpha0s=(0.3, 0.5),
            d_grid=_d_grid(0.5),
            trials=1000,
            metrics=("ns_empirical", "nt_analytic"),
            preset="fig2",
            workers=2,
        ),
        Workload(
            name="mc_n300",
            why="run_batch on long rows (N=300), where argsort and cumsum dominate "
            "and the stop position moves from early to about N along the D grid",
            n_sensors=300,
            signal=3.0,
            alpha0s=(0.3,),
            d_grid=_d_grid(1.0),
            trials=1000,
            metrics=("pe_analytic", "pe_empirical", "ns_empirical"),
        ),
        Workload(
            name="bounds_n300",
            why="transmission_savings_bounds at N=300 does almost all the work through "
            "quad and brentq; protocol is never called",
            n_sensors=300,
            signal=3.0,
            alpha0s=(0.3,),
            d_grid=_d_grid(4.0),
            trials=0,
            metrics=("ns_lb", "ns_ub", "pe_analytic", "dc", "d_star"),
        ),
    )
}
