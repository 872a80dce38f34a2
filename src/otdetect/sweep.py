"""Parameter-sweep drivers: grid evaluation, CSV emission, text summaries.

A sweep varies one model parameter over a grid and evaluates a requested
set of metrics at each point, carrying a standard-error column for every
Monte-Carlo metric.  Output is deterministic for a fixed (spec, seed):
every grid point derives its randomness from the spec seed alone, so runs
are byte-reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .analysis import analytic_error_probs, transmission_savings_bounds
from .attack import deflection_coefficient, optimal_attack_strength
from .core import ModelConfig
from .protocol import expected_transmissions, run_batch

__all__ = [
    "SpecError",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "emit_csv",
    "load_csv",
    "summarize",
    "preset_specs",
    "PRESET_NAMES",
    "METRICS",
]

# Parameter names of the CLI and of sweeps -> the ModelConfig fields they set.
PARAM_FIELDS = {
    "N": "n_sensors",
    "s": "signal",
    "sigma2": "noise_var",
    "alpha0": "byz_frac",
    "D": "attack_strength",
    "prior_h1": "prior_h1",
}
SWEEP_PARAMS = ("N", "s", "D", "alpha0")
METRICS = (
    "pe_analytic",
    "pe_empirical",
    "nt_analytic",
    "ns_empirical",
    "ns_lb",
    "ns_ub",
    "dc",
    "d_star",
)
# Metrics estimated by Monte Carlo; each gets a companion "<name>_se" column.
MC_METRICS = frozenset({"pe_empirical", "ns_empirical", "nt_analytic"})


class SpecError(ValueError):
    """An experiment specification that cannot be run."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep request.

    ``grid`` must be nonempty and strictly increasing; ``metrics`` must be a
    nonempty subset of :data:`METRICS`.  ``n_trials`` is the Monte-Carlo
    budget per grid point (also used as the sample budget of the
    nt_analytic estimator, floored at its minimum of 1000).
    """

    base: ModelConfig
    sweep_param: str
    grid: tuple[float, ...]
    metrics: tuple[str, ...]
    n_trials: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sweep_param not in SWEEP_PARAMS:
            raise SpecError(f"sweep_param must be one of {SWEEP_PARAMS}, got {self.sweep_param!r}")
        if len(self.grid) == 0:
            raise SpecError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise SpecError("grid must be strictly increasing")
        if len(self.metrics) == 0:
            raise SpecError("metrics must be nonempty")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise SpecError(f"unknown metrics {unknown}; choose from {METRICS}")
        if self.n_trials < 1:
            raise SpecError(f"n_trials must be >= 1, got {self.n_trials}")
        if not 0 <= self.seed < 2**64:
            raise SpecError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.sweep_param == "N" and any(
            not 1 <= v < math.inf or v != int(v) for v in self.grid
        ):
            raise SpecError("an N grid must contain positive integers")
        # Every grid point must form a valid config with a finite dc, so that
        # no point can fail once the spec is built.
        for value in self.grid:
            cfg = self.config_at(value)
            if "dc" in self.metrics:
                try:
                    deflection_coefficient(cfg)
                except ValueError as exc:
                    raise SpecError(str(exc)) from exc

    def config_at(self, value: float) -> ModelConfig:
        """The model config at one grid value of the swept parameter."""
        cast = int if self.sweep_param == "N" else float
        try:
            return self.base.replace(**{PARAM_FIELDS[self.sweep_param]: cast(value)})
        except ValueError as exc:
            raise SpecError(f"grid value {value} invalid for {self.sweep_param}: {exc}") from exc

    def columns(self) -> tuple[str, ...]:
        cols = [self.sweep_param]
        for m in self.metrics:
            cols.append(m)
            if m in MC_METRICS:
                cols.append(m + "_se")
        return tuple(cols)

    def config_hash(self) -> str:
        """SHA-256 of the spec's fields as sorted-key JSON (recorded in the sidecar)."""
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SweepResult:
    """Tabular sweep output: one row per grid point, plus provenance."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]
    provenance: dict = field(default_factory=dict)

    def column(self, name: str) -> list[float | None]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _evaluate_point(spec: SweepSpec, value: float) -> tuple[float | None, ...]:
    cfg = spec.config_at(value)
    wanted = set(spec.metrics)
    cells: dict[str, float | None] = {spec.sweep_param: float(value)}
    if wanted & {"pe_empirical", "ns_empirical"}:
        batch = run_batch(cfg, spec.n_trials, spec.seed)
        cells["pe_empirical"], cells["pe_empirical_se"] = batch.pe.value, batch.pe.se
        saved = batch.mean_saved
        cells["ns_empirical"], cells["ns_empirical_se"] = saved.value, saved.se
    if "nt_analytic" in wanted:
        est = expected_transmissions(cfg, max(spec.n_trials, 1000), spec.seed)
        cells["nt_analytic"], cells["nt_analytic_se"] = est.value, est.se
    if wanted & {"ns_lb", "ns_ub"} and cfg.n_sensors >= 2:
        bounds = transmission_savings_bounds(cfg)
        cells["ns_lb"], cells["ns_ub"] = bounds.lb_saved, bounds.ub_saved
    if "pe_analytic" in wanted:
        cells["pe_analytic"] = analytic_error_probs(cfg).p_e
    if "dc" in wanted:
        cells["dc"] = deflection_coefficient(cfg).dc
    # Undefined without compromised sensors: an explicit NA cell.
    if "d_star" in wanted and cfg.byz_frac > 0:
        cells["d_star"] = optimal_attack_strength(cfg)
    return tuple(cells.get(c) for c in spec.columns())


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _process_count(workers: int, points: int) -> int:
    """Processes a sweep of ``points`` grid points runs on when ``workers`` are asked for.

    Capped by the grid length and the CPUs this process may use; 1 where
    ``os.fork`` does not exist.
    """
    if not hasattr(os, "fork"):
        return 1
    return min(workers, points, _usable_cpus())


def _run_child_share(spec: SweepSpec, first: int, step: int, write_fd: int) -> None:
    """In a forked child: pickle one share into ``write_fd`` and exit, never returning.

    The share is the rows of points ``first``, ``first + step``, ..., or the
    exception that stopped them.  ``os._exit`` skips the caller's cleanup
    and leaves the stdio buffers inherited from the parent unflushed, so
    nothing the parent has printed is printed twice.
    """
    status = 1
    try:
        try:
            share = [_evaluate_point(spec, value) for value in spec.grid[first::step]]
        except Exception as exc:
            share = exc
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(share, fh)
        status = 0
    finally:
        os._exit(status)


def _evaluate_grid(spec: SweepSpec, w: int) -> list[tuple[float | None, ...]]:
    """Rows of every grid point, in grid order; process j of ``w`` evaluates points j, j + w, ...

    The calling process is process 0 and forks the other ``w - 1``; with
    ``w = 1`` this is a plain loop.  An error raised in any process reaches
    the caller, and every child is reaped on every path.
    """
    pids: list[int] = []
    pipes = []
    try:
        for j in range(1, w):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child_share(spec, j, w, write_fd)
            finally:
                os.close(write_fd)  # the parent's copy; a child never gets here
            pids.append(pid)
        shares = [[_evaluate_point(spec, value) for value in spec.grid[::w]]]
        for pipe in pipes:
            data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            pids.pop(0)
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a sweep worker process failed (exit code {code})")
            share = pickle.loads(data)
            if isinstance(share, Exception):
                raise share
            shares.append(share)
    finally:
        _kill(pids)
        for pipe in pipes:
            pipe.close()
    return [shares[i % w][i // w] for i in range(len(spec.grid))]


def _kill(pids: list[int]) -> None:
    """Kill and reap the children in ``pids``, emptying it."""
    while pids:
        pid = pids.pop()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate every grid point of ``spec``; rows come back in grid order.

    The grid is split round-robin over ``workers`` processes, capped by the
    grid length and the usable CPUs: the caller evaluates its share and
    forks one child per other share (no fork with one process, or where
    ``os.fork`` does not exist).  Every point derives its randomness from
    the spec alone, so the result is a pure function of the spec and the
    same at every worker count.  ``SweepSpec`` checks every point when it
    is built, so a sweep that would fail is refused before anything runs.
    A fork copies only the calling thread: a caller whose other threads may
    hold locks should keep ``workers = 1``.
    """
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    rows = _evaluate_grid(spec, _process_count(workers, len(spec.grid)))
    provenance = {
        "config_hash": spec.config_hash(),
        "seed": spec.seed,
        "version": __version__,
    }
    return SweepResult(columns=spec.columns(), rows=tuple(rows), provenance=provenance)


def _format_cell(value: float | None) -> str:
    return "NA" if value is None else repr(float(value))


def emit_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep table as UTF-8 CSV with LF line endings.

    Floats are written in shortest round-trip decimal form, missing values
    as ``NA``.  A ``<path>.meta.json`` sidecar records the provenance
    (config hash, seed, tool version).
    """
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(result.columns)
            for row in result.rows:
                writer.writerow([_format_cell(v) for v in row])
        meta = Path(str(path) + ".meta.json")
        with open(meta, "w", encoding="utf-8") as fh:
            json.dump(result.provenance, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path}: {exc}") from exc
    return path


def load_csv(path: str | Path) -> SweepResult:
    """Read back a CSV written by :func:`emit_csv` (values parse exactly)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        rows = tuple(
            tuple(None if cell == "NA" else float(cell) for cell in row) for row in reader
        )
    return SweepResult(columns=header, rows=rows)


def summarize(result: SweepResult) -> str:
    """Aligned plain-text table plus extrema of the savings/error metrics."""
    if not result.rows:
        raise ValueError("cannot summarize an empty result")
    header = list(result.columns)
    body = [[_format_shown(v) for v in row] for row in result.rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in body]
    param = result.columns[0]
    param_vals = result.column(param)
    for name in result.columns[1:]:
        if name.endswith("_se"):
            continue
        pairs = [(v, x) for v, x in zip(result.column(name), param_vals) if v is not None]
        if not pairs:
            continue
        if name.startswith("ns_"):
            v, x = min(pairs)
            lines.append(f"min {name} = {v:.6g} at {param} = {x:g}")
        elif name.startswith("pe_"):
            v, x = max(pairs)
            lines.append(f"max {name} = {v:.6g} at {param} = {x:g}")
    return "\n".join(lines)


def _format_shown(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6g}"


_DESK_N_GRID = (5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)
_PAPER_N_GRID = (10.0, 25.0, 50.0, 100.0, 200.0, 300.0)
# name -> (metrics, default trials, D-grid step or None for an N sweep,
#          N at desk scale, N at paper scale)
_PRESETS = {
    "fig1a": (("ns_empirical",), 4000, None, 10, 10),
    "fig1b": (("pe_analytic", "pe_empirical"), 4000, None, 10, 10),
    "fig2": (("ns_empirical", "nt_analytic"), 20_000, 0.5, 10, 10),
    "fig3": (("ns_empirical", "ns_lb", "ns_ub"), 4000, 1.0, 100, 300),
    "fig4": (("pe_analytic", "pe_empirical"), 10_000, 0.5, 100, 300),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_specs(
    name: str,
    paper_scale: bool = False,
    n_trials: int | None = None,
    seed: int = 0,
) -> list[tuple[str, SweepSpec]]:
    """Named experiment presets as (label, spec) pairs, one spec per curve.

    Shared assumptions: equal priors, noise_var = 1.  The N sweeps draw one
    curve per signal strength s in {0.5, 4} at alpha0 = 0.3, D = 6.  The D
    sweeps run from 0 to 12 and fix s = 3 so the blinding strength lands at
    5 for a 0.3 compromised fraction (and 3 for 0.5).  At desk scale the
    large-network presets run with N = 100; ``paper_scale`` raises them to
    N = 300 and widens the N sweeps.
    """
    if name not in _PRESETS:
        raise SpecError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    metrics, default_trials, d_step, desk_n, paper_n = _PRESETS[name]
    if d_step is None:
        param, grid = "N", _PAPER_N_GRID if paper_scale else _DESK_N_GRID
        curves = [
            (f"s{s:g}", dict(signal=s, byz_frac=0.3, attack_strength=6.0)) for s in (0.5, 4.0)
        ]
    else:
        param, grid = "D", tuple(i * d_step for i in range(int(round(12.0 / d_step)) + 1))
        curves = [
            (f"alpha{a:g}", dict(signal=3.0, byz_frac=a, attack_strength=0.0)) for a in (0.3, 0.5)
        ]
    n_sensors = paper_n if paper_scale else desk_n
    return [
        (
            label,
            SweepSpec(
                base=ModelConfig(n_sensors=n_sensors, noise_var=1.0, **fields),
                sweep_param=param,
                grid=grid,
                metrics=metrics,
                n_trials=default_trials if n_trials is None else n_trials,
                seed=seed,
            ),
        )
        for label, fields in curves
    ]
