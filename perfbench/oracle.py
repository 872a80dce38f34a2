"""Independent correctness checks on the CSVs the CLI writes.

Nothing here imports otdetect: every reference value is derived again from
the model, by a route other than the program's own.  A grid point (one CSV
row) fails when any check on it fails; failed points feed ``error_rate``.

Model: N sensors observe y = s + n (H1) or y = n (H0), n ~ N(0, sigma^2),
sigma^2 = 1 and equal priors.  A compromised sensor (probability alpha0)
reports y - D under H1 and y + D under H0.  The fusion center decides H1
when the LLR sum  (s/sigma^2) * sum(y) - N s^2 / (2 sigma^2)  exceeds 0.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import stats

# Monte-Carlo checks fail beyond this many standard errors (two-sided).
Z_MAX = 5.0
# Tail probability of |Z| > Z_MAX, for the exact binomial form of the same test.
TAIL_MAX = 2.0 * stats.norm.sf(Z_MAX)
# Agreement of deterministic columns with their recomputation.
PE_ATOL = 1e-10
# The program integrates each order-statistic CDF to an absolute 1e-9 and sums
# 4 of them per (k, hypothesis); over 2 x 299 pairs that bounds the error by ~2.4e-6.
BOUNDS_ATOL = 3e-6


def read_csv(path: Path) -> tuple[list[str], list[dict[str, float | None]]]:
    """Header and rows of a CLI CSV, with ``NA`` cells as None."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [
            {h: (None if cell == "NA" else float(cell)) for h, cell in zip(header, row)}
            for row in reader
        ]
    return header, rows


def exact_error_probability(n: int, s: float, alpha0: float, d: float) -> float:
    """P(error) of the full-sum test, conditioning on the compromised count m.

    Given m, sum(y) is Gaussian with variance N and mean N s - m D (H1) or
    m D (H0); the test decides H1 when sum(y) > N s / 2.
    """
    m = np.arange(n + 1)
    weights = stats.binom.pmf(m, n, alpha0)
    cut = n * s / 2.0
    sd = math.sqrt(n)
    miss = stats.norm.cdf((cut - (n * s - m * d)) / sd)
    false_alarm = stats.norm.sf((cut - m * d) / sd)
    return float(0.5 * np.sum(weights * miss) + 0.5 * np.sum(weights * false_alarm))


def _llr_components(s: float, d: float, h1: bool) -> tuple[float, float, float]:
    """(honest mean, compromised mean, variance) of one sensor's LLR  s*y - s^2/2."""
    honest_y, byz_y = (s, s - d) if h1 else (0.0, d)
    return s * honest_y - s * s / 2.0, s * byz_y - s * s / 2.0, s * s


def _abs_llr_survival(w: np.ndarray, alpha0: float, comps: tuple[float, float, float]):
    """P(|L| > w) for the two-component LLR mixture."""
    honest, byz, var = comps
    sd = math.sqrt(var)

    def outside(mean):
        return stats.norm.sf((w - mean) / sd) + stats.norm.cdf((-w - mean) / sd)

    return alpha0 * outside(byz) + (1.0 - alpha0) * outside(honest)


def _order_stat_cdf(n: int, k: np.ndarray, w: np.ndarray, alpha0, comps) -> np.ndarray:
    """P(k-th largest |L| <= w) = BinomCDF(k - 1; N, P(|L| > w)); 0 for w <= 0."""
    wpos = np.maximum(w, 0.0)
    p_exceed = np.clip(_abs_llr_survival(wpos, alpha0, comps), 0.0, 1.0)
    return np.where(w > 0.0, stats.binom.cdf(k - 1, n, p_exceed), 0.0)


def savings_bounds(n: int, s: float, alpha0: float, d: float) -> tuple[float, float]:
    """(lower, upper) bound on expected transmissions saved, population mode.

    Same envelope as the program: the k-term head sum is bracketed by
    k*mean -/+ sqrt(k (N-k)/N (N-1) v) with v the N/(N-1)-scaled mixture
    variance, and each stop event becomes a threshold event on the k-th
    largest |L|.  The order-statistic CDF is evaluated through the binomial
    identity instead of quadrature.
    """
    k = np.arange(1, n)
    rem = n - k
    lb = ub = 0.0
    for h1 in (False, True):
        comps = _llr_components(s, d, h1)
        honest, byz, var = comps
        mean = alpha0 * byz + (1.0 - alpha0) * honest
        mix_var = var + alpha0 * (1.0 - alpha0) * (honest - byz) ** 2
        v = n / (n - 1) * mix_var
        rad = np.sqrt(k * (n - k) / n * (n - 1) * v)
        g_u, g_l = k * mean + rad, k * mean - rad

        def cdf(w):
            return _order_stat_cdf(n, k, w, alpha0, comps)

        ub += 0.5 * float(np.sum(np.maximum(cdf(g_u / rem), cdf(-g_l / rem))))
        lb += 0.5 * float(np.sum(cdf(g_l / rem) + cdf(-g_u / rem)))
    return lb, ub


def _close(a: float | None, b: float, atol: float) -> bool:
    return a is not None and math.isfinite(a) and abs(a - b) <= atol + 1e-9 * abs(b)


def _binomial_consistent(pe: float | None, p: float, trials: int) -> bool:
    """Exact two-sided binomial test of an empirical error rate against p."""
    if pe is None:
        return False
    errors = pe * trials
    x = round(errors)
    if abs(errors - x) > 1e-6 * trials:
        return False
    tail = min(stats.binom.cdf(x, trials, p), stats.binom.sf(x - 1, trials, p))
    return 2.0 * tail >= TAIL_MAX


def _z_consistent(a: float | None, se_a, b: float | None, se_b) -> bool:
    if None in (a, se_a, b, se_b):
        return False
    se = math.hypot(se_a, se_b)
    return abs(a - b) <= Z_MAX * se


def _in_range(x: float | None, lo: float, hi: float) -> bool:
    return x is not None and math.isfinite(x) and lo <= x <= hi


def _check_fig2(workload, alpha0: float, d: float, row: dict, identity: bool) -> bool:
    # The nt_analytic estimator is valid at N = 10 only (ROADMAP item 4).
    n = workload.n_sensors
    ns = row.get("ns_empirical")
    return _in_range(ns, 0.0, n - 1) and _z_consistent(
        row.get("nt_analytic"), row.get("nt_analytic_se"), n - ns, row.get("ns_empirical_se")
    )


def _check_mc(workload, alpha0: float, d: float, row: dict, identity: bool) -> bool:
    p = exact_error_probability(workload.n_sensors, workload.signal, alpha0, d)
    return (
        _close(row.get("pe_analytic"), p, PE_ATOL)
        and _binomial_consistent(row.get("pe_empirical"), p, workload.trials)
        and _in_range(row.get("ns_empirical"), 0.0, workload.n_sensors - 1)
    )


def _check_bounds(workload, alpha0: float, d: float, row: dict, identity: bool) -> bool:
    n, s = workload.n_sensors, workload.signal
    values = [row.get(c) for c in workload.metrics]
    if not all(v is not None and math.isfinite(v) for v in values):
        return False
    ok = (
        0.0 <= row["ns_lb"] <= row["ns_ub"] <= n - 1
        and _close(row["d_star"], s / (2.0 * alpha0), 0.0)
        and _close(row["pe_analytic"], exact_error_probability(n, s, alpha0, d), PE_ATOL)
    )
    if ok and identity:
        lb, ub = savings_bounds(n, s, alpha0, d)
        ok = _close(row["ns_lb"], lb, BOUNDS_ATOL) and _close(row["ns_ub"], ub, BOUNDS_ATOL)
    return ok


CHECKS = {"fig2_n10": _check_fig2, "mc_n300": _check_mc, "bounds_n300": _check_bounds}


def check_rows(workload, alpha0: float, rows: list[dict], identity_points: set[int]) -> list[bool]:
    """One pass/fail per expected grid point of one α0 curve.

    ``identity_points`` are the grid indices where the savings bounds are
    recomputed through the binomial identity.
    """
    if len(rows) != len(workload.d_grid):
        return [False] * len(workload.d_grid)
    check = CHECKS[workload.name]
    return [
        row.get("D") == d and bool(check(workload, alpha0, d, row, i in identity_points))
        for i, (d, row) in enumerate(zip(workload.d_grid, rows))
    ]
