"""Closed-form and semi-analytic performance of the OT fusion rule.

Three routes to the system's behaviour that are independent of the trial
simulator in :mod:`otdetect.protocol`, and so cross-checkable against it:

* exact detection/false-alarm/error probabilities of the full-sum test
  (a binomial mixture of Gaussian tails over the compromised-sensor count);
* the density of the k-th largest LLR magnitude, and its CDF by the
  binomial identity;
* Cauchy-Schwarz upper/lower bounds on the expected transmissions saved.

:func:`expected_transmissions` is not one of them: it runs each hypothesis
through the simulator's own stopping kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    EstimateWithError,
    Hypothesis,
    LlrMixture,
    ModelConfig,
    abs_llr_cdf,
    abs_llr_pdf,
    llr_mixture,
    population_moments,
    q_function,
)
from .protocol import _BLOCK_ELEMENTS, RngSpec, _mean_with_se, _simulate

__all__ = [
    "ErrorProbabilities",
    "ExpectedTransmissions",
    "BoundsReport",
    "analytic_error_probs",
    "expected_transmissions",
    "abs_order_stat_pdf",
    "abs_order_stat_cdf",
    "transmission_savings_bounds",
]


@dataclass(frozen=True)
class ErrorProbabilities:
    """Detection/false-alarm/error probabilities of the full-sum Bayesian test.

    By the early-stopping equivalence these are also the OT system's
    probabilities.  ``threshold`` is the LLR-sum threshold ln(pi0/pi1).
    """

    p_d: float
    p_f: float
    p_e: float
    threshold: float


@dataclass(frozen=True)
class ExpectedTransmissions:
    """Expected transmissions until the fusion center can stop.

    ``survival_h0[k-1]`` estimates P(stop time >= k | H0) (likewise H1) from
    ``n_samples`` trials per hypothesis; ``total`` is the prior-weighted
    mean stop time, the prior-weighted sum over k of those survival terms.
    """

    total: EstimateWithError
    survival_h0: np.ndarray
    survival_h0_se: np.ndarray
    survival_h1: np.ndarray
    survival_h1_se: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class BoundsReport:
    """Upper/lower bounds on the expected number of transmissions saved.

    ``g_lower_per_k``/``g_upper_per_k`` hold the partial-sum envelopes used
    at each prefix length k, one column per hypothesis (H0, H1).
    """

    k_grid: np.ndarray
    lb_saved: float
    ub_saved: float
    g_lower_per_k: np.ndarray
    g_upper_per_k: np.ndarray
    mode: str


def analytic_error_probs(config: ModelConfig) -> ErrorProbabilities:
    """Exact error probabilities of the N-sensor full-sum test.

    Conditioned on the number m of compromised sensors, the LLR sum is
    Gaussian with mean (N-m)*mean_honest + m*mean_byz and variance N*beta,
    so each probability is a Binomial(N, alpha0)-weighted sum of N+1
    Gaussian tails.  Runs in O(N).  The Binomial(N, alpha0) weights come
    from log-gamma and the xlogy forms, which stay exact at alpha0 = 0 and 1.
    """
    n = config.n_sensors
    lam = config.threshold
    scale = math.sqrt(n * config.llr_var)
    m = np.arange(n + 1)
    p = config.byz_frac
    weights = np.exp(
        special.gammaln(n + 1)
        - special.gammaln(m + 1)
        - special.gammaln(n - m + 1)
        + special.xlogy(m, p)
        + special.xlog1py(n - m, -p)
    )

    def tail_mix(h: Hypothesis) -> float:
        mix = llr_mixture(config, h)
        means = (n - m) * mix.mean_honest + m * mix.mean_byz
        return float(np.sum(weights * q_function((lam - means) / scale)))

    p_d = min(max(tail_mix(Hypothesis.H1), 0.0), 1.0)
    p_f = min(max(tail_mix(Hypothesis.H0), 0.0), 1.0)
    p_e = config.prior_h1 * (1.0 - p_d) + config.prior_h0 * p_f
    return ErrorProbabilities(p_d=p_d, p_f=p_f, p_e=p_e, threshold=lam)


def expected_transmissions(
    config: ModelConfig, n_samples: int = 100_000, seed: int = 0
) -> ExpectedTransmissions:
    """Monte-Carlo estimate of the expected stop time E[k*].

    Runs ``n_samples`` trials under each hypothesis through the stopping
    kernel that :func:`~otdetect.protocol.run_batch` uses, and counts stop
    times: ``survival_h[k-1]`` is the fraction of H-trials with k* >= k
    (binomial SE) and ``total`` is pi0 mean(k*|H0) + pi1 mean(k*|H1), with
    its SE from the stop-time variances.

    Hypothesis h draws from the single stream ``RngSpec(seed, 2^63 + 1 + h)``,
    in blocks of max(1, 16384 // N) rows: a block's uniforms (compromise
    masks), then its normals (noise).  ``run_batch`` uses streams below 2^63 and the stream
    at 2^63 for its truth labels, so the two estimates at one seed are
    independent.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    n = config.n_sensors
    rows = max(1, _BLOCK_ELEMENTS // n)
    ks = np.arange(n + 1)
    surv = np.empty((2, n))
    means = np.empty(2)
    mean_ses = np.empty(2)
    for h in (Hypothesis.H0, Hypothesis.H1):
        gen = RngSpec(seed, (1 << 63) + 1 + int(h)).generator()
        counts = np.zeros(n + 1, dtype=np.int64)
        for start in range(0, n_samples, rows):
            m = min(rows, n_samples - start)
            uniforms = gen.random((m, n))
            normals = gen.standard_normal((m, n))
            stop_k = _simulate(config, np.full(m, bool(h)), uniforms, normals)[2]
            counts += np.bincount(stop_k, minlength=n + 1)
        # counts[k:].sum() trials stopped at k or later.
        surv[h] = np.cumsum(counts[::-1])[::-1][1:] / n_samples
        means[h], mean_ses[h] = _mean_with_se(
            float(counts @ ks), float(counts @ (ks * ks)), n_samples
        )
    surv_se = np.sqrt(surv * (1.0 - surv) / n_samples)
    priors = np.array([config.prior_h0, config.prior_h1])
    total = float(priors @ means)
    total_se = math.sqrt(float(np.sum((priors * mean_ses) ** 2)))
    return ExpectedTransmissions(
        total=EstimateWithError(total, total_se, n_samples),
        survival_h0=surv[0],
        survival_h0_se=surv_se[0],
        survival_h1=surv[1],
        survival_h1_se=surv_se[1],
        n_samples=n_samples,
    )


def _check_order_stat_args(config: ModelConfig, k: int) -> None:
    if not 1 <= k <= config.n_sensors:
        raise ValueError(f"k must be in [1, {config.n_sensors}], got {k}")


def abs_order_stat_pdf(config: ModelConfig, hypothesis: Hypothesis, k: int, x):
    """Density of the k-th largest LLR magnitude among the N sensors.

    Standard order-statistic form on the |L| sample:
    N * C(N-1, k-1) * f(x) * F(x)^(N-k) * (1 - F(x))^(k-1) with f and F the
    folded mixture density and CDF.  Evaluated in log space so large N does
    not overflow the binomial coefficient.
    """
    _check_order_stat_args(config, k)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("order-statistic density is defined for nonnegative x only")
    n = config.n_sensors
    mix = llr_mixture(config, hypothesis)
    f = abs_llr_pdf(mix, x_arr)
    cdf = abs_llr_cdf(mix, x_arr)
    log_coef = math.log(n) + math.lgamma(n) - math.lgamma(k) - math.lgamma(n - k + 1)
    with np.errstate(divide="ignore"):
        log_val = log_coef + np.log(f)
        if n > k:
            log_val = log_val + (n - k) * np.log(cdf)
        if k > 1:
            log_val = log_val + (k - 1) * np.log1p(-cdf)
    out = np.where(np.isneginf(log_val), 0.0, np.exp(log_val))
    return float(out) if np.ndim(x) == 0 else out


def _order_stat_cdf(mix: LlrMixture, n: int, k: int | np.ndarray, w: float | np.ndarray):
    """P(k-th largest of N |L| draws <= w), elementwise over arrays ``k`` and ``w``.

    The k-th largest is at most w exactly when at most k-1 of the N
    magnitudes exceed w, so by the binomial identity the probability is
    BinomCDF(k-1; N, 1 - F(w)) with F the |L| CDF (David & Nagaraja,
    *Order Statistics*, section 2.1).  For w <= 0 all N magnitudes exceed w
    (|L| has no atom at 0, F(0) = 0), so the CDF is exactly 0.
    """
    exceed = 1.0 - abs_llr_cdf(mix, np.maximum(w, 0.0))
    return special.bdtr(k - 1, n, exceed)


def abs_order_stat_cdf(config: ModelConfig, hypothesis: Hypothesis, k: int, x: float) -> float:
    """P(k-th largest LLR magnitude <= x), by the binomial identity.

    Equals the integral of :func:`abs_order_stat_pdf` from 0 to x, in closed
    form: BinomCDF(k-1; N, P(|L| > x)).
    """
    _check_order_stat_args(config, k)
    mix = llr_mixture(config, hypothesis)
    return float(_order_stat_cdf(mix, config.n_sensors, k, float(x)))


def _envelope_radius(n: int, k: int | np.ndarray, v: float | np.ndarray):
    """Half-width of the Cauchy-Schwarz envelope on a k-term ordered head.

    For selector weights of k ones among N, the centered weight sum is
    k(N-k)/N, giving sqrt(k(N-k)/N * (N-1) * v) for dispersion v.
    """
    return np.sqrt(k * (n - k) / n * (n - 1) * v)


def transmission_savings_bounds(
    config: ModelConfig,
    mode: str = "population",
    n_samples: int = 20_000,
    seed: int = 0,
) -> BoundsReport:
    """Bounds on the expected number of transmissions the OT scheme saves.

    The head sum of the k largest-magnitude LLRs is bracketed by
    g_L <= sum <= g_U (Cauchy-Schwarz around the sample mean), which turns
    the stop events at prefix k into |L_[k]| threshold events:

    * lower bound: stopping is implied when g_L clears the threshold upward
      or g_U clears it downward;
    * upper bound: stopping implies g_U clears upward or g_L downward.

    ``mode="population"`` substitutes the per-sensor population mean and
    (N/(N-1))-scaled variance into the envelope and evaluates each
    threshold event on the k-th largest magnitude by the binomial identity
    (see :func:`abs_order_stat_cdf`), for all k at once.
    ``mode="empirical"`` redraws the envelope from each simulated
    realization's sample mean/variance and counts events directly.
    """
    n = config.n_sensors
    if n < 2:
        raise ValueError("bounds need at least 2 sensors")
    if mode not in ("population", "empirical"):
        raise ValueError(f"unknown mode {mode!r}")
    lam = config.threshold
    priors = {Hypothesis.H0: config.prior_h0, Hypothesis.H1: config.prior_h1}
    ks = np.arange(1, n)
    g_lower = np.zeros((n - 1, 2))
    g_upper = np.zeros((n - 1, 2))
    lb = 0.0
    ub = 0.0

    if mode == "population":
        mom = population_moments(config)
        n_rem = n - ks
        for h in (Hypothesis.H0, Hypothesis.H1):
            mix = llr_mixture(config, h)
            delta = mom.mean(h)
            rad = _envelope_radius(n, ks, n / (n - 1) * mom.var(h))
            g_u = rad + ks * delta
            g_l = -rad + ks * delta
            g_upper[:, int(h)] = g_u
            g_lower[:, int(h)] = g_l

            def cdf(w):
                return _order_stat_cdf(mix, n, ks, w / n_rem)

            ub_terms = np.maximum(cdf(g_u - lam), cdf(lam - g_l))
            lb_terms = cdf(g_l - lam) + cdf(lam - g_u)
            ub += priors[h] * float(ub_terms.sum())
            lb += priors[h] * float(lb_terms.sum())
    else:
        if n_samples < 1000:
            raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
        for h in (Hypothesis.H0, Hypothesis.H1):
            mix = llr_mixture(config, h)
            gen = RngSpec(seed, int(h)).generator()
            draws = mix.sample(gen, n_samples * n).reshape(n_samples, n)
            mags = np.sort(np.abs(draws), axis=1)[:, ::-1]
            sample_mean = draws.mean(axis=1)
            sample_var = draws.var(axis=1, ddof=1)
            for k in ks:
                rad = _envelope_radius(n, int(k), sample_var)
                g_u = rad + k * sample_mean
                g_l = -rad + k * sample_mean
                spread = (n - int(k)) * mags[:, k - 1]
                ub_event = (g_u > lam + spread) | (g_l < lam - spread)
                lb_event = (g_l > lam + spread) | (g_u < lam - spread)
                ub += priors[h] * float(ub_event.mean())
                lb += priors[h] * float(lb_event.mean())
                g_upper[k - 1, int(h)] = float(g_u.mean())
                g_lower[k - 1, int(h)] = float(g_l.mean())

    return BoundsReport(
        k_grid=ks,
        lb_saved=lb,
        ub_saved=ub,
        g_lower_per_k=g_lower,
        g_upper_per_k=g_upper,
        mode=mode,
    )
