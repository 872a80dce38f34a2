"""Closed-form and semi-analytic performance of the OT fusion rule.

Four independent routes to the system's behaviour, each cross-checkable
against the trial simulator in :mod:`otdetect.protocol`:

* exact detection/false-alarm/error probabilities of the full-sum test
  (a binomial mixture of Gaussian tails over the compromised-sensor count);
* a Monte-Carlo evaluation of the exact order-statistic expression for the
  expected number of transmissions;
* the density of the k-th largest LLR magnitude, and its CDF by the
  binomial identity;
* Cauchy-Schwarz upper/lower bounds on the expected transmissions saved.
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
from .protocol import RngSpec, _StreamSampler

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

    ``survival_h0[k-1]`` estimates P(stop time >= k | H0) (likewise H1);
    ``total`` is the prior-weighted sum over k of those survival terms.
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
    """Monte-Carlo evaluation of the expected stop time E[k*].

    E[k*] = sum_k [pi1 P(k* >= k|H1) + pi0 P(k* >= k|H0)], and the survival
    probability at k equals an expectation over k-1 i.i.d. LLRs: the
    indicator that their sum is still bracketed by the threshold envelope
    lam -/+ (N-k+1) * (smallest magnitude), times the chance
    F(|L|_(k-1))^(N-k+1) that the N-k+1 remaining sensors all have smaller
    magnitude, times the C(N, k-1) ways to pick the leading set.

    Separate counter-based substreams per (hypothesis, k) make every term an
    independent mean of i.i.d. weights, so standard errors combine in
    quadrature.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    n = config.n_sensors
    lam = config.threshold
    sampler = _StreamSampler(seed)
    surv = np.ones((2, n))
    surv_se = np.zeros((2, n))
    for h in (Hypothesis.H0, Hypothesis.H1):
        mix = llr_mixture(config, h)
        for k in range(2, n + 1):
            gen = sampler.at(int(h) * (n + 1) + k)
            draws = mix.sample(gen, n_samples * (k - 1)).reshape(n_samples, k - 1)
            row_sum = draws.sum(axis=1)
            # A minimum is exact in any order, and a sweep over the k - 1
            # columns beats numpy's reduction along short rows several-fold.
            mags = np.abs(draws)
            min_mag = mags[:, 0].copy()
            for col in mags.T[1:]:
                np.minimum(min_mag, col, out=min_mag)
            envelope = (n - k + 1) * min_mag
            inside = (row_sum <= lam + envelope) & (row_sum >= lam - envelope)
            # Rows outside the envelope weigh exactly 0: skip their CDF.
            weights = np.zeros(n_samples)
            weights[inside] = math.comb(n, k - 1) * abs_llr_cdf(mix, min_mag[inside]) ** (
                n - k + 1
            )
            surv[h, k - 1] = weights.mean()
            surv_se[h, k - 1] = weights.std(ddof=1) / math.sqrt(n_samples)
    pi0, pi1 = config.prior_h0, config.prior_h1
    total = float(np.sum(pi0 * surv[0] + pi1 * surv[1]))
    total_se = float(np.sqrt(np.sum((pi0 * surv_se[0]) ** 2 + (pi1 * surv_se[1]) ** 2)))
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
