"""Closed-form and semi-analytic performance of the OT fusion rule.

Three analytic routes to the system's behaviour.  None draws a random
number, so each is independent of the trial simulator in
:mod:`otdetect.protocol` and cross-checkable against it:

* exact detection/false-alarm/error probabilities of the full-sum test
  (a binomial mixture of Gaussian tails over the compromised-sensor count);
* the density of the k-th largest LLR magnitude, and its CDF by the
  binomial identity;
* Cauchy-Schwarz upper/lower bounds on the expected transmissions saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Hypothesis,
    LlrMixture,
    ModelConfig,
    abs_llr_cdf,
    abs_llr_pdf,
    llr_mixture,
    population_moments,
    q_function,
)

__all__ = [
    "ErrorProbabilities",
    "BoundsReport",
    "analytic_error_probs",
    "abs_order_stat_pdf",
    "abs_order_stat_cdf",
    "transmission_savings_bounds",
]


@dataclass(frozen=True)
class ErrorProbabilities:
    """Detection/false-alarm/error probabilities of the full-sum Bayesian test.

    By the early-stopping equivalence these are also the OT system's
    probabilities.  ``threshold`` is the LLR-sum threshold ln(pi0/pi1).
    ``p_d`` and ``p_miss`` are each summed from their own tail.
    """

    p_d: float
    p_miss: float
    p_f: float
    p_e: float
    threshold: float


@dataclass(frozen=True)
class BoundsReport:
    """Upper/lower bounds on the expected number of transmissions saved."""

    lb_saved: float
    ub_saved: float


def analytic_error_probs(config: ModelConfig) -> ErrorProbabilities:
    """Exact error probabilities of the N-sensor full-sum test.

    Conditioned on the number m of compromised sensors, the LLR sum is
    Gaussian with mean (N-m)*mean_honest + m*mean_byz and variance N*beta,
    so each probability is a Binomial(N, alpha0)-weighted sum of N+1
    Gaussian tails.  Runs in O(N).  The Binomial(N, alpha0) weights come
    from log-gamma and the xlogy forms, which stay exact at alpha0 = 0 and 1,
    and are divided by their sum.  p_d, p_miss and p_f are each their own
    tail sum, so each keeps its relative precision far below 1e-16, as p_e does.
    """
    from scipy import special  # here, so Monte-Carlo commands start without scipy

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
    weights /= weights.sum()

    def tail_mix(h: Hypothesis, side: float) -> float:
        """P(side * (sum - lam) > 0) under ``h``."""
        mix = llr_mixture(config, h)
        means = (n - m) * mix.mean_honest + m * mix.mean_byz
        return min(float(np.sum(weights * q_function(side * (lam - means) / scale))), 1.0)

    p_d = tail_mix(Hypothesis.H1, 1.0)
    p_miss = tail_mix(Hypothesis.H1, -1.0)
    p_f = tail_mix(Hypothesis.H0, 1.0)
    p_e = config.prior_h1 * p_miss + config.prior_h0 * p_f
    return ErrorProbabilities(p_d=p_d, p_miss=p_miss, p_f=p_f, p_e=p_e, threshold=lam)


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
    from scipy import special  # here, so Monte-Carlo commands start without scipy

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


def transmission_savings_bounds(config: ModelConfig) -> BoundsReport:
    """Population bounds on the expected number of transmissions the OT scheme saves.

    The head sum of the k largest-magnitude LLRs is bracketed by
    g_L <= sum <= g_U (Cauchy-Schwarz around the sample mean), which turns
    the stop events at prefix k into |L_[k]| threshold events:

    * lower bound: stopping is implied when g_L clears the threshold upward
      or g_U clears it downward;
    * upper bound: stopping implies g_U clears upward or g_L downward.

    The envelope takes the per-sensor population mean and
    (N/(N-1))-scaled variance, and each threshold event on the k-th
    largest magnitude is evaluated by the binomial identity (see
    :func:`abs_order_stat_cdf`), for all k at once.
    """
    n = config.n_sensors
    if n < 2:
        raise ValueError("bounds need at least 2 sensors")
    lam = config.threshold
    priors = {Hypothesis.H0: config.prior_h0, Hypothesis.H1: config.prior_h1}
    ks = np.arange(1, n)
    n_rem = n - ks
    mom = population_moments(config)
    lb = 0.0
    ub = 0.0
    for h in (Hypothesis.H0, Hypothesis.H1):
        mix = llr_mixture(config, h)
        delta = mom.mean(h)
        rad = _envelope_radius(n, ks, n / (n - 1) * mom.var(h))
        g_u = rad + ks * delta
        g_l = -rad + ks * delta
        # The four events are the CDF at +-(g_U - lam) / n_rem and
        # +-(lam - g_L) / n_rem.  The CDF is 0 at w <= 0 and the two offsets
        # sum to 2 rad >= 0, so each offset needs the CDF at its magnitude
        # only: a positive one feeds the upper bound, a negative one the lower.
        offsets = np.stack([g_u - lam, lam - g_l])
        cdf = _order_stat_cdf(mix, n, ks, np.abs(offsets) / n_rem)
        ub_terms = np.where(offsets > 0, cdf, 0.0).max(axis=0)
        lb_terms = np.where(offsets < 0, cdf, 0.0).sum(axis=0)
        ub += priors[h] * float(ub_terms.sum())
        lb += priors[h] * float(lb_terms.sum())
    return BoundsReport(lb_saved=lb, ub_saved=ub)
