"""Scalar numerics and probability objects for the detection problem.

A network of ``N`` sensors observes a common signal of strength ``s`` in
Gaussian noise of variance ``sigma^2`` and reports log-likelihood ratios
(LLRs) to a fusion center.  A fraction ``alpha0`` of the sensors is
compromised: a compromised sensor shifts its observation by the attack
strength ``D`` toward the wrong hypothesis before the LLR is formed.  Under
either hypothesis the LLR of a randomly chosen sensor is therefore a
two-component Gaussian mixture; this module provides that mixture, its
|LLR| distribution, and its population moments.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "Hypothesis",
    "ModelConfig",
    "LlrMixture",
    "PopulationMoments",
    "EstimateWithError",
    "q_function",
    "llr_mixture",
    "mixture_pdf",
    "abs_llr_cdf",
    "abs_llr_pdf",
    "population_moments",
]

_SQRT2 = math.sqrt(2.0)


class Hypothesis(IntEnum):
    """Binary hypothesis: signal absent (H0) or present (H1)."""

    H0 = 0
    H1 = 1


@dataclass(frozen=True)
class ModelConfig:
    """All scalar parameters of the detection problem.

    Attributes:
        n_sensors: number of sensors N (an integer >= 1; not a float or bool).
        signal: signal strength s (finite, > 0), in observation units.
        noise_var: noise variance sigma^2 (finite, > 0).
        byz_frac: probability alpha0 in [0, 1] that a sensor is compromised.
        attack_strength: observation shift D (finite, >= 0) applied by compromised
            sensors, in observation units.
        prior_h1: prior probability of H1, in (0, 1).
    """

    n_sensors: int
    signal: float
    noise_var: float = 1.0
    byz_frac: float = 0.0
    attack_strength: float = 0.0
    prior_h1: float = 0.5

    def __post_init__(self) -> None:
        # bool is an Integral too, but True is not a sensor count.
        if (
            not isinstance(self.n_sensors, numbers.Integral)
            or isinstance(self.n_sensors, bool)
            or self.n_sensors < 1
        ):
            raise ValueError(f"n_sensors must be a positive integer, got {self.n_sensors}")
        # A numpy integer is stored as int, so the config serialises to JSON.
        object.__setattr__(self, "n_sensors", int(self.n_sensors))
        if not 0 < self.signal < math.inf:
            raise ValueError(f"signal must be finite and > 0, got {self.signal}")
        if not 0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be finite and > 0, got {self.noise_var}")
        if not 0.0 <= self.byz_frac <= 1.0:
            raise ValueError(f"byz_frac must be in [0, 1], got {self.byz_frac}")
        if not 0 <= self.attack_strength < math.inf:
            raise ValueError(
                f"attack_strength must be finite and >= 0, got {self.attack_strength}"
            )
        if not 0.0 < self.prior_h1 < 1.0:
            raise ValueError(f"prior_h1 must be in (0, 1), got {self.prior_h1}")
        if not math.isfinite(self.threshold):
            raise ValueError("decision threshold ln(prior_h0/prior_h1) is not finite")
        # Finite inputs can still overflow the LLR moments (s^2/sigma^2, or a
        # compromised mean of about D s/sigma^2); float ** raises on overflow.
        # They can also underflow the variance s^2/sigma^2 to 0.
        try:
            if self.llr_var == 0.0:
                raise ValueError(
                    "LLR variance is 0: signal and noise_var underflow s^2/sigma2 "
                    f"(s={self.signal}, sigma2={self.noise_var})"
                )
            mom = population_moments(self)
            finite = math.isfinite(mom.var_h0) and math.isfinite(mom.var_h1)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                "LLR moments are not finite: signal, noise_var and attack_strength "
                f"overflow them (s={self.signal}, sigma2={self.noise_var}, "
                f"D={self.attack_strength})"
            )

    @property
    def prior_h0(self) -> float:
        return 1.0 - self.prior_h1

    @property
    def threshold(self) -> float:
        """Bayesian decision threshold ln(prior_h0 / prior_h1) for the LLR sum."""
        return math.log(self.prior_h0 / self.prior_h1)

    @property
    def llr_var(self) -> float:
        """Variance beta = s^2/sigma^2 of a single sensor's LLR (every component)."""
        return self.signal**2 / self.noise_var

    def replace(self, **changes) -> "ModelConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class LlrMixture:
    """Distribution of one sensor's LLR under a fixed hypothesis.

    With probability ``weight_byz`` the sensor is compromised and its LLR is
    N(mean_byz, variance); otherwise the LLR is N(mean_honest, variance).
    Both components share the variance beta = s^2/sigma^2.
    """

    weight_byz: float
    mean_honest: float
    mean_byz: float
    variance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight_byz <= 1.0:
            raise ValueError(f"weight_byz must be in [0, 1], got {self.weight_byz}")
        if not self.variance > 0:
            raise ValueError(f"variance must be > 0, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def mean(self) -> float:
        """Mixture mean: weighted average of the component means."""
        return self.weight_byz * self.mean_byz + (1.0 - self.weight_byz) * self.mean_honest

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw i.i.d. LLRs: Bernoulli component choice, then a Gaussian."""
        byz = rng.random(size) < self.weight_byz
        means = np.where(byz, self.mean_byz, self.mean_honest)
        return means + self.std * rng.standard_normal(size)


@dataclass(frozen=True)
class PopulationMoments:
    """Mean and variance of a single sensor's LLR mixture under each hypothesis."""

    mean_h0: float
    mean_h1: float
    var_h0: float
    var_h1: float

    def mean(self, hypothesis: Hypothesis) -> float:
        return self.mean_h1 if Hypothesis(hypothesis) is Hypothesis.H1 else self.mean_h0

    def var(self, hypothesis: Hypothesis) -> float:
        return self.var_h1 if Hypothesis(hypothesis) is Hypothesis.H1 else self.var_h0


@dataclass(frozen=True)
class EstimateWithError:
    """Monte-Carlo estimate with its standard error and sample count."""

    value: float
    se: float
    n_samples: int


def q_function(x):
    """Gaussian tail probability Q(x) = P(standard normal > x).

    Computed through the complementary error function, so the relative error
    stays at machine precision across the whole tail (no series cutoffs or
    lookup tables).  Accepts scalars or arrays; a scalar gives a Python float.
    """
    from scipy import special  # here, so Monte-Carlo commands start without scipy

    out = 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)
    return float(out) if out.ndim == 0 else out


def llr_mixture(config: ModelConfig, hypothesis: Hypothesis) -> LlrMixture:
    """LLR distribution of a randomly chosen sensor under ``hypothesis``.

    The fusion center forms L = (2*y*s - s^2) / (2*sigma^2) from the received
    observation y.  An honest sensor reports y = s + n under H1 and y = n
    under H0; a compromised one reports y = s + n - D under H1 and y = n + D
    under H0.  Hence the component means are

        mean_honest = +s^2/(2 sigma^2)  under H1,   -s^2/(2 sigma^2)  under H0
        mean_byz    = (s^2 - 2 D s)/(2 sigma^2) under H1, and its negative
                      under H0,

    and every component has variance beta = s^2/sigma^2.
    """
    s = config.signal
    d = config.attack_strength
    two_var = 2.0 * config.noise_var
    mu1 = s * s / two_var
    eta1 = (s * s - 2.0 * d * s) / two_var
    if Hypothesis(hypothesis) is Hypothesis.H1:
        mean_honest, mean_byz = mu1, eta1
    else:
        mean_honest, mean_byz = -mu1, -eta1
    return LlrMixture(
        weight_byz=config.byz_frac,
        mean_honest=mean_honest,
        mean_byz=mean_byz,
        variance=config.llr_var,
    )


def _normal_pdf(x, mean: float, var: float):
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def mixture_pdf(m: LlrMixture, l):
    """Density of the LLR mixture at ``l`` (scalar or array)."""
    a = m.weight_byz
    # Skip untaken branches so degenerate weights never touch the other component.
    if a == 0.0:
        return _normal_pdf(l, m.mean_honest, m.variance)
    if a == 1.0:
        return _normal_pdf(l, m.mean_byz, m.variance)
    return a * _normal_pdf(l, m.mean_byz, m.variance) + (1.0 - a) * _normal_pdf(
        l, m.mean_honest, m.variance
    )


def abs_llr_cdf(m: LlrMixture, x):
    """P(|L| <= x) for the LLR mixture; ``x`` must be nonnegative.

    Each component contributes Q((-x - mean)/sd) - Q((x - mean)/sd), the
    probability that the component falls in [-x, x].
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("abs_llr_cdf is defined for nonnegative x only")
    sd = m.std

    def interval_mass(mean: float):
        return q_function((-x_arr - mean) / sd) - q_function((x_arr - mean) / sd)

    a = m.weight_byz
    if a == 0.0:
        out = interval_mass(m.mean_honest)
    elif a == 1.0:
        out = interval_mass(m.mean_byz)
    else:
        out = a * interval_mass(m.mean_byz) + (1.0 - a) * interval_mass(m.mean_honest)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.ndim(x) == 0 else out


def abs_llr_pdf(m: LlrMixture, x):
    """Density of |L| at ``x`` >= 0: folded mixture pdf(x) + pdf(-x)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("abs_llr_pdf is defined for nonnegative x only")
    out = mixture_pdf(m, x_arr) + mixture_pdf(m, -x_arr)
    return float(out) if np.ndim(x) == 0 else out


def population_moments(config: ModelConfig) -> PopulationMoments:
    """Mean and variance of a sensor's LLR under each hypothesis.

    mean_h = alpha0 * mean_byz + (1 - alpha0) * mean_honest, and
    E[L^2 | h] = beta + alpha0 * mean_byz^2 + (1 - alpha0) * mean_honest^2,
    so var_h = beta + alpha0 (1 - alpha0) (mean_honest - mean_byz)^2.
    """
    a = config.byz_frac
    beta = config.llr_var
    means = {}
    variances = {}
    for h in (Hypothesis.H0, Hypothesis.H1):
        m = llr_mixture(config, h)
        means[h] = m.mean
        second = beta + a * m.mean_byz**2 + (1.0 - a) * m.mean_honest**2
        variances[h] = second - means[h] ** 2
    return PopulationMoments(
        mean_h0=means[Hypothesis.H0],
        mean_h1=means[Hypothesis.H1],
        var_h0=variances[Hypothesis.H0],
        var_h1=variances[Hypothesis.H1],
    )
