"""Deflection-coefficient analysis of the unordered LLR sum and optimal attacks.

The deflection coefficient of the global statistic Z = sum of all N LLRs,

    dc = (E[Z|H1] - E[Z|H0])^2 / Var(Z|H0),

is a tractable surrogate for detection performance.  Compromised sensors
want to drive it to zero ("blinding"); the cheapest way is to make the two
conditional means coincide, which happens exactly at attack strength
D = s / (2 * alpha0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import ModelConfig, population_moments

__all__ = [
    "AttackAssessment",
    "ByzFraction",
    "deflection_coefficient",
    "optimal_attack_strength",
    "optimal_byz_fraction",
]


@dataclass(frozen=True)
class AttackAssessment:
    """Deflection coefficient of the N-sensor LLR sum and the moments it is made of."""

    dc: float
    mean_z_h1: float
    mean_z_h0: float
    var_z_h0: float


class ByzFraction(NamedTuple):
    """Smallest compromised fraction blinding the fusion center at a given D.

    ``attainable`` is False when even a fully compromised network
    (fraction 1) cannot cancel the mean separation.
    """

    fraction: float
    attainable: bool


def deflection_coefficient(config: ModelConfig) -> AttackAssessment:
    """Deflection coefficient of the unordered N-sensor LLR sum.

    The LLRs are i.i.d. mixtures, so E[Z|h] = N * mean_h and
    Var(Z|H0) = N * var_h0 with the per-sensor moments from
    :func:`otdetect.core.population_moments` (the full mixture variance,
    including the between-component spread).  Raises ``ValueError`` when
    the N-scaled moments or the dc overflow the float range, which
    ``ModelConfig``'s per-sensor check cannot foresee.
    """
    n = config.n_sensors
    mom = population_moments(config)
    mean_h1 = n * mom.mean_h1
    mean_h0 = n * mom.mean_h0
    var_h0 = n * mom.var_h0
    try:
        dc = (mean_h1 - mean_h0) ** 2 / var_h0
    except OverflowError:
        dc = math.inf
    if not all(map(math.isfinite, (dc, mean_h1, mean_h0, var_h0))):
        raise ValueError(
            f"deflection coefficient overflows at N = {n}: the N-scaled LLR moments "
            "or their squared separation are not finite"
        )
    return AttackAssessment(dc=dc, mean_z_h1=mean_h1, mean_z_h0=mean_h0, var_z_h0=var_h0)


def optimal_attack_strength(config: ModelConfig) -> float:
    """Minimum attack strength D* = s / (2 * alpha0) that blinds the fusion center.

    At D* the conditional means of the global statistic coincide and the
    deflection coefficient vanishes.
    """
    if config.byz_frac <= 0.0:
        raise ValueError("FC cannot be blinded: no sensors are compromised (byz_frac = 0)")
    return config.signal / (2.0 * config.byz_frac)


def optimal_byz_fraction(config: ModelConfig, given_d: float) -> ByzFraction:
    """Smallest compromised fraction that blinds the fusion center at strength ``given_d``.

    Inverts D* = s / (2 * alpha0) to alpha0 = s / (2 * D).  If that exceeds 1
    the attack strength is too weak to blind even a fully compromised
    network; the fraction is capped at 1 and flagged unattainable.
    """
    if not given_d > 0.0:
        raise ValueError(f"attack strength must be > 0, got {given_d}")
    fraction = config.signal / (2.0 * given_d)
    if fraction > 1.0:
        return ByzFraction(1.0, False)
    return ByzFraction(fraction, True)
