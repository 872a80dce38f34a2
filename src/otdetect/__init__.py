"""Ordered-transmission distributed detection under Byzantine attacks.

Sensors that observe a common Gaussian signal send their log-likelihood
ratios to a fusion center in order of decreasing magnitude; the center
stops listening as soon as the pending decision can no longer change.
This package simulates that protocol trial by trial, evaluates its error
probabilities and transmission savings in closed or semi-closed form, and
characterizes the attack strengths with which compromised sensors degrade
it, cross-validating every analytic quantity against Monte Carlo.
"""

__version__ = "0.1.0"

from . import analysis, attack, core, protocol, sweep
from .analysis import *
from .attack import *
from .core import *
from .protocol import *
from .sweep import *

__all__ = [
    "__version__",
    *core.__all__,
    *protocol.__all__,
    *attack.__all__,
    *analysis.__all__,
    *sweep.__all__,
]
