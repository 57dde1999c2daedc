"""Density/distribution evaluation for convolutions of independent gamma
variables, and exact renewal-count pmfs for mixture-of-exponentials
holding times."""

from .errors import (
    BudgetError,
    ConvergenceError,
    DomainError,
    FitFailureError,
    GammaConvError,
)
from .model import (
    ConvolutionSpec,
    EvalResult,
    GammaComponent,
    MixtureExpSpec,
    canonicalize,
    validate_mixture,
)
from .specfun import SeriesControl

__all__ = [
    "BudgetError",
    "ConvergenceError",
    "ConvolutionSpec",
    "DomainError",
    "EvalResult",
    "FitFailureError",
    "GammaComponent",
    "GammaConvError",
    "MixtureExpSpec",
    "SeriesControl",
    "canonicalize",
    "validate_mixture",
]

__version__ = "0.1.0"
