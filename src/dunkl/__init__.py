"""Evaluation and sharp-estimate certification of W-invariant Dunkl
(spherical), heat, Newton and s-stable kernels for root systems of type A
with arbitrary positive multiplicity."""

__version__ = "0.1.0"

from .errors import (AccuracyError, BudgetExceededError, DegenerateArgumentError,
                     DivergentTailError, DomainError, DunklError,
                     EvaluationError, InvalidExponentError, SingularityError)
from .quad import KernelValue
from .report import RatioReport
from .rootsys import RootSystemA, rootsystem

__all__ = [
    "AccuracyError", "BudgetExceededError", "DegenerateArgumentError",
    "DivergentTailError", "DomainError", "DunklError", "EvaluationError",
    "InvalidExponentError", "KernelValue", "RatioReport", "RootSystemA",
    "SingularityError", "rootsystem", "__version__",
]
