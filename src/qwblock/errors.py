"""Exception hierarchy for the qwblock package."""

import functools

import numpy as np


class QwblockError(Exception):
    """Base class for all qwblock errors."""


class NonPositiveRate(QwblockError):
    """A rate, capacity or threshold parameter is out of its range."""


class BadGridSize(QwblockError, ValueError):
    """A quadrature grid size is odd, below 16 or above 16,384."""


class Unstable(QwblockError):
    """The stability condition fails; no stationary regime exists."""


class DegenerateBranchPoints(QwblockError):
    """Two branch points coincide (parameter set sits on a boundary)."""


class OnCut(QwblockError):
    """Evaluation point lies on a branch cut and no side was specified."""


class NonVanishingPhase(QwblockError):
    """Theta1 does not vanish at an end of the cut [y1, y2]."""


class KernelZeroOnCut(QwblockError):
    """The kernel vanishes at a quadrature node; integrand undefined."""


class SingularSystem(QwblockError):
    """A linear solve that cannot be trusted: the boundary system is
    singular, not finite, or gives B1 or B2 a condition number (for
    relative changes of each entry) above 1e-10 / eps; or a truncated
    walk's balance residual exceeds 1e-12 * rate_sum."""


class NegativeProbability(QwblockError):
    """A solved probability is negative beyond roundoff tolerance."""


class BoxTooSmall(QwblockError):
    """Truncation box leaks too much probability mass at the rim."""


class StateSpaceTooLarge(QwblockError):
    """A chain's state space exceeds the supported size."""


class OutOfRange(QwblockError):
    """Rates or a threshold that take a solve outside double precision:
    an overflow, or an invalid or divide-by-zero operation."""


def refuse_float_errors(func):
    """func with NumPy's floating-point errors raised, and those and
    math's overflow and zero division re-raised as OutOfRange."""
    @functools.wraps(func)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return func(*args, **kwargs)
        except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
            raise OutOfRange(f"{func.__name__}: {exc}") from None
    return checked
