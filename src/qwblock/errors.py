"""Exception hierarchy for the qwblock package."""


class QwblockError(Exception):
    """Base class for all qwblock errors."""


class NonPositiveRate(QwblockError):
    """A rate or capacity parameter is not strictly positive."""


class Unstable(QwblockError):
    """The stability condition fails; no stationary regime exists."""


class DegenerateBranchPoints(QwblockError):
    """Two branch points coincide (parameter set sits on a boundary)."""


class OnCut(QwblockError):
    """Evaluation point lies on a branch cut and no side was specified."""


class NegativeDiscriminant(QwblockError):
    """The theta-parametrization discriminant went negative."""


class NonVanishingPhase(QwblockError):
    """Theta1 does not vanish at an end of the cut [y1, y2]."""


class KernelZeroOnCut(QwblockError):
    """The kernel vanishes at a quadrature node; integrand undefined."""


class SingularSystem(QwblockError):
    """The boundary linear system is numerically singular."""


class NegativeProbability(QwblockError):
    """A solved probability is negative beyond roundoff tolerance."""


class BoxTooSmall(QwblockError):
    """Truncation box leaks too much probability mass at the rim."""


class StateSpaceTooLarge(QwblockError):
    """Pre-limit chain state space exceeds the supported size."""
