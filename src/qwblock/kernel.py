"""Kernel algebra of the quarter-plane walk.

Everything here is closed form: the bivariate kernel K(x, y), its two
discriminants, the four-plus-four real branch points, the algebraic root
functions X0/X1 and Y0/Y1 (one vectorized implementation behind both),
and the theta-parametrization of the cut [x1, x2].

Branch convention: sigma1 (the square root of the first discriminant) is
the product of the four principal square roots sqrt(y - y_i), scaled so
that sigma1(0) = lambda2 > 0.  This is analytic off the two real cuts and
needs no path continuation.  One-sided values on a cut are selected with
an explicit :class:`Side`, implemented via signed-zero imaginary parts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchPoints, OnCut, OutOfRange
from .model import ModelParams

_CUT_TOL = 1e-9


class Side(enum.Enum):
    """Which one-sided limit to take on a branch cut."""

    ABOVE = +1.0
    BELOW = -1.0


@dataclass(frozen=True)
class BranchPoints:
    """Real roots of the two discriminants and the cut-image circle radii.

    y1 < y2 < 1 < y3 < y4 are the zeros of the first discriminant,
    x1 < x2 < 1 < x3 < x4 of the second.  X0 maps the cut [y1, y2] onto
    the circle of radius r1 = sqrt(lambda1/mu1c1) > 1; Y0 maps [x1, x2]
    onto the circle of radius r2 = sqrt(lambda2/mu2c2).
    """

    y1: float
    y2: float
    y3: float
    y4: float
    x1: float
    x2: float
    x3: float
    x4: float
    r1: float
    r2: float


def kernel_value(params: ModelParams, x, y):
    """The kernel K(x, y) = mu1c1 x^2 y + mu2c2 x y^2 - rate_sum x y +
    lambda1 y + lambda2 x; vanishes on the zero pairs coupling the walk.
    It is formed as the same polynomial x (y - 1)(mu2c2 y - lambda2) + y (x
    - 1)(mu1c1 x - lambda1), one product at x = 1 or y = 1: as both queues
    near critical, the expanded sum cancels, by up to 3e7 near x2 on
    (1.001, 1, 1, 1), where it puts K(1, y) 1.6e-9 relative off."""
    return (x * (y - 1.0) * (params.mu2c2 * y - params.lambda2)
            + y * (x - 1.0) * (params.mu1c1 * x - params.lambda1))


def discriminants(params: ModelParams, z):
    """(Delta1(z), Delta2(z)) of the quadratics K(., z) and K(z, .)."""
    s = params.rate_sum
    q1 = params.mu2c2 * z * z - s * z + params.lambda2
    q2 = params.mu1c1 * z * z - s * z + params.lambda1
    d1 = q1 * q1 - 4.0 * params.mu1c1 * params.lambda1 * z * z
    d2 = q2 * q2 - 4.0 * params.mu2c2 * params.lambda2 * z * z
    return d1, d2


def _quartic_roots(lead: float, sum_rate: float, shift: float, const: float):
    """Roots of (lead*z^2 - sum_rate*z + const)^2 = (2*shift*z)^2.

    Factors the difference of squares into two real quadratics; returns
    the four roots sorted ascending.  Each factor's small root is taken as
    2 const/(b + sqrt(disc)), which does not cancel.
    """
    roots = []
    for sgn in (+1.0, -1.0):
        b = sum_rate + sgn * 2.0 * shift
        disc = b * b - 4.0 * lead * const
        if disc < 0:
            raise DegenerateBranchPoints(
                "complex factor roots; parameters sit on a degeneracy")
        sq = math.sqrt(disc)
        roots.extend((2.0 * const / (b + sq), (b + sq) / (2.0 * lead)))
    return sorted(roots)


def branch_points(params: ModelParams) -> BranchPoints:
    """All eight branch points plus the circle radii r1, r2."""
    s = params.rate_sum
    ys = _quartic_roots(params.mu2c2, s,
                        math.sqrt(params.mu1c1 * params.lambda1),
                        params.lambda2)
    xs = _quartic_roots(params.mu1c1, s,
                        math.sqrt(params.mu2c2 * params.lambda2),
                        params.lambda1)
    radii = (math.sqrt(params.lambda1 / params.mu1c1),
             math.sqrt(params.lambda2 / params.mu2c2))
    # float arithmetic overflows to inf and nan here rather than raising
    if not all(map(math.isfinite, (*ys, *xs, *radii))):
        raise OutOfRange(f"branch points beyond double precision: {ys}, "
                         f"{xs}, radii {radii}")
    for seq in (ys, xs):
        if min(b - a for a, b in zip(seq, seq[1:])) < 1e-12:
            raise DegenerateBranchPoints(f"coincident branch points: {seq}")
    return BranchPoints(*ys, *xs, *radii)


def _root_pair(z, cuts, side: Side | None, quad: float, const: float,
               lead: float, lam: float, s: float):
    """Both roots R of lead*z*R^2 + q*R + lam*z, q = quad*z^2 - s*z + const.

    R0 = (-q + quad * prod sqrt(z - cuts))/(2*lead*z), R1 = lam/(lead*R0),
    and (0, inf) at z = 0.  Vectorized; on a cut z takes a signed-zero
    imaginary part from ``side``, which numpy's complex sqrt honours.
    """
    z = np.array(z, dtype=complex)
    c1, c2, c3, c4 = cuts
    on_cut = (np.abs(z.imag) < _CUT_TOL) & (
        ((c1 - _CUT_TOL < z.real) & (z.real < c2 + _CUT_TOL))
        | ((c3 - _CUT_TOL < z.real) & (z.real < c4 + _CUT_TOL)))
    if on_cut.any():
        if side is None:
            raise OnCut(f"{z[on_cut][0]} lies on a branch cut; "
                        "specify side=Side.ABOVE/BELOW")
        z.imag[on_cut] = side.value * 0.0
    q = quad * z * z - s * z + const
    sigma = np.full(z.shape, quad, dtype=complex)
    for c in cuts:
        sigma = sigma * np.sqrt(z - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0 = (-q + sigma) / (2.0 * lead * z)
        r1 = lam / (lead * r0)
    origin = z == 0
    return np.where(origin, 0j, r0)[()], np.where(origin, math.inf, r1)[()]


def x_roots(params: ModelParams, y, bp: BranchPoints | None = None,
            side: Side | None = None):
    """The two x-roots (X0, X1) of K(., y), X0 vanishing at the origin.

    Vectorized over y.  For y on the cut [y1, y2] (or [y3, y4]) the
    one-sided limit must be requested through ``side``.
    """
    p, bp = params, bp or branch_points(params)
    return _root_pair(y, (bp.y1, bp.y2, bp.y3, bp.y4), side, p.mu2c2,
                      p.lambda2, p.mu1c1, p.lambda1, p.rate_sum)


def y_roots(params: ModelParams, x, bp: BranchPoints | None = None,
            side: Side | None = None):
    """The two y-roots (Y0, Y1) of K(x, .), Y0 vanishing at the origin."""
    p, bp = params, bp or branch_points(params)
    return _root_pair(x, (bp.x1, bp.x2, bp.x3, bp.x4), side, p.mu1c1,
                      p.lambda1, p.mu2c2, p.lambda2, p.rate_sum)


def x_of_theta(params: ModelParams, theta):
    """Parametrization of the cut [x1, x2], x(0) = x2 and x(pi) = x1, over
    theta in [0, pi]: the small root 2 lambda1/(c + sqrt(c^2 - 4 mu1c1
    lambda1)) of K(., r2 e^(i theta)), c = rate_sum - 2 sqrt(mu2c2 lambda2)
    cos(theta), with the factor gap = c - 2 sqrt(mu1c1 lambda1) >= 0 summed
    from squares, which keeps its digits as both queues near critical."""
    theta = np.asarray(theta, dtype=float)
    p, r12 = params, math.sqrt(params.mu1c1 * params.lambda1)
    r22 = math.sqrt(p.mu2c2 * p.lambda2)
    c = p.rate_sum - 2.0 * r22 * np.cos(theta)
    gap = ((math.sqrt(p.lambda1) - math.sqrt(p.mu1c1)) ** 2
           + (math.sqrt(p.lambda2) - math.sqrt(p.mu2c2)) ** 2
           + 4.0 * r22 * np.sin(0.5 * theta) ** 2)
    x = 2.0 * p.lambda1 / (c + np.sqrt(gap * (c + 2.0 * r12)))
    return x if x.ndim else float(x)
