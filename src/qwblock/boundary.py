"""Boundary functions of the Riemann-Hilbert problems.

Theta1 is the half-phase of the boundary coefficient alpha1 on the circle
of radius r1, Phi1 its Cauchy-integral companion, and phi1 the resulting
sectionally analytic factor evaluated inside the circle.  Theta2/phi2
play the same role for the no-reservation (a = 0) baseline.

Both Theta functions are computed with the two-argument angle of
(denominator, sqrt(-Delta)); the printed arctan form folds the branch
whenever the denominator changes sign, while atan2 keeps the angle
continuous in [0, pi].  The convention is pinned by the identity
alpha1(X0(y+0i)) = exp(-2i*Theta1(y)), which is tested directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

from .errors import KernelZeroOnCut, NonVanishingPhase
from .kernel import (BranchPoints, branch_points, discriminants, kernel_value,
                     x_of_theta, y_roots)
from .model import ModelParams
from .quadrature import QuadConfig, blocks, cosine_grid, cut_hilbert

WINDING_POINTS = 2000    # circle nodes of alpha1_winding
# Chebyshev interpolant of log phi1 on [x1, x2]: Lobatto points start at
# PHI1_START_DEGREE + 1 and double while a coefficient in the last eighth
# exceeds PHI1_TAIL, an absolute bound on log phi1, so a relative one on
# phi1.  At grid 512, on 300 random stable sets (rates U[0.5, 10]), the
# three reference sets of the tests and the near-critical set (4.2249,
# 8.6730, 4.2068, 5.2413), that tail exceeded 1e-13 on 29% of the sets at
# degree 16, 3% at 32 and none at 64 (largest 1.2e-15); phi1 on the theta
# grid then matched the direct kernel sums to 5e-14 relative.
PHI1_START_DEGREE = 64
PHI1_TAIL = 1e-13


def theta1(params: ModelParams, y):
    """Boundary angle Theta1(y) in [0, pi] for y in the cut [y1, y2]."""
    y = np.asarray(y, dtype=float)
    s = params.rate_sum
    q1 = params.mu2c2 * y * y - s * y + params.lambda2
    d1 = q1 * q1 - 4.0 * params.mu1c1 * params.lambda1 * y * y
    if np.any(d1 > 1e-9 * s * s):
        raise ValueError("y outside the cut [y1, y2]: Delta1(y) > 0")
    num = np.sqrt(np.maximum(-d1, 0.0))
    den = q1 + 2.0 * params.lambda1
    out = np.arctan2(num, den)
    return out if out.ndim else float(out)


def theta2(params: ModelParams, x):
    """Baseline boundary angle Theta2(x) in [0, pi] for x in [x1, x2]."""
    x = np.asarray(x, dtype=float)
    s = params.rate_sum
    _, d2 = discriminants(params, x)
    if np.any(d2 > 1e-9 * s * s):
        raise ValueError("x outside the cut [x1, x2]: Delta2(x) > 0")
    num = np.sqrt(np.maximum(-d2, 0.0))
    den = ((x + 1.0) * (params.lambda1 - x * params.mu1c1)
           + x * (params.lambda2 - params.mu2c2))
    out = np.arctan2(num, den)
    return out if out.ndim else float(out)


def alpha1(params: ModelParams, x, bp: BranchPoints | None = None):
    """Boundary coefficient alpha1(x) for x on the circle of radius r1."""
    bp = bp or branch_points(params)
    y0, _ = y_roots(params, x, bp)
    return (params.lambda1 * (y0 - x)
            / (x * (params.mu1c1 * x * y0 - params.lambda1)))


def alpha1_winding(params: ModelParams) -> int:
    """Winding number of alpha1 around the circle of radius r1.

    Sums phase increments over a uniform circle grid of WINDING_POINTS
    and rounds; the analytic theory gives index 0, which downstream
    solutions assume.
    """
    bp = branch_points(params)
    th = np.linspace(0.0, 2.0 * math.pi, WINDING_POINTS, endpoint=False)
    args = np.angle(alpha1(params, bp.r1 * np.exp(1j * th), bp))
    dargs = np.diff(np.concatenate([args, args[:1]]))
    dargs = (dargs + math.pi) % (2.0 * math.pi) - math.pi
    return round(float(dargs.sum() / (2.0 * math.pi)))


def phi1_exponent(params: ModelParams, bp: BranchPoints, nodes: np.ndarray,
                  weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The principal-value exponent Phi1 at every cosine-grid node.

    g = (lambda2 - mu2c2 y^2) Theta1(y)/y on the nodes.  Partial fractions
    give Phi1(y) = y/(pi (mu2c2 y^2 - lambda2)) [PV int g/(xi - y)
    - mu2c2 y int g/(mu2c2 y xi - lambda2)]; the second integral is regular.
    """
    lam2, mu2 = params.lambda2, params.mu2c2
    if np.any((nodes <= bp.y1) | (nodes >= bp.y2)):
        raise ValueError(f"nodes outside the cut ({bp.y1}, {bp.y2})")
    if bp.y2 * bp.y2 >= lam2 / mu2:
        raise KernelZeroOnCut(
            "secondary pole of the Phi1 integrand enters the cut")
    # Theta1 = atan2(., q1 + 2*lambda1) vanishes at the ends
    # iff q1 + 2*lambda1 > 0 there
    ends = np.array((bp.y1, bp.y2))
    if np.any(mu2 * ends * ends - params.rate_sum * ends + lam2
              + 2.0 * params.lambda1 <= 0.0):
        raise NonVanishingPhase(
            f"Theta1 tends to pi at an end of [{bp.y1}, {bp.y2}]")
    regular = np.empty(nodes.size)
    for rows in blocks(nodes.size, nodes.size):
        regular[rows] = ((1.0 / (np.outer(mu2 * nodes[rows], nodes) - lam2))
                         @ (weights * g))
    return (nodes / (math.pi * (mu2 * nodes * nodes - lam2))
            * (cut_hilbert(g) - mu2 * nodes * regular))


def kernel_blocks(params: ModelParams, y_nodes: np.ndarray, xs: np.ndarray):
    """Yield (rows, K(x, y)) per row block of the (x, y) kernel matrix,
    xs against the cut nodes, raising KernelZeroOnCut before a block in
    which K(x, .) nearly vanishes on a node."""
    for rows in blocks(xs.size, y_nodes.size):
        x = xs[rows]
        kern = kernel_value(params, x[:, None], y_nodes[None, :])
        scale = params.rate_sum * np.maximum(1.0, np.abs(x)) ** 2
        bad = np.min(np.abs(kern), axis=1) < 1e-12 * scale
        if bad.any():
            raise KernelZeroOnCut(
                f"K({x[bad][0]}, y) vanishes on the cut [y1, y2]")
        yield rows, kern


def kernel_sums(params: ModelParams, y_nodes: np.ndarray,
                weights: np.ndarray, xs) -> np.ndarray:
    """Sum over the cut nodes y of weights / K(x, y) at each x of xs.  Runs
    on kernel_blocks, and so raises KernelZeroOnCut before it divides."""
    xs = np.asarray(xs, dtype=float)
    total = np.empty(xs.shape)
    for rows, kern in kernel_blocks(params, y_nodes, xs):
        # a row sum per x keeps phi1 at x independent of the block x is in
        total[rows] = np.sum(weights / kern, axis=1)
    return total


def _phi1_values(params: ModelParams, y_nodes: np.ndarray,
                 phi1_weights: np.ndarray, xs) -> np.ndarray:
    """phi1 at each x; KernelZeroOnCut if K(x, .) vanishes on the cut."""
    xs = np.array(xs, dtype=float)
    return np.exp(xs / math.pi
                  * kernel_sums(params, y_nodes, phi1_weights, xs))


def _check_kernel_on_cut(params: ModelParams, y_nodes: np.ndarray,
                         lo: float, hi: float) -> None:
    """Raise KernelZeroOnCut if K(x, y) nearly vanishes for some x in
    [lo, hi] at a node y: K(., y) = mu1c1 y x^2 + q1(y) x + lambda1 y is a
    quadratic, so its extremes on [lo, hi] lie at the ends and the clamped
    vertex, and a sign change among those three means a zero between."""
    y = y_nodes
    q1 = params.mu2c2 * y * y - params.rate_sum * y + params.lambda2
    xs = np.stack([np.full(y.size, lo), np.full(y.size, hi),
                   np.clip(-q1 / (2.0 * params.mu1c1 * y), lo, hi)])
    kern = kernel_value(params, xs, y)
    scale = params.rate_sum * np.maximum(1.0, np.abs(xs)) ** 2
    bad = ((np.min(np.abs(kern) / scale, axis=0) < 1e-12)
           | ((kern.min(axis=0) < 0.0) & (kern.max(axis=0) > 0.0)))
    if bad.any():
        raise KernelZeroOnCut(f"K(x, {y[bad][0]}) vanishes for x in "
                              f"[{lo}, {hi}]")


def _phi1_interpolated(params: ModelParams, bp: BranchPoints,
                       y_nodes: np.ndarray, phi1_weights: np.ndarray,
                       xs: np.ndarray) -> tuple[np.ndarray, int]:
    """phi1 at each x of xs in [x1, x2], from a Chebyshev interpolant of
    log phi1, and the number of points the interpolant sampled.

    The Lobatto points x1 + (x2 - x1)(1 + cos(pi j/n))/2 nest, so each
    doubling of n, from PHI1_START_DEGREE, evaluates only the n new ones;
    a DCT-I, the real FFT of the mirrored samples, gives the coefficients.
    n doubles while the last eighth of them exceeds PHI1_TAIL; past
    xs.size - 1, the kernel sums at xs replace it.  It reads K only at its
    samples, so a kernel zero anywhere on [x1, x2] is refused first.
    """
    _check_kernel_on_cut(params, y_nodes, bp.x1, bp.x2)
    mid, half = 0.5 * (bp.x1 + bp.x2), 0.5 * (bp.x2 - bp.x1)

    def log_phi1(j, n):
        x = mid + half * np.cos(math.pi * j / n)
        return np.log(_phi1_values(params, y_nodes, phi1_weights, x))

    n = min(PHI1_START_DEGREE, xs.size - 1)
    samples = log_phi1(np.arange(n + 1), n)
    while True:
        coef = np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real
        coef[[0, -1]] *= 0.5
        coef /= n
        if np.max(np.abs(coef[-(n // 8):])) <= PHI1_TAIL:
            return np.exp(chebyshev.chebval((xs - mid) / half, coef)), n + 1
        if 2 * n >= xs.size:
            return _phi1_values(params, y_nodes, phi1_weights, xs), xs.size
        n *= 2
        merged = np.empty(n + 1)
        merged[::2], merged[1::2] = samples, log_phi1(np.arange(1, n, 2), n)
        samples = merged


@dataclass(frozen=True, eq=False)
class BoundaryCache:
    """Tabulated boundary data on a shared cosine grid over [y1, y2].

    cut_base is the one weight of every cut integral against the boundary
    polynomial, w (lambda2 - mu2c2 y^2) sin(Theta1) exp(-Phi1) with w the
    grid weights; phi1_weights is w times g of :func:`phi1_exponent`, the
    integrand numerator of log phi1.  Both are divided by K(x, y) only on
    the blocks of :func:`kernel_blocks`.  x_theta and phi1_theta hold
    x(theta) and phi1 on the coefficient assembly's grid theta = pi*j/n,
    j = 0..n; phi1_theta comes from a Chebyshev interpolant of log phi1 on
    [x1, x2] through phi1_nodes Lobatto points, 65 on most stable sets, or
    from the kernel sums at all n + 1 where that does not converge first.
    """

    params: ModelParams
    bp: BranchPoints
    cfg: QuadConfig
    y_nodes: np.ndarray = field(repr=False)
    cut_base: np.ndarray = field(repr=False)
    phi1_weights: np.ndarray = field(repr=False)
    x_theta: np.ndarray = field(repr=False)
    phi1_theta: np.ndarray = field(repr=False)
    phi1_nodes: int

    @classmethod
    def build(cls, params: ModelParams,
              cfg: QuadConfig | None = None) -> "BoundaryCache":
        cfg = cfg or QuadConfig()
        bp = branch_points(params)
        nodes, weights = cosine_grid(bp.y1, bp.y2, cfg.grid_size)
        th1 = theta1(params, nodes)
        g = (params.lambda2 - params.mu2c2 * nodes ** 2) * th1 / nodes
        phi_big = phi1_exponent(params, bp, nodes, weights, g)
        phi1_weights = weights * g
        x_theta = x_of_theta(
            params, np.linspace(0.0, math.pi, cfg.grid_size + 1))
        phi1_theta, phi1_nodes = _phi1_interpolated(
            params, bp, nodes, phi1_weights, x_theta)
        cut_base = (weights * (params.lambda2 - params.mu2c2 * nodes * nodes)
                    * np.sin(th1) * np.exp(-phi_big))
        return cls(params=params, bp=bp, cfg=cfg, y_nodes=nodes,
                   cut_base=cut_base, phi1_weights=phi1_weights,
                   x_theta=x_theta, phi1_theta=phi1_theta,
                   phi1_nodes=phi1_nodes)

    def phi1(self, x) -> float:
        """The sectionally analytic factor phi1(x), |x| < r1; phi1(0) = 1."""
        return float(self.phi1_many([x])[0])

    def phi1_many(self, xs) -> np.ndarray:
        """phi1 at each x; KernelZeroOnCut if K(x, .) vanishes on the cut."""
        return _phi1_values(self.params, self.y_nodes, self.phi1_weights, xs)


@functools.lru_cache(maxsize=32)
def _cached_build(params: ModelParams, cfg: QuadConfig) -> BoundaryCache:
    return BoundaryCache.build(params, cfg)


def boundary_cache(params: ModelParams,
                   cfg: QuadConfig | None = None) -> BoundaryCache:
    """BoundaryCache memoized by (rates, grid_size); keeps the 32 most
    recently used."""
    return _cached_build(params.with_a(0), cfg or QuadConfig())


def phi2(params: ModelParams, y: float,
         bp: BranchPoints | None = None,
         cfg: QuadConfig | None = None) -> float:
    """Baseline factor phi2(y), via the Theta2 integral over [x1, x2]."""
    bp = bp or branch_points(params)
    cfg = cfg or QuadConfig()
    nodes, weights = cosine_grid(bp.x1, bp.x2, cfg.grid_size)
    kern = kernel_value(params, nodes, y)
    scale = params.rate_sum * max(1.0, abs(y)) ** 2
    if np.min(np.abs(kern)) < 1e-12 * scale:
        raise KernelZeroOnCut(f"K(x, {y}) vanishes on the cut [x1, x2]")
    integrand = ((params.lambda1 - params.mu1c1 * nodes ** 2)
                 * theta2(params, nodes) / (nodes * kern))
    total = float(np.sum(weights * integrand))
    return math.exp(y / math.pi * total)
