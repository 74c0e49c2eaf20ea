"""Boundary functions of the Riemann-Hilbert problems.

Theta1 is the half-phase of the boundary coefficient alpha1 on the circle
of radius r1, Phi1 its Cauchy-integral companion, one sum over the
Chebyshev coefficients of its integrand (principal value and regular
integral alike), and phi1 the resulting sectionally analytic factor inside
the circle, by kernel sums at any x, and on the theta grid of the
coefficient assembly a cosine sum of folded cut moments (:func:`cut_moments`,
:func:`poisson_modes`, :func:`poisson_fold`).  Theta2/phi2 play the same
role for the no-reservation (a = 0) baseline.  :class:`BoundaryCache`
holds every part of the boundary system that does not depend on the
threshold.

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
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyval

from .errors import (DegenerateBranchPoints, KernelZeroOnCut,
                     NonVanishingPhase)
from .kernel import (BranchPoints, branch_points, discriminants, kernel_value,
                     x_of_theta, y_roots)
from .model import ModelParams
from .quadrature import (QuadConfig, blocks, chebyshev_coefficients,
                         cosine_grid, cut_hilbert)

WINDING_POINTS = 2000    # circle nodes of alpha1_winding


def theta1(params: ModelParams, y):
    """Boundary angle Theta1(y) in [0, pi] for y in the cut [y1, y2]."""
    p = params
    return _cut_angle(p, y, 0, lambda y: p.mu2c2 * y * y - p.rate_sum * y
                      + p.lambda2 + 2.0 * p.lambda1)


def theta2(params: ModelParams, x):
    """Baseline boundary angle Theta2(x) in [0, pi] for x in [x1, x2]."""
    p = params
    return _cut_angle(p, x, 1, lambda x: (x + 1.0) * (p.lambda1 - x * p.mu1c1)
                      + x * (p.lambda2 - p.mu2c2))


def _cut_angle(params: ModelParams, z, which: int, den):
    """atan2(sqrt(-Delta), den(z)) at z on the cut of Delta, discriminant
    ``which`` (0: Delta1 on [y1, y2], 1: Delta2 on [x1, x2])."""
    z, s = np.asarray(z, dtype=float), params.rate_sum
    d = discriminants(params, z)[which]
    if np.any(d > 1e-9 * s * s):
        raise ValueError(f"{'yx'[which]} outside the cut: Delta{which + 1} > 0")
    out = np.arctan2(np.sqrt(np.maximum(-d, 0.0)), den(z))
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
                  g: np.ndarray) -> np.ndarray:
    """The principal-value exponent Phi1 at every cosine-grid node.

    g = (lambda2 - mu2c2 y^2) Theta1(y)/y on the nodes.  Partial fractions
    give Phi1(y) = y/(pi (mu2c2 y^2 - lambda2)) [PV int g/(xi - y)
    - int g/(xi - xi*)], xi* = lambda2/(mu2c2 y) > y2.  In t = (xi - mid)/half
    with g's Chebyshev coefficients c_k, the principal value is -pi sum_k c_k
    T_{k+1}(t) (:func:`cut_hilbert`) and the regular integral -pi sum_k c_k
    W^(k+1), W = 1/(T* + sqrt(T*^2 - 1)) < 1 at T* = (xi* - mid)/half > 1
    (Mason & Handscomb, Chebyshev Polynomials, ch. 9): one sum over one
    coefficient vector, its W terms kept up to e^-37 (:func:`poisson_modes`).
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
    coef = chebyshev_coefficients(g)
    pole = lam2 / (mu2 * nodes)
    # (T* - 1)(T* + 1) half^2 from the pole's distances to both ends, so
    # that W keeps its digits as the pole nears y2
    w = 0.5 * (bp.y2 - bp.y1) / (pole - 0.5 * (bp.y1 + bp.y2) + np.sqrt(
        (pole - bp.y1) * (pole - bp.y2)))
    regular = w * polyval(w, coef[:poisson_modes(w, nodes.size)])
    return (nodes / (math.pi * (mu2 * nodes * nodes - lam2))
            * (cut_hilbert(coef) + math.pi * regular))


def cut_kernel(params: ModelParams, y_nodes: np.ndarray, xs) -> np.ndarray:
    """K(x, y), xs against the cut nodes, raising KernelZeroOnCut before
    any division where K(x, .) nearly vanishes on a node."""
    x = np.asarray(xs, dtype=float)
    kern = kernel_value(params, x[:, None], y_nodes[None, :])
    scale = params.rate_sum * np.maximum(1.0, np.abs(x)) ** 2
    bad = np.min(np.abs(kern), axis=1) < 1e-12 * scale
    if bad.any():
        raise KernelZeroOnCut(
            f"K({x[bad][0]}, y) vanishes on the cut [y1, y2]")
    return kern


def kernel_sums(params: ModelParams, y_nodes: np.ndarray,
                weights: np.ndarray, xs) -> np.ndarray:
    """Sum over the cut nodes y of weights / K(x, y) at each x of xs, (m,
    len(xs)) sums for (m, n_y) weights, each one row sum over the matrix of
    :func:`cut_kernel`, so that it does not depend on the other xs.  The
    xs go in row blocks of :func:`blocks`, so that no quotient is larger
    than BLOCK_ELEMENTS."""
    xs = np.asarray(xs, dtype=float)
    sums = np.empty(weights.shape[:-1] + xs.shape)
    for rows in blocks(xs.size, weights.size):
        sums[..., rows] = np.sum(weights[..., None, :] / cut_kernel(
            params, y_nodes, xs[rows]), axis=-1)
    return sums


def poisson_modes(z: np.ndarray, n: int) -> int:
    """The last mode kept of a power series in z < 1 cut at e^-37: n, or
    the first past which z^r < e^-37 at every z; n too when the largest z
    rounds to 1.  It cuts the Poisson series in z = y/r2 folded mod 2n,
    and the W series of :func:`phi1_exponent`."""
    top = z.max()
    return n if top >= 1.0 else min(n, math.ceil(-37.0 / math.log(top)))


def cut_moments(weights: np.ndarray, z: np.ndarray, count: int) -> np.ndarray:
    """Sum over the cut nodes of weights (each row, if 2-D) times z^r, r =
    0..count - 1: one matmul over y on z^(bq + j) = z^(bq) z^j, b =
    ceil(sqrt(count)), each power rounded once."""
    b = math.isqrt(count - 1) + 1
    high = z ** (float(b) * np.arange(-(-count // b)))[:, None]
    low = z ** np.arange(float(b))[:, None]
    moments = (weights[..., None, :] * high) @ low.T
    return moments.reshape(*weights.shape[:-1], -1)[..., :count]


def wrapped(v: np.ndarray, rows: int, cols: int, lo: int, step: int):
    """The view M[i, j] = v[(lo + i + step j) mod v.size], step = +-1."""
    lo = lo if step > 0 else lo - cols + 1
    ext = v[np.arange(lo, lo + rows + cols - 1) % v.size]
    return sliding_window_view(ext, cols)[:, ::step]


def poisson_fold(nu: np.ndarray, modes: int, n_t: int,
                 cols: int) -> np.ndarray:
    """The fold c_r/2 H[r, k], H[r, k] = nu_(k-1+r) + nu_(k-1+2n-r), r =
    0..modes, k < cols, with nu_i at nu[i + 1] and c_0 = c_n = 1, else 2;
    the mirror only when all n modes are kept, as below mode n it is under
    e^-37 too."""
    fold = wrapped(nu, modes + 1, cols, 0, 1) + (
        wrapped(nu, cols, modes + 1, 2 * n_t, -1).T if modes == n_t else 0.0)
    fold[0] *= 0.5
    if modes == n_t:
        fold[n_t] *= 0.5
    return fold


def phi1_on_theta(half_fold: np.ndarray, n_t: int) -> np.ndarray:
    """phi1(x(theta_j)), j = 0..n_t, from the folded moments times c_r/2:
    exp of 2/pi times their cosine sum, one real FFT."""
    return np.exp(2.0 * np.fft.rfft(half_fold, 2 * n_t).real / math.pi)


def theta_sums(params: ModelParams, r2: float, phi1_t: np.ndarray):
    """The sums (s, diff, total) over theta_j = pi j/n, j = 0..n, of the
    boundary system's theta weights, from one FFT of length 2n: s(l) =
    sum_j outer1_j sin(l theta_j), and diff[k], total[k] = cu(k) + cv(k -+
    1), the cosine sums of alpha2's two weights u and v.  Those weights
    need no 1/(1 - x): x(0) = 1, queue 2 critical, is no pole."""
    p, n_t = params, phi1_t.size - 1
    theta = np.linspace(0.0, math.pi, n_t + 1)
    w_t = math.pi / n_t * np.concatenate([[0.5], np.ones(n_t - 1), [0.5]])
    x_t = x_of_theta(p, theta)
    denom_t = p.lambda1 + p.lambda2 - (p.mu1c1 + p.mu2c2) * x_t
    # theta weights of alpha1 and beta, and of alpha2 relative to their
    # common 2*mu2c2/pi^2; sin((k-1)t) = 2cos(t)sin(kt) - sin((k+1)t)
    # leaves alpha2 two sines, u*sin(k theta) + v*sin((k+1) theta)
    outer1 = w_t * x_t * phi1_t / denom_t * np.sin(theta)
    # alpha2's, pi w x (r2^2 + x - 2 r2 cos theta, r2 (1 - x))/((1 - x)
    # denom), have a removable pole at x = 1: K(x, Y) = 0 at Y = r2 e^(i
    # theta) and K(1, Y) = (Y - 1)(mu2c2 Y - lambda2) give 1 - x = x mu2c2
    # |Y - 1|^2/(lambda1 - mu1c1 x), so no 1 - x is left; denom >= drift > 0
    outer2 = math.pi * w_t / denom_t
    u_t = outer2 * (denom_t - p.lambda2) / p.mu2c2
    v_t = outer2 * r2 * x_t
    spec = np.fft.fft(np.stack([outer1, u_t, v_t]), 2 * n_t)
    s, cu, cv = -spec[0].imag, spec[1].real, spec[2].real
    cv_wrap = np.concatenate([cv[-1:], cv, cv[:1]])   # [k] = cv[k - 1]
    return s, cu + cv_wrap[:-2], cu + cv_wrap[2:]   # at n -+ k


@dataclass(frozen=True, eq=False)
class BoundaryCache:
    """Tabulated boundary data on a shared cosine grid over [y1, y2], and
    every part of the boundary system that does not depend on a.

    cut_base is the one weight of every cut integral against the boundary
    polynomial, w (lambda2 - mu2c2 y^2) sin(Theta1) exp(-Phi1) with w the
    grid weights; phi1_weights is w times g of :func:`phi1_exponent`, the
    integrand numerator of log phi1.  At a given x both are divided by
    K(x, y) of :func:`cut_kernel`.  nu_head holds the moments nu_i of
    cut_base z^(i-1)/(lambda2 (1 - z^2)(1 - z^(2n))), z = y/r2, for i <
    2n + 2 when all n modes are kept, else modes + 2, and nu_tail the
    weights whose moments carry on from there; s, diff and total are
    :func:`theta_sums`, and phi2_one is phi2(1).  The arrays are read
    only, as later solves share the memo.
    """

    params: ModelParams
    bp: BranchPoints
    cfg: QuadConfig
    y_nodes: np.ndarray = field(repr=False)
    cut_base: np.ndarray = field(repr=False)
    phi1_weights: np.ndarray = field(repr=False)
    modes: int
    nu_head: np.ndarray = field(repr=False)
    nu_tail: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    diff: np.ndarray = field(repr=False)
    total: np.ndarray = field(repr=False)
    phi2_one: float

    @classmethod
    def build(cls, params: ModelParams,
              cfg: QuadConfig | None = None) -> "BoundaryCache":
        cfg = cfg or QuadConfig()
        n_t, bp = cfg.grid_size, branch_points(params)
        nodes, weights = cosine_grid(bp.y1, bp.y2, n_t)
        if not np.all((nodes > bp.y1) & (nodes < bp.y2)):
            raise DegenerateBranchPoints(
                f"cut [{bp.y1}, {bp.y2}] too narrow for {n_t} nodes")
        th1 = theta1(params, nodes)
        g = (params.lambda2 - params.mu2c2 * nodes ** 2) * th1 / nodes
        phi_big = phi1_exponent(params, bp, nodes, g)
        phi1_weights = weights * g
        cut_base = (weights * (params.lambda2 - params.mu2c2 * nodes * nodes)
                    * np.sin(th1) * np.exp(-phi_big))
        z = nodes / bp.r2
        modes = poisson_modes(z, n_t)
        head = 2 * n_t + 2 if modes == n_t else modes + 2
        den = (params.lambda2 * (1.0 - z) * (1.0 + z)
               * -np.expm1(2 * n_t * np.log(z)))
        # moment i + 1 is of z^i: cut_base/den and phi1_weights/den; D >=
        # lambda2 (1 - z)^2 > 0 needs no kernel guard
        nu_weights = cut_base / z / den
        nu_head, mu = cut_moments(np.stack([
            nu_weights, phi1_weights / z / den]), z, head)
        phi1_t = phi1_on_theta(poisson_fold(mu, modes, n_t, 2)[:, 1], n_t)
        s, diff, total = theta_sums(params, bp.r2, phi1_t)
        # nu_head a copy, not a view that keeps mu's moments too
        tables = dict(y_nodes=nodes, cut_base=cut_base,
                      phi1_weights=phi1_weights, nu_head=nu_head.copy(),
                      nu_tail=nu_weights * z ** head, s=s, diff=diff,
                      total=total)
        for table in tables.values():
            table.flags.writeable = False
        return cls(params=params, bp=bp, cfg=cfg, modes=modes,
                   phi2_one=phi2(params, 1.0, bp, cfg), **tables)

    def phi1(self, x):
        """The sectionally analytic factor phi1(x), |x| < r1, phi1(0) = 1: a
        float at a scalar x, else an array; KernelZeroOnCut if K(x, .)
        vanishes on the cut."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.phi1_from_sums(xs, kernel_sums(
            self.params, self.y_nodes, self.phi1_weights, xs))
        return out if np.ndim(x) else float(out[0])

    @staticmethod
    def phi1_from_sums(xs, sums):
        """phi1(x) = exp(x/pi sum_y phi1_weights/K(x, y)), from those sums."""
        return np.exp(xs / math.pi * sums)


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
