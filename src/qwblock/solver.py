"""Boundary polynomial determination and blocking probabilities.

The reservation threshold makes the boundary unknown a polynomial with
coefficients p(0,0..a).  Seeded with p(0,0) = 1, the rest solve a dense
a-by-a system of double sums over a theta grid and the cut grid: the
kernel's Poisson series folded mod 2n is exact on theta_j = pi j/n, so
each is cut moments times FFT sums, of which the boundary cache holds all
that does not depend on a.  Linearity in the seed lets the vector be
rescaled once so that rate conservation holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .boundary import (BoundaryCache, boundary_cache, cut_kernel,
                       cut_moments, kernel_sums, phi2, poisson_fold, wrapped)
from .errors import (KernelZeroOnCut, NegativeProbability, SingularSystem,
                     refuse_float_errors)
from .kernel import discriminants, kernel_value, x_roots
from .model import (BlockingPair, ModelParams, as_threshold,
                    isolated_limits, validate)
from .quadrature import QuadConfig, cosine_grid

CONTOUR_POINTS = 4096    # circle nodes of the P2 contour integral
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BoundaryVector:
    """Coefficients p(0, 0..a) of the boundary polynomial."""

    p: np.ndarray
    cond: float = 0.0    # of B1 or B2, the larger (solve_boundary); 0 at a = 0

    @property
    def p00(self) -> float:
        return float(self.p[0])


@dataclass(frozen=True)
class CoefficientMatrix:
    """Assembled alpha_{n,k} = alpha1 + alpha2 and beta_n coefficients."""

    alpha: np.ndarray       # (a, a+1)
    beta: np.ndarray        # (a,)
    p1_one: np.ndarray      # (a+1,): B2 = P1(1) = p1_one @ p(0, 0..a)


@dataclass
class BlockingReport:
    blocking: BlockingPair
    p00: float
    boundary: BoundaryVector
    baseline_inf: BlockingPair
    baseline_a0: BlockingPair
    normalization_residual: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "blocking": asdict(self.blocking),
            "p00": self.p00,
            "boundary": [float(v) for v in self.boundary.p],
            "baseline_inf": asdict(self.baseline_inf),
            "baseline_a0": asdict(self.baseline_a0),
            "normalization_residual": self.normalization_residual,
            "diagnostics": self.diagnostics,
        }


def assemble(params: ModelParams, cache: BoundaryCache) -> CoefficientMatrix:
    """The boundary system's coefficients; at a = 0 only p1_one.

    cos(m theta_j) on the trapezoid grid theta_j = pi j/n is even in m with
    period 2n, so the Poisson series of 1/D = x(theta_j)/K(x(theta_j), y),
    z = y/r2 < 1, folds exactly to sum_{r=0..n} c_r (z^r + z^(2n-r))
    cos(r theta_j) / (lambda2 (1 - z^2)(1 - z^(2n))), c_0 = c_n = 1, else
    2: each entry is cut moments of cut_base z^i over that denominator
    against one FFT's sines and cosines.  The cache holds the FFT sums and
    the moments in nu_head; here come the a + 1 moments past them, and
    those of cut_base/K(1, y) for p1_one.  Modes below e^-37 of mode 0
    go, folds too.
    """
    p, a = params, params.a
    n_t, y, r2 = cache.cfg.grid_size, cache.y_nodes, cache.bp.r2
    kern1 = cut_kernel(p, y, np.ones(1))[0]
    z = y / r2
    # moment i + 1 of the second row is of cut_base z^i/K(1, y)
    tail, m1 = cut_moments(np.stack([cache.nu_tail, cache.cut_base / z
                                     / kern1]), z, a + 1)
    r2_pow = r2 ** (np.arange(a + 1) - 1.0)
    p1_one = cache.phi1_from_sums(1.0, np.sum(cache.phi1_weights / kern1)) * (
        np.eye(1, a + 1)[0]
        + p.lambda1 / (p.lambda2 * math.pi) * r2_pow * m1)
    if a == 0:
        return CoefficientMatrix(np.zeros((0, 1)), np.zeros(0), p1_one)
    nu = np.concatenate([cache.nu_head, tail])
    modes, s = cache.modes, cache.s
    # sin(n t) cos(r t) and sin(n t) sin(k t) to single sines and cosines
    alpha = 2.0 * p.mu2c2 / math.pi ** 2 * r2_pow * (
        (wrapped(s, a, modes + 1, 1, 1) + wrapped(s, a, modes + 1, 1, -1))
        @ poisson_fold(nu, modes, n_t, a + 1)
        + 0.5 * (wrapped(cache.diff, a, a + 1, 1, -1)
                 - wrapped(cache.total, a, a + 1, 1, 1)))
    beta = (2.0 * p.mu2c2 * p.lambda2 / (p.lambda1 * math.pi)
            * wrapped(s, a, 1, 1, 1)[:, 0])
    return CoefficientMatrix(alpha, beta, p1_one)


def eval_P1(params: ModelParams, cache: BoundaryCache,
            bvec: BoundaryVector | np.ndarray, x):
    """Generating function P1(x) of the n2 = 0 boundary, |x| < r1: a float
    at a scalar x, else an array: log phi1 and the cut integral from one
    kernel_sums over both weights."""
    p = params
    coeffs = bvec.p if isinstance(bvec, BoundaryVector) else np.asarray(bvec)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    y = cache.y_nodes
    log_sum, integral = kernel_sums(p, y, np.stack([
        cache.phi1_weights, cache.cut_base * np.polyval(coeffs[::-1], y) / y]),
        xs)
    phi1_x = cache.phi1_from_sums(xs, log_sum)
    out = (phi1_x * float(coeffs[0])
           + xs * p.lambda1 * phi1_x / (p.lambda2 * math.pi) * integral)
    return out if np.ndim(x) else float(out[0])


def eval_P2(params: ModelParams, cache: BoundaryCache,
            bvec: BoundaryVector | np.ndarray, y):
    """Generating function P2(y) of the n1 = 0 boundary, |y| < r2.

    Two pieces: a cut integral over [x1, x2] carrying P1, and a contour
    integral over the circle of radius r2 carrying the boundary
    polynomial (trapezoid on a uniform grid of CONTOUR_POINTS, spectrally
    accurate for the analytic integrand), plus p(0,0).  Accepts complex y
    inside the circle; returns a float for real y.
    """
    p = params
    coeffs = bvec.p if isinstance(bvec, BoundaryVector) else np.asarray(bvec)
    bp = cache.bp
    if abs(y) >= bp.r2:
        raise ValueError(f"P2 requires |y| < r2 = {bp.r2}")

    x_nodes, x_weights = cosine_grid(bp.x1, bp.x2, cache.cfg.grid_size)
    neg_d2 = np.maximum(-discriminants(p, x_nodes)[1], 0.0)
    # sqrt(-Delta2) vanishes like sqrt at both endpoints: cosine grid regime
    p1_vals = eval_P1(p, cache, coeffs, x_nodes)
    kern_x = kernel_value(p, x_nodes, y)
    denom = (x_nodes * (p.lambda1 + p.lambda2 - (p.mu1c1 + p.mu2c2) * x_nodes)
             * kern_x)
    integrand = (p1_vals * (p.lambda1 - p.mu1c1 * x_nodes ** 2)
                 * np.sqrt(neg_d2) / denom)
    term1 = y * p.lambda2 / (2.0 * math.pi * p.lambda1) \
        * np.sum(x_weights * integrand)

    th = np.linspace(0.0, 2.0 * math.pi, CONTOUR_POINTS, endpoint=False)
    z = bp.r2 * np.exp(1j * th)
    x0, _ = x_roots(p, z, bp)
    kern_z = kernel_value(p, x0, y)
    if np.min(np.abs(kern_z)) < 1e-9 * p.rate_sum:
        raise KernelZeroOnCut("contour passes near a kernel zero")
    pm = np.polyval(coeffs[::-1], z)
    f = ((z - 1.0) * (p.lambda2 - p.mu2c2 * z * z) * x0 * x0 * pm
         / (z * z * (z - x0) * kern_z))
    term2 = y * np.mean(f * z)

    total = term1 + term2 + float(coeffs[0])
    if isinstance(y, complex):
        return complex(total)
    return float(np.real(total))


@refuse_float_errors
def solve_boundary(params: ModelParams,
                   cfg: QuadConfig | None = None,
                   cache: BoundaryCache | None = None,
                   cm: CoefficientMatrix | None = None, *,
                   thresholds: list[int] | None = None
                   ) -> BoundaryVector | list[BoundaryVector]:
    """Determine p(0, 0..a): seed p(0,0) = 1, solve, rescale.

    The system for threshold a is the leading a x (a+1) block of ``cm``,
    assembled at any threshold >= a (by default at params.a).  Every
    pipeline quantity is linear in p(0,0), so the normalization to the
    drift fixes the seed.  Given ``thresholds`` (ints up to cm's, as from
    :func:`as_threshold`), params.a is unread and their vectors return as
    a list.  The top system is formed once, each threshold makes only its
    two LAPACK solves, and the gate, cond, scaling and sign check run over
    all at once.  A non-finite system refuses them all; else the first
    threshold refused, in the order given, raises its error, and solving
    stops at an exactly singular one.
    """
    params = validate(params)
    cache = cache or boundary_cache(params, cfg or QuadConfig())
    cm = cm or assemble(params, cache)
    ts = [params.a] if thresholds is None else thresholds
    top = max(ts, default=0)
    lo = sorted({0, *ts})[-2] if top else 0    # the second largest
    # row 0 is p1_one and rows 1.. (rhs | M) of M u = rhs, so threshold
    # a's system is the leading (a+1)-square block
    system = np.empty((top + 1, top + 1))
    system[0] = cm.p1_one[:top + 1]
    np.add(cm.beta[:top], cm.alpha[:top, 0], out=system[1:, 0])
    np.subtract(0.0, cm.alpha[:top, 1:top + 1], out=system[1:, 1:])
    # M's diagonal, r2^n, every (top + 2)th entry from [1, 1]
    system.reshape(-1)[top + 2::top + 2] += cache.bp.r2 ** np.arange(top)
    if not np.isfinite(system).all():
        raise SingularSystem("boundary system is not finite")
    mat, rhs = system[1:, 1:], system[1:, 0]
    # B1, B2 before scaling are c0 + c^T u, (c0, c) the columns of cb
    cb = np.ones((top + 1, 2))
    cb[:, 1] = system[0]
    # per threshold only the two LAPACK solves, into rows zero past it
    unscaled, w = np.zeros((len(ts), top + 1)), np.zeros((len(ts), top, 2))
    unscaled[:, 0] = 1.0
    singular = None
    try:
        for i, a in enumerate(ts):
            if a:
                unscaled[i, 1:a + 1] = np.linalg.solve(mat[:a, :a], rhs[:a])
                w[i, :a] = np.linalg.solve(mat[:a, :a].T, cb[1:a + 1])
    except np.linalg.LinAlgError as exc:
        singular = SingularSystem(f"boundary system: {exc}")
        ts, unscaled, w = ts[:i], unscaled[:i], w[:i]
    # Changes in M, rhs bounded by eps E, eps f move B by up to eps |W|^T
    # (E|u| + f) / |B|, W = M^-T c (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., sec. 7.2).  The gate takes E = |M|,
    # f = |rhs|; cond, each column's largest entry, the scale at which the
    # assembly rounds: run's row a <= lo holds those of |rhs | M|'s first a
    # rows, and row lo + 1 of all (one max, not a running one).  NaN fails
    # the gate.
    abs_s, a_of = np.abs(system), np.array(ts, dtype=int)
    run = np.zeros((lo + 2, top + 1))
    np.maximum.accumulate(abs_s[1:lo + 1], axis=0, out=run[1:lo + 1])
    np.maximum(run[lo], abs_s[lo + 1:].max(axis=0, initial=0.0),
               out=run[lo + 1])
    run = run[np.minimum(a_of, lo + 1)]
    with np.errstate(all="ignore"):
        u = unscaled[:, 1:]
        abs_u, abs_wt = np.abs(u), np.abs(w).transpose(0, 2, 1)
        raw = cb[0] + u @ cb[1:]
        b = np.abs(raw)
        gate = ((abs_wt @ ((abs_s[1:, 1:] @ abs_u.T).T + abs_s[1:, 0])[
            ..., None])[..., 0] / b).max(axis=1)
        cond = (abs_wt.sum(axis=2) / b * (
            (run[:, None, 1:] @ abs_u[..., None])[:, 0] + run[:, :1])).max(
                axis=1)
        scale = params.drift / (raw @ [params.lambda1, params.lambda2])
        p = scale[:, None] * unscaled
    refused = ~(gate * EPS <= 1e-10)
    bad = refused | (p < -1e-8).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if refused[i]:
            raise SingularSystem(f"condition number of B1, B2 {gate[i]:.3e}")
        raise NegativeProbability(f"boundary probabilities {p[i, :ts[i] + 1]}")
    if singular is not None:
        raise singular
    p = np.maximum(p, 0.0)
    bvecs = [BoundaryVector(p=p[i, :a + 1], cond=float(cond[i]))
             for i, a in enumerate(ts)]
    return bvecs if thresholds is not None else bvecs[0]


@refuse_float_errors
def sweep(params: ModelParams, thresholds,
          cfg: QuadConfig | None = None) -> list[BlockingReport]:
    """Blocking reports at each threshold, params.a unread.  alpha_{n,k}
    and beta_n depend on n and k only, so one assembly at the largest
    threshold serves all, and one :func:`solve_boundary` call solves them
    all on it; the first refused threshold raises its error."""
    p = params
    thresholds = [as_threshold(a) for a in thresholds]
    top = validate(p.with_a(max(thresholds, default=0)))
    cache = boundary_cache(top, cfg)
    cm = assemble(top, cache)
    bvecs = solve_boundary(top, cfg, cache, cm, thresholds=thresholds)
    pairs = [BlockingPair(float(b.p.sum()), float(cm.p1_one[:b.p.size] @ b.p))
             for b in bvecs]
    inf, a0 = isolated_limits(top), _baseline_pair(top, cache.phi2_one)
    return [BlockingReport(
        blocking=pair, p00=bvec.p00, boundary=bvec, baseline_inf=inf,
        baseline_a0=a0, normalization_residual=abs(
            p.lambda1 * pair.b1 + p.lambda2 * pair.b2 - p.drift),
        diagnostics={"grid_size": cache.cfg.grid_size,
                     "condition_estimate": bvec.cond})
        for bvec, pair in zip(bvecs, pairs)]


def blocking(params: ModelParams,
             cfg: QuadConfig | None = None) -> BlockingReport:
    """Report at params.a: B1 = sum_n p(0,n), B2 = P1(1), baselines."""
    return sweep(params, [params.a], cfg)[0]


def blocking_with_estimate(params: ModelParams,
                           cfg: QuadConfig | None = None) -> BlockingReport:
    """Blocking report with, for each headline quantity, its change when
    the grid is halved: under spectral convergence, a conservative bound
    on the remaining error."""
    cfg = cfg or QuadConfig()
    report = blocking(params, cfg)
    coarse = blocking(params, QuadConfig(cfg.grid_size // 2))
    report.diagnostics["error_estimate"] = {
        "b1": abs(report.blocking.b1 - coarse.blocking.b1),
        "b2": abs(report.blocking.b2 - coarse.blocking.b2),
        "p00": abs(report.p00 - coarse.p00),
    }
    return report


def baseline_a0(params: ModelParams,
                cfg: QuadConfig | None = None) -> BlockingPair:
    """No-reservation baseline (a = 0) in closed form via phi2(1)."""
    validate(params.with_a(0))
    return _baseline_pair(params, phi2(params, 1.0, cfg=cfg))


def _baseline_pair(params: ModelParams, phi2_1: float) -> BlockingPair:
    """(B1, B2) at a = 0 from phi2(1)."""
    if params.lambda2 > params.mu2c2:
        p00 = (params.lambda1 - params.mu1c1) / (params.lambda1 * phi2_1)
    else:
        p00 = params.drift / (params.lambda1 * phi2_1)
    b2 = (params.lambda2 + params.lambda1 * (1.0 - p00)
          - params.mu1c1 - params.mu2c2) / params.lambda2
    return BlockingPair(p00, b2)
