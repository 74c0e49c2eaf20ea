"""Boundary polynomial determination and blocking probabilities.

The reservation threshold creates a finite polynomial unknown with
coefficients p(0,0..a).  Seeding p(0,0) = 1, the remaining coefficients
solve a dense a-by-a linear system whose entries are double integrals
over a theta grid (outer) and the shared boundary cosine grid (inner).
Global linearity in the seed then lets the whole vector be rescaled once
so the rate conservation identity holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .boundary import BoundaryCache, boundary_cache, phi2
from .errors import KernelZeroOnCut, NegativeProbability, SingularSystem
from .kernel import kernel_value, x_roots
from .model import BlockingPair, ModelParams, isolated_limits, validate
from .quadrature import QuadConfig, blocks, cosine_grid

CONTOUR_POINTS = 4096    # circle nodes of the P2 contour integral


@dataclass(frozen=True)
class BoundaryVector:
    """Coefficients p(0, 0..a) of the boundary polynomial."""

    p: np.ndarray
    seed_scale: float    # the normalization-determined p(0,0)
    cond: float = 1.0    # 2-norm condition number; no system at a = 0

    @property
    def p00(self) -> float:
        return float(self.p[0])

    def poly(self, y):
        """P2^-(y) = sum_n p(0,n) y^n (works for complex / array y)."""
        return np.polyval(self.p[::-1], y)


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
    """Coefficients of the boundary linear system, for a >= 1.

    The inner cut integrals J_k are tabulated once per theta node and
    reused for every (n, k) pair; the outer theta integrals use the
    trapezoid rule, spectrally accurate here because the integrands
    extend to smooth even periodic functions of theta.
    """
    p = params
    a = p.a
    if a < 1:
        raise ValueError("assemble requires a >= 1")
    n_t = cache.cfg.grid_size
    theta = np.linspace(0.0, math.pi, n_t + 1)
    w_t = np.full(n_t + 1, math.pi / n_t)
    w_t[[0, -1]] *= 0.5

    x_t, phi1_t = cache.x_theta, cache.phi1_theta
    denom_t = p.lambda1 + p.lambda2 - (p.mu1c1 + p.mu2c2) * x_t
    cos_t = np.cos(theta)
    r2 = cache.bp.r2

    # theta weights of alpha1 and beta, and of alpha2 relative to their
    # common 2*mu2c2/pi^2; sin((k-1)t) = 2cos(t)sin(kt) - sin((k+1)t)
    # leaves alpha2 two sines, u*sin(k theta) + v*sin((k+1) theta)
    outer1 = w_t * x_t * phi1_t / denom_t * np.sin(theta)
    # every sum weights the theta = 0 node by sin(0) = 0; leaving it out
    # keeps 1/(1 - x2) away when queue 2 is critical (x2 = 1)
    outer2 = np.divide(math.pi * w_t * x_t, (1.0 - x_t) * denom_t,
                       out=np.zeros(n_t + 1), where=theta > 0.0)
    u_t = outer2 * (r2 * r2 + x_t - 2.0 * r2 * cos_t)
    v_t = outer2 * r2 * (1.0 - x_t)
    r2_pow = (r2 ** (np.arange(a + 1) - 1.0))[:, None]

    # inner integrals J_k(theta) = sum_y base y^(k-1) / D(y, theta)
    y = cache.y_nodes
    y_base = y ** (np.arange(a + 1)[:, None] - 1) * _cut_base(p, cache)
    quad_y = (p.mu2c2 * y * y + p.lambda2)[:, None]
    cross_y = (2.0 * math.sqrt(p.mu2c2 * p.lambda2) * y)[:, None]
    # sin(k theta_j) = sin(pi (k j mod 2 n_t) / n_t), from one table
    sin_table = np.sin(np.arange(2 * n_t) * (math.pi / n_t))
    ks, nodes = np.arange(a + 2)[:, None], np.arange(n_t + 1)

    alpha, beta = np.zeros((a, a + 1)), np.zeros(a)
    for cols in blocks(n_t + 1, y.size):
        sin_k = sin_table[ks * nodes[cols] % (2 * n_t)]      # k = 0..a+1
        jk = y_base @ (1.0 / (quad_y - cross_y * cos_t[cols]))
        alpha += sin_k[1:a + 1] @ (outer1[cols] * jk + r2_pow * (
            u_t[cols] * sin_k[:a + 1] + v_t[cols] * sin_k[1:])).T
        beta += sin_k[1:a + 1] @ outer1[cols]
    alpha *= 2.0 * p.mu2c2 / math.pi ** 2
    beta *= 2.0 * p.mu2c2 * p.lambda2 / (p.lambda1 * math.pi)
    return CoefficientMatrix(alpha, beta, _p1_one(p, cache, y_base))


def coefficients(params: ModelParams,
                 cache: BoundaryCache) -> CoefficientMatrix:
    """assemble at a >= 1; at a = 0 there is no system, only p1_one."""
    if params.a:
        return assemble(params, cache)
    return CoefficientMatrix(np.zeros((0, 1)), np.zeros(0), _p1_one(
        params, cache, (_cut_base(params, cache) / cache.y_nodes)[None, :]))


def _cut_base(p: ModelParams, cache: BoundaryCache) -> np.ndarray:
    """The weight of every cut integral against the boundary polynomial."""
    y = cache.y_nodes
    return (cache.y_weights * (p.lambda2 - p.mu2c2 * y * y)
            * cache.sin_theta1 * cache.exp_neg_phi1)


def _p1_one(p: ModelParams, cache: BoundaryCache,
            y_base: np.ndarray) -> np.ndarray:
    """eval_P1 at x = 1 as weights on p(0, 0..a), from y_base[k] =
    y^(k-1) _cut_base; phi1(1) refuses a vanishing K(1, y) before 1/K."""
    phi1_one = cache.phi1(1.0)
    row = p.lambda1 / (p.lambda2 * math.pi) * (
        y_base @ (1.0 / kernel_value(p, 1.0, cache.y_nodes)))
    row[0] += 1.0
    return phi1_one * row


def eval_P1(params: ModelParams, cache: BoundaryCache,
            bvec: BoundaryVector | np.ndarray, x):
    """Generating function P1(x) of the n2 = 0 boundary, |x| < r1: a float
    at a scalar x, else an array, tabulated in row blocks."""
    p = params
    coeffs = bvec.p if isinstance(bvec, BoundaryVector) else np.asarray(bvec)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    phi1_x = cache.phi1_many(xs)  # KernelZeroOnCut if K(x, .) vanishes
    y = cache.y_nodes
    weight = _cut_base(p, cache) * np.polyval(coeffs[::-1], y)
    integral = np.empty(xs.size)
    for rows in blocks(xs.size, y.size):
        integral[rows] = np.sum(
            weight / (y * kernel_value(p, xs[rows, None], y)), axis=1)
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
    s = p.rate_sum
    q2 = p.mu1c1 * x_nodes ** 2 - s * x_nodes + p.lambda1
    neg_d2 = np.maximum(4.0 * p.mu2c2 * p.lambda2 * x_nodes ** 2 - q2 * q2, 0.0)
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


def cond_lower_bound(mat: np.ndarray) -> float:
    """Largest over smallest row or column norm: sigma_max is at least the
    one and sigma_min at most the other, so this never exceeds cond(mat)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = mat / np.max(np.abs(mat))
        return max(float(np.max(n) / np.min(n)) for n in (
            np.linalg.norm(scaled, axis=0), np.linalg.norm(scaled, axis=1)))


def solve_boundary(params: ModelParams,
                   cfg: QuadConfig | None = None,
                   cache: BoundaryCache | None = None,
                   cm: CoefficientMatrix | None = None) -> BoundaryVector:
    """Determine p(0, 0..a): seed p(0,0) = 1, solve, rescale.

    The system is the leading a x (a+1) block of ``cm``, assembled at any
    threshold >= a (by default at a).  Every pipeline quantity is linear
    in p(0,0), so the normalization to the drift fixes the seed.
    """
    validate(params)
    cache = cache or boundary_cache(params, cfg or QuadConfig())
    cm = cm or coefficients(params, cache)
    a = params.a
    if a == 0:
        unscaled, cond = np.array([1.0]), 1.0
    else:
        mat = (np.diag(cache.bp.r2 ** np.arange(a, dtype=float))
               - cm.alpha[:a, 1:a + 1])
        rhs = cm.beta[:a] + cm.alpha[:a, 0]
        # the norm bound refuses most ill-posed systems without an SVD;
        # a NaN or infinite entry fails every comparison and is refused
        cond = cond_lower_bound(mat)
        if cond <= 1e12:
            cond = float(np.linalg.cond(mat))
        if not (cond <= 1e12 and np.all(np.isfinite(rhs))):
            raise SingularSystem(f"condition number at least {cond:.3e}, "
                                 "or a non-finite right-hand side")
        unscaled = np.concatenate([[1.0], np.linalg.solve(mat, rhs)])

    b2_raw = float(cm.p1_one[:a + 1] @ unscaled)
    scale = params.drift / (params.lambda1 * float(unscaled.sum())
                            + params.lambda2 * b2_raw)
    p = scale * unscaled
    if np.any(p < -1e-8):
        raise NegativeProbability(f"boundary probabilities {p}")
    return BoundaryVector(p=np.maximum(p, 0.0), seed_scale=scale, cond=cond)


def sweep(params: ModelParams, thresholds,
          cfg: QuadConfig | None = None) -> list[BlockingReport]:
    """Blocking reports at each threshold, params.a unread.  alpha_{n,k}
    and beta_n depend on n and k only, so one assembly at the largest
    threshold serves all; the first refused threshold raises its error."""
    p, thresholds = params, list(thresholds)
    top = validate(p.with_a(max(thresholds, default=0)))
    cache = boundary_cache(top, cfg)
    cm = coefficients(top, cache)
    bvecs = [solve_boundary(p.with_a(a), cfg, cache, cm) for a in thresholds]
    pairs = [BlockingPair(float(b.p.sum()), float(cm.p1_one[:b.p.size] @ b.p))
             for b in bvecs]
    inf, a0 = isolated_limits(top), baseline_a0(top, cfg)
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
    """Blocking report with grid-halving error estimates attached.

    The reported estimate for each headline quantity is the change seen
    when halving the grid; spectral convergence makes this a conservative
    bound on the remaining error.
    """
    cfg = cfg or QuadConfig()
    report = blocking(params, cfg)
    coarse = blocking(params, cfg.with_grid(cfg.grid_size // 2))
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
    phi2_1 = phi2(params, 1.0, cfg=cfg)
    if params.lambda2 > params.mu2c2:
        p00 = (params.lambda1 - params.mu1c1) / (params.lambda1 * phi2_1)
    else:
        p00 = params.drift / (params.lambda1 * phi2_1)
    b2 = (params.lambda2 + params.lambda1 * (1.0 - p00)
          - params.mu1c1 - params.mu2c2) / params.lambda2
    return BlockingPair(p00, b2)
