"""Closed forms and dense sums that only the tests use as references.

theta2_of_x inverts qwblock.kernel.x_of_theta on the cut [x1, x2],
chebyshev_u evaluates the Chebyshev polynomials of the second kind that
the principal-value transform is checked against, dense_coefficients
forms the boundary system's theta sums node by node,
assembled_phi1 catches phi1 on the theta grid on its way into the
boundary cache's theta sums, x_of_theta_long_double and
phi1_theta_long_double give x(theta) and phi1's cut integral on that grid
in long double, and
phi1_exponent_long_double sums Phi1's regular integral densely in long
double.
"""

import math
from unittest import mock

import numpy as np

from qwblock import boundary
from qwblock.boundary import phi1_exponent, theta1
from qwblock.kernel import BranchPoints, branch_points, x_of_theta
from qwblock.model import ModelParams
from qwblock.quadrature import (blocks, chebyshev_coefficients, cosine_grid,
                                cut_hilbert)


def theta2_of_x(params: ModelParams, x, bp: BranchPoints | None = None):
    """Inverse of x_of_theta on [x1, x2], with sin(theta2) >= 0.

    Defined so that Y0(x + 0i) = r2 * exp(-i*theta2(x)).
    """
    bp = bp or branch_points(params)
    x = np.asarray(x, dtype=float)
    if np.any(x < bp.x1 - 1e-12) or np.any(x > bp.x2 + 1e-12):
        raise ValueError(f"x outside [{bp.x1}, {bp.x2}]")
    s = params.rate_sum
    q2 = params.mu1c1 * x * x - s * x + params.lambda1
    denom = 2.0 * x * math.sqrt(params.mu2c2 * params.lambda2)
    cos_t = np.clip(-q2 / denom, -1.0, 1.0)
    out = np.arccos(cos_t)
    return out if out.ndim else float(out)


def chebyshev_u(n: int, t):
    """Chebyshev polynomial of the second kind U_n(t), by recurrence."""
    if n < 0:
        raise ValueError("n must be non-negative")
    t = np.asarray(t, dtype=float)
    u_prev = np.ones_like(t)
    if n == 0:
        return u_prev if u_prev.ndim else float(u_prev)
    u = 2.0 * t
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * t * u - u_prev
    return u if u.ndim else float(u)


def dense_coefficients(p, cache, n_t):
    """alpha and beta of assemble as whole (k, theta) matrices: np.sin of
    every k*theta, y**(k-1), and alpha2 with its three sines.  The
    theta = 0 node is left out: sin(n * 0) = 0 weights it out of every
    sum, and there 1/(1 - x) is infinite when x(0) = 1."""
    a, r2 = p.a, cache.bp.r2
    theta = np.linspace(0.0, math.pi, n_t + 1)[1:]
    w_t = np.full(n_t, math.pi / n_t)
    w_t[-1] *= 0.5
    x_t = np.asarray(x_of_theta(p, theta))
    phi1_t = cache.phi1(x_t)
    denom_t = p.lambda1 + p.lambda2 - (p.mu1c1 + p.mu2c2) * x_t
    bp = cache.bp
    y, w = cosine_grid(bp.y1, bp.y2, cache.y_nodes.size)
    th1 = theta1(p, y)
    phi_big = phi1_exponent(p, bp, y, (p.lambda2 - p.mu2c2 * y * y)
                            * th1 / y)
    base = w * (p.lambda2 - p.mu2c2 * y * y) * np.sin(th1) * np.exp(-phi_big)
    denom_j = (p.mu2c2 * y[:, None] ** 2 + p.lambda2 - 2.0 * y[:, None]
               * math.sqrt(p.mu2c2 * p.lambda2) * np.cos(theta)[None, :])
    ks = np.arange(a + 1)
    jk = (y[None, :] ** (ks[:, None] - 1) * base) @ (1.0 / denom_j)
    sin_np1 = np.sin(np.outer(ks[1:], theta))
    outer1 = w_t * x_t * phi1_t / denom_t * np.sin(theta)
    alpha1 = 2.0 * p.mu2c2 / math.pi ** 2 * sin_np1 @ (outer1 * jk).T
    jk_small = ((r2 * r2 + x_t) * np.sin(np.outer(ks, theta))
                - x_t * r2 * np.sin(np.outer(ks + 1, theta))
                - r2 * np.sin(np.outer(ks - 1, theta))) / ((1.0 - x_t) * denom_t)
    alpha2 = (2.0 * p.mu2c2 / math.pi * r2 ** (ks - 1.0)
              * (sin_np1 @ (w_t * x_t * jk_small).T))
    beta = (2.0 * p.mu2c2 * p.lambda2 / (p.lambda1 * math.pi)) * sin_np1 @ outer1
    return alpha1 + alpha2, beta


def assembled_phi1(params: ModelParams, cfg):
    """A BoundaryCache built at cfg, and phi1(x(theta_j)), j = 0..n, as its
    build computes it from the folded cut moments: the value phi1_on_theta
    returns to it, which the build must ask for exactly once."""
    real, seen = boundary.phi1_on_theta, []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(boundary, "phi1_on_theta", spy):
        cache = boundary.BoundaryCache.build(params, cfg)
    assert len(seen) == 1
    return cache, seen[0]


def x_of_theta_long_double(params: ModelParams, n: int):
    """x(theta_j), theta_j = pi j/n, j = 0..n, in np.longdouble: the small
    root 2 lambda1/(c + sqrt(c^2 - 4 mu1c1 lambda1)) of K(., Y0 = r2 e^(i
    theta)), with its discriminant formed directly, as a reference for
    qwblock.kernel.x_of_theta, which writes it as a sum of non-negative
    terms; long double's 11 extra bits take the discriminant's loss, 4e-13
    in double on (1.001, 1, 1, 1), to about 2e-16."""
    ld, p = np.longdouble, params
    theta = np.arccos(ld(-1.0)) * np.arange(n + 1) / ld(n)
    lam1, lam2, mu1, mu2 = map(ld, (p.lambda1, p.lambda2, p.mu1c1, p.mu2c2))
    c = lam1 + lam2 + mu1 + mu2 - 2 * np.sqrt(mu2 * lam2) * np.cos(theta)
    return 2 * lam1 / (c + np.sqrt(np.maximum(c * c - 4 * mu1 * lam1, 0)))


def phi1_theta_long_double(cache):
    """phi1 at x(theta_j), theta_j = pi j/n, j = 0..n, from
    x_of_theta_long_double and the cut sum of phi1_weights/K(x, y) in
    np.longdouble, with no Poisson fold."""
    ld, p = np.longdouble, cache.params
    lam1, lam2, mu1, mu2 = map(ld, (p.lambda1, p.lambda2, p.mu1c1, p.mu2c2))
    x = x_of_theta_long_double(p, cache.cfg.grid_size)[:, None]
    y = cache.y_nodes.astype(ld)[None, :]
    kern = (mu1 * x * x * y + mu2 * x * y * y
            - (lam1 + lam2 + mu1 + mu2) * x * y + lam1 * y + lam2 * x)
    log_phi1 = x[:, 0] / np.arccos(ld(-1.0)) * np.sum(
        cache.phi1_weights.astype(ld) / kern, axis=1)
    return np.exp(log_phi1).astype(float)


def phi1_exponent_long_double(params: ModelParams, n: int):
    """Phi1 on the n-node cosine grid of [y1, y2] by partial fractions,
    y/(pi (mu2c2 y^2 - lambda2)) [cut_hilbert(g) - mu2c2 y sum_xi w g/(mu2c2
    y xi - lambda2)], with the regular sum node by node and the prefactor
    in np.longdouble; returns (y, Phi1)."""
    bp = branch_points(params)
    y, w = cosine_grid(bp.y1, bp.y2, n)
    g = (params.lambda2 - params.mu2c2 * y * y) * theta1(params, y) / y
    ld = np.longdouble
    lam2, mu2, yl = ld(params.lambda2), ld(params.mu2c2), y.astype(ld)
    wg = w.astype(ld) * g.astype(ld)
    regular = np.empty(n, dtype=ld)
    for rows in blocks(n, n):
        regular[rows] = np.sum(wg / (mu2 * yl[rows, None] * yl[None, :]
                                     - lam2), axis=1)
    pv = cut_hilbert(chebyshev_coefficients(g)).astype(ld)
    return y, (yl / (np.arccos(ld(-1.0)) * (mu2 * yl * yl - lam2))
               * (pv - mu2 * yl * regular)).astype(float)
