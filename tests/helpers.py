"""Closed forms that only the tests use as references.

theta2_of_x inverts qwblock.kernel.x_of_theta on the cut [x1, x2], and
chebyshev_u evaluates the Chebyshev polynomials of the second kind that
the principal-value transform is checked against.
"""

import math

import numpy as np

from qwblock.kernel import BranchPoints, branch_points
from qwblock.model import ModelParams


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
