"""Independent ground truth by direct stationary solves.

Two chains are solved exactly (up to truncation): the limiting
quarter-plane walk restricted to a finite box with outward transitions
suppressed, and the original finite-capacity two-DC chain before the
many-servers rescaling.  Both go through a sparse direct solve of the
balance equations with a normalization row; the stationarity residual
and the probability mass sitting on the truncation rim are reported so
callers can judge the truncation error instead of trusting it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import BoxTooSmall, NonPositiveRate, StateSpaceTooLarge
from .model import BlockingPair, ModelParams, as_threshold, validate

BOX_SAFETY = 20.0    # default_box gives each side ~BOX_SAFETY/(1-rho) states
MAX_STATES = 4_000_000    # largest chain either oracle solves
# pre-limit window: a DC-1 state is left out when its Erlang mass is below
WINDOW_LOG = 37.0    # e^-37 = 8.5e-17 of the mode's, under double rounding


@dataclass
class TruncatedDistribution:
    """Stationary probabilities of the truncated walk on a box."""

    box: tuple[int, int]
    probs: np.ndarray          # shape (n1_max+1, n2_max+1)
    boundary_mass: float
    residual: float
    a: int

    def marginal_n1(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_n2(self) -> np.ndarray:
        return self.probs.sum(axis=0)


def _stationary_from_transitions(n_states: int, rows, cols, rates,
                                 pin: int = 0):
    """Stationary vector of a CTMC given off-diagonal transition triplets.

    The balance equations have rank n-1, so pi[pin] is fixed to 1, that
    state's equation dropped, the rest solved by sparse LU, and the
    result normalized.  ``pin`` should sit near the mode of the
    distribution so the solved ratios stay within floating-point range.
    Returns (pi, residual) with residual the max balance violation.
    """
    if pin != 0:
        # relabel so the pinned state is index 0
        swap = np.arange(n_states)
        swap[0], swap[pin] = pin, 0
        rows, cols = swap[rows], swap[cols]
    out_rate = np.zeros(n_states)
    np.add.at(out_rate, rows, rates)
    q = scipy.sparse.coo_matrix(
        (np.concatenate([rates, -out_rate]),
         (np.concatenate([rows, np.arange(n_states)]),
          np.concatenate([cols, np.arange(n_states)]))),
        shape=(n_states, n_states)).tocsr()
    # rank deficiency is exactly one: pin pi[0] = 1, drop equation 0,
    # solve the remaining sparse system, then normalize
    qt = q.T.tocsc()
    a11 = qt[1:, 1:]
    rhs = -np.asarray(qt[1:, [0]].todense()).ravel()
    # minimum degree on A^T + A fits the generators' symmetric 5-point pattern
    rest = scipy.sparse.linalg.spsolve(a11.tocsc(), rhs,
                                       permc_spec="MMD_AT_PLUS_A")
    pi = np.concatenate([[1.0], rest])
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ q)))
    if pin != 0:
        pi[[0, pin]] = pi[[pin, 0]]
    return pi, residual


def _box_chain(side1: int, side2: int, moves, pin=(0, 0)):
    """Stationary vector of a chain on the box {0..side1} x {0..side2}.

    ``moves(n1, n2)`` lists (mask, delta1, delta2, rate) per kind of
    transition, rate a scalar or an array over the states.  ``pin`` is
    the state pinned in the solve.  Returns (probs on the box, residual).
    """
    if min(side1, side2) < 1:
        raise BoxTooSmall(f"box sides ({side1}, {side2}) must be at least 1")
    if (side1 + 1) * (side2 + 1) > MAX_STATES:
        raise StateSpaceTooLarge(f"{(side1 + 1) * (side2 + 1)} states "
                                 f"exceeds {MAX_STATES:.0e}")
    w = side2 + 1
    n1, n2 = (g.ravel() for g in np.meshgrid(
        np.arange(side1 + 1), np.arange(w), indexing="ij"))
    idx = n1 * w + n2
    rows, cols, rates = [], [], []
    for mask, delta1, delta2, rate in moves(n1, n2):
        rows.append(idx[mask])
        cols.append(idx[mask] + delta1 * w + delta2)
        rates.append(np.broadcast_to(rate, mask.shape)[mask])
    pi, residual = _stationary_from_transitions(
        idx.size, np.concatenate(rows), np.concatenate(cols),
        np.concatenate(rates), pin=pin[0] * w + pin[1])
    return pi.reshape(side1 + 1, w), residual


def default_box(params: ModelParams) -> tuple[int, int]:
    """Box sized from the per-axis geometric decay rates.

    n1 decays at rho1 = mu1c1/lambda1; n2 at mu2c2 over the effective
    service lambda2 + lambda1*P(n1=0).  Each side gets ~BOX_SAFETY/(1-rho)
    states, clipped to [60, 2500].
    """
    params = validate(params)
    rho1 = params.mu1c1 / params.lambda1
    eff2 = params.lambda2 + params.lambda1 * (1.0 - rho1)
    rho2 = params.mu2c2 / eff2
    def side(rho):
        n = math.ceil(BOX_SAFETY / max(1.0 - rho, 1e-3))
        return int(np.clip(n, 60, 2500))
    return side(rho1), side(rho2) + params.a


def solve_limiting_walk(params: ModelParams,
                        box: tuple[int, int] = (400, 400)
                        ) -> TruncatedDistribution:
    """Stationary distribution of the limiting walk on a truncated box.

    Outward transitions at the rim are suppressed (reflecting
    truncation), which keeps a proper generator; the rim mass bounds the
    truncation error.  Raises BoxTooSmall when the rim holds more than
    1e-4 probability.
    """
    params = validate(params)
    n1_max, n2_max = box

    def moves(n1, n2):
        down = params.lambda2 + params.lambda1 * ((n1 == 0) & (n2 > params.a))
        return [(n1 < n1_max, +1, 0, params.mu1c1),
                (n2 < n2_max, 0, +1, params.mu2c2),
                (n1 > 0, -1, 0, params.lambda1),
                (n2 > 0, 0, -1, down)]

    probs, residual = _box_chain(n1_max, n2_max, moves)
    boundary_mass = float(probs[-1, :].sum() + probs[:, -1].sum()
                          - probs[-1, -1])
    if boundary_mass > 1e-4:
        raise BoxTooSmall(
            f"truncation rim holds {boundary_mass:.3e} probability; "
            f"enlarge the box {box}")
    return TruncatedDistribution(box=box, probs=probs,
                                 boundary_mass=boundary_mass,
                                 residual=residual, a=params.a)


def blocking_from_distribution(dist: TruncatedDistribution,
                               params: ModelParams) -> BlockingPair:
    """B1 = P(n1=0, n2<=a), B2 = P(n2=0) from a truncated solve."""
    b1 = float(dist.probs[0, :params.a + 1].sum())
    b2 = float(dist.probs[:, 0].sum())
    return BlockingPair(b1, b2)


def oracle_blocking(params: ModelParams,
                    box: tuple[int, int] = (400, 400)) -> BlockingPair:
    """Convenience wrapper: truncated solve plus blocking extraction."""
    return blocking_from_distribution(solve_limiting_walk(params, box), params)


def _window_bottom(load: float, cap: int) -> int:
    """Lowest m in [0, cap - 1] with Erlang(load) log-pmf within WINDOW_LOG
    of the mode's; the pmf is log-concave, so bisection finds it."""
    mode = min(cap, int(load))
    below, top = -1, max(min(mode, cap - 1), 0)
    while top - below > 1:
        mid = (below + top) // 2
        drop = ((mode - mid) * math.log(load) - math.lgamma(mode + 1)
                + math.lgamma(mid + 1))
        below, top = (below, mid) if drop <= WINDOW_LOG else (mid, top)
    return top


def solve_prelimit(lambda1: float, lambda2: float, mu1: float, mu2: float,
                   c1: float, c2: float, a: int, nu: float) -> BlockingPair:
    """Exact blocking of the finite pre-limit chain with scaling factor nu.

    Capacities are C_i = nu * c_i (rounded with a warning when not
    integral).  A redirected DC-1 request is lost when N1 = C1 and
    C2 - a <= N2 <= C2; DC-2 requests are lost when N2 = C2.  Rates,
    capacities and nu must be positive and finite, a a non-negative int.
    Overflow never reaches DC 1, so m1 keeps to [_window_bottom, C1].
    """
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2),
                        ("mu1", mu1), ("mu2", mu2), ("c1", c1), ("c2", c2),
                        ("nu", nu), ("nu*c1", nu * c1), ("nu*c2", nu * c2)):
        if not 0.0 < value < math.inf:
            raise NonPositiveRate(f"{name} must be positive and finite, "
                                  f"got {value!r}")
    a = as_threshold(a)
    cap1 = nu * c1
    cap2 = nu * c2
    if abs(cap1 - round(cap1)) > 1e-9 or abs(cap2 - round(cap2)) > 1e-9:
        warnings.warn(f"nu*c = ({cap1}, {cap2}) rounded to integers")
    cap1, cap2 = round(cap1), round(cap2)
    big1, big2 = nu * lambda1, nu * lambda2
    lo = _window_bottom(big1 / mu1, cap1)

    def moves(n1, m2):
        m1 = n1 + lo
        up = big2 * (m2 < cap2) + big1 * ((m1 == cap1) & (m2 < cap2 - a))
        return [(m1 < cap1, +1, 0, big1),
                (m2 < cap2, 0, +1, up),
                (m1 > lo, -1, 0, mu1 * m1.astype(float)),
                (m2 > 0, 0, -1, mu2 * m2.astype(float))]

    # pin near the mode of the independent Erlang product to avoid
    # overflow in the solved probability ratios
    probs, _ = _box_chain(cap1 - lo, cap2, moves, pin=(
        min(cap1, int(big1 / mu1)) - lo, min(cap2, int(big2 / mu2))))
    b1 = float(probs[cap1 - lo, max(cap2 - a, 0):].sum())
    b2 = float(probs[:, cap2].sum())
    return BlockingPair(b1, b2)
