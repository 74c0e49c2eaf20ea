"""Independent ground truth by direct stationary solves.

Two chains are solved exactly (up to truncation): the limiting
quarter-plane walk restricted to a finite box with outward transitions
suppressed, and the original finite-capacity two-DC chain before the
many-servers rescaling.  Each is one list of moves on a box
(_box_moves), from which _balance gives pi Q.  The pre-limit chain, on a
window of each DC's occupancy, and a walk whose box the level solve does
not fit, take one sparse LU of Q^T with the balance equation of the
pinned state, near the mode, replaced in place; the walk
otherwise is solved level by level in the eigenbasis of its n2
generator, an M/M/1/N generator with a closed-form spectrum, and one
dense LU factored in place.  Both paths report the residual max |pi Q|
from _balance and the probability mass on the truncation rim, so
callers can judge the truncation error instead of trusting it.

SciPy is imported by the functions that use it, so importing the package
(or running the analytic solver) loads none of it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (BoxTooSmall, NonPositiveRate, SingularSystem,
                     StateSpaceTooLarge, refuse_float_errors)
from .model import BlockingPair, ModelParams, as_threshold, validate
from .quadrature import blocks

BOX_SAFETY = 20.0    # default_box gives each side ~BOX_SAFETY/(1-rho) states
MAX_STATES = 4_000_000    # largest chain either oracle solves
# pre-limit window: an occupancy of DC i is left out when DC i's Erlang mass
WINDOW_LOG = 37.0    # is below e^-37 = 8.5e-17 of the mode's, under rounding
# The level solve keeps two dense (N2+1)-square arrays, the eigenbasis and
# the level-0 LU, 144 MB at this cap on N2 + 1; default_box gives
# N2 + 1 <= 2,701 for a <= 200.
LEVEL_MAX_PHASES = 3_000
# Its eigenbasis is scaled by T2's symmetriser D_k = (mu2c2/lambda2)^(k/2).
# Growth of D_N2 past 1e6 costs digits (errors in B up to 4e-12 at 1e8,
# 5e-3 at 1e12); decay below 1e-150 would leave D^2, which the refinement
# divides by, outside the normal doubles.  Other boxes take the sparse LU.
LEVEL_LOG_SPREAD = (math.log(1e-150), math.log(1e6))


@dataclass
class TruncatedDistribution:
    """Stationary probabilities of the truncated walk on a box."""

    box: tuple[int, int]
    probs: np.ndarray          # shape (n1_max+1, n2_max+1)
    boundary_mass: float
    residual: float


def _span(delta: int, size: int) -> tuple[slice, slice]:
    """(targets, sources) along one axis of length ``size`` for a step
    of ``delta``: the sources are the indices whose step stays inside."""
    return (slice(max(delta, 0), size + min(delta, 0)),
            slice(max(-delta, 0), size - max(delta, 0)))


def _box_sides(box) -> tuple:
    """``box`` as a tuple, refused unless it is two integer sides."""
    sides = tuple(box) if isinstance(box, (tuple, list, np.ndarray)) else ()
    if len(sides) != 2 or not all(isinstance(side, numbers.Integral) and not
                                  isinstance(side, bool) for side in sides):
        raise NonPositiveRate(f"box {box!r}: two sides that must be integers")
    return sides


def _refuse_past_cap(side1: int, side2: int) -> None:
    """StateSpaceTooLarge if {0..side1} x {0..side2} exceeds MAX_STATES."""
    if (side1 + 1) * (side2 + 1) > MAX_STATES:
        raise StateSpaceTooLarge(f"{(side1 + 1) * (side2 + 1)} states "
                                 f"exceeds {MAX_STATES:.0e}")


def _box_moves(side1: int, side2: int, moves) -> list:
    """``moves`` evaluated on the box {0..side1} x {0..side2}.

    ``moves(n1, n2)`` lists (mask, delta1, delta2, rate) per kind of
    transition, rate a scalar or an array over the states; this returns
    the same with every rate an array.  Refuses a box side that is not an
    integer or is below 1, a box above MAX_STATES before allocating it,
    and a move whose mask lets a state leave the box.
    """
    side1, side2 = _box_sides((side1, side2))
    if min(side1, side2) < 1:
        raise BoxTooSmall(f"box sides ({side1}, {side2}) must be at least 1")
    _refuse_past_cap(side1, side2)
    n1, n2 = np.meshgrid(np.arange(side1 + 1), np.arange(side2 + 1),
                         indexing="ij")
    out = []
    for mask, delta1, delta2, rate in moves(n1, n2):
        inside = mask[_span(delta1, side1 + 1)[1], _span(delta2, side2 + 1)[1]]
        if np.count_nonzero(inside) != np.count_nonzero(mask):
            raise ValueError(f"move ({delta1}, {delta2}) leaves the box "
                             f"{{0..{side1}}} x {{0..{side2}}}")
        out.append((mask, delta1, delta2, np.broadcast_to(rate, mask.shape)))
    return out


def _balance(probs: np.ndarray, box_moves: list) -> np.ndarray:
    """pi Q of the chain ``box_moves`` (from _box_moves), by array shifts."""
    flow = np.zeros_like(probs)
    for mask, delta1, delta2, rate in box_moves:
        out = np.where(mask, probs * rate, 0.0)
        (to1, from1), (to2, from2) = (_span(delta1, probs.shape[0]),
                                      _span(delta2, probs.shape[1]))
        flow[to1, to2] += out[from1, from2]
        flow -= out
    return flow


def _box_chain(side1: int, side2: int, moves, pin=(0, 0)):
    """Stationary vector of a chain on the box {0..side1} x {0..side2}.

    ``moves`` is as for _box_moves.  Q^T pi = 0 has rank n - 1, so the
    balance equation of the state ``pin`` is replaced in place by
    pi[pin] = 1 (Stewart, Introduction to the Numerical Solution of Markov
    Chains, 1994, sec. 2.3) and the system solved by sparse LU; ``pin``
    should sit near the mode so the solved ratios stay in range.  Returns
    (probs on the box, max |_balance|); SingularSystem when the solved
    mass is not finite and positive, as when rates near 1e-308 underflow
    in the LU or near 1e308 overflow.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    box_moves = _box_moves(side1, side2, moves)
    w = side2 + 1
    idx = np.arange((side1 + 1) * w).reshape(side1 + 1, w)
    pin = idx[pin]
    src = np.concatenate([idx[mask] for mask, *_ in box_moves])
    dst = np.concatenate([idx[mask] + d1 * w + d2
                          for mask, d1, d2, _ in box_moves])
    rate = np.concatenate([r[mask] for mask, _, _, r in box_moves])
    # column j of Q^T holds state j's moves; row pin is emptied but for a 1
    diag = -np.bincount(src, weights=rate, minlength=idx.size)
    diag[pin] = 1.0
    keep = dst != pin
    qt = scipy.sparse.csc_matrix(
        (np.concatenate([rate[keep], diag]),
         (np.concatenate([dst[keep], idx.ravel()]),
          np.concatenate([src[keep], idx.ravel()]))),
        shape=(idx.size, idx.size))
    rhs = np.zeros(idx.size)
    rhs[pin] = 1.0
    # minimum degree on A^T + A fits the generators' symmetric 5-point pattern
    with warnings.catch_warnings():    # a singular LU returns NaN
        warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
        probs = scipy.sparse.linalg.spsolve(qt, rhs,
                                            permc_spec="MMD_AT_PLUS_A")
    probs = np.maximum(probs.reshape(idx.shape), 0.0)
    mass = probs.sum()
    if not 0.0 < mass < math.inf:
        raise SingularSystem(f"chain generator is singular in double "
                             f"precision: solved mass {float(mass)!r}")
    probs /= mass
    return probs, float(np.max(np.abs(_balance(probs, box_moves))))


def _walk_moves(params: ModelParams, n1_max: int, n2_max: int):
    """The limiting walk's moves on the box, outward ones suppressed."""
    def moves(n1, n2):
        down = params.lambda2 + params.lambda1 * ((n1 == 0) & (n2 > params.a))
        return [(n1 < n1_max, +1, 0, params.mu1c1),
                (n2 < n2_max, 0, +1, params.mu2c2),
                (n1 > 0, -1, 0, params.lambda1),
                (n2 > 0, 0, -1, down)]
    return moves


def _level_fits(params: ModelParams, n2_max: int) -> bool:
    """Whether the level solve takes a box with n2 side ``n2_max``."""
    spread = 0.5 * n2_max * (math.log(params.mu2c2)
                             - math.log(params.lambda2))
    return (n2_max < LEVEL_MAX_PHASES
            and LEVEL_LOG_SPREAD[0] <= spread <= LEVEL_LOG_SPREAD[1])


def _level_spectrum(up: float, down: float, sym: np.ndarray):
    """Eigenvalues and left eigenvectors of T2, the birth-death generator
    (rates ``up`` and ``down``) on {0..N2}, which its symmetriser D =
    diag(sym) turns into M/M/1/N's (Morse, Oper. Res. 3, 1955): with phi =
    pi/(N2+1), theta_0 = 0 with w_0 ~ sym, and for j = 1..N2 theta_j =
    -(up+down) + 2 sqrt(up down) cos(j phi) with w_j(k) ~ sin((k+1) j phi)
    - sqrt(down/up) sin(k j phi).  Returns theta and the Fortran-ordered
    left = W D, W's rows normalised: left @ T2 = theta[:, None] * left and
    (left / sym**2) @ left.T = I.
    """
    k = np.arange(sym.size)
    phi = math.pi / k.size
    # the cosine form by its half angle, so small |theta_j| keep their digits
    theta = (-(math.sqrt(up) - math.sqrt(down)) ** 2
             - 4.0 * math.sqrt(up * down) * np.sin(0.5 * phi * k) ** 2)
    theta[0] = 0.0
    # sin(m j phi) = sin(pi (m j mod 2 (N2+1)) / (N2+1)), from one table,
    # for m = k..k+1 over a block of columns k
    sin_table = np.sin(np.arange(2 * k.size) * phi)
    left = np.empty((k.size, k.size), order="F")
    for cols in blocks(k.size, k.size):
        m = np.arange(cols.start, min(cols.stop, k.size) + 1)
        sines = sin_table[k[:, None] * m % (2 * k.size)]
        np.subtract(sines[:, 1:], math.sqrt(down / up) * sines[:, :-1],
                    out=left[:, cols])
    left[0] = sym
    left /= np.sqrt(np.einsum("jk,jk->j", left, left))[:, None]
    left *= sym
    return theta, left


def _level_walk(params: ModelParams, n1_max: int, n2_max: int):
    """Stationary vector of the walk on the box, level n1 by level.

    Every level n1 >= 1 has up-block mu1c1 I, down-block lambda1 I and
    diagonal block T2 - c I, with T2 the n2 birth-death generator; the
    threshold acts at level 0 only.  In T2's eigenbasis (_level_spectrum)
    the levels decouple into one three-term recurrence in n1 per mode,
    solved by backward ratios, and one dense (N2+1)-square system is left
    at level 0 (spectral expansion: Mitrani & Chakka, Perf. Eval. 23,
    1995), factored in place.  One step of iterative refinement follows.
    Returns (probs, residual).
    """
    box_moves = _box_moves(n1_max, n2_max, _walk_moves(params, n1_max, n2_max))
    import scipy.linalg

    p, q, a = params.mu1c1, params.lambda1, params.a
    k = np.arange(n2_max + 1)
    sym = np.exp(0.5 * (math.log(params.mu2c2) - math.log(params.lambda2))
                 * k)
    theta, left = _level_spectrum(params.mu2c2, params.lambda2, sym)
    # A level's coordinates x_n on ``left`` obey, per mode, x_n = s_n x_(n-1)
    # + t_n for n = 1..N1 (t = 0 in the homogeneous solve); s_n is in (0, rho1]
    s = np.zeros((n1_max + 2, k.size))
    s[0] = 1.0
    for n in range(n1_max, 0, -1):
        s[n] = p / (p * (n < n1_max) + q - theta - q * s[n + 1])
    cum = np.cumprod(s[:-1], axis=0)
    mass = left.sum(axis=1)    # probability a unit coordinate carries
    # Level-0 balance on x_0: left (T2 + E - p I) + lambda1 diag(s_1) left,
    # with E the lambda1 down-moves above a, so column k is (theta - p +
    # q s_1 - q [k > a]) left[:, k] + q [a <= k < N2] left[:, k + 1]; the
    # column of state (0, 0) gives way to the total probability.  Fortran
    # order, like left, lets lu_factor work without a copy.
    level0 = np.empty_like(left)
    scale = (theta - p + q * s[1])[:, None]
    for cols in blocks(k.size, k.size):
        np.multiply(left[:, cols], scale - q * (k[cols] > a),
                    out=level0[:, cols])
        lo, hi = max(cols.start, a), min(cols.stop, n2_max)
        level0[:, lo:hi] += q * left[:, lo + 1:hi + 1]
    level0[:, 0] = mass * cum.sum(axis=0)
    with warnings.catch_warnings():    # an exactly zero pivot, refused below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(level0, overwrite_a=True,
                                    check_finite=False)
    if not np.diag(lu[0]).all():
        raise SingularSystem("level-0 matrix of the walk is singular")

    def solve(rhs: np.ndarray | None, total: float) -> np.ndarray:
        """Coordinates of the pi with pi Q = rhs (None for 0), sum total."""
        x = np.zeros_like(s)    # the part of x_n that does not scale with x_0
        head = np.zeros(k.size)
        if rhs is not None:
            beta = (rhs / sym**2) @ left.T    # rhs @ inverse of left
            t = np.zeros_like(s)
            for n in range(n1_max, 0, -1):
                t[n] = (q * t[n + 1] - beta[n]) * s[n] / p
            for n in range(1, n1_max + 1):
                x[n] = s[n] * x[n - 1] + t[n]
            head = rhs[0] - q * t[1] @ left
        head[0] = total - (x @ mass).sum()
        x0 = scipy.linalg.lu_solve(lu, head, trans=1, check_finite=False)
        return cum * x0 + x[:-1]

    probs = solve(None, 1.0) @ left
    # the correction goes onto probs, not onto the coordinates: rebuilding
    # probs from them would bring back the rounding it corrects
    probs += solve(-_balance(probs, box_moves), 1.0 - probs.sum()) @ left
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    return probs, float(np.max(np.abs(_balance(probs, box_moves))))


def _walk_pin(params: ModelParams, n2_max: int) -> tuple[int, int]:
    """The walk's mode: n1 = 0, and n2 = a if it climbs (mu2c2 > lambda2)."""
    return 0, (min(params.a, n2_max) if params.mu2c2 > params.lambda2 else 0)


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


@refuse_float_errors
def solve_limiting_walk(params: ModelParams,
                        box: tuple[int, int] | None = None
                        ) -> TruncatedDistribution:
    """Stationary distribution of the limiting walk on a truncated box.

    Outward transitions at the rim are suppressed (reflecting
    truncation), which keeps a proper generator; the rim mass bounds the
    truncation error.  ``box`` defaults to default_box(params).  The box
    is solved level by level when _level_fits, otherwise by sparse LU
    pinned at _walk_pin.  Raises NonPositiveRate unless ``box`` is two
    integers, SingularSystem past a balance residual of 1e-12 * rate_sum,
    and BoxTooSmall past a rim mass of 1e-4.
    """
    params = validate(params)
    n1_max, n2_max = box = _box_sides(default_box(params) if box is None
                                      else box)
    if _level_fits(params, n2_max):
        probs, residual = _level_walk(params, n1_max, n2_max)
    else:
        probs, residual = _box_chain(n1_max, n2_max,
                                     _walk_moves(params, n1_max, n2_max),
                                     pin=_walk_pin(params, n2_max))
    if not residual <= 1e-12 * params.rate_sum:
        raise SingularSystem(f"balance residual {residual:.3e} of the walk "
                             f"on the box {box}")
    boundary_mass = float(probs[-1, :].sum() + probs[:, -1].sum()
                          - probs[-1, -1])
    if boundary_mass > 1e-4:
        raise BoxTooSmall(
            f"truncation rim holds {boundary_mass:.3e} probability; "
            f"enlarge the box {box}")
    return TruncatedDistribution(box=box, probs=probs,
                                 boundary_mass=boundary_mass,
                                 residual=residual)


def blocking_from_distribution(dist: TruncatedDistribution,
                               params: ModelParams) -> BlockingPair:
    """B1 = P(n1=0, n2<=a), B2 = P(n2=0) from a truncated solve."""
    b1 = float(dist.probs[0, :params.a + 1].sum())
    b2 = float(dist.probs[:, 0].sum())
    return BlockingPair(b1, b2)


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


@refuse_float_errors
def solve_prelimit(lambda1: float, lambda2: float, mu1: float, mu2: float,
                   c1: float, c2: float, a: int, nu: float) -> BlockingPair:
    """Exact blocking of the finite pre-limit chain with scaling factor nu.

    Capacities are C_i = nu * c_i (rounded with a warning when not
    integral).  A redirected DC-1 request is lost when N1 = C1 and
    C2 - a <= N2 <= C2; DC-2 requests are lost when N2 = C2.  Rates,
    capacities and nu must be positive and finite, and so must the loads
    nu*lambda/mu, which the window and the pin round to ints; a is a
    non-negative int.

    Each occupancy m_i keeps to a window [_window_bottom, C_i], reflected
    at its bottom.  m1 is DC 1's Erlang loss system, which overflow never
    reaches; m2 is stochastically larger than DC 2's, since overflow only
    adds to its up-rate.  So no state left out holds more than e^-WINDOW_LOG
    of that Erlang system's mode.  A balance residual above 1e-9 of the
    largest rate raises SingularSystem.
    """
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2),
                        ("mu1", mu1), ("mu2", mu2), ("c1", c1), ("c2", c2),
                        ("nu", nu), ("nu*c1", nu * c1), ("nu*c2", nu * c2)):
        if not 0.0 < value < math.inf:
            raise NonPositiveRate(f"{name} must be positive and finite, "
                                  f"got {value!r}")
    big1, big2 = nu * lambda1, nu * lambda2
    if not max(big1 / mu1, big2 / mu2) < math.inf:
        raise NonPositiveRate(f"loads nu*lambda/mu must be finite, got "
                              f"{big1 / mu1!r}, {big2 / mu2!r}")
    a = as_threshold(a)
    cap1 = nu * c1
    cap2 = nu * c2
    if abs(cap1 - round(cap1)) > 1e-9 or abs(cap2 - round(cap2)) > 1e-9:
        warnings.warn(f"nu*c = ({cap1}, {cap2}) rounded to integers")
    cap1, cap2 = round(cap1), round(cap2)
    load1, load2 = big1 / mu1, big2 / mu2
    lo1, lo2 = _window_bottom(load1, cap1), _window_bottom(load2, cap2)
    _refuse_past_cap(cap1 - lo1, cap2 - lo2)    # before the pin's array

    def moves(n1, n2):
        m1, m2 = n1 + lo1, n2 + lo2
        up = big2 * (m2 < cap2) + big1 * ((m1 == cap1) & (m2 < cap2 - a))
        return [(m1 < cap1, +1, 0, big1),
                (m2 < cap2, 0, +1, up),
                (m1 > lo1, -1, 0, mu1 * m1.astype(float)),
                (m2 > lo2, 0, -1, mu2 * m2.astype(float))]

    # pin at the mode, so the solved ratios stay in range: m1 at its Erlang
    # mode, m2 at that of the birth-death chain whose up-rate below C2 - a
    # adds big1 * P(m1 = C1), from log p(m)/p(C1) on the window
    drops = np.cumsum(np.log(np.arange(cap1, lo1, -1) / load1))
    top = drops.max(initial=0.0)
    full1 = math.exp(-top) / (math.exp(-top) + np.exp(drops - top).sum())
    climb = min(load2, cap2) + min(big1 / mu2 * full1, cap2)
    pin2 = max(min(cap2 - a, int(climb)), min(cap2, int(load2)))
    probs, residual = _box_chain(cap1 - lo1, cap2 - lo2, moves, pin=(
        min(cap1, int(load1)) - lo1, pin2 - lo2))
    if not residual <= 1e-9 * max(big1, big2, mu1 * cap1, mu2 * cap2):
        raise SingularSystem(f"balance residual {residual:.3e} of the "
                             f"pre-limit chain")
    b1 = float(probs[cap1 - lo1, max(cap2 - a - lo2, 0):].sum())
    b2 = float(probs[:, cap2 - lo2].sum())
    return BlockingPair(b1, b2)
