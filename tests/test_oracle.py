import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwblock.errors import (BoxTooSmall, NonPositiveRate, OutOfRange,
                            QwblockError, SingularSystem, StateSpaceTooLarge)
from qwblock.model import BlockingPair, ModelParams
from qwblock import oracle
from qwblock.oracle import (_balance, _box_chain, _box_moves, _level_fits,
                            _level_spectrum, _level_walk, _walk_moves,
                            _walk_pin, _window_bottom,
                            blocking_from_distribution, default_box,
                            solve_limiting_walk, solve_prelimit)
from qwblock.solver import blocking

from conftest import BASE, CASES, UNDERLOAD2


def erlang_b(load, servers):
    inv = 1.0 + sum(np.cumprod([(servers - j) / load for j in range(servers)]))
    return 1.0 / inv


def independent_birth_death(n1, n2):
    """Two independent birth-death chains, births 2 and 1, deaths 3 and 4:
    pi(n1, n2) is proportional to (2/3)^n1 (1/4)^n2."""
    return [(n1 < n1.max(), +1, 0, 2.0), (n1 > 0, -1, 0, 3.0),
            (n2 < n2.max(), 0, +1, 1.0), (n2 > 0, 0, -1, 4.0)]


def test_stationary_birth_death_closed_form():
    probs, residual = _box_chain(6, 4, independent_birth_death)
    expected = np.outer((2 / 3) ** np.arange(7), 0.25 ** np.arange(5))
    np.testing.assert_allclose(probs, expected / expected.sum(), rtol=1e-13)
    assert residual < 1e-14
    # the residual is the level solve's, max |pi Q| by _balance
    box_moves = _box_moves(6, 4, independent_birth_death)
    assert residual == np.max(np.abs(_balance(probs, box_moves))) > 0


def test_stationary_pin_relabeling():
    # the pin only fixes the scale before normalising
    pin0, _ = _box_chain(6, 4, independent_birth_death)
    pin_far, _ = _box_chain(6, 4, independent_birth_death, pin=(5, 3))
    np.testing.assert_allclose(pin0, pin_far, rtol=1e-13)


def test_default_box_grows_with_threshold():
    n1, n2 = default_box(BASE)
    n1a, n2a = default_box(BASE.with_a(7))
    assert n1a == n1 and n2a == n2 + 7
    assert n1 >= 60 and n2 >= 60


def test_default_box_near_critical_is_larger():
    assert default_box(UNDERLOAD2)[1] > default_box(BASE)[1]


def test_limiting_walk_matches_golden(golden):
    # every base and overload2 point, and one underload2 point (0.7 s);
    # the frozen underload2 values came from a sparse LU and lie 1.0-1.1e-12
    # (relative) from a solve refined with a long-double residual, which
    # the level solve meets to 6.3e-15 at a = 5, so they are held to 2e-12
    for (name, a), row in sorted(golden.items()):
        if name == "underload2" and a != 5:
            continue
        params = CASES[name].with_a(a)
        dist = solve_limiting_walk(params, tuple(row["box"]))
        pair = blocking_from_distribution(dist, params)
        rtol = 2e-12 if name == "underload2" else 1e-12
        np.testing.assert_allclose(tuple(pair), (row["B1"], row["B2"]),
                                   rtol=rtol, err_msg=f"{name} a={a}")
        np.testing.assert_allclose(dist.boundary_mass, row["boundary_mass"],
                                   rtol=1e-6, atol=1e-20)
        assert dist.residual <= 1e-13


def test_limiting_walk_marginals(golden):
    dist = solve_limiting_walk(BASE.with_a(2), (60, 62))
    m1 = dist.probs.sum(axis=1)
    m2 = dist.probs.sum(axis=0)
    np.testing.assert_allclose(m1.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(m2.sum(), 1.0, rtol=1e-12)
    # queue 1 alone is a simple birth-death chain: geometric marginal
    rho1 = BASE.mu1c1 / BASE.lambda1
    np.testing.assert_allclose(m1[:20] / m1[0], rho1 ** np.arange(20),
                               rtol=1e-9)


def test_limiting_walk_rejects_small_box():
    with pytest.raises(BoxTooSmall):
        solve_limiting_walk(UNDERLOAD2, (60, 60))


def test_limiting_walk_defaults_to_default_box():
    params = BASE.with_a(3)
    dist = solve_limiting_walk(params)
    assert dist.box == default_box(params)
    assert np.array_equal(dist.probs,
                          solve_limiting_walk(params, dist.box).probs)


# a float or bool side is not read as an integer on either path: (60, 62.0)
# is a box for the level solve, (60, 4000.0) one for the sparse LU; nor is
# a box that is not two sides
@pytest.mark.parametrize("box", [(60.0, 62), (True, 62), (60, np.True_),
                                 (60, 62.0), (60, 4000.0), (60,),
                                 (60, 62, 3), 60, "60"])
def test_limiting_walk_rejects_a_box_side_that_is_not_an_integer(box):
    with pytest.raises(QwblockError, match="must be integers"):
        solve_limiting_walk(BASE.with_a(2), box)


def test_limiting_walk_takes_numpy_integer_box_sides():
    box = (np.int64(60), np.int32(62))
    assert np.array_equal(solve_limiting_walk(BASE.with_a(2), box).probs,
                          solve_limiting_walk(BASE.with_a(2), (60, 62)).probs)


# level-solve boxes: a side of 1 each way, a >= N2 (no threshold move),
# lambda2 = mu2c2 (D = I), and the symmetriser growing to 9.6e5 and
# decaying to 9.3e-149, each just inside the rule
LEVEL_BOXES = [
    (BASE.with_a(2), (1, 40)),
    (BASE.with_a(3), (40, 1)),
    (BASE.with_a(50), (30, 40)),
    (ModelParams(3.0, 2.0, 1.0, 2.0, 4), (30, 300)),
    (ModelParams(3.0, 5.0, 1.0, 5.5, 3), (30, 289)),
    (BASE.with_a(2), (30, 744)),
]


@pytest.mark.parametrize("params, box", LEVEL_BOXES)
def test_level_walk_matches_box_chain(params, box):
    assert _level_fits(params, box[1])
    ref, ref_residual = _box_chain(*box, _walk_moves(params, *box))
    probs, residual = _level_walk(params, *box)
    np.testing.assert_allclose(probs, ref, rtol=0, atol=2e-15)
    assert residual <= 1e-15 and ref_residual <= 1e-15


# lambda2 = mu2c2 (D = I) up to N2 = 2,030, both symmetriser extremes of
# LEVEL_BOXES, and underload2's rates at its default N2
@pytest.mark.parametrize("up, down, n2_max", [
    *[(2.0, 2.0, n2_max) for n2_max in (1, 40, 300, 744, 2030)],
    (5.5, 5.0, 289), (2.0, 5.0, 744),
    (UNDERLOAD2.mu2c2, UNDERLOAD2.lambda2, 2030),
])
def test_level_spectrum_is_the_left_eigenbasis_of_t2(up, down, n2_max):
    k = np.arange(n2_max + 1)
    sym = np.exp(0.5 * math.log(up / down) * k)
    theta, left = _level_spectrum(up, down, sym)
    # left @ T2 from T2's three diagonals: row k of T2 holds state k's moves
    applied = -left * (up * (k < n2_max) + down * (k > 0))
    applied[:, 1:] += up * left[:, :-1]
    applied[:, :-1] += down * left[:, 1:]
    # column k of left carries the factor sym_k; without it rows are unit
    residual = (applied - theta[:, None] * left) / sym
    assert np.max(np.abs(residual)) <= 1e-13 * (up + down)
    np.testing.assert_allclose((left / sym**2) @ left.T, np.eye(k.size),
                               rtol=0, atol=1e-13)
    assert theta[0] == 0.0 and np.all(theta[1:] < 0.0)


def test_level_walk_factors_level0_in_place():
    # two (N2+1)-square arrays, the eigenbasis and the level-0 matrix; a
    # copy of the latter for lu_factor raised the peak to 3.45 of them
    import scipy.linalg    # noqa: F401  (its import is not the walk's)
    n2_max = 744
    tracemalloc.start()
    try:
        _level_walk(BASE.with_a(2), 30, n2_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * (n2_max + 1) ** 2 * 8


# just past the rule: growth to 1.05e6, decay to 9.5e-151, N2 + 1 = 3,001
@pytest.mark.parametrize("params, box", [
    (ModelParams(3.0, 5.0, 1.0, 5.5, 3), (30, 291)),
    (BASE.with_a(2), (30, 754)),
    (ModelParams(3.0, 2.0, 1.0, 2.0, 4), (10, 3000)),
])
def test_walk_past_the_level_rule_takes_the_box_chain(params, box):
    assert not _level_fits(params, box[1])
    ref, residual = _box_chain(*box, _walk_moves(params, *box),
                               pin=_walk_pin(params, box[1]))
    dist = solve_limiting_walk(params, box)
    assert np.array_equal(dist.probs, ref) and dist.residual == residual


# default boxes past the level rule on which a pin at (0, 0) left a
# residual of 0.036 and 4.7, and B1 off by 0.20 and 0.34: n2 climbs to a
# (mu2c2 > lambda2), so the probabilities at (0, 0) are near underflow
PINNED_WALKS = [ModelParams(9.3745, 6.4210, 1.2161, 8.2938, a=185),
                ModelParams(7.545904197799578, 2.7383798605245504,
                            1.8584327009415933, 4.1520622476079145, a=86)]


@pytest.mark.parametrize("params", PINNED_WALKS)
def test_sparse_walk_is_pinned_at_the_mode(params):
    box = default_box(params)
    assert not _level_fits(params, box[1])
    assert _walk_pin(params, box[1]) == (0, params.a)
    dist = solve_limiting_walk(params, box)
    assert dist.residual <= 1e-14
    assert (np.unravel_index(dist.probs.argmax(), dist.probs.shape)
            == (0, params.a))
    want = blocking(params).blocking
    got = blocking_from_distribution(dist, params)
    np.testing.assert_allclose(tuple(got), tuple(want), rtol=0,
                               atol=dist.boundary_mass + 1e-14)


@pytest.mark.parametrize("params", PINNED_WALKS)
def test_walk_with_a_large_residual_is_refused(monkeypatch, params):
    monkeypatch.setattr(oracle, "_walk_pin", lambda params, n2_max: (0, 0))
    with pytest.raises(SingularSystem, match="balance residual"):
        solve_limiting_walk(params)


def test_oracle_blocking_wrapper(golden):
    # the composition that replaced the deleted oracle_blocking wrapper,
    # and that the README library example uses: base a = 0 on its golden box
    row = golden[("base", 0)]
    dist = solve_limiting_walk(BASE, tuple(row["box"]))
    pair = blocking_from_distribution(dist, BASE)
    np.testing.assert_allclose(tuple(pair), (row["B1"], row["B2"]),
                               rtol=1e-12)


def windowed_prelimit(rates, a, nu):
    """solve_prelimit's pair, its probabilities on the window, and the
    window's bottom (lo1, lo2)."""
    seen = []

    def spy(side1, side2, moves, pin):
        probs, residual = _box_chain(side1, side2, moves, pin)
        seen.append(probs)
        return probs, residual

    with mock.patch.object(oracle, "_box_chain", spy):
        pair = solve_prelimit(*rates, a=a, nu=nu)
    lam1, lam2, mu1, mu2, c1, c2 = rates
    return pair, seen[0], (_window_bottom(nu * lam1 / mu1, round(nu * c1)),
                           _window_bottom(nu * lam2 / mu2, round(nu * c2)))


def full_prelimit(lambda1, lambda2, mu1, mu2, c1, c2, a, nu, pin):
    """The pre-limit chain on all of {0..C1} x {0..C2}, with no window,
    pinned at ``pin`` and held to a balance residual of 1e-12 of its rate
    sum: the reference the windowed solve must reproduce."""
    cap1, cap2 = round(nu * c1), round(nu * c2)
    big1, big2 = nu * lambda1, nu * lambda2

    def moves(m1, m2):
        up = big2 * (m2 < cap2) + big1 * ((m1 == cap1) & (m2 < cap2 - a))
        return [(m1 < cap1, +1, 0, big1),
                (m2 < cap2, 0, +1, up),
                (m1 > 0, -1, 0, mu1 * m1.astype(float)),
                (m2 > 0, 0, -1, mu2 * m2.astype(float))]

    probs, residual = _box_chain(cap1, cap2, moves, pin=pin)
    assert residual <= 1e-12 * (big1 + big2 + mu1 * cap1 + mu2 * cap2)
    return BlockingPair(float(probs[cap1, max(cap2 - a, 0):].sum()),
                        float(probs[:, cap2].sum()))


def window_and_full_chain(rates, a, nu):
    """The windowed pair, the full chain's pinned at the window's largest
    probability (not at solve_prelimit's pin), and windowed_prelimit's
    probabilities and window bottom."""
    pair, probs, lows = windowed_prelimit(rates, a, nu)
    top = np.unravel_index(np.argmax(probs), probs.shape)
    full = full_prelimit(*rates, a=a, nu=nu,
                         pin=(int(top[0]) + lows[0], int(top[1]) + lows[1]))
    return pair, full, probs, lows


PRELIMIT_RATES = {
    "base": (3.0, 5.0, 1.0, 1.0, 1.0, 2.0),
    "underload2": (1.2, 9.9, 1.0, 10.0, 1.0, 1.0),
    "overload2": (1.2, 11.0, 1.0, 10.0, 1.0, 1.0),
    # DC-1 overflow lifts DC 2 far above its own Erlang mode
    "heavy_overflow": (8.0, 2.0, 1.0, 4.0, 1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(PRELIMIT_RATES))
def test_prelimit_window_equals_full_chain(name):
    # DC 2's window starts above 0 from nu = 50 on, at lo2 = 27 on
    # heavy_overflow at nu = 200
    for nu in (100, 200) if name == "heavy_overflow" else (25, 50, 100):
        for a in (2, 5, 10):
            window, full, _, (_, lo2) = window_and_full_chain(
                PRELIMIT_RATES[name], a, nu)
            assert lo2 > 0 or nu < 50
            np.testing.assert_allclose(tuple(window), tuple(full),
                                       rtol=0, atol=1e-14)


def test_prelimit_window_equals_full_chain_below_a_full_dc1():
    # lambda1 < mu1 c1: the Erlang mode of DC 1 lies below its capacity,
    # so the window has states on both sides of the mode
    rates = (1.5, 5.0, 1.0, 1.0, 2.0, 2.0)
    for nu in (30, 50):
        load, cap1 = nu * rates[0] / rates[2], round(nu * rates[4])
        assert 0 < _window_bottom(load, cap1) < int(load) < cap1
        for a in (2, 10):
            window, full, *_ = window_and_full_chain(rates, a, nu)
            np.testing.assert_allclose(tuple(window), tuple(full),
                                       rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
                 st.floats(0.2, 5.0), st.floats(0.2, 5.0),
                 st.integers(1, 3), st.integers(1, 3)),
       st.integers(0, 130), st.integers(2, 40))
def test_prelimit_window_equals_full_chain_on_random_chains(rates, a, nu):
    window, full, *_ = window_and_full_chain(rates, a, nu)
    np.testing.assert_allclose(tuple(window), tuple(full),
                               rtol=0, atol=1e-14)


def test_prelimit_window_from_zero_is_the_full_chain():
    rates = PRELIMIT_RATES["base"]
    assert _window_bottom(10 * rates[0] / rates[2], 10) == 0
    assert _window_bottom(10 * rates[1] / rates[3], 20) == 0
    for a in (0, 2, 5):
        window, full, *_ = window_and_full_chain(rates, a, 10)
        assert window == full


# DC-1 overflow lifts DC 2 far above its own Erlang mode; pinned at the mode
# of the independent Erlang product, these returned (0, 0) with balance
# residuals of 51 and 24
FOUND_LIFTED = [((3.514, 0.391, 0.735, 1.945, 1.0, 1.0), 37, 100),
                ((8.0, 2.0, 1.0, 4.0, 1.0, 1.0), 0, 200)]


@pytest.mark.parametrize("rates, a, nu", FOUND_LIFTED)
def test_prelimit_answers_a_dc2_lifted_by_overflow(rates, a, nu):
    lam1, lam2, mu1, mu2, c1, c2 = rates
    pair, full, probs, (_, lo2) = window_and_full_chain(rates, a, nu)
    np.testing.assert_allclose(tuple(pair), tuple(full), rtol=1e-9, atol=0)
    # exact identities: m1 is an Erlang loss system, and DC 2's flow
    # balances, mu2 E[m2] = nu lambda2 (1 - B2) + nu lambda1 (P(m1 = C1) - B1)
    full1 = probs[-1].sum()
    np.testing.assert_allclose(full1, erlang_b(nu * lam1 / mu1, round(nu * c1)),
                               rtol=1e-12)
    mean2 = probs.sum(axis=0) @ (lo2 + np.arange(probs.shape[1]))
    np.testing.assert_allclose(
        mu2 * mean2, nu * lam2 * (1.0 - pair.b2) + nu * lam1 * (full1 - pair.b1),
        rtol=1e-12)


def test_prelimit_refuses_a_balance_residual_past_its_gate(monkeypatch):
    # pinned where the parent pinned it, at DC 2's own Erlang mode, the
    # first lifted chain solves to a residual of 51
    rates, a, nu = FOUND_LIFTED[0]
    erlang_mode2 = int(nu * rates[1] / rates[3])

    def erlang_pin(side1, side2, moves, pin):
        return _box_chain(side1, side2, moves, pin=(pin[0], erlang_mode2))

    monkeypatch.setattr(oracle, "_box_chain", erlang_pin)
    with pytest.raises(SingularSystem, match="residual"):
        solve_prelimit(*rates, a=a, nu=nu)


def test_box_chain_refuses_a_move_out_of_the_box():
    # the pre-limit window with DC 1's death move left on at its bottom lo
    lam1, lam2, mu1, mu2, c1, c2 = PRELIMIT_RATES["base"]
    nu, a = 50, 2
    cap1, cap2 = round(nu * c1), round(nu * c2)
    lo = _window_bottom(nu * lam1 / mu1, cap1)
    assert lo > 0

    def moves(n1, m2):
        m1 = n1 + lo
        up = nu * lam2 * (m2 < cap2) + nu * lam1 * ((m1 == cap1)
                                                   & (m2 < cap2 - a))
        return [(m1 < cap1, +1, 0, nu * lam1),
                (m2 < cap2, 0, +1, up),
                (m1 > 0, -1, 0, mu1 * m1.astype(float)),
                (m2 > 0, 0, -1, mu2 * m2.astype(float))]

    with pytest.raises(ValueError, match=r"move \(-1, 0\) leaves the box"):
        _box_chain(cap1 - lo, cap2, moves, pin=(cap1 - lo, cap2 // 2))


def test_prelimit_reduces_to_independent_loss_systems():
    # a >= capacity of DC 2 means overflow is never admitted, so the two
    # DCs decouple into independent Erlang loss systems; at nu = 2000 the
    # chain runs on a window of DC 1's top 35 states
    for rates, a, nu in (((0.8, 0.5, 1.0, 1.0, 1.0, 1.0), 3, 3.0),
                         ((3.0, 5.0, 1.0, 1.0, 1.0, 1.0), 2000, 2000.0)):
        lam1, lam2, mu1, mu2, c1, c2 = rates
        pair = solve_prelimit(lam1, lam2, mu1, mu2, c1, c2, a=a, nu=nu)
        np.testing.assert_allclose(
            pair.b2, erlang_b(nu * lam2 / mu2, round(nu * c2)), rtol=1e-10)
        # a redirected request is lost whenever DC 1 is full here
        np.testing.assert_allclose(
            pair.b1, erlang_b(nu * lam1 / mu1, round(nu * c1)), rtol=1e-10)


def test_prelimit_rounding_warns():
    with pytest.warns(UserWarning):
        solve_prelimit(3.0, 5.0, 1.0, 1.0, 1.0, 1.5, a=0, nu=1.0)


def test_prelimit_rejects_huge_state_space():
    # DC 1 keeps a window of 34 states, the underloaded DC 2 one of 286,042
    with pytest.raises(StateSpaceTooLarge):
        solve_prelimit(3.0, 5.0, 1.0, 1.0, 1.0, 100.0, a=0, nu=3000.0)


def test_prelimit_takes_numpy_integer_thresholds():
    args = (3.0, 5.0, 1.0, 1.0, 1.0, 2.0)
    assert (solve_prelimit(*args, a=np.int64(2), nu=10.0)
            == solve_prelimit(*args, a=2, nu=10.0))


@pytest.mark.parametrize("bad", [
    {"lambda1": 0.0}, {"lambda2": -1.0}, {"mu1": -1.0}, {"mu2": math.inf},
    {"c1": 0.0}, {"c2": math.nan}, {"nu": 0.0}, {"nu": math.nan},
    {"nu": math.inf}, {"a": -3}, {"a": 1.5}, {"a": True}, {"a": np.True_},
])
def test_prelimit_rejects_invalid_input(bad):
    args = {"lambda1": 0.8, "lambda2": 0.5, "mu1": 1.0, "mu2": 1.0,
            "c1": 1.0, "c2": 1.0, "a": 1, "nu": 3.0, **bad}
    with pytest.raises(NonPositiveRate):
        solve_prelimit(**args)


# n2's up rate nu*(lambda1 + lambda2) overflows at m2 = 1 < C2 - a, or the
# death rates m * mu do
@pytest.mark.parametrize("rates", [(1e308, 1e308, 1.0, 1.0),
                                   (0.0043, 0.9, 1e308, 1e308)])
def test_prelimit_refuses_rates_beyond_double_precision(rates):
    with pytest.raises(OutOfRange):
        solve_prelimit(*rates, 1.0, 2.0, a=0, nu=1.0)


def test_prelimit_window_leaves_out_a_state_whose_rate_overflows():
    # at a = 1 only m2 = 0 < C2 - a takes the overflowing up rate, and DC 2's
    # window is {1, 2}: both DCs are full but for e^-700 of the mass
    assert (solve_prelimit(1e308, 1e308, 1.0, 1.0, 1.0, 2.0, a=1, nu=1.0)
            == BlockingPair(1.0, 1.0))
    # DC 1 is full, and its overflow holds DC 2 at C2 - a = 21 and above,
    # where its own load of 7.9e-5 leaves B2 far below the doubles
    with warnings.catch_warnings():    # nu*c is not integral
        warnings.simplefilter("ignore", UserWarning)
        assert (solve_prelimit(1e308, 0.031935, 0.53014, 156.06, 90.385,
                               211.76, 61, 0.38723) == BlockingPair(1.0, 0.0))


# DC 2's rates of 1e-308 underflow in the sparse LU, which finds it
# singular; DC 1's load of 1e300 on a death rate of 1e-300 gives a NaN
# solution
@pytest.mark.parametrize("args", [
    (1.0, 1e-308, 1.0, 1e-308, 1.0, 2.0, 2, 1.0),
    (1.0, 1e300, 1e-300, 1e300, 2.0, 3.0, 1, 1.0)])
def test_prelimit_refuses_a_generator_singular_in_double_precision(args):
    with pytest.raises(SingularSystem, match="singular"):
        with warnings.catch_warnings():    # nu*c is not integral
            warnings.simplefilter("ignore", UserWarning)
            solve_prelimit(*args)


@pytest.mark.parametrize("box", [(-5, 3), (0, 60), (60, 0)])
def test_limiting_walk_rejects_box_side_below_one(box):
    with pytest.raises(BoxTooSmall, match="at least 1"):
        solve_limiting_walk(BASE, box)


@pytest.mark.parametrize("solve", [
    lambda: solve_limiting_walk(BASE, (2000, 2000)),
    lambda: solve_prelimit(3.0, 5.0, 1.0, 1.0, 1.0, 100.0, a=0, nu=2000.0),
    lambda: solve_prelimit(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, a=0, nu=1e9),
])
def test_over_cap_chains_are_refused_before_allocating(solve):
    # 2001 x 2001 walk states, or a pre-limit window of 34 x 190,849, is
    # above the cap, and building its index grid alone would trace 32 MB
    # or more; at nu = 1e9 an array over DC 1's 0..C1 would trace 8 GB,
    # and one over its window of 272,018 states (the pin's) 2 MB, so the
    # window bottom is found without one and the cap checked before the pin
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
