import math
import tracemalloc

import numpy as np
import pytest

from qwblock.errors import BoxTooSmall, NonPositiveRate, StateSpaceTooLarge
from qwblock.model import ModelParams
from qwblock.oracle import (_stationary_from_transitions,
                            blocking_from_distribution, default_box,
                            oracle_blocking, solve_limiting_walk,
                            solve_prelimit)

from conftest import BASE, UNDERLOAD2


def erlang_b(load, servers):
    inv = 1.0 + sum(np.cumprod([(servers - j) / load for j in range(servers)]))
    return 1.0 / inv


def test_stationary_birth_death_closed_form():
    # three-state birth-death chain: pi_k proportional to (lam/mu)^k
    lam, mu = 2.0, 3.0
    rows = [0, 1, 1, 2]
    cols = [1, 2, 0, 1]
    rates = [lam, lam, mu, mu]
    pi, residual = _stationary_from_transitions(3, rows, cols, rates)
    r = lam / mu
    expected = np.array([1.0, r, r * r])
    expected /= expected.sum()
    np.testing.assert_allclose(pi, expected, rtol=1e-13)
    assert residual < 1e-14


def test_stationary_pin_relabeling():
    lam, mu = 2.0, 3.0
    rows = [0, 1, 1, 2]
    cols = [1, 2, 0, 1]
    rates = [lam, lam, mu, mu]
    pi0, _ = _stationary_from_transitions(3, rows, cols, rates, pin=0)
    pi2, _ = _stationary_from_transitions(3, rows, cols, rates, pin=2)
    np.testing.assert_allclose(pi0, pi2, rtol=1e-13)


def test_default_box_grows_with_threshold():
    n1, n2 = default_box(BASE)
    n1a, n2a = default_box(BASE.with_a(7))
    assert n1a == n1 and n2a == n2 + 7
    assert n1 >= 60 and n2 >= 60


def test_default_box_near_critical_is_larger():
    assert default_box(UNDERLOAD2)[1] > default_box(BASE)[1]


def test_limiting_walk_matches_golden(golden):
    row = golden[("base", 2)]
    dist = solve_limiting_walk(BASE.with_a(2), tuple(row["box"]))
    pair = blocking_from_distribution(dist, BASE.with_a(2))
    np.testing.assert_allclose(pair.b1, row["B1"], rtol=1e-12)
    np.testing.assert_allclose(pair.b2, row["B2"], rtol=1e-12)
    assert dist.residual < 1e-12
    assert dist.boundary_mass < 1e-10


def test_limiting_walk_marginals(golden):
    dist = solve_limiting_walk(BASE.with_a(2), (60, 62))
    m1 = dist.marginal_n1()
    m2 = dist.marginal_n2()
    np.testing.assert_allclose(m1.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(m2.sum(), 1.0, rtol=1e-12)
    # queue 1 alone is a simple birth-death chain: geometric marginal
    rho1 = BASE.mu1c1 / BASE.lambda1
    np.testing.assert_allclose(m1[:20] / m1[0], rho1 ** np.arange(20),
                               rtol=1e-9)


def test_limiting_walk_rejects_small_box():
    with pytest.raises(BoxTooSmall):
        solve_limiting_walk(UNDERLOAD2, (60, 60))


def test_oracle_blocking_wrapper(golden):
    row = golden[("base", 0)]
    pair = oracle_blocking(BASE, tuple(row["box"]))
    np.testing.assert_allclose(tuple(pair), (row["B1"], row["B2"]),
                               rtol=1e-12)


def test_prelimit_reduces_to_independent_loss_systems():
    # a >= capacity of DC 2 means overflow is never admitted, so the two
    # DCs decouple into independent Erlang loss systems
    nu = 3.0
    lam1, lam2, mu1, mu2, c1, c2 = 0.8, 0.5, 1.0, 1.0, 1.0, 1.0
    pair = solve_prelimit(lam1, lam2, mu1, mu2, c1, c2, a=3, nu=nu)
    np.testing.assert_allclose(pair.b2, erlang_b(nu * lam2 / mu2, 3),
                               rtol=1e-10)
    # a redirected request is lost whenever DC 1 is full here
    np.testing.assert_allclose(pair.b1, erlang_b(nu * lam1 / mu1, 3),
                               rtol=1e-10)


def test_prelimit_rounding_warns():
    with pytest.warns(UserWarning):
        solve_prelimit(3.0, 5.0, 1.0, 1.0, 1.0, 1.5, a=0, nu=1.0)


def test_prelimit_rejects_huge_state_space():
    with pytest.raises(StateSpaceTooLarge):
        solve_prelimit(3.0, 5.0, 1.0, 1.0, 1.0, 1.0, a=0, nu=3000.0)


@pytest.mark.parametrize("bad", [
    {"lambda1": 0.0}, {"lambda2": -1.0}, {"mu1": -1.0}, {"mu2": math.inf},
    {"c1": 0.0}, {"c2": math.nan}, {"nu": 0.0}, {"nu": math.nan},
    {"nu": math.inf}, {"a": -3}, {"a": 1.5},
])
def test_prelimit_rejects_invalid_input(bad):
    args = {"lambda1": 0.8, "lambda2": 0.5, "mu1": 1.0, "mu2": 1.0,
            "c1": 1.0, "c2": 1.0, "a": 1, "nu": 3.0, **bad}
    with pytest.raises(NonPositiveRate):
        solve_prelimit(**args)


@pytest.mark.parametrize("box", [(-5, 3), (0, 60), (60, 0)])
def test_limiting_walk_rejects_box_side_below_one(box):
    with pytest.raises(BoxTooSmall, match="at least 1"):
        solve_limiting_walk(BASE, box)


@pytest.mark.parametrize("solve", [
    lambda: solve_limiting_walk(BASE, (2000, 2000)),
    lambda: solve_prelimit(3.0, 5.0, 1.0, 1.0, 1.0, 1.0, a=0, nu=2000.0),
])
def test_over_cap_chains_are_refused_before_allocating(solve):
    # 2001 x 2001 states is just above the cap; building its index grid
    # alone would trace 32 MB
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
