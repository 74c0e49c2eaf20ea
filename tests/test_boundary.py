import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from qwblock.boundary import (BoundaryCache, _cached_build, alpha1,
                              alpha1_winding, boundary_cache, cut_moments,
                              phi1_exponent, phi2, poisson_modes, theta1,
                              theta2)
from qwblock.errors import KernelZeroOnCut, NonVanishingPhase
from qwblock.kernel import (Side, branch_points, kernel_value, x_of_theta,
                            x_roots)
from qwblock.model import ModelParams
from qwblock.quadrature import QuadConfig, cosine_grid

from conftest import (BASE, CASES, DOUBLY_NEAR_CRITICAL, NEAR_CRITICAL1,
                      OVERLOAD2)
from helpers import (assembled_phi1, phi1_exponent_long_double,
                     phi1_theta_long_double)

PHI1_GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden"
                          / "phi1_grid512.json").read_text())
# the pole lambda2/(mu2c2 y) of Phi1's regular integral near the cut:
# q = mu2c2 y2^2/lambda2 = 0.996
POLE_NEAR_CUT = ModelParams(10.707, 10.245, 10.669, 10.238)


@pytest.fixture(scope="module")
def cache64():
    return BoundaryCache.build(BASE, QuadConfig(grid_size=64))


def test_theta1_range_and_rejection():
    bp = branch_points(BASE)
    ys = np.linspace(bp.y1 + 1e-9, bp.y2 - 1e-9, 20)
    th = theta1(BASE, ys)
    assert np.all((th >= 0.0) & (th <= math.pi))
    with pytest.raises(ValueError):
        theta1(BASE, bp.y2 + 0.1)


def test_theta2_range_and_rejection():
    bp = branch_points(BASE)
    xs = np.linspace(bp.x1 + 1e-9, bp.x2 - 1e-9, 20)
    th = theta2(BASE, xs)
    assert np.all((th >= 0.0) & (th <= math.pi))
    with pytest.raises(ValueError):
        theta2(BASE, bp.x1 - 0.1)


def test_alpha1_is_half_phase_of_theta1():
    # the one identity pinning every sign convention:
    # alpha1(X0(y + 0i)) = exp(-2i * Theta1(y)) on the cut
    p = BASE
    bp = branch_points(p)
    for y in np.linspace(bp.y1 + 1e-6, bp.y2 - 1e-6, 30):
        x0, _ = x_roots(p, y, bp, side=Side.ABOVE)
        lhs = alpha1(p, x0, bp)
        rhs = np.exp(-2j * theta1(p, y))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)


def test_alpha1_unit_modulus_on_circle():
    p = BASE
    bp = branch_points(p)
    for th in np.linspace(0.1, 2.0 * math.pi - 0.1, 17):
        z = bp.r1 * np.exp(1j * th)
        np.testing.assert_allclose(abs(alpha1(p, z, bp)), 1.0, rtol=1e-10)


@pytest.mark.parametrize("params", [BASE, OVERLOAD2])
def test_alpha1_winding_is_zero(params):
    assert alpha1_winding(params) == 0


@pytest.mark.parametrize("name", sorted(PHI1_GOLDEN["cases"]))
def test_phi1_exponent_matches_frozen_grid512(name):
    # values frozen from the adaptive Gauss-Kronrod principal value that
    # the Chebyshev transform replaced
    frozen = PHI1_GOLDEN["cases"][name]
    cache = BoundaryCache.build(CASES[name],
                                QuadConfig(PHI1_GOLDEN["grid_size"]))
    stride = PHI1_GOLDEN["stride"]
    np.testing.assert_array_equal(cache.y_nodes[::stride], frozen["y"])
    params, bp = cache.params, cache.bp
    y, _ = cosine_grid(bp.y1, bp.y2, PHI1_GOLDEN["grid_size"])
    g = (params.lambda2 - params.mu2c2 * y * y) * theta1(params, y) / y
    np.testing.assert_allclose(np.exp(-phi1_exponent(params, bp, y, g))
                               [::stride], frozen["exp_neg_phi1"],
                               rtol=1e-10, atol=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("grid", [512, 2048])
@pytest.mark.parametrize("params", [
    *CASES.values(), NEAR_CRITICAL1, *DOUBLY_NEAR_CRITICAL, POLE_NEAR_CUT,
], ids=str)
def test_phi1_exponent_matches_the_dense_long_double_sum(params, grid):
    # the reference sums the regular integral node by node in long double;
    # the prefactor 1/(mu2c2 y^2 - lambda2) amplifies the rounding of y^2
    # by up to 1/(1 - q), q = mu2c2 y2^2/lambda2 (0.98 to 0.999 on the
    # doubly near-critical sets and POLE_NEAR_CUT)
    bp = branch_points(params)
    y, reference = phi1_exponent_long_double(params, grid)
    g = (params.lambda2 - params.mu2c2 * y * y) * theta1(params, y) / y
    err = np.max(np.abs(phi1_exponent(params, bp, y, g) - reference))
    q = params.mu2c2 * bp.y2 * bp.y2 / params.lambda2
    eps = np.finfo(float).eps
    assert err <= (1e-14 + 4.0 * eps / (1.0 - q)) * np.max(np.abs(reference))


def test_phi1_exponent_rejects_outside_cut():
    bp = branch_points(BASE)
    nodes, _ = cosine_grid(bp.y1, bp.y2, 16)
    g = theta1(BASE, nodes) / nodes
    phi1_exponent(BASE, bp, nodes, g)
    with pytest.raises(ValueError):
        phi1_exponent(BASE, bp, nodes + 0.5, g)


def test_phi1_exponent_guards_the_cut():
    bp = branch_points(BASE)
    nodes = np.linspace(bp.y1, bp.y2, 18)[1:-1]
    args = (nodes, theta1(BASE, nodes) / nodes)
    # the secondary pole lambda2/(mu2c2*y) enters the cut once y2^2 >= 2.5
    with pytest.raises(KernelZeroOnCut):
        phi1_exponent(BASE, dataclasses.replace(bp, y2=1.6), *args)
    # q1 + 2*lambda1 = 2y^2 - 11y + 11 < 0 at y = 1.5: Theta1(y2) = pi
    with pytest.raises(NonVanishingPhase):
        phi1_exponent(BASE, dataclasses.replace(bp, y2=1.5), *args)


def test_cache_arrays(cache64):
    bp = cache64.bp
    assert cache64.y_nodes.shape == (64,)
    assert np.all((cache64.y_nodes > bp.y1) & (cache64.y_nodes < bp.y2))
    # w (lambda2 - mu2c2 y^2) sin(Theta1) exp(-Phi1): lambda2 > mu2c2 y^2
    # on the cut, and Theta1 lies in [0, pi]
    p, y = cache64.params, cache64.y_nodes
    _, w = cosine_grid(bp.y1, bp.y2, 64)
    th1 = theta1(p, y)
    g = (p.lambda2 - p.mu2c2 * y * y) * th1 / y
    assert np.all(cache64.cut_base >= 0.0)
    np.testing.assert_allclose(
        cache64.cut_base, w * (p.lambda2 - p.mu2c2 * y * y) * np.sin(th1)
        * np.exp(-phi1_exponent(p, bp, y, g)), rtol=1e-15, atol=0)


def test_phi1_normalization_and_positivity(cache64):
    np.testing.assert_allclose(cache64.phi1(0.0), 1.0, rtol=1e-12)
    for x in (-0.5, 0.3, 1.0):
        assert cache64.phi1(x) > 0.0


def test_phi1_memo_consistent(cache64):
    v1 = cache64.phi1(0.77)
    v2 = cache64.phi1(0.77)
    assert v1 == v2


def test_phi1_grid_convergence():
    fine = BoundaryCache.build(BASE, QuadConfig(grid_size=128))
    cache = boundary_cache(BASE, QuadConfig(grid_size=64))
    for x in (0.25, 1.0, 1.5):
        np.testing.assert_allclose(cache.phi1(x), fine.phi1(x), rtol=1e-10)


def test_phi1_does_not_depend_on_call_order():
    xs = np.linspace(-0.8, 1.4, 41)
    batch = BoundaryCache.build(BASE, QuadConfig(grid_size=64))
    single = BoundaryCache.build(BASE, QuadConfig(grid_size=64))
    # a float at a scalar x, an array of xs' shape at an array
    assert type(single.phi1(0.25)) is float
    assert type(single.phi1(np.float64(0.25))) is float
    assert batch.phi1(np.array([0.25])).shape == (1,)
    one_by_one = np.array([single.phi1(x) for x in xs[::-1]])[::-1]
    np.testing.assert_array_equal(batch.phi1(xs), one_by_one)
    np.testing.assert_array_equal(batch.phi1(xs[:5]), one_by_one[:5])
    # reference: the cut integral of log phi1, one x at a time
    y, w = cosine_grid(batch.bp.y1, batch.bp.y2, 64)
    numer = (BASE.lambda2 - BASE.mu2c2 * y * y) * theta1(BASE, y) / y
    reference = [math.exp(x / math.pi * np.sum(
        w * numer / kernel_value(BASE, x, y))) for x in xs]
    np.testing.assert_allclose(one_by_one, reference, rtol=1e-13)


def test_phi1_rejects_each_kernel_zero(cache64):
    # a node off the cut gives K(x, .) a real zero: x solves
    # mu1c1*y x^2 + q1(y) x + lambda1*y = 0 there
    p = BASE
    y_out = cache64.bp.y2 + 0.3
    q1 = p.mu2c2 * y_out ** 2 - p.rate_sum * y_out + p.lambda2
    disc = q1 * q1 - 4.0 * p.mu1c1 * p.lambda1 * y_out ** 2
    x_bad = (-q1 + math.sqrt(disc)) / (2.0 * p.mu1c1 * y_out)
    nodes = cache64.y_nodes.copy()
    nodes[-1] = y_out
    bad = dataclasses.replace(cache64, y_nodes=nodes)
    with pytest.raises(KernelZeroOnCut, match=repr(x_bad)[:8]):
        bad.phi1([0.25, x_bad])
    assert bad.phi1([0.25])[0] > 0.0


ARRAY_FIELDS = ("y_nodes", "cut_base", "phi1_weights", "nu_head", "nu_tail",
                "s", "diff", "total")


def test_boundary_cache_is_a_frozen_value():
    # the memoized value is shared by every later solve of these rates
    cache = boundary_cache(BASE, QuadConfig(grid_size=64))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cache.bp = None
    for name in ARRAY_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(cache, name)[0] *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        cache.cut_base *= 2.0
    assert [f.name for f in dataclasses.fields(cache)] == [
        "params", "bp", "cfg", "y_nodes", "cut_base", "phi1_weights", "modes",
        "nu_head", "nu_tail", "s", "diff", "total", "phi2_one"]
    assert cache.phi2_one == phi2(BASE, 1.0, cache.bp, cache.cfg)


@pytest.mark.parametrize("params", [*CASES.values(), NEAR_CRITICAL1], ids=str)
def test_boundary_cache_arrays_fit_their_byte_bound(params):
    # 3 * 2n doubles of theta sums, the nu head and one more row of cut
    # weights past the three cut tables: 37 KB at grid 512
    cache = boundary_cache(params)
    n, n_y = cache.cfg.grid_size, cache.y_nodes.size
    head = 2 * n + 2 if cache.modes == n else cache.modes + 2
    assert cache.nu_head.shape == (head,)
    tables = [getattr(cache, name) for name in ARRAY_FIELDS]
    # each owns its memory, so that nbytes is what it keeps alive
    assert all(t.base is None and t.dtype == float for t in tables)
    assert sum(t.nbytes for t in tables) <= 8 * (3 * 2 * n + head + 4 * n_y)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("params, grid, rtol", [
    *((p, 512, 1e-13) for p in (*CASES.values(), NEAR_CRITICAL1)),
    *((p, grid, 2.5e-13 if p == DOUBLY_NEAR_CRITICAL[0] else 5e-14)
      for p in DOUBLY_NEAR_CRITICAL for grid in (512, 2048)),
    (ModelParams(0.5625, 2.0, 0.546875, 2.0), 64, 1e-13),
], ids=str)
def test_phi1_theta_matches_the_direct_kernel_sums(params, grid, rtol):
    # the reference takes x(theta) and K in long double, with no Poisson
    # fold; phi1 at the double x(theta) is compared at rtol, looser on
    # (1.001, 1, 1, 1), where phi1 is steepest near x2
    cache, phi1_t = assembled_phi1(params, QuadConfig(grid))
    want = phi1_theta_long_double(cache)
    np.testing.assert_allclose(phi1_t, want, rtol=1e-13, atol=0)
    x_t = x_of_theta(params, np.linspace(0.0, math.pi, grid + 1))
    np.testing.assert_allclose(cache.phi1(x_t), want, rtol=rtol, atol=0)


@pytest.mark.parametrize("params", [*CASES.values(), NEAR_CRITICAL1], ids=str)
def test_kernel_guard_passes_the_cut(params):
    # phi1_exponent's refusal of y2 >= r2 is the only guard the theta grid
    # needs: with z = y/r2 < 1 and x(theta) >= x1 > 0,
    # K(x(theta), y)/x(theta) = D >= lambda2 (1 - z)^2 > 0 at every node; K
    # itself is within 4e-15 there
    cache = boundary_cache(params)
    z = cache.y_nodes / cache.bp.r2
    assert cache.bp.y2 < cache.bp.r2 and np.all(z < 1.0)
    x = x_of_theta(params, np.linspace(0.0, math.pi,
                                       cache.cfg.grid_size + 1))[:, None]
    assert np.all(x >= cache.bp.x1) and cache.bp.x1 > 0.0
    d = kernel_value(params, x, cache.y_nodes[None, :]) / x
    assert np.min(d / (params.lambda2 * (1.0 - z) ** 2)) > 1.0 - 1e-11


@pytest.mark.parametrize("count", [1, 4, 5, 63, 64, 65, 129, 1025, 1026])
def test_cut_moments_are_the_power_sums(cache64, count):
    # powers in blocks of b = ceil(sqrt(count)): b steps up past 4 = 2^2
    # and 1,024 = 32^2, and the last block is cut at 5, 1,025 and 1,026
    z = cache64.y_nodes / cache64.bp.r2
    w = np.stack([cache64.phi1_weights, cache64.cut_base])
    powers = z[:, None] ** np.arange(count)
    moments = cut_moments(w, z, count)
    assert moments.shape == (2, count)
    # each power rounded once, against the terms' absolute sum
    assert np.all(np.abs(moments - w @ powers) <= 1e-14 * (np.abs(w) @ powers))
    np.testing.assert_array_equal(cut_moments(w[0], z, count), moments[0])


def test_poisson_modes_cut_the_series_at_e_minus_37():
    z = np.array([0.1, 0.5, 0.9])
    modes = poisson_modes(z, 10 ** 6)
    assert modes == 352
    assert 0.9 ** modes < math.exp(-37.0) <= 0.9 ** (modes - 1)
    assert poisson_modes(z, 100) == 100
    # a base that rounds to 1 keeps every mode, with no division by log 1
    # (a warning, and so an error under pytest)
    assert poisson_modes(np.array([0.5, 1.0]), 64) == 64


def test_boundary_cache_is_memoized():
    cfg = QuadConfig(grid_size=64)
    assert boundary_cache(BASE, cfg) is boundary_cache(BASE, cfg)
    assert boundary_cache(BASE, cfg) is boundary_cache(BASE.with_a(3), cfg)


def test_boundary_cache_is_bounded():
    cfg = QuadConfig(grid_size=16)
    for i in range(100):
        boundary_cache(BASE.scaled(1.0 + i / 100.0), cfg)
    info = _cached_build.cache_info()
    assert info.currsize <= info.maxsize < 100
    assert boundary_cache(BASE, cfg) is boundary_cache(BASE, cfg)


def test_phi2_normalization_and_convergence():
    bp = branch_points(BASE)
    np.testing.assert_allclose(phi2(BASE, 0.0, bp), 1.0, rtol=1e-12)
    coarse = phi2(BASE, 1.0, bp, QuadConfig(grid_size=64))
    fine = phi2(BASE, 1.0, bp, QuadConfig(grid_size=256))
    np.testing.assert_allclose(coarse, fine, rtol=1e-10)
    assert fine > 0.0
