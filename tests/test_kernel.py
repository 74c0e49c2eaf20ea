import cmath
import math

import numpy as np
import pytest

from qwblock.errors import DegenerateBranchPoints, OnCut, OutOfRange
from qwblock.kernel import (Side, branch_points, discriminants, kernel_value,
                            x_of_theta, x_roots, y_roots)
from qwblock.model import ModelParams
from qwblock.quadrature import cosine_grid

from conftest import (BASE, CASES, DOUBLY_NEAR_CRITICAL, NEAR_CRITICAL1,
                      OVERLOAD2, UNDERLOAD2)
from helpers import chebyshev_u, theta2_of_x, x_of_theta_long_double


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("p", [*CASES.values(), NEAR_CRITICAL1,
                               *DOUBLY_NEAR_CRITICAL], ids=str)
def test_kernel_value_matches_the_long_double_sum(p):
    # the expanded sum mu1c1 x^2 y + mu2c2 x y^2 - rate_sum x y + lambda1 y
    # + lambda2 x in long double, on the theta-grid x against the cut
    # nodes; it cancels to x D near x2, by up to 3e7 on (1.001, 1, 1, 1),
    # so its own error is eps_ld times its terms' absolute sum.  In these
    # units kernel_value is at most 5.2 off, and the expanded sum in double
    # 56 to 1,060 on the near-critical sets
    bp = branch_points(p)
    y, _ = cosine_grid(bp.y1, bp.y2, 256)
    x = x_of_theta(p, np.linspace(0.0, math.pi, 257))[:, None]
    ld = np.longdouble
    lam1, lam2, mu1, mu2 = map(ld, (p.lambda1, p.lambda2, p.mu1c1, p.mu2c2))
    xl, yl = x.astype(ld), y.astype(ld)
    terms = (mu1 * xl * xl * yl, mu2 * xl * yl * yl,
             -(lam1 + lam2 + mu1 + mu2) * xl * yl, lam1 * yl, lam2 * xl)
    want, size = sum(terms), sum(abs(t) for t in terms)
    err = np.abs(kernel_value(p, x, y) - want)
    assert np.all(err <= 8.0 * (np.finfo(float).eps * np.abs(want)
                                + np.finfo(ld).eps * size))


@pytest.mark.parametrize("p", [BASE, UNDERLOAD2, *DOUBLY_NEAR_CRITICAL],
                         ids=str)
def test_kernel_value_is_one_product_on_either_unit_line(p):
    # K(1, y) = (y - 1)(mu2c2 y - lambda2) and K(x, 1) = (x - 1)(mu1c1 x -
    # lambda1), each rounded as that one product
    t = np.linspace(0.0, 2.0, 41)
    assert np.array_equal(kernel_value(p, 1.0, t),
                          (t - 1.0) * (p.mu2c2 * t - p.lambda2))
    assert np.array_equal(kernel_value(p, t, 1.0),
                          (t - 1.0) * (p.mu1c1 * t - p.lambda1))


def test_discriminants_negative_inside_cuts():
    bp = branch_points(BASE)
    y_mid = 0.5 * (bp.y1 + bp.y2)
    x_mid = 0.5 * (bp.x1 + bp.x2)
    d1, _ = discriminants(BASE, y_mid)
    _, d2 = discriminants(BASE, x_mid)
    assert d1 < 0 and d2 < 0
    # and each discriminant vanishes at its own branch points
    for y in (bp.y1, bp.y2, bp.y3, bp.y4):
        assert abs(discriminants(BASE, y)[0]) < 1e-9
    for x in (bp.x1, bp.x2, bp.x3, bp.x4):
        assert abs(discriminants(BASE, x)[1]) < 1e-9


@pytest.mark.parametrize("params", [BASE, UNDERLOAD2, OVERLOAD2])
def test_branch_points_are_discriminant_roots(params):
    bp = branch_points(params)
    ys = (bp.y1, bp.y2, bp.y3, bp.y4)
    xs = (bp.x1, bp.x2, bp.x3, bp.x4)
    assert list(ys) == sorted(ys) and list(xs) == sorted(xs)
    assert bp.y2 < 1.0 < bp.y3 and bp.x2 < 1.0 < bp.x3
    scale = params.rate_sum ** 2
    for y in ys:
        assert abs(discriminants(params, y)[0]) < 1e-9 * scale
    for x in xs:
        assert abs(discriminants(params, x)[1]) < 1e-9 * scale


def test_branch_points_radii():
    bp = branch_points(BASE)
    np.testing.assert_allclose(bp.r1, math.sqrt(3.0), rtol=1e-15)
    np.testing.assert_allclose(bp.r2, math.sqrt(2.5), rtol=1e-15)


def test_degenerate_branch_points_raise():
    with pytest.raises(DegenerateBranchPoints):
        branch_points(ModelParams(1.0, 2.0, 1.0, 2.0))


@pytest.mark.parametrize("rates", [
    (65.1, 1e308, 0.4977, 53.99),    # rate_sum ** 2: every root is nan
    (7.452, 1.0, 1e-308, 9.875),     # lambda1/mu1c1: r1 and x4 are inf
], ids=str)
def test_branch_points_beyond_double_precision_raise(rates):
    # float arithmetic overflows without raising, so the roots are checked
    with pytest.raises(OutOfRange):
        branch_points(ModelParams(*rates))


def test_roots_satisfy_kernel_and_products():
    p = BASE
    bp = branch_points(p)
    rng = np.random.default_rng(7)
    for _ in range(100):
        y = complex(rng.uniform(-4, 8), rng.uniform(0.3, 2.0))
        x0, x1 = x_roots(p, y, bp)
        scale = p.rate_sum * (1 + abs(x1)) ** 2 * (1 + abs(y)) ** 2
        assert abs(kernel_value(p, x0, y)) < 1e-10 * scale
        assert abs(kernel_value(p, x1, y)) < 1e-10 * scale
        np.testing.assert_allclose(x0 * x1, p.lambda1 / p.mu1c1, rtol=1e-12)

        x = complex(rng.uniform(-4, 8), rng.uniform(0.3, 2.0))
        y0, y1 = y_roots(p, x, bp)
        scale = p.rate_sum * (1 + abs(y1)) ** 2 * (1 + abs(x)) ** 2
        assert abs(kernel_value(p, x, y0)) < 1e-10 * scale
        assert abs(kernel_value(p, x, y1)) < 1e-10 * scale
        np.testing.assert_allclose(y0 * y1, p.lambda2 / p.mu2c2, rtol=1e-12)


def test_roots_at_origin():
    x0, x1 = x_roots(BASE, 0.0)
    assert x0 == 0 and x1 == complex(math.inf)


def test_on_cut_requires_side():
    bp = branch_points(BASE)
    y_mid = 0.5 * (bp.y1 + bp.y2)
    with pytest.raises(OnCut):
        x_roots(BASE, y_mid)
    x0_above, _ = x_roots(BASE, y_mid, bp, side=Side.ABOVE)
    x0_below, _ = x_roots(BASE, y_mid, bp, side=Side.BELOW)
    # one-sided limits are complex conjugates on the circle of radius r1
    np.testing.assert_allclose(x0_above, np.conj(x0_below), rtol=1e-12)
    np.testing.assert_allclose(abs(x0_above), bp.r1, rtol=1e-10)


def test_circle_property_both_cuts():
    p = BASE
    bp = branch_points(p)
    eps_y = 1e-7 * (bp.y2 - bp.y1)
    for y in np.linspace(bp.y1 + eps_y, bp.y2 - eps_y, 50):
        for side in (Side.ABOVE, Side.BELOW):
            x0, _ = x_roots(p, y, bp, side=side)
            np.testing.assert_allclose(abs(x0), bp.r1, rtol=1e-10)
    eps_x = 1e-7 * (bp.x2 - bp.x1)
    for x in np.linspace(bp.x1 + eps_x, bp.x2 - eps_x, 50):
        for side in (Side.ABOVE, Side.BELOW):
            y0, _ = y_roots(p, x, bp, side=side)
            np.testing.assert_allclose(abs(y0), bp.r2, rtol=1e-10)


def test_x_of_theta_endpoints_and_range():
    p = BASE
    bp = branch_points(p)
    np.testing.assert_allclose(x_of_theta(p, 0.0), bp.x2, rtol=1e-12)
    np.testing.assert_allclose(x_of_theta(p, math.pi), bp.x1, rtol=1e-12)
    theta = np.linspace(0.0, math.pi, 101)
    x = x_of_theta(p, theta)
    assert np.all(x >= bp.x1 - 1e-12) and np.all(x <= bp.x2 + 1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("grid", [64, 512, 2048])
@pytest.mark.parametrize("p", [*CASES.values(), NEAR_CRITICAL1,
                               *DOUBLY_NEAR_CRITICAL], ids=str)
def test_x_of_theta_matches_the_long_double_root(p, grid):
    # where x2 and x3 nearly meet, c^2 - 4 mu1c1 lambda1 nearly vanishes
    x = x_of_theta(p, np.linspace(0.0, math.pi, grid + 1))
    np.testing.assert_allclose(x, x_of_theta_long_double(p, grid), rtol=2e-15,
                               atol=0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("p", [
    *CASES.values(), NEAR_CRITICAL1, *DOUBLY_NEAR_CRITICAL,
    # y1 = 7.1e-5, which (b - sqrt(disc))/(2 lead) put 7.9e-9 off
    ModelParams(74.013, 0.0054066, 0.017491, 0.0045963)], ids=str)
def test_branch_points_match_the_long_double_roots(p):
    # each factor lead z^2 - b z + const of the quartic in long double, its
    # roots 2 const/(b + sqrt(disc)) and (b + sqrt(disc))/(2 lead).  In
    # double, b = rate_sum -+ 2 sqrt(.) is rounded at rate_sum, and a root
    # moves by that over sqrt(disc): much where x2 and x3 (or y2 and y3)
    # nearly meet, not at all from the small root's own formula
    ld, bp = np.longdouble, branch_points(p)
    lam1, lam2, mu1, mu2 = map(ld, (p.lambda1, p.lambda2, p.mu1c1, p.mu2c2))
    s, eps = lam1 + lam2 + mu1 + mu2, np.finfo(float).eps
    for got, (lead, shift, const) in (
            ((bp.y1, bp.y2, bp.y3, bp.y4), (mu2, np.sqrt(mu1 * lam1), lam2)),
            ((bp.x1, bp.x2, bp.x3, bp.x4), (mu1, np.sqrt(mu2 * lam2), lam1))):
        roots = []
        for b in (s + 2 * shift, s - 2 * shift):
            sq = np.sqrt(b * b - 4 * lead * const)
            tol = 4.0 * eps * (1.0 + s / sq)
            roots += [(2 * const / (b + sq), tol), ((b + sq) / (2 * lead), tol)]
        want, tol = zip(*sorted(roots))
        assert np.all(np.abs(np.array(got, dtype=ld) / want - 1) <= tol)


@pytest.mark.parametrize("p", [BASE, UNDERLOAD2, OVERLOAD2], ids=str)
def test_kernel_on_the_x_cut_is_x_times_the_poisson_denominator(p):
    # K(x(theta), .) has the conjugate roots r2 exp(+-i theta), so
    # K(x(theta), y) = x(theta) lambda2 (1 - 2z cos(theta) + z^2), z = y/r2
    bp = branch_points(p)
    theta = np.linspace(0.0, math.pi, 65)[:, None]
    y, _ = cosine_grid(bp.y1, bp.y2, 64)
    x, z = x_of_theta(p, theta), y / bp.r2
    np.testing.assert_allclose(
        kernel_value(p, x, y),
        x * p.lambda2 * (1.0 - 2.0 * z * np.cos(theta) + z * z),
        rtol=1e-12, atol=0)


def test_theta2_matches_y0_argument():
    # defining property: Y0(x + 0i) = r2 * exp(-i * theta2(x))
    p = BASE
    bp = branch_points(p)
    for x in np.linspace(bp.x1 + 1e-6, bp.x2 - 1e-6, 25):
        y0, _ = y_roots(p, x, bp, side=Side.ABOVE)
        expected = bp.r2 * np.exp(-1j * theta2_of_x(p, x, bp))
        np.testing.assert_allclose(y0, expected, rtol=1e-9)


def test_theta_parametrization_roundtrip():
    p = BASE
    bp = branch_points(p)
    # x direction is well conditioned everywhere on the cut
    for x in np.linspace(bp.x1, bp.x2, 41):
        np.testing.assert_allclose(x_of_theta(p, theta2_of_x(p, x, bp)), x,
                                   rtol=1e-10, atol=1e-12)
    # interior theta direction
    for theta in np.linspace(0.3, math.pi - 0.3, 11):
        np.testing.assert_allclose(theta2_of_x(p, x_of_theta(p, theta), bp),
                                   theta, rtol=1e-10)


def test_theta2_of_x_rejects_outside_cut():
    bp = branch_points(BASE)
    with pytest.raises(ValueError):
        theta2_of_x(BASE, bp.x2 + 0.5, bp)


def test_chebyshev_second_kind():
    t = np.linspace(-0.99, 0.99, 21)
    theta = np.arccos(t)
    for n in range(6):
        np.testing.assert_allclose(chebyshev_u(n, t),
                                   np.sin((n + 1) * theta) / np.sin(theta),
                                   rtol=1e-10, atol=1e-12)
    assert chebyshev_u(0, 0.3) == 1.0
    assert chebyshev_u(1, 0.3) == 0.6
    with pytest.raises(ValueError):
        chebyshev_u(-1, 0.3)


def _cmath_roots(p, bp, z, side):
    """Reference X0 and Y0 one point at a time: cmath square roots with the
    side's signed zero, as the scalar root functions used to compute them."""
    def root(z, cuts, quad, const, lead):
        if abs(z.imag) < 1e-9 and (cuts[0] - 1e-9 < z.real < cuts[1] + 1e-9
                                   or cuts[2] - 1e-9 < z.real < cuts[3] + 1e-9):
            z = complex(z.real, side.value * 0.0)
        sigma = complex(quad)
        for c in cuts:
            sigma *= cmath.sqrt(complex(z.real - c, z.imag))
        q = quad * z * z - p.rate_sum * z + const
        return (-q + sigma) / (2.0 * lead * z)
    return (root(z, (bp.y1, bp.y2, bp.y3, bp.y4), p.mu2c2, p.lambda2, p.mu1c1),
            root(z, (bp.x1, bp.x2, bp.x3, bp.x4), p.mu1c1, p.lambda1, p.mu2c2))


@pytest.mark.parametrize("side", [Side.ABOVE, Side.BELOW])
@pytest.mark.parametrize("p", [BASE, UNDERLOAD2, OVERLOAD2])
def test_array_roots_equal_per_element_roots(p, side):
    bp = branch_points(p)
    rng = np.random.default_rng(11)
    off_cut = rng.uniform(-4, 8, 20) + 1j * rng.uniform(-2, 2, 20)
    for cuts, roots in (((bp.y1, bp.y2, bp.y3, bp.y4), x_roots),
                        ((bp.x1, bp.x2, bp.x3, bp.x4), y_roots)):
        on_cut = np.concatenate([np.linspace(cuts[0], cuts[1], 7),
                                 np.linspace(cuts[2], cuts[3], 7)])
        z = np.concatenate([off_cut, on_cut, [0.0]])
        r0, r1 = roots(p, z, bp, side=side)
        each = [roots(p, zz, bp, side=side) for zz in z]
        # numpy's vector and scalar complex loops may round differently
        np.testing.assert_allclose(r0, [e[0] for e in each], rtol=1e-12)
        np.testing.assert_allclose(r1, [e[1] for e in each], rtol=1e-12)
        assert r0[-1] == 0 and r1[-1] == complex(math.inf)
    # both root functions against the scalar cmath reference
    for z in np.concatenate([off_cut, np.linspace(bp.y1, bp.y2, 9),
                             np.linspace(bp.x1, bp.x2, 9)]):
        ref_x0, ref_y0 = _cmath_roots(p, bp, complex(z), side)
        x0 = x_roots(p, z, bp, side=side)[0]
        y0 = y_roots(p, z, bp, side=side)[0]
        np.testing.assert_allclose(x0, ref_x0, rtol=1e-12)
        np.testing.assert_allclose(y0, ref_y0, rtol=1e-12)


def test_array_with_one_on_cut_point_raises():
    bp = branch_points(BASE)
    ys = np.array([0.3 + 1.0j, -1.0, 0.5 * (bp.y1 + bp.y2), 5.0 + 0.5j])
    with pytest.raises(OnCut):
        x_roots(BASE, ys, bp)
    xs = np.array([0.3 + 1.0j, 0.5 * (bp.x3 + bp.x4), 5.0 + 0.5j])
    with pytest.raises(OnCut):
        y_roots(BASE, xs, bp)
    x0, _ = x_roots(BASE, np.delete(ys, 2), bp)
    assert x0.shape == (3,)
