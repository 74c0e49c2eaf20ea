import math

import numpy as np
import pytest

from qwblock.errors import BadGridSize
from qwblock.quadrature import (BLOCK_ELEMENTS, QuadConfig, blocks,
                                chebyshev_coefficients, cosine_grid,
                                cut_hilbert)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(grid_size=15)
    with pytest.raises(ValueError):
        QuadConfig(grid_size=8)


def test_config_caps_the_grid():
    assert QuadConfig(grid_size=16384).grid_size == 16384
    for size in (16386, 100_000_000):
        with pytest.raises(BadGridSize):
            QuadConfig(grid_size=size)


@pytest.mark.parametrize("n, width", [(0, 512), (1, 512), (513, 512),
                                      (513, 1), (7, 10 ** 6)])
def test_blocks_cover_range(n, width):
    parts = blocks(n, width)
    assert [i for s in parts for i in range(n)[s]] == list(range(n))
    assert all(len(range(n)[s]) * width <= max(BLOCK_ELEMENTS, width)
               for s in parts)


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (np.sin, 0.0, math.pi, 2.0),
    (lambda x: np.exp(-x * x), -5.0, 5.0, math.sqrt(math.pi)),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
])
def test_integrate_known_values(f, a, b, exact):
    # second-order rule for generic integrands, so a fine grid; the open
    # rule never evaluates the endpoint singularities of 1/sqrt and log
    nodes, weights = cosine_grid(a, b, 2 ** 18)
    np.testing.assert_allclose(weights @ f(nodes), exact,
                               rtol=1e-9, atol=1e-12)


def test_integrate_empty_interval():
    nodes, weights = cosine_grid(1.0, 1.0, 16)
    assert np.all(nodes == 1.0)
    assert weights @ np.sin(nodes) == 0.0


def test_pv_odd_pole_cancels():
    # a numerator even about the centre gives a principal value odd about
    # it: the values at mirrored nodes cancel
    a, b = 2.0, 5.0
    nodes, _ = cosine_grid(a, b, 64)
    t = (2.0 * nodes - a - b) / (b - a)
    pv = cut_hilbert(chebyshev_coefficients(
        np.sqrt(1.0 - t * t) * np.cosh(t)))
    assert np.max(np.abs(pv + pv[::-1])) < 1e-13
    assert np.max(np.abs(pv)) > 1.0


def test_pv_polynomial_numerator():
    # PV int_0^2 sqrt(xi (2 - xi)) xi^2/(xi - y) dxi with t = xi - 1:
    # int sqrt(1-t^2) (t + x + 2) dt - pi x (x+1)^2 = pi (x+2)/2 - pi x (x+1)^2
    nodes, _ = cosine_grid(0.0, 2.0, 64)
    x = nodes - 1.0
    pv = cut_hilbert(chebyshev_coefficients(
        np.sqrt(nodes * (2.0 - nodes)) * nodes ** 2))
    exact = math.pi * (0.5 * (x + 2.0) - x * (x + 1.0) ** 2)
    np.testing.assert_allclose(pv, exact, rtol=1e-10, atol=1e-12)


def test_pv_smooth_numerator():
    # PV int_{-1}^{1} sqrt(1-t^2) e^t/(t - x) dt
    #   = int sqrt(1-t^2) (e^t - e^x)/(t - x) dt - pi x e^x,
    # the regular part by 40-point Gauss-Chebyshev of the second kind
    x, _ = cosine_grid(-1.0, 1.0, 64)
    pv = cut_hilbert(chebyshev_coefficients(
        np.sqrt(1.0 - x * x) * np.exp(x)))
    theta = np.arange(1, 41) * math.pi / 41.0
    t, w = np.cos(theta), math.pi / 41.0 * np.sin(theta) ** 2
    d = t[None, :] - x[:, None]
    quotient = np.exp(x)[:, None] * np.expm1(d) / d
    exact = quotient @ w - math.pi * x * np.exp(x)
    np.testing.assert_allclose(pv, exact, rtol=1e-10, atol=1e-12)


def test_cosine_grid_shape_and_order():
    nodes, weights = cosine_grid(2.0, 5.0, 32)
    assert nodes.shape == weights.shape == (32,)
    assert np.all(np.diff(nodes) > 0)
    assert 2.0 < nodes[0] and nodes[-1] < 5.0
    assert np.all(weights > 0)


def test_cosine_grid_rejects_odd():
    with pytest.raises(ValueError):
        cosine_grid(0.0, 1.0, 31)


def test_cosine_grid_sqrt_weight_integrals():
    # exact for integrands with sqrt endpoint behavior:
    # int_a^b sqrt((x-a)(b-x)) dx = pi/8 (b-a)^2
    a, b = 1.0, 3.0
    nodes, weights = cosine_grid(a, b, 64)
    f = np.sqrt((nodes - a) * (b - nodes))
    np.testing.assert_allclose(weights @ f, math.pi / 8.0 * (b - a) ** 2,
                               rtol=1e-12)
    # for generic smooth integrands the rule converges at second order
    def exp_error(n):
        nodes, weights = cosine_grid(a, b, n)
        return abs(weights @ np.exp(nodes) - (math.exp(b) - math.exp(a)))
    assert exp_error(256) < 0.3 * exp_error(128)


def test_cosine_grid_convergence_under_refinement():
    a, b = 0.0, 1.0
    def total(n):
        nodes, weights = cosine_grid(a, b, n)
        return weights @ (np.sqrt(nodes * (1.0 - nodes)) * np.cos(nodes))
    coarse = total(32)
    fine = total(256)
    assert abs(coarse - fine) < 1e-12
