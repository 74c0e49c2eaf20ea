import dataclasses
import math

import numpy as np
import pytest

from qwblock import solver
from qwblock.boundary import BoundaryCache, boundary_cache
from qwblock.errors import QwblockError, SingularSystem
from qwblock.kernel import x_of_theta
from qwblock.model import ModelParams
from qwblock.quadrature import QuadConfig
from qwblock.solver import (BoundaryVector, assemble, baseline_a0, blocking,
                            blocking_with_estimate, coefficients,
                            cond_lower_bound, eval_P1, eval_P2, solve_boundary,
                            sweep)

from conftest import BASE, CASES, OVERLOAD2, UNDERLOAD2

CFG = QuadConfig(grid_size=128)


@pytest.fixture(scope="module")
def cache():
    return boundary_cache(BASE, CFG)


@pytest.fixture(scope="module")
def bvec2(cache):
    return solve_boundary(BASE.with_a(2), CFG, cache)


def drift(p):
    return p.lambda1 + p.lambda2 - p.mu1c1 - p.mu2c2


def test_boundary_vector_poly():
    v = BoundaryVector(p=np.array([1.0, 2.0, 3.0]), seed_scale=1.0)
    assert v.p00 == 1.0
    np.testing.assert_allclose(v.poly(0.5), 1.0 + 1.0 + 0.75)
    np.testing.assert_allclose(v.poly(1j), -2.0 + 2.0j)


def test_assemble_requires_threshold(cache):
    with pytest.raises(ValueError):
        assemble(BASE.with_a(0), cache)


def test_boundary_coefficients_positive_and_conserving(bvec2):
    p = BASE.with_a(2)
    assert bvec2.p.shape == (3,)
    assert np.all(bvec2.p > 0.0)
    b1 = bvec2.p.sum()
    b2 = eval_P1(p, boundary_cache(p, CFG), bvec2, 1.0)
    np.testing.assert_allclose(p.lambda1 * b1 + p.lambda2 * b2, drift(p),
                               rtol=1e-12)


def test_eval_P1_linear_in_coefficients(cache, bvec2):
    p = BASE.with_a(2)
    c = bvec2.p
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    for x in (0.4, 1.0, -0.8):
        whole = eval_P1(p, cache, c, x)
        parts = (c[0] * eval_P1(p, cache, e0, x)
                 + c[1] * eval_P1(p, cache, e1, x)
                 + c[2] * eval_P1(p, cache, e2, x))
        np.testing.assert_allclose(whole, parts, rtol=1e-12)


def test_eval_P1_at_origin_is_p00(cache, bvec2):
    np.testing.assert_allclose(eval_P1(BASE.with_a(2), cache, bvec2, 0.0),
                               bvec2.p00, rtol=1e-12)


def test_eval_P2_rejects_outside_disk(cache, bvec2):
    with pytest.raises(ValueError):
        eval_P2(BASE.with_a(2), cache, bvec2, 2.0)


def test_eval_P2_marginal_identity(cache, bvec2):
    # P2(1) = P(n1 = 0) = 1 - mu1c1/lambda1, independent of the threshold
    val = eval_P2(BASE.with_a(2), cache, bvec2, 1.0)
    np.testing.assert_allclose(val, 2.0 / 3.0, rtol=1e-10)


def test_eval_P2_power_series_matches_boundary_vector(cache, bvec2):
    # extract p(0, n) from P2 on a circle inside radius r2 by FFT
    p = BASE.with_a(2)
    r, n = 0.8, 32
    th = 2.0 * np.pi * np.arange(n) / n
    vals = np.array([eval_P2(p, cache, bvec2,
                             complex(r * np.cos(t), r * np.sin(t)))
                     for t in th])
    coef = (np.fft.fft(vals) / n / r ** np.arange(n)).real
    np.testing.assert_allclose(coef[:3], bvec2.p, rtol=1e-8)
    # and the tail beyond degree a carries the interior probabilities:
    # positive and summing (with the boundary) to less than one
    assert np.all(coef[3:8] > 0.0)


def test_threshold_zero_path_matches_closed_form():
    for p in (BASE, UNDERLOAD2):
        rep = blocking(p.with_a(0), CFG)
        base = baseline_a0(p, CFG)
        np.testing.assert_allclose(rep.blocking.b1, base.b1, rtol=1e-7)
        np.testing.assert_allclose(rep.blocking.b2, base.b2, rtol=1e-7)


def test_blocking_report_contents(bvec2):
    rep = blocking(BASE.with_a(2), CFG)
    assert rep.normalization_residual < 1e-12
    np.testing.assert_allclose(rep.p00, bvec2.p00, rtol=1e-12)
    np.testing.assert_allclose(tuple(rep.baseline_inf), (2.0 / 3.0, 0.6),
                               rtol=1e-12)
    d = rep.to_dict()
    assert set(d) == {"blocking", "p00", "boundary", "baseline_inf",
                      "baseline_a0", "normalization_residual", "diagnostics"}
    assert d["diagnostics"]["grid_size"] == 128


def test_condition_number_is_reported(cache, bvec2):
    rep = blocking(BASE.with_a(2), CFG)
    assert bvec2.cond > 1.0
    assert bvec2.cond == rep.to_dict()["diagnostics"]["condition_estimate"]
    assert solve_boundary(BASE, CFG, cache).cond == 1.0
    assert blocking(BASE, CFG).to_dict()["diagnostics"][
        "condition_estimate"] == 1.0


def test_blocking_monotone_in_threshold():
    reports = [blocking(BASE.with_a(a), CFG) for a in (0, 1, 2, 4)]
    b1 = [r.blocking.b1 for r in reports]
    b2 = [r.blocking.b2 for r in reports]
    assert all(x < y for x, y in zip(b1, b1[1:]))
    assert all(x > y for x, y in zip(b2, b2[1:]))


def test_blocking_with_estimate_attaches_bounds():
    rep = blocking_with_estimate(BASE.with_a(2), CFG)
    est = rep.diagnostics["error_estimate"]
    assert set(est) == {"b1", "b2", "p00"}
    assert all(0.0 <= v < 1e-6 for v in est.values())


def test_baseline_a0_both_branches():
    # lambda2 > mu2c2: second queue overloaded
    b = baseline_a0(BASE, CFG)
    np.testing.assert_allclose(
        BASE.lambda1 * b.b1 + BASE.lambda2 * b.b2, drift(BASE), rtol=1e-12)
    # lambda2 < mu2c2: second queue underloaded
    b = baseline_a0(UNDERLOAD2, CFG)
    np.testing.assert_allclose(
        UNDERLOAD2.lambda1 * b.b1 + UNDERLOAD2.lambda2 * b.b2,
        drift(UNDERLOAD2), rtol=1e-12)
    assert 0.0 < b.b1 < 1.0 and 0.0 < b.b2 < 1.0


def test_time_rescaling_invariance():
    # blocking probabilities only depend on rate ratios
    p = OVERLOAD2.with_a(1)
    rep1 = blocking(p, CFG)
    rep2 = blocking(p.scaled(2.0), CFG)
    np.testing.assert_allclose(rep1.blocking.b1, rep2.blocking.b1, rtol=1e-9)
    np.testing.assert_allclose(rep1.blocking.b2, rep2.blocking.b2, rtol=1e-9)


@pytest.mark.parametrize("params", [BASE.with_a(2), UNDERLOAD2.with_a(5),
                                    OVERLOAD2.with_a(10)])
def test_grid_1024_agrees_with_grid_512(params):
    fine = blocking(params, QuadConfig(grid_size=1024)).blocking
    coarse = blocking(params, QuadConfig(grid_size=512)).blocking
    np.testing.assert_allclose(tuple(fine), tuple(coarse), rtol=0, atol=1e-9)


def test_near_critical_set_solves():
    # lambda1/mu1c1 = 1.003: the adaptive principal value once refused this
    # set; at a = 97 blocking sits at the isolation limit
    p = ModelParams(8.976441448407051, 6.867062552046127, 8.950369222000745,
                    4.7483445662791155, a=97)
    rep = blocking(p)
    inf, a0 = rep.baseline_inf, rep.baseline_a0
    assert a0.b1 < rep.blocking.b1 < inf.b1
    assert inf.b2 < rep.blocking.b2 < a0.b2
    assert rep.normalization_residual < 1e-12
    fine = blocking(p, QuadConfig(grid_size=1024)).blocking
    np.testing.assert_allclose(tuple(fine), tuple(inf), rtol=0, atol=1e-7)


def _dense_coefficients(p, cache, n_t):
    """alpha and beta of assemble as whole (k, theta) matrices: np.sin of
    every k*theta, y**(k-1), and alpha2 with its three sines."""
    a, r2 = p.a, cache.bp.r2
    theta = np.linspace(0.0, math.pi, n_t + 1)
    w_t = np.full(n_t + 1, math.pi / n_t)
    w_t[[0, -1]] *= 0.5
    x_t = np.asarray(x_of_theta(p, theta))
    phi1_t = cache.phi1_many(x_t)
    denom_t = p.lambda1 + p.lambda2 - (p.mu1c1 + p.mu2c2) * x_t
    y = cache.y_nodes
    base = (cache.y_weights * (p.lambda2 - p.mu2c2 * y * y)
            * cache.sin_theta1 * cache.exp_neg_phi1)
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


@pytest.mark.parametrize("params", [BASE.with_a(3), UNDERLOAD2.with_a(40),
                                    OVERLOAD2.with_a(10)])
def test_assemble_matches_dense_sums(params):
    cache = boundary_cache(params, CFG)
    cm = assemble(params, cache)
    alpha, beta = _dense_coefficients(params, cache, CFG.grid_size)
    # columns k scale like r2^(k-1); compare each against its own size
    assert np.all(np.abs(cm.alpha - alpha)
                  <= 1e-12 * np.max(np.abs(alpha), axis=0))
    np.testing.assert_allclose(cm.beta, beta, rtol=0,
                               atol=1e-12 * np.max(np.abs(beta)))


def test_cond_lower_bound_never_exceeds_cond():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 30):
        for _ in range(20):
            mat = (rng.standard_normal((n, n))
                   * 10.0 ** rng.uniform(-8, 8, n)[:, None]
                   * 10.0 ** rng.uniform(-8, 8, n)[None, :])
            assert cond_lower_bound(mat) <= np.linalg.cond(mat) * (1 + 1e-12)
    diag = np.diag(2.0 ** np.arange(60))
    assert cond_lower_bound(diag) == pytest.approx(np.linalg.cond(diag))
    assert cond_lower_bound(np.zeros((3, 3)) + np.eye(3)[0]) == math.inf


def test_ill_conditioned_systems_are_refused():
    # condition number about 3e55: the norm bound refuses it before the SVD
    far = ModelParams(9.063560847309095, 0.7906048388187585,
                      0.7417356794378775, 5.643418491538218, a=97)
    # about 4e12, with a norm ratio near 2e6: only the SVD refuses it
    near = ModelParams(6.284975842331384, 7.429301713066076,
                       4.145051512455379, 8.641016705294073, a=189)
    with pytest.raises(SingularSystem, match="condition number"):
        solve_boundary(far)
    with pytest.raises(SingularSystem, match="condition number"):
        solve_boundary(near)


def test_eval_P1_array_equals_per_element(cache, bvec2):
    p = BASE.with_a(2)
    xs = np.concatenate([np.linspace(-1.5, 1.2, 37), [0.0, 1.0, -0.8]])
    per_x = [eval_P1(p, cache, bvec2, float(x)) for x in xs]
    assert all(isinstance(v, float) for v in per_x)
    np.testing.assert_array_equal(eval_P1(p, cache, bvec2, xs), per_x)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_per_threshold_blocking(name):
    params = CASES[name]
    reports = sweep(params, range(41))
    for a, rep in enumerate(reports):
        single = blocking(params.with_a(a))
        for got, want in ((rep.blocking.b1, single.blocking.b1),
                          (rep.blocking.b2, single.blocking.b2),
                          (rep.p00, single.p00)):
            assert abs(got - want) <= 1e-14 * abs(want)
        # the systems agree to rounding, which moves the 2-norm condition
        # number kappa by up to about kappa * eps relative
        got = rep.diagnostics["condition_estimate"]
        want = single.diagnostics["condition_estimate"]
        assert abs(got - want) <= max(1e-12, 1e-15 * want) * want
        assert rep.baseline_a0 == single.baseline_a0
        assert rep.baseline_inf == single.baseline_inf
    assert len({id(rep.diagnostics) for rep in reports}) == len(reports)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_slices_one_assembly(name):
    # equal up to the order in which BLAS sums the products
    params = CASES[name]
    cache = boundary_cache(params)
    top = assemble(params.with_a(40), cache)
    for a in range(1, 41):
        cm = assemble(params.with_a(a), cache)
        assert np.all(np.abs(top.alpha[:a, :a + 1] - cm.alpha)
                      <= 2e-15 * np.max(np.abs(cm.alpha), axis=0))
        np.testing.assert_allclose(top.beta[:a], cm.beta, rtol=0,
                                   atol=2e-15 * np.max(np.abs(cm.beta)))


def test_sweep_assembles_once(monkeypatch):
    calls = []

    def counting(params, cache):
        calls.append(params.a)
        return assemble(params, cache)

    monkeypatch.setattr(solver, "assemble", counting)
    assert len(sweep(UNDERLOAD2, iter([3, 0, 12, 7]), CFG)) == 4
    assert calls == [12]
    blocking(UNDERLOAD2.with_a(5), CFG)
    assert calls == [12, 5]
    sweep(UNDERLOAD2, [0], CFG)
    assert calls == [12, 5]


def test_sweep_stops_at_the_first_refused_threshold():
    thresholds = range(55, 71)
    refused = None
    for a in thresholds:
        try:
            blocking(BASE.with_a(a))
        except QwblockError as exc:
            refused = type(exc)
            break
    assert refused is not None
    with pytest.raises(QwblockError) as info:
        sweep(BASE, thresholds)
    assert type(info.value) is refused


@pytest.mark.parametrize("entry", [("alpha", (0, 1), math.nan),
                                   ("alpha", (1, 0), math.nan),
                                   ("beta", (0,), math.nan),
                                   ("alpha", (1, 2), math.inf)])
def test_non_finite_systems_are_refused(monkeypatch, entry):
    # NaN fails every comparison, so "cond > 1e12" alone let it through
    field, index, value = entry

    def spoiled(params, cache):
        cm = assemble(params, cache)
        bad = getattr(cm, field).copy()
        bad[index] = value
        return dataclasses.replace(cm, **{field: bad})

    monkeypatch.setattr(solver, "assemble", spoiled)
    with pytest.raises(SingularSystem):
        blocking(BASE.with_a(3), CFG)


def test_sweep_takes_P1_of_one_from_one_row(monkeypatch):
    calls = {"eval_P1": 0, "phi1_many": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "eval_P1", counting("eval_P1", eval_P1))
    monkeypatch.setattr(BoundaryCache, "phi1_many",
                        counting("phi1_many", BoundaryCache.phi1_many))
    assert len(sweep(OVERLOAD2, range(31), CFG)) == 31
    assert calls == {"eval_P1": 0, "phi1_many": 1}


@pytest.mark.parametrize("a", [0, 1, 2, 10, 30])
@pytest.mark.parametrize("name", sorted(CASES))
def test_p1_one_row_equals_eval_P1_at_one(name, a):
    params = CASES[name].with_a(a)
    cache = boundary_cache(params)
    cm = coefficients(params, cache)
    assert cm.p1_one.shape == (a + 1,)
    bvec = solve_boundary(params, cache=cache, cm=cm)
    want = eval_P1(params, cache, bvec, 1.0)
    assert abs(cm.p1_one @ bvec.p - want) <= 1e-14 * abs(want)


def test_critical_second_queue_solves():
    # lambda2 = mu2c2 puts x(0) = x2 = 1 on the first theta node, where
    # 1/(1 - x) is infinite; sin(k * 0) = 0 weights that node out of every sum
    p = ModelParams(1.0, 1.0, 0.5, 1.0, a=5)
    assert boundary_cache(p).x_theta[0] == 1.0
    mid = blocking(p)
    assert mid.normalization_residual < 1e-12
    below, above = (blocking(ModelParams(1.0, 1.0 + d, 0.5, 1.0, a=5))
                    for d in (-1e-6, 1e-6))
    np.testing.assert_allclose(
        tuple(mid.blocking),
        0.5 * (np.array(tuple(below.blocking)) + tuple(above.blocking)),
        rtol=1e-9)
