import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qwblock import boundary, solver
from qwblock.boundary import (BoundaryCache, _cached_build, boundary_cache,
                              kernel_sums)
from qwblock.errors import (KernelZeroOnCut, NonPositiveRate, OutOfRange,
                            QwblockError, SingularSystem)
from qwblock.kernel import kernel_value, x_of_theta
from qwblock.model import ModelParams
from qwblock.quadrature import QuadConfig, cosine_grid
from qwblock.oracle import blocking_from_distribution, solve_limiting_walk
from qwblock.solver import (BoundaryVector, assemble, baseline_a0, blocking,
                            blocking_with_estimate, eval_P1,
                            eval_P2, solve_boundary, sweep)

from conftest import BASE, CASES, OVERLOAD2, UNDERLOAD2
from helpers import dense_coefficients

CFG = QuadConfig(grid_size=128)


@pytest.fixture(scope="module")
def cache():
    return boundary_cache(BASE, CFG)


@pytest.fixture(scope="module")
def bvec2(cache):
    return solve_boundary(BASE.with_a(2), CFG, cache)


def drift(p):
    return p.lambda1 + p.lambda2 - p.mu1c1 - p.mu2c2


def test_boundary_vector_p00():
    v = BoundaryVector(p=np.array([1.0, 2.0, 3.0]))
    assert v.p00 == 1.0 and type(v.p00) is float


def test_assemble_at_threshold_zero_has_only_p1_one(cache):
    cm = assemble(BASE.with_a(0), cache)
    assert cm.alpha.shape == (0, 1) and cm.beta.shape == (0,)
    np.testing.assert_allclose(cm.p1_one,
                               assemble(BASE.with_a(5), cache).p1_one[:1],
                               rtol=1e-15, atol=0)


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
    assert "phi1_nodes" not in d["diagnostics"]


def _stable_draws(count, seed):
    """Rates U[0.5, 10] and a in 0..200, stable sets only."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        p = ModelParams(*rng.uniform(0.5, 10.0, 4), a=int(rng.integers(201)))
        if p.lambda1 > p.mu1c1 and p.mu1c1 + p.mu2c2 < p.lambda1 + p.lambda2:
            draws.append(p)
    return draws


@pytest.mark.parametrize("params", [
    *(p.with_a(a) for p in CASES.values() for a in (0, 2, 10, 30, 100)),
    *_stable_draws(20, seed=21)], ids=str)
def test_interpolated_phi1_solves_like_the_direct_tabulation(params,
                                                            monkeypatch):
    # phi1 on the theta grid comes from the folded Poisson moments; the
    # same systems solved on the direct kernel sums give the same B.  The
    # build reads phi1 on the theta grid, so the direct one goes into a
    # cache built under the patch, and the patch must be reached
    def b1_b2(cache):
        cm = assemble(params, cache)
        bvec = solve_boundary(params, cache=cache, cm=cm)
        return np.array([bvec.p.sum(), cm.p1_one @ bvec.p])

    cache = boundary_cache(params)
    calls = []

    def direct(half_fold, n_t):
        calls.append(n_t)
        return cache.phi1(x_of_theta(params, np.linspace(
            0.0, math.pi, n_t + 1)))

    monkeypatch.setattr(boundary, "phi1_on_theta", direct)
    tabulated = BoundaryCache.build(params)
    assert calls == [tabulated.cfg.grid_size]
    np.testing.assert_allclose(b1_b2(cache), b1_b2(tabulated), rtol=0,
                               atol=1e-14)


# solve_boundary, called directly, refuses as sweep does: it once zeroed
# the inf of r2^206 on M's diagonal and refused a singular matrix
@pytest.mark.parametrize("solve", [blocking, solve_boundary])
@pytest.mark.parametrize("params", [
    ModelParams(65.1, 1e308, 0.4977, 53.99, a=24),    # rate_sum ** 2
    ModelParams(0.8808, 41.15, 0.1993, 0.004455, a=206),    # r2 ** a
], ids=str)
def test_rates_beyond_double_precision_are_refused(params, solve):
    with pytest.raises(OutOfRange):
        solve(params, CFG)


def test_condition_number_is_reported(cache, bvec2):
    # cond is the larger condition number of the seeded B1 = 1 + sum(u) and
    # B2 = p1_one @ (1, u), u = M^-1 rhs, under perturbations of M and rhs
    # at the size of each column's largest entry: the perturbation of size
    # delta whose signs follow M^-T c and u moves B by cond * delta
    # relative, to first order (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 7.2)
    a, cm = 2, assemble(BASE.with_a(2), cache)
    mat = np.diag(cache.bp.r2 ** np.arange(a)) - cm.alpha[:, 1:]
    rhs = cm.beta + cm.alpha[:, 0]
    u = np.linalg.solve(mat, rhs)
    kappas = []
    for c in (np.ones(a + 1), cm.p1_one):
        sign = np.sign(np.linalg.solve(mat.T, c[1:]))
        seeded = c[0] + c[1:] @ u
        delta = 1e-7
        worst = np.linalg.solve(
            mat - delta * np.outer(sign, np.sign(u)) * np.abs(mat).max(axis=0),
            rhs + delta * sign * np.abs(rhs).max())
        kappas.append(abs(c[1:] @ (worst - u)) / (delta * abs(seeded)))
    assert bvec2.cond == pytest.approx(max(kappas), rel=1e-6)
    assert bvec2.cond == blocking(BASE.with_a(2), CFG).to_dict()[
        "diagnostics"]["condition_estimate"]
    # at a = 0 there is no system for B to depend on
    assert solve_boundary(BASE, CFG, cache).cond == 0.0
    assert blocking(BASE, CFG).to_dict()["diagnostics"][
        "condition_estimate"] == 0.0


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


@pytest.mark.parametrize("params, grid", [
    (BASE.with_a(3), 128), (UNDERLOAD2.with_a(40), 128),
    (OVERLOAD2.with_a(10), 128),
    # a >= n: the sine and cosine indices wrap mod 2n
    (OVERLOAD2.with_a(100), 128), (BASE.with_a(200), 128),
    # y2/r2 = 0.970: every one of the n modes is kept, and folded
    (UNDERLOAD2.with_a(200), 512),
    # r2 = 1 and x(0) = 1
    (ModelParams(1.0, 1.0, 0.5, 1.0, a=5), 128)], ids=str)
def test_assemble_matches_dense_sums(params, grid):
    cache = boundary_cache(params, QuadConfig(grid))
    cm = assemble(params, cache)
    alpha, beta = dense_coefficients(params, cache, grid)
    # columns k scale like r2^(k-1); compare each against its own size
    assert np.all(np.abs(cm.alpha - alpha)
                  <= 1e-12 * np.max(np.abs(alpha), axis=0))
    np.testing.assert_allclose(cm.beta, beta, rtol=0,
                               atol=1e-12 * np.max(np.abs(beta)))


def test_systems_ill_conditioned_in_norm_are_answered():
    for params, box in (
            # the matrix has 2-norm condition number 3e55; B1 and B2 have
            # 3.9 for relative changes of each entry, which the gate takes
            (ModelParams(9.063560847309095, 0.7906048388187585,
                         0.7417356794378775, 5.643418491538218, a=97),
             (60, 217)),
            # 4e12 against 80
            (ModelParams(6.284975842331384, 7.429301713066076,
                         4.145051512455379, 8.641016705294073, a=189),
             (120, 792))):
        rep = blocking(params)
        dist = solve_limiting_walk(params, box)
        assert dist.boundary_mass < 1e-16
        oracle = blocking_from_distribution(dist, params)
        np.testing.assert_allclose(tuple(rep.blocking), tuple(oracle),
                                   rtol=0, atol=1e-12)


def test_eval_P1_array_equals_per_element(cache, bvec2):
    p = BASE.with_a(2)
    xs = np.concatenate([np.linspace(-1.5, 1.2, 37), [0.0, 1.0, -0.8]])
    per_x = [eval_P1(p, cache, bvec2, float(x)) for x in xs]
    assert all(isinstance(v, float) for v in per_x)
    np.testing.assert_array_equal(eval_P1(p, cache, bvec2, xs), per_x)


def test_eval_P1_is_phi1_and_kernel_sums_bit_for_bit(cache, bvec2):
    # eval_P1 is these two calls: its one kernel_sums over both weights
    # sums each row as the two single-weight calls do
    p = BASE.with_a(2)
    xs = np.linspace(-1.5, 1.2, 1001)
    y = cache.y_nodes
    phi1 = cache.phi1(xs)
    integral = kernel_sums(
        p, y, cache.cut_base * np.polyval(bvec2.p[::-1], y) / y, xs)
    want = (phi1 * float(bvec2.p[0])
            + xs * p.lambda1 * phi1 / (p.lambda2 * math.pi) * integral)
    np.testing.assert_array_equal(eval_P1(p, cache, bvec2, xs), want)


def test_eval_P2_sums_the_kernel_in_row_blocks():
    # eval_P1 on all 2,048 x-cut nodes held 2 x 2,048 x 2,048 quotients,
    # about 100 MB, when kernel_sums took every x at once; each x is a row
    # sum of its own, so the blocks leave every value as it was
    p, cfg = BASE.with_a(2), QuadConfig(grid_size=2048)
    cache = boundary_cache(p, cfg)
    bvec = solve_boundary(p, cfg, cache)
    xs, _ = cosine_grid(cache.bp.x1, cache.bp.x2, cfg.grid_size)
    weights = np.stack([cache.phi1_weights, cache.cut_base])
    whole = np.sum(weights[:, None, :] / kernel_value(
        p, xs[:, None], cache.y_nodes[None, :]), axis=-1)
    np.testing.assert_array_equal(
        kernel_sums(p, cache.y_nodes, weights, xs), whole)
    eval_P2(p, cache, bvec, 0.5)
    tracemalloc.start()
    try:
        eval_P2(p, cache, bvec, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


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
        # the systems agree to rounding, which moves the condition number
        # kappa of B1 and B2 by up to about kappa * eps relative
        got = rep.diagnostics["condition_estimate"]
        want = single.diagnostics["condition_estimate"]
        assert abs(got - want) <= max(1e-12, 1e-15 * want) * want
        assert rep.baseline_a0 == single.baseline_a0
        assert rep.baseline_inf == single.baseline_inf
    assert len({id(rep.diagnostics) for rep in reports}) == len(reports)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_slices_one_assembly(name):
    # equal up to the order in which BLAS sums the products: the number of
    # modes and the cut moments do not depend on the threshold
    params = CASES[name]
    cache = boundary_cache(params)
    top = assemble(params.with_a(200), cache)
    for a in (1, 17, 64, 129, 199):
        cm = assemble(params.with_a(a), cache)
        assert np.all(np.abs(top.alpha[:a, :a + 1] - cm.alpha)
                      <= 2e-15 * np.max(np.abs(cm.alpha), axis=0))
        np.testing.assert_allclose(top.beta[:a], cm.beta, rtol=0,
                                   atol=2e-15 * np.max(np.abs(cm.beta)))
        np.testing.assert_allclose(top.p1_one[:a + 1], cm.p1_one,
                                   rtol=2e-15, atol=0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_is_solve_boundary_on_the_same_assembly(name):
    # one solve_boundary call over all thresholds against one call per
    # threshold on the same top assembly: the same LAPACK solves, and sums
    # over zero-padded rows that round B and cond apart by a few eps
    params = CASES[name]
    cache = boundary_cache(params)
    top = assemble(params.with_a(40), cache)
    for a, rep in enumerate(sweep(params, range(41))):
        single = solve_boundary(params.with_a(a), cache=cache, cm=top)
        b1, b2 = single.p.sum(), top.p1_one[:a + 1] @ single.p
        for got, want in ((rep.blocking.b1, b1), (rep.blocking.b2, b2),
                          (rep.p00, single.p00),
                          (rep.diagnostics["condition_estimate"],
                           single.cond)):
            assert abs(got - want) <= 2e-15 * abs(want)
        assert rep.boundary.p.shape == single.p.shape
        assert np.all(np.abs(rep.boundary.p - single.p)
                      <= 2e-15 * np.abs(single.p))


def test_sweep_keeps_the_order_and_repeats_of_its_thresholds():
    reports = sweep(BASE, [10, 0, 10, 3], CFG)
    assert [rep.boundary.p.size - 1 for rep in reports] == [10, 0, 10, 3]
    for a, rep in zip([10, 0, 10, 3], reports):
        single = blocking(BASE.with_a(a), CFG)
        assert abs(rep.blocking.b1 - single.blocking.b1) <= (
            1e-14 * single.blocking.b1)
        assert abs(rep.blocking.b2 - single.blocking.b2) <= (
            1e-14 * single.blocking.b2)
    assert reports[0].blocking == reports[2].blocking
    assert reports[0].diagnostics is not reports[2].diagnostics
    assert sweep(BASE, [], CFG) == []


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
    assert calls == [12, 5, 0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_warm_blocking_is_the_cold_one_bit_for_bit(name):
    params = CASES[name]
    blocking(params.with_a(3))
    warm = blocking(params.with_a(17)).to_dict()
    _cached_build.cache_clear()
    assert blocking(params.with_a(17)).to_dict() == warm


def test_warm_solves_redo_no_threshold_free_work(monkeypatch):
    # x(theta), phi1 on the theta grid, the FFT and phi2(1) are built once
    # per rate set; a warm solve makes one cut_moments call, at a + 1
    calls, counts = [], []

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    blocking(UNDERLOAD2.with_a(4), CFG)
    for owner, name in ((boundary, "x_of_theta"), (boundary, "phi2"),
                        (solver, "phi2"), (np.fft, "fft"), (np.fft, "rfft")):
        counting(owner, name)
    monkeypatch.setattr(solver, "cut_moments", lambda w, z, count: (
        counts.append(count) or boundary.cut_moments(w, z, count)))
    blocking(UNDERLOAD2.with_a(9), CFG)
    sweep(UNDERLOAD2, range(12), CFG)
    assert calls == [] and counts == [10, 12]
    # and the spies see the build's
    BoundaryCache.build(UNDERLOAD2, CFG)
    assert {"x_of_theta", "phi2", "fft", "rfft"} <= set(calls)


def spoil(field, index, value):
    """assemble, with one entry of ``field`` set to ``value`` where the
    assembled matrix has it."""
    def spoiled(params, cache):
        cm = assemble(params, cache)
        bad = getattr(cm, field).copy()
        if index[0] < bad.shape[0]:
            bad[index] = value
        return dataclasses.replace(cm, **{field: bad})
    return spoiled


def test_sweep_stops_at_the_first_refused_threshold(monkeypatch):
    # row 62 of the system is spoiled, so thresholds from 63 on are refused
    monkeypatch.setattr(solver, "assemble", spoil("alpha", (62, 0), math.nan))
    thresholds = range(55, 71)
    refused = None
    for a in thresholds:
        try:
            blocking(BASE.with_a(a))
        except QwblockError as exc:
            refused = type(exc)
            break
    assert refused is not None and a == 63
    with pytest.raises(QwblockError) as info:
        sweep(BASE, thresholds)
    assert type(info.value) is refused
    # a NaN refuses the whole sweep, 3 too, though past 3's block
    assert len(sweep(BASE, [3, 62], CFG)) == 2
    with pytest.raises(SingularSystem, match="not finite"):
        sweep(BASE, [3, 70], CFG)


@pytest.mark.parametrize("entry", [("alpha", (0, 1), math.nan),
                                   ("alpha", (1, 0), math.nan),
                                   ("beta", (0,), math.nan),
                                   ("alpha", (1, 2), math.inf)])
def test_non_finite_systems_are_refused(monkeypatch, entry):
    monkeypatch.setattr(solver, "assemble", spoil(*entry))
    with pytest.raises(SingularSystem):
        blocking(BASE.with_a(3), CFG)


def singular_row(row, assembled=assemble):
    """assemble, with row ``row`` of M = diag(r2^n) - alpha[:, 1:] all zero
    (alpha[row, row + 1] = r2^row, zeros beside it), so that every
    threshold past ``row`` is exactly singular."""
    def singular(params, cache):
        cm = assembled(params, cache)
        alpha = cm.alpha.copy()
        if row < alpha.shape[0]:
            alpha[row, 1:] = 0.0
            alpha[row, row + 1] = cache.bp.r2 ** row
        return dataclasses.replace(cm, alpha=alpha)
    return singular


def test_exactly_singular_systems_are_refused(monkeypatch):
    monkeypatch.setattr(solver, "assemble", singular_row(0))
    with pytest.raises(SingularSystem, match="[Ss]ingular"):
        blocking(BASE.with_a(3), CFG)


def near_copy_row(row, assembled=assemble):
    """assemble, with row ``row`` of (rhs | M) that of ``row - 1`` but for
    1e-12 of M's diagonal entry, so that every threshold past ``row`` is
    finite and nearly singular."""
    def near(params, cache):
        cm = assembled(params, cache)
        alpha, beta, r2 = cm.alpha.copy(), cm.beta.copy(), cache.bp.r2
        if row < alpha.shape[0]:
            # M[i, j] = [i == j] r2^i - alpha[i, j + 1]
            alpha[row], beta[row] = alpha[row - 1], beta[row - 1]
            alpha[row, row] -= r2 ** (row - 1)
            alpha[row, row + 1] += r2 ** row * (1.0 + 1e-12)
        return dataclasses.replace(cm, alpha=alpha, beta=beta)
    return near


def test_sweep_raises_the_first_refusal_in_the_order_given(monkeypatch):
    # rows 4 and 5 are nearly dependent, so 6.. fail the gate; M row 8 is
    # zero, so 9.. are singular, and solving stops there
    monkeypatch.setattr(solver, "assemble", singular_row(
        8, near_copy_row(5)))
    with pytest.raises(SingularSystem, match="condition number"):
        sweep(BASE, [3, 7, 12], CFG)
    # 3 is not refused: its block holds neither row
    assert len(sweep(BASE, [3, 5], CFG)) == 2
    with pytest.raises(SingularSystem, match="[Ss]ingular matrix"):
        sweep(BASE, [3, 12, 7], CFG)


def test_sweep_makes_two_solves_per_threshold(monkeypatch):
    calls = []

    def counting(mat, rhs):
        calls.append(mat.shape[0])
        return solve(mat, rhs)

    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", counting)
    sweep(BASE, [0, 3, 0, 5, 3], CFG)
    assert calls == [3, 3, 5, 5, 3, 3]
    calls.clear()
    monkeypatch.setattr(solver, "assemble", singular_row(4))
    with pytest.raises(SingularSystem, match="[Ss]ingular matrix"):
        sweep(BASE, [2, 6, 3, 1], CFG)
    # solving stops at the first LinAlgError, on 6's first solve
    assert calls == [2, 2, 6]


def test_sweep_takes_P1_of_one_from_one_row(monkeypatch):
    calls = {"eval_P1": 0, "phi1": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "eval_P1", counting("eval_P1", eval_P1))
    monkeypatch.setattr(BoundaryCache, "phi1",
                        counting("phi1", BoundaryCache.phi1))
    assert len(sweep(OVERLOAD2, range(31), CFG)) == 31
    assert calls == {"eval_P1": 0, "phi1": 0}


@pytest.mark.parametrize("a", [0, 1, 2, 10, 30])
@pytest.mark.parametrize("name", sorted(CASES))
def test_p1_one_row_equals_eval_P1_at_one(name, a):
    params = CASES[name].with_a(a)
    cache = boundary_cache(params)
    cm = assemble(params, cache)
    assert cm.p1_one.shape == (a + 1,)
    bvec = solve_boundary(params, cache=cache, cm=cm)
    want = eval_P1(params, cache, bvec, 1.0)
    assert abs(cm.p1_one @ bvec.p - want) <= 1e-14 * abs(want)


def test_p1_one_row_refuses_a_kernel_zero_before_phi1(monkeypatch, cache):
    # K(1, y) = (y - 1)(mu2c2 y - lambda2) vanishes at a node moved to y = 1;
    # the cut moments, which phi1 on the theta grid and at 1 both follow, are
    # never taken
    calls = []
    monkeypatch.setattr(solver, "cut_moments",
                        lambda *args: calls.append(args))
    nodes = cache.y_nodes.copy()
    nodes[-1] = 1.0
    bad = dataclasses.replace(cache, y_nodes=nodes)
    with pytest.raises(KernelZeroOnCut, match=r"K\(1\.0, y\)"):
        assemble(BASE.with_a(3), bad)
    assert calls == []


@pytest.mark.parametrize("params", [
    # r2 = 3.2e-3: r2^n and y^(n-1) underflow to 0 past n = 129, which
    # leaves columns 130.. of the boundary system all zero
    pytest.param(ModelParams(681.47, 0.0045110, 1.3621, 445.60, a=184),
                 marks=pytest.mark.xfail(strict=True, raises=SingularSystem)),
], ids=str)
def test_default_grid_refusals_that_the_oracle_answers(params):
    rep = blocking(params)
    dist = solve_limiting_walk(params)
    want = blocking_from_distribution(dist, params)
    np.testing.assert_allclose(tuple(rep.blocking), tuple(want), rtol=0,
                               atol=1e-8)


NEAR_POLE = ModelParams(74.013, 0.0054066, 0.017491, 0.0045963, a=249)


@pytest.fixture(scope="module")
def near_pole_oracle():
    return blocking_from_distribution(solve_limiting_walk(NEAR_POLE),
                                      NEAR_POLE)


@pytest.mark.parametrize("grid", [512, 1024, 2048, 4096])
def test_near_pole_second_queue_matches_the_oracle(near_pole_oracle, grid):
    # x2 = 0.9999996: theta weights that divide by 1 - x(theta) carry its
    # rounding near theta = 0 into B2, 2.0e-8 to 9.9e-8 off the oracle's
    # (0.99976368, 0.14987238) at these grids
    rep = blocking(NEAR_POLE, QuadConfig(grid))
    np.testing.assert_allclose(tuple(rep.blocking), tuple(near_pole_oracle),
                               rtol=0, atol=1e-11)


def test_critical_second_queue_solves():
    # lambda2 = mu2c2 puts x(0) = x2 = 1 on the first theta node, where
    # alpha2's theta weights, free of 1/(1 - x), stay finite
    p = ModelParams(1.0, 1.0, 0.5, 1.0, a=5)
    assert x_of_theta(p, np.linspace(0.0, math.pi, 513))[0] == 1.0
    mid = blocking(p)
    assert mid.normalization_residual < 1e-12
    below, above = (blocking(ModelParams(1.0, 1.0 + d, 0.5, 1.0, a=5))
                    for d in (-1e-6, 1e-6))
    np.testing.assert_allclose(
        tuple(mid.blocking),
        0.5 * (np.array(tuple(below.blocking)) + tuple(above.blocking)),
        rtol=1e-9)


def test_sweep_takes_numpy_integer_thresholds():
    numpy_reports = sweep(BASE, np.arange(11), CFG)
    int_reports = sweep(BASE, range(11), CFG)
    for got, want in zip(numpy_reports, int_reports, strict=True):
        assert got.blocking == want.blocking and got.p00 == want.p00
        assert np.array_equal(got.boundary.p, want.boundary.p)
        assert got.diagnostics == want.diagnostics


def test_blocking_takes_integral_thresholds_but_not_bool():
    assert (blocking(BASE.with_a(np.int64(2)), CFG).blocking
            == blocking(BASE.with_a(2), CFG).blocking)
    for flag in (True, np.True_):
        with pytest.raises(NonPositiveRate, match="integer"):
            blocking(BASE.with_a(flag), CFG)
