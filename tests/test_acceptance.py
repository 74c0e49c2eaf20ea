"""End-to-end acceptance checks.

Each test exercises one verifiable claim about the pipeline, from kernel
algebra up to agreement with the truncated-chain oracle and convergence
of the finite pre-limit model, and prints a single pass/fail line that
bypasses output capture so the run log shows the full scorecard.
"""

import math
import time

import numpy as np

from qwblock.boundary import alpha1, alpha1_winding, boundary_cache, theta1
from qwblock.kernel import Side, branch_points, kernel_value, x_roots, y_roots
from qwblock.oracle import solve_limiting_walk, solve_prelimit
from qwblock.quadrature import (QuadConfig, chebyshev_coefficients,
                                cosine_grid, cut_hilbert)
from qwblock.solver import (baseline_a0, blocking, blocking_with_estimate,
                            eval_P1, eval_P2, solve_boundary, sweep)

import conftest
from conftest import BASE, OVERLOAD2, UNDERLOAD2
from helpers import chebyshev_u

CFG512 = QuadConfig(grid_size=512)
CFG256 = QuadConfig(grid_size=256)


def _check(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{tag}] {label}"
    if detail:
        line += f" ({detail})"
    conftest.SCORECARD.append(line)
    assert ok, line


def test_criterion_01_kernel_algebra():
    p = BASE
    bp = branch_points(p)
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_res, worst_prod = 0.0, 0.0
    for _ in range(200):
        y = complex(rng.uniform(-5, 10), rng.uniform(0.2, 3.0))
        x0, x1 = x_roots(p, y, bp)
        scale = p.rate_sum * (1 + abs(x1)) ** 2 * (1 + abs(y)) ** 2
        worst_res = max(worst_res,
                        abs(kernel_value(p, x0, y)) / scale,
                        abs(kernel_value(p, x1, y)) / scale)
        worst_prod = max(worst_prod,
                         abs(x0 * x1 / (p.lambda1 / p.mu1c1) - 1.0))
        x = complex(rng.uniform(-5, 10), rng.uniform(0.2, 3.0))
        y0, y1 = y_roots(p, x, bp)
        scale = p.rate_sum * (1 + abs(y1)) ** 2 * (1 + abs(x)) ** 2
        worst_res = max(worst_res,
                        abs(kernel_value(p, x, y0)) / scale,
                        abs(kernel_value(p, x, y1)) / scale)
        worst_prod = max(worst_prod,
                         abs(y0 * y1 / (p.lambda2 / p.mu2c2) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_prod <= 1e-12 and elapsed < 1.0
    _check(1, "kernel root residuals and product identities", ok,
           f"residual {worst_res:.1e}, product {worst_prod:.1e}, "
           f"{elapsed:.2f} s")


def test_criterion_02_branch_point_values():
    bp = branch_points(BASE)
    got = np.array([bp.y1, bp.y2, bp.y3, bp.y4,
                    bp.x1, bp.x2, bp.x3, bp.x4])
    expected = np.array([0.36398, 0.85963, 2.90840, 6.86800,
                         0.17500, 0.76765, 3.90773, 17.14961])
    worst = float(np.max(np.abs(got - expected)))
    _check(2, "branch point locations", worst <= 1e-4, f"max dev {worst:.1e}")


def test_criterion_03_circle_property():
    p = BASE
    bp = branch_points(p)
    worst = 0.0
    for y in np.linspace(bp.y1 + 1e-8, bp.y2 - 1e-8, 50):
        for side in (Side.ABOVE, Side.BELOW):
            x0, _ = x_roots(p, y, bp, side=side)
            worst = max(worst, abs(abs(x0) - math.sqrt(3.0)))
    for x in np.linspace(bp.x1 + 1e-8, bp.x2 - 1e-8, 50):
        for side in (Side.ABOVE, Side.BELOW):
            y0, _ = y_roots(p, x, bp, side=side)
            worst = max(worst, abs(abs(y0) - math.sqrt(2.5)))
    _check(3, "cut images are circles of radius sqrt(3), sqrt(2.5)",
           worst <= 1e-10, f"max dev {worst:.1e}")


def test_criterion_04_boundary_phase_consistency():
    p = BASE
    bp = branch_points(p)
    worst = 0.0
    for y in np.linspace(bp.y1 + 1e-6, bp.y2 - 1e-6, 50):
        x0, _ = x_roots(p, y, bp, side=Side.ABOVE)
        worst = max(worst, abs(alpha1(p, x0, bp)
                               - np.exp(-2j * theta1(p, y))))
    winding = alpha1_winding(p)
    ok = worst <= 1e-9 and winding == 0
    _check(4, "boundary coefficient phase and zero winding", ok,
           f"max dev {worst:.1e}, winding {winding}")


def test_criterion_05_single_queue_marginal():
    p = BASE.with_a(2)
    cache = boundary_cache(p, CFG256)
    bvec = solve_boundary(p, CFG256, cache)
    analytic = eval_P2(p, cache, bvec, 1.0)
    dist = solve_limiting_walk(p, (60, 62))
    empirical = float(dist.probs[0].sum())
    ok = (abs(analytic - 2.0 / 3.0) <= 1e-5
          and abs(empirical - 2.0 / 3.0) <= 1e-4)
    _check(5, "first-queue idle probability equals 2/3", ok,
           f"analytic dev {abs(analytic - 2/3):.1e}, "
           f"oracle dev {abs(empirical - 2/3):.1e}")


def test_criterion_06_rate_conservation(golden):
    cases = {"base": BASE, "underload2": UNDERLOAD2, "overload2": OVERLOAD2}
    worst_analytic, worst_oracle = 0.0, 0.0
    for name, p in cases.items():
        drift = p.lambda1 + p.lambda2 - p.mu1c1 - p.mu2c2
        for a in (0, 1, 2, 5):
            rep = blocking(p.with_a(a), CFG256)
            worst_analytic = max(worst_analytic, rep.normalization_residual)
            row = golden[(name, a)]
            oracle_res = abs(p.lambda1 * row["B1"] + p.lambda2 * row["B2"]
                             - drift)
            worst_oracle = max(worst_oracle, oracle_res)
    ok = worst_analytic <= 1e-8 and worst_oracle <= 1e-3
    _check(6, "rate conservation, analytic and oracle", ok,
           f"analytic {worst_analytic:.1e}, oracle {worst_oracle:.1e}")


def test_criterion_07_oracle_equivalence(golden):
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0, 1, 2, 3, 5):
        rep = blocking(BASE.with_a(a), CFG512)
        row = golden[("base", a)]
        worst = max(worst, abs(rep.blocking.b1 - row["B1"]),
                    abs(rep.blocking.b2 - row["B2"]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed <= 120.0
    _check(7, "analytic blocking matches truncated-chain oracle", ok,
           f"max dev {worst:.1e}, {elapsed:.1f} s")


def test_criterion_08_no_reservation_cross_check():
    worst = 0.0
    for p in (BASE, UNDERLOAD2):
        rep = blocking(p.with_a(0), CFG256)
        closed = baseline_a0(p, CFG256)
        worst = max(worst, abs(rep.blocking.b1 - closed.b1),
                    abs(rep.blocking.b2 - closed.b2))
    _check(8, "zero-threshold pipeline equals closed form", worst <= 1e-4,
           f"max dev {worst:.1e}")


def test_criterion_09_isolation_limit_and_monotonicity():
    # one assembly at a = 200; from a = 62 on, B sits at the isolation
    # limit (2/3, 3/5) to rounding
    reports = sweep(BASE, range(201), CFG512)
    b1s = [rep.blocking.b1 for rep in reports]
    b2s = [rep.blocking.b2 for rep in reports]
    dev = max(max(abs(b1 - 2.0 / 3.0), abs(b2 - 3.0 / 5.0))
              for b1, b2 in zip(b1s[62:], b2s[62:]))
    mono = (all(x < y + 1e-12 for x, y in zip(b1s, b1s[1:]))
            and all(x > y - 1e-12 for x, y in zip(b2s, b2s[1:])))
    ok = dev <= 1e-12 and mono
    _check(9, "large-threshold limit and monotone trend", ok,
           f"limit dev on a = 62..200 {dev:.1e}, monotone {mono}")


def _prelimit(rates, a, nus):
    return {nu: np.array(tuple(solve_prelimit(*rates, a=a, nu=nu)))
            for nu in nus}


def test_criterion_10_prelimit_convergence(golden):
    # on base the error is c/nu + d/nu^2 + ..., so two Richardson steps
    # over nu = 50, 100, 200 land on the analytic limit at grid 2048
    # (measured 6.1e-7 at a = 2, 6.4e-7 at a = 10)
    # Far out, the windowed chain stays 34 x 41 states: the first-order
    # coefficient nu (B_nu - B) must agree across nu = 1e4, 1e5 and 1e6
    # within 0.1% of each entry (measured 1.5e-4; it is (0.1614, 0.0873)
    # at a = 0)
    richardson = spread = 0.0
    reports = sweep(BASE, (0, 2, 10), QuadConfig(grid_size=2048))
    for a, rep in zip((0, 2, 10), reports):
        limit = np.array(tuple(rep.blocking))
        b = _prelimit((3.0, 5.0, 1.0, 1.0, 1.0, 2.0), a, (50, 100, 200))
        step2 = (8.0 * b[200] - 6.0 * b[100] + b[50]) / 3.0
        if a:
            richardson = max(richardson, float(np.max(np.abs(step2 - limit))))
        far = _prelimit((3.0, 5.0, 1.0, 1.0, 1.0, 2.0), a, (1e4, 1e5, 1e6))
        coef = {nu: nu * (b_nu - limit) for nu, b_nu in far.items()}
        spread = max(spread, max(float(np.max(np.abs(c / coef[1e6] - 1.0)))
                                 for c in coef.values()))
    # With a near-critical second queue, sqrt(nu)|lambda2 - mu2c2| is only
    # about 1.4 at nu = 200: the chain is still in the Halfin-Whitt
    # crossover (Halfin & Whitt, Oper. Res. 29, 1981), its error falls
    # like nu^-1/2 rather than 1/nu, and Richardson in 1/nu does not reach
    # the limit.  These cases are gated on the rate: the error ratio per
    # doubling of nu on underload2 at a = 5 was measured at 0.688 and
    # 0.689 (nu^-1/2 gives 0.707), and on overload2 at a = 10 the error
    # must fall (measured 0.65, 0.61).  Their limits are the frozen oracle
    # values, within 2e-10 of analytic.
    ratios = {}
    for name, a, rates in (("underload2", 5, (1.2, 9.9, 1.0, 10.0, 1.0, 1.0)),
                           ("overload2", 10, (1.2, 11.0, 1.0, 10.0, 1.0, 1.0))):
        limit = np.array([golden[(name, a)]["B1"], golden[(name, a)]["B2"]])
        b = _prelimit(rates, a, (50, 100, 200))
        err = [float(np.max(np.abs(b[nu] - limit))) for nu in (50, 100, 200)]
        ratios[name] = (err[1] / err[0], err[2] / err[1])
    ok = (richardson <= 1e-5 and spread <= 1e-3
          and all(0.67 <= r <= 0.71 for r in ratios["underload2"])
          and all(r < 1.0 for r in ratios["overload2"]))
    _check(10, "finite-capacity chain converges to the limiting walk", ok,
           f"Richardson error {richardson:.1e}, nu (B_nu - B) spread "
           f"{spread:.1e} on nu = 1e4..1e6, error ratio per doubling "
           + ", ".join(f"{k} {r[0]:.3f} {r[1]:.3f}" for k, r in ratios.items()))


def test_criterion_11_quadrature_self_convergence():
    p = BASE.with_a(2)
    rep256 = blocking_with_estimate(p, CFG256)
    rep512 = blocking(p, CFG512)
    est = rep256.diagnostics["error_estimate"]
    changes = {
        "b1": abs(rep512.blocking.b1 - rep256.blocking.b1),
        "b2": abs(rep512.blocking.b2 - rep256.blocking.b2),
        "p00": abs(rep512.p00 - rep256.p00),
    }
    honest = all(changes[k] <= max(est[k], 1e-11) for k in changes)
    # the Chebyshev principal value reproduces its defining identity
    # PV int sqrt(1 - t^2) U_k(t)/(t - x) dt = -pi T_{k+1}(x) on every node
    t, _ = cosine_grid(-1.0, 1.0, 512)
    sqrt_w = np.sqrt(1.0 - t * t)
    pv_err = max(
        float(np.max(np.abs(
            cut_hilbert(chebyshev_coefficients(sqrt_w * chebyshev_u(k, t)))
            + math.pi * np.cos((k + 1) * np.arccos(t)))))
        for k in range(9))
    pv_exact = pv_err <= 1e-12
    ok = honest and pv_exact
    worst = max(changes.values())
    _check(11, "grid refinement stays within reported error estimates", ok,
           f"max change {worst:.1e}, principal-value error {pv_err:.1e}")
