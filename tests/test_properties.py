"""Property tests over random stable parameter sets."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwblock.boundary import boundary_cache
from qwblock.errors import QwblockError
from qwblock.model import ModelParams
from qwblock.quadrature import QuadConfig
from qwblock.solver import assemble, blocking, eval_P1, solve_boundary, sweep

from helpers import dense_coefficients

RATE = st.floats(0.5, 10.0)


@st.composite
def stable_params(draw):
    params = ModelParams(draw(RATE), draw(RATE), draw(RATE), draw(RATE),
                         draw(st.integers(0, 200)))
    assume(params.lambda1 > params.mu1c1
           and params.mu1c1 + params.mu2c2 < params.lambda1 + params.lambda2)
    return params


def _solved(fn, *args, **kwargs):
    """fn's result; a draw that ends in a typed refusal is skipped."""
    try:
        return fn(*args, **kwargs)
    except QwblockError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(stable_params())
def test_p1_one_row_and_sweep_agree_with_eval_P1(params):
    cache = _solved(boundary_cache, params)
    cm = _solved(assemble, params, cache)
    bvec = _solved(solve_boundary, params, cache=cache, cm=cm)
    want = eval_P1(params, cache, bvec, 1.0)
    assert abs(cm.p1_one @ bvec.p - want) <= 1e-13 * abs(want)

    # the sweep solves slices of a system assembled at params.a, equal to
    # the single system up to rounding, which the condition number amplifies
    thresholds = sorted({0, params.a // 2, params.a})
    for a, rep in zip(thresholds, _solved(sweep, params, thresholds)):
        single = blocking(params.with_a(a))
        rel = max(1e-14, 1e-15 * single.diagnostics["condition_estimate"])
        assert rep.blocking.b2 == pytest.approx(single.blocking.b2, rel=rel,
                                                abs=0)


@settings(max_examples=50, deadline=None)
@given(stable_params())
def test_sweep_is_monotone_in_the_threshold_and_conserves_rate(params):
    # reserving more trunks for DC 1 blocks more of DC 1's requests and
    # fewer of DC 2's: B1 rises and B2 falls with a, and every report
    # keeps lambda1 B1 + lambda2 B2 = drift
    reports = _solved(sweep, params, range(41))
    b1, b2 = np.array([tuple(r.blocking) for r in reports]).T
    assert np.all(np.diff(b1) >= -1e-14)
    assert np.all(np.diff(b2) <= 1e-14)
    assert np.all(np.abs(params.lambda1 * b1 + params.lambda2 * b2
                         - params.drift) <= 1e-8)


@settings(max_examples=100, deadline=None)
@given(stable_params(), st.sampled_from([64, 128]))
def test_assemble_matches_dense_sums(params, grid):
    # a up to 200 at grid 64 and 128 wraps the theta indices mod 2n
    cache = _solved(boundary_cache, params, QuadConfig(grid))
    cm = _solved(assemble, params, cache)
    alpha, beta = dense_coefficients(params, cache, grid)
    assert np.all(np.abs(cm.alpha - alpha)
                  <= 1e-12 * np.max(np.abs(alpha), axis=0, initial=0.0))
    assert np.all(np.abs(cm.beta - beta)
                  <= 1e-12 * np.max(np.abs(beta), initial=0.0))
