"""Property tests over random stable parameter sets."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwblock.boundary import boundary_cache
from qwblock.errors import QwblockError
from qwblock.model import ModelParams
from qwblock.solver import blocking, coefficients, eval_P1, solve_boundary, sweep

RATE = st.floats(0.5, 10.0)


@st.composite
def stable_params(draw):
    params = ModelParams(draw(RATE), draw(RATE), draw(RATE), draw(RATE),
                         draw(st.integers(0, 40)))
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
    cm = _solved(coefficients, params, cache)
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
