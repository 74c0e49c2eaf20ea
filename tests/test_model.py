import json

import numpy as np
import pytest

from qwblock.errors import NonPositiveRate, QwblockError, Unstable
from qwblock.cli import _params, build_parser
from qwblock.model import (BlockingPair, ModelParams, isolated_limits,
                           read_config, validate)

from conftest import BASE, OVERLOAD2, UNDERLOAD2


def test_rate_sum():
    assert BASE.rate_sum == 11.0


def test_with_a_and_scaled():
    p = BASE.with_a(4)
    assert p.a == 4 and p.lambda1 == BASE.lambda1
    q = p.scaled(2.0)
    assert q.lambda2 == 10.0 and q.mu2c2 == 4.0 and q.a == 4


def test_validate_passes_and_chains():
    assert validate(BASE) is BASE


@pytest.mark.parametrize("kwargs", [
    dict(lambda1=0.0, lambda2=5.0, mu1c1=1.0, mu2c2=2.0),
    dict(lambda1=3.0, lambda2=-1.0, mu1c1=1.0, mu2c2=2.0),
    dict(lambda1=3.0, lambda2=5.0, mu1c1=0.0, mu2c2=2.0),
])
def test_validate_rejects_nonpositive_rates(kwargs):
    with pytest.raises(NonPositiveRate):
        validate(ModelParams(**kwargs))


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "mu1c1", "mu2c2"])
def test_validate_rejects_infinite_rates(name):
    # an infinite rate passes "> 0" and, for lambda1 or lambda2, stability
    with pytest.raises(NonPositiveRate, match="finite"):
        validate(ModelParams(**{**vars(BASE), name: float("inf")}))


def test_validate_rejects_bad_threshold():
    with pytest.raises(NonPositiveRate):
        validate(ModelParams(3.0, 5.0, 1.0, 2.0, -1))


def test_validate_gives_integral_thresholds_as_int():
    p = validate(BASE.with_a(np.int64(7)))
    assert p == BASE.with_a(7) and type(p.a) is int
    for bad in (True, False, np.True_, 2.0, np.float64(2.0), np.int64(-1)):
        with pytest.raises(NonPositiveRate, match="integer"):
            validate(BASE.with_a(bad))


@pytest.mark.parametrize("kwargs", [
    dict(lambda1=1.0, lambda2=5.0, mu1c1=1.0, mu2c2=2.0),   # lambda1 == mu1c1
    dict(lambda1=0.5, lambda2=5.0, mu1c1=1.0, mu2c2=2.0),   # lambda1 < mu1c1
    dict(lambda1=3.0, lambda2=1.0, mu1c1=1.0, mu2c2=3.0),   # total drift == 0
])
def test_validate_rejects_unstable(kwargs):
    with pytest.raises(Unstable):
        validate(ModelParams(**kwargs))


def test_isolated_limits_values():
    np.testing.assert_allclose(tuple(isolated_limits(BASE)),
                               (2.0 / 3.0, 3.0 / 5.0), rtol=1e-15)
    np.testing.assert_allclose(tuple(isolated_limits(UNDERLOAD2)),
                               (1.0 / 6.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(tuple(isolated_limits(OVERLOAD2)),
                               (1.0 / 6.0, 1.0 / 11.0), rtol=1e-15)


def test_isolated_limits_critical_point():
    p = ModelParams(3.0, 2.0, 1.0, 2.0)
    assert isolated_limits(p).b2 == 0.0


def test_blocking_pair_iterates():
    b1, b2 = BlockingPair(0.25, 0.5)
    assert (b1, b2) == (0.25, 0.5)


def _cli_params(*argv):
    return _params(build_parser().parse_args(["solve", *argv]))


def test_cli_params_form_products(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda1": 3, "lambda2": 5, "mu1": 0.5,
                                "mu2": 4, "c1": 2, "c2": 0.5, "a": 3}))
    assert _cli_params("--config", str(path)) == ModelParams(3.0, 5.0, 1.0,
                                                             2.0, 3)
    assert _cli_params("--lambda1", "3", "--lambda2", "5", "--mu1", "0.5",
                       "--c1", "2", "--mu2", "4", "--c2", "0.5",
                       "--a", "3") == ModelParams(3.0, 5.0, 1.0, 2.0, 3)


def test_read_config_names_every_missing_key():
    with pytest.raises(QwblockError, match="missing lambda2, mu1, mu2, c1, "
                       "c2$"):
        read_config({"lambda1": 3})


@pytest.mark.parametrize("doc", [
    [3, 5, 1, 1, 1, 2],
    "lambda1",
    {"lambda1": 3, "lambda2": "five", "mu1": 1, "mu2": 1, "c1": 1, "c2": 2},
    {"lambda1": 3, "lambda2": [5], "mu1": 1, "mu2": 1, "c1": 1, "c2": 2},
    {"lambda1": 3, "lambda2": 5, "mu1": 1, "mu2": 1, "c1": 1, "c2": 2,
     "a": None},
])
def test_read_config_rejects_unusable_documents(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(QwblockError):
        read_config(str(path))
    with pytest.raises(QwblockError):
        read_config(doc)


RATES_DOC = {"lambda1": 3, "lambda2": 5, "mu1": 1, "mu2": 2, "c1": 1, "c2": 1}


# a threshold is never rounded or read from a bool: 2.7 is not a = 2, true
# is not a = 1
@pytest.mark.parametrize("a", [2.7, True, False, -1, "2", float("nan")])
def test_read_config_refuses_a_threshold_as_threshold_refuses(tmp_path, a):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**RATES_DOC, "a": a}))
    with pytest.raises(NonPositiveRate):
        read_config(str(path))


def test_read_config_takes_an_integral_float_threshold(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**RATES_DOC, "a": 2.0}))
    a = read_config(str(path))["a"]
    assert a == 2 and type(a) is int
    assert _cli_params("--config", str(path)) == ModelParams(3.0, 5.0, 1.0,
                                                             2.0, 2)


def test_cli_params_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda1": 3, "lambda2": 5, "mu1": 1,
                                "mu2": 1, "c1": 1, "c2": 2}))
    assert _cli_params("--config", str(path)) == ModelParams(3.0, 5.0, 1.0,
                                                             2.0, 0)
