import json

import numpy as np
import pytest

from qwblock.errors import NonPositiveRate, QwblockError, Unstable
from qwblock.model import (BlockingPair, ModelParams, isolated_limits,
                           params_from_dict, params_from_json, read_config,
                           validate)

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


def test_params_from_dict_forms_products():
    p = params_from_dict({"lambda1": 3, "lambda2": 5, "mu1": 0.5, "mu2": 4,
                          "c1": 2, "c2": 0.5, "a": 3})
    assert p == ModelParams(3.0, 5.0, 1.0, 2.0, 3)


def test_params_from_dict_missing_key():
    with pytest.raises(QwblockError):
        params_from_dict({"lambda1": 3})


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
        params_from_dict(doc)


def test_params_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda1": 3, "lambda2": 5, "mu1": 1,
                                "mu2": 1, "c1": 1, "c2": 2}))
    p = params_from_json(str(path))
    assert p == ModelParams(3.0, 5.0, 1.0, 2.0, 0)
