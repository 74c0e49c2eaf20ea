"""Model parameters, validation, stability check and isolated-limit baseline.

The analytic pipeline only ever sees the four effective rates
(lambda1, lambda2, mu1*c1, mu2*c2) and the reservation threshold ``a``.
The pre-limit chain, which needs mu_i, c_i and the scaling factor nu
separately, takes them explicitly (see :mod:`qwblock.oracle`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import NonPositiveRate, QwblockError, Unstable


@dataclass(frozen=True)
class ModelParams:
    """Effective rates of the limiting quarter-plane walk.

    lambda1, lambda2 : service rates of the two queues in idle-server
        coordinates (arrival rates of the original DCs).
    mu1c1, mu2c2 : arrival rates in idle-server coordinates (products of
        service rate and scaled capacity of each DC).
    a : trunk reservation threshold (non-negative integer).
    """

    lambda1: float
    lambda2: float
    mu1c1: float
    mu2c2: float
    a: int = 0

    @property
    def rate_sum(self) -> float:
        return self.lambda1 + self.lambda2 + self.mu1c1 + self.mu2c2

    @property
    def drift(self) -> float:    # = lambda1*B1 + lambda2*B2
        return self.lambda1 + self.lambda2 - self.mu1c1 - self.mu2c2

    def with_a(self, a: int) -> "ModelParams":
        return ModelParams(self.lambda1, self.lambda2, self.mu1c1, self.mu2c2, a)

    def scaled(self, t: float) -> "ModelParams":
        """All four rates multiplied by t (time rescaling)."""
        return ModelParams(t * self.lambda1, t * self.lambda2,
                           t * self.mu1c1, t * self.mu2c2, self.a)


@dataclass(frozen=True)
class BlockingPair:
    """Loss probabilities (b1 for DC-1-originated requests, b2 for DC 2)."""

    b1: float
    b2: float

    def __iter__(self):
        yield self.b1
        yield self.b2


def validate(params: ModelParams) -> ModelParams:
    """Check that the rates are finite and positive, and the stability
    condition.

    A stationary regime exists iff lambda1 > mu1c1 and
    mu1c1 + mu2c2 < lambda1 + lambda2.  Returns the params unchanged on
    success so call sites can chain.
    """
    for name in ("lambda1", "lambda2", "mu1c1", "mu2c2"):
        if not 0.0 < getattr(params, name) < math.inf:
            raise NonPositiveRate(f"{name} must be finite and strictly "
                                  f"positive, got {getattr(params, name)!r}")
    if not (isinstance(params.a, int) and params.a >= 0):
        raise NonPositiveRate(f"a must be a non-negative integer, got {params.a!r}")
    if not params.lambda1 > params.mu1c1:
        raise Unstable(
            f"requires lambda1 > mu1*c1 (got {params.lambda1} <= {params.mu1c1})")
    if not params.mu1c1 + params.mu2c2 < params.lambda1 + params.lambda2:
        raise Unstable(
            "requires mu1*c1 + mu2*c2 < lambda1 + lambda2 "
            f"(got {params.mu1c1 + params.mu2c2} >= {params.lambda1 + params.lambda2})")
    return params


def isolated_limits(params: ModelParams) -> BlockingPair:
    """Blocking pair of the fully isolated DCs (threshold a -> infinity).

    B1 = 1 - mu1c1/lambda1; B2 = 0 when queue 2 is underloaded
    (lambda2 <= mu2c2), otherwise 1 - mu2c2/lambda2.  At the critical
    point lambda2 == mu2c2 both branches give 0.
    """
    validate(params)
    b1 = 1.0 - params.mu1c1 / params.lambda1
    if params.lambda2 > params.mu2c2:
        b2 = 1.0 - params.mu2c2 / params.lambda2
    else:
        b2 = 0.0
    return BlockingPair(b1, b2)


CONFIG_KEYS = ("lambda1", "lambda2", "mu1", "mu2", "c1", "c2")


def read_config(source) -> dict:
    """CONFIG_KEYS as floats and a (default 0) as an int, from a config
    mapping or from the JSON file at the path ``source``.

    Raises QwblockError for an unreadable file, malformed JSON, a document
    that is not an object, or a missing or non-numeric key.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source) as fh:
                source = json.load(fh)
        if not isinstance(source, dict):
            raise QwblockError("the configuration is not a JSON object")
        return {**{k: float(source[k]) for k in CONFIG_KEYS},
                "a": int(source.get("a", 0))}
    except KeyError as exc:
        raise QwblockError(f"configuration key {exc} is missing") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise QwblockError(f"unusable configuration: {exc}") from exc


def params_from_dict(doc: dict) -> ModelParams:
    """ModelParams from a config mapping with individual mu_i, c_i; only
    the products mu_i * c_i are retained."""
    v = read_config(doc)
    return ModelParams(v["lambda1"], v["lambda2"], v["mu1"] * v["c1"],
                       v["mu2"] * v["c2"], v["a"])


def params_from_json(path: str) -> ModelParams:
    """Load ModelParams from a JSON configuration file."""
    return params_from_dict(read_config(path))
