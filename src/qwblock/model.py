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


def as_threshold(a) -> int:
    """``a`` as a Python int when it is integral (numpy integers too), not
    a bool, and non-negative; NonPositiveRate otherwise."""
    try:
        value = a.__index__()
    except (AttributeError, TypeError):
        value = -1
    if isinstance(a, bool) or value < 0:
        raise NonPositiveRate(f"a must be a non-negative integer, got {a!r}")
    return value


def validate(params: ModelParams) -> ModelParams:
    """Check that the rates are finite and positive, and the stability
    condition.

    A stationary regime exists iff lambda1 > mu1c1 and
    mu1c1 + mu2c2 < lambda1 + lambda2.  Returns the params on success,
    unchanged when ``a`` is already an int, so call sites can chain.
    """
    for name in ("lambda1", "lambda2", "mu1c1", "mu2c2"):
        if not 0.0 < getattr(params, name) < math.inf:
            raise NonPositiveRate(f"{name} must be finite and strictly "
                                  f"positive, got {getattr(params, name)!r}")
    a = as_threshold(params.a)
    if not params.lambda1 > params.mu1c1:
        raise Unstable(
            f"requires lambda1 > mu1*c1 (got {params.lambda1} <= {params.mu1c1})")
    if not params.mu1c1 + params.mu2c2 < params.lambda1 + params.lambda2:
        raise Unstable(
            "requires mu1*c1 + mu2*c2 < lambda1 + lambda2 "
            f"(got {params.mu1c1 + params.mu2c2} >= {params.lambda1 + params.lambda2})")
    return params if type(params.a) is int else params.with_a(a)


def isolated_limits(params: ModelParams) -> BlockingPair:
    """Blocking pair of the fully isolated DCs (threshold a -> infinity):
    B1 = 1 - mu1c1/lambda1, and B2 = 1 - mu2c2/lambda2 or 0 when queue 2
    is not overloaded (lambda2 <= mu2c2)."""
    validate(params)
    return BlockingPair(1.0 - params.mu1c1 / params.lambda1,
                        max(1.0 - params.mu2c2 / params.lambda2, 0.0))


CONFIG_KEYS = ("lambda1", "lambda2", "mu1", "mu2", "c1", "c2")


def read_config(source) -> dict:
    """CONFIG_KEYS as floats and a (default 0) as an int, from a config
    mapping or from the JSON file at the path ``source``.

    Raises QwblockError for an unreadable file, malformed JSON, a document
    that is not an object, missing keys (all named) or a non-numeric one,
    and NonPositiveRate for an ``a`` that as_threshold refuses (an
    integral float such as 2.0 is taken as 2).
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source) as fh:
                source = json.load(fh)
        if not isinstance(source, dict):
            raise QwblockError("the configuration is not a JSON object")
        missing = [k for k in CONFIG_KEYS if k not in source]
        if missing:
            raise QwblockError(f"missing {', '.join(missing)}")
        a = source.get("a", 0)
        if isinstance(a, float) and a.is_integer():
            a = int(a)
        return {**{k: float(source[k]) for k in CONFIG_KEYS},
                "a": as_threshold(a)}
    except (OSError, TypeError, ValueError) as exc:
        raise QwblockError(f"unusable configuration: {exc}") from exc
