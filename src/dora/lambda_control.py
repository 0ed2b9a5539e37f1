"""Selection of the exploration degree lambda.

Two sources are supported: a deterministic exponential schedule that ramps
lambda from a minimum to a maximum over a fixed horizon, and parsing of a
lambda value sampled by the policy itself as a one-line JSON reply.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass

DEFAULT_LAMBDA_BOUNDS = (0.0, 40.0)
DEFAULT_GROWTH_K = 5.0
# The largest k whose e^k, which lambda_exp computes, is a finite float.
MAX_GROWTH_K = math.log(sys.float_info.max)

_JSON_OBJECT_RE = re.compile(r"\{[^{}]*\}")


@dataclass(frozen=True)
class LambdaSchedule:
    """Parameters of the exponential ramp: bounds, growth constant k, horizon T."""

    lambda_min: float
    lambda_max: float
    k: float = DEFAULT_GROWTH_K
    horizon: int = 200

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_min <= self.lambda_max):
            raise ValueError(
                f"need 0 <= lambda_min <= lambda_max, got [{self.lambda_min!r}, {self.lambda_max!r}]"
            )
        if not (0.0 < self.k <= MAX_GROWTH_K):
            raise ValueError(f"growth constant k must be in (0, {MAX_GROWTH_K!r}], got {self.k!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon!r}")


@dataclass(frozen=True)
class ScheduledLambda:
    """Lambda follows the exponential schedule as a function of the step index."""

    schedule: LambdaSchedule


@dataclass(frozen=True)
class PolicySampledLambda:
    """Lambda is requested from the policy; replies are clamped into bounds.

    A reply that cannot be parsed falls back to the midpoint of the bounds
    (the least committal choice).
    """

    bounds: tuple[float, float] = DEFAULT_LAMBDA_BOUNDS

    def __post_init__(self) -> None:
        lo, hi = self.bounds
        if not (0.0 <= lo <= hi):
            raise ValueError(f"bounds must satisfy 0 <= lo <= hi, got {self.bounds!r}")

    @property
    def fallback_value(self) -> float:
        lo, hi = self.bounds
        return (lo + hi) / 2.0


LambdaSource = ScheduledLambda | PolicySampledLambda


def lambda_exp(schedule: LambdaSchedule, t: int | float) -> float:
    """Exponential ramp lambda_min + (lambda_max - lambda_min) * (e^(k t / T) - 1) / (e^k - 1).

    Exact at the endpoints (t = 0 gives lambda_min, t = T gives lambda_max)
    and strictly increasing in between when the bounds differ.
    """
    if not (0 <= t <= schedule.horizon):
        raise ValueError(f"step {t!r} outside schedule range [0, {schedule.horizon}]")
    if t == schedule.horizon:
        return schedule.lambda_max
    span = schedule.lambda_max - schedule.lambda_min
    ratio = (math.exp(schedule.k * t / schedule.horizon) - 1.0) / (math.exp(schedule.k) - 1.0)
    return schedule.lambda_min + span * ratio


def extract_json_object(text: str) -> dict | None:
    """Best-effort extraction of a small JSON object from a raw model reply."""
    stripped = text.strip()
    try:
        obj = json.loads(stripped)
        if isinstance(obj, dict):
            return obj
    except (ValueError, RecursionError):  # not JSON, or nested too deep to decode
        pass
    for match in _JSON_OBJECT_RE.finditer(text):
        try:
            obj = json.loads(match.group(0))
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            return obj
    return None


def extract_lambda(raw_text: str) -> float | None:
    """Pull the numeric "lambda" field out of a one-line JSON reply, or None."""
    obj = extract_json_object(raw_text)
    if obj is None:
        return None
    value = obj.get("lambda")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        return None
    if not math.isfinite(value):
        return None
    return value

