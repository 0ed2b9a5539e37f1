"""Sequence scoring and lambda-softmax action distributions.

Turns the per-token log-probabilities of candidate actions into bounded
scalar scores (likelihood traded off against token-level consistency) and
converts a score vector into a categorical sampling distribution whose
sharpness is controlled by the exploration parameter lambda: lambda = 0
samples uniformly, large lambda concentrates on the best-scored candidate.

Everything here is a pure function of its inputs; sampling takes an
explicit seeded generator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

DEFAULT_EPSILON = 1e-8
PROB_SUM_TOL = 1e-9
_NEG_INF = -math.inf


@dataclass(frozen=True)
class CandidateAction:
    """One proposed action string plus the log-probability of each of its tokens.

    ``token_logprobs`` must be non-empty, finite, and <= 0 (natural-log
    probabilities under the generating policy).
    """

    text: str
    token_logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        lps = tuple(map(float, self.token_logprobs))
        object.__setattr__(self, "token_logprobs", lps)
        if len(lps) == 0:
            raise ValueError("candidate action needs at least one token log-probability")
        for lp in lps:
            if not _NEG_INF < lp <= 0.0:  # false for NaN too
                raise ValueError(f"token log-probabilities must be finite and <= 0, got {lp!r}")


@dataclass(frozen=True)
class ScoreParams:
    """Scoring weight alpha in [0, 1].

    alpha weighs the normalized mean log-probability; (1 - alpha) weighs the
    (negated) normalized variance.
    """

    alpha: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")


@dataclass
class LambdaDistribution:
    """Scores, the lambda used, and the resulting categorical probabilities."""

    scores: list[float]
    lam: float
    probs: list[float]

    def __post_init__(self) -> None:
        try:
            self.scores = list(map(float, self.scores))
            self.probs = list(map(float, self.probs))
        except TypeError:  # a scalar, or a vector of vectors
            self.scores = self.probs = []
        if len(self.scores) != len(self.probs) or len(self.scores) < 1:
            raise ValueError("scores and probs must be 1-d vectors of equal length >= 1")
        if min(self.probs) < 0.0:
            raise ValueError("probabilities must be non-negative")
        if not abs(sum(self.probs) - 1.0) <= PROB_SUM_TOL:  # NaN fails too
            raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_TOL}")


def _moments(lps: tuple[float, ...]) -> tuple[float, float]:
    """Mean and population variance (divided by N) of the token log-probabilities."""
    mu = sum(lps) / len(lps)
    return mu, sum((lp - mu) ** 2 for lp in lps) / len(lps)


# The helpers below work on Python floats: on the handful of candidates of one
# step, numpy's per-call overhead costs more than the arithmetic. Each float
# operation is the one the array formula does, in the same order, so every
# result is bit-identical to it.


def _minmax(values: Sequence[float]) -> list[float]:
    """Map values to [0, 1) via (x - min) / (max - min + DEFAULT_EPSILON);
    an all-equal vector maps to zeros."""
    lo = min(values)
    hi = max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be finite")
    if lo == 0.0 and any(math.copysign(1.0, x) < 0.0 for x in values if x == 0.0):
        # A -0.0 minimum next to +0.0: which zero numpy's min returns depends
        # on positions and vector width, and it sets the sign of -0.0 - lo.
        lo = float(np.min(values))
    span = hi - lo + DEFAULT_EPSILON
    return [(x - lo) / span for x in values]


def score_candidates(candidates, params: ScoreParams | None = None) -> list[float]:
    """Score each candidate as alpha * norm_mean - (1 - alpha) * norm_variance.

    Means and variances are min-max normalized across the given candidate
    set, so scores are only comparable within one call. Output order matches
    input order; every score lies in [-(1 - alpha), alpha]. A singleton set
    scores exactly 0.
    """
    params = params or ScoreParams()
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate set must be non-empty")
    means, variances = zip(*(_moments(c.token_logprobs) for c in cands))
    norm_means = _minmax(means)
    norm_vars = _minmax(variances)
    alpha = params.alpha
    beta = 1.0 - alpha
    return [alpha * m - beta * v for m, v in zip(norm_means, norm_vars)]


def lambda_probabilities(scores, lam: float) -> LambdaDistribution:
    """Softmax of lambda * scores, computed with max-logit subtraction.

    lambda = 0 yields the exact uniform distribution; lambda must be >= 0
    (negative, anti-greedy sharpening is rejected).
    """
    try:
        values = list(map(float, scores))
    except TypeError:  # a scalar, or a vector of vectors
        values = []
    if not values:
        raise ValueError("scores must be a non-empty 1-d vector")
    if not all(map(math.isfinite, values)):
        raise ValueError("scores must be finite")
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"lambda must be a finite real >= 0, got {lam!r}")
    logits = [lam * s for s in values]
    top = max(logits)
    # The exponentials and their sum stay in numpy, because they decide the
    # bytes: numpy's SIMD exp differs from math.exp in the last bit on about
    # 5% of inputs in [-48, 0] on AVX-512 builds, and ndarray.sum adds
    # pairwise from 8 elements on, which a sequential sum does not match. The
    # division rounds the same on floats as on the array.
    weights = np.array([z - top for z in logits])
    np.exp(weights, out=weights)
    total = float(weights.sum())
    return LambdaDistribution(values, lam, [w / total for w in weights.tolist()])


def sample_categorical(dist: LambdaDistribution, rng: np.random.Generator) -> int:
    """Draw an index by inverse-CDF over the cumulative probabilities.

    The running sum adds left to right, as ``np.cumsum`` does, and the search
    takes the first index whose cumulative mass exceeds the uniform draw.
    """
    cdf = list(accumulate(dist.probs))
    idx = bisect_right(cdf, rng.random())
    return min(idx, len(cdf) - 1)
