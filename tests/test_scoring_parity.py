"""Bit parity of the float-list scoring path with the numpy formulas it replaces.

The references below are the array implementations, inlined. Results are
compared by their bytes, so a signed zero or a last-bit difference fails.
Vectors run from 1 to 20 elements: 20 is the default candidate count, and
numpy's reductions switch from a sequential to a pairwise sum at 8.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dora.scoring import (
    DEFAULT_EPSILON,
    CandidateAction,
    LambdaDistribution,
    ScoreParams,
    _minmax,
    lambda_probabilities,
    sample_categorical,
    score_candidates,
)


def ref_minmax(values, epsilon):
    arr = np.asarray(values, dtype=float)
    lo = float(arr.min())
    hi = float(arr.max())
    return (arr - lo) / (hi - lo + epsilon)


def ref_scores(candidates, params):
    means = np.array([sum(c.token_logprobs) / len(c.token_logprobs) for c in candidates])
    variances = []
    for c in candidates:
        lps = c.token_logprobs
        mu = sum(lps) / len(lps)
        variances.append(sum((lp - mu) ** 2 for lp in lps) / len(lps))
    norm_means = ref_minmax(means, DEFAULT_EPSILON)
    norm_vars = ref_minmax(np.array(variances), DEFAULT_EPSILON)
    return params.alpha * norm_means - (1.0 - params.alpha) * norm_vars


def ref_probs(scores, lam):
    logits = lam * np.asarray(scores, dtype=float)
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def ref_index(probs, u):
    cdf = np.cumsum(probs)
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class FixedDraw:
    """A generator stand-in whose ``random()`` returns a chosen uniform draw."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


# Zeros of both signs and a subnormal, so ties and signed-zero minima come up often.
TIES = st.sampled_from([0.0, -0.0, -5e-324, -0.25, -1.0])
LOGPROB = st.one_of(TIES, st.floats(-50.0, 0.0))
SCORE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]), st.floats(-1.0, 1.0))
LAMBDA = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(50.0, 1e6))
ALPHA = st.one_of(st.sampled_from([0.0, 1.0, 0.8]), st.floats(0.0, 1.0))


@st.composite
def candidate_sets(draw):
    """1-20 candidates drawn from a small pool, so identical candidates repeat."""
    pool = draw(st.lists(st.lists(LOGPROB, min_size=1, max_size=6), min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    return [CandidateAction(f"a{i}", tuple(lps)) for i, lps in enumerate(picks)]


@st.composite
def score_vectors(draw):
    size = draw(st.integers(1, 20))
    if draw(st.booleans()):
        return [draw(SCORE)] * size
    return draw(st.lists(SCORE, min_size=size, max_size=size))


@settings(max_examples=250, deadline=None)
@given(candidates=candidate_sets(), alpha=ALPHA)
def test_score_candidates_matches_numpy_formula(candidates, alpha):
    params = ScoreParams(alpha=alpha)
    assert bits(score_candidates(candidates, params)) == bits(ref_scores(candidates, params))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(TIES, st.floats(-1e3, 1e3)), min_size=1, max_size=20))
def test_minmax_normalize_matches_numpy_formula(values):
    assert bits(_minmax(values)) == bits(ref_minmax(values, 1e-8))


@settings(max_examples=250, deadline=None)
@given(scores=score_vectors(), lam=LAMBDA)
def test_lambda_probabilities_match_numpy_formula(scores, lam):
    dist = lambda_probabilities(scores, lam)
    assert bits(dist.scores) == bits(scores)
    assert bits(dist.probs) == bits(ref_probs(scores, lam))


@settings(max_examples=250, deadline=None)
@given(scores=score_vectors(), lam=LAMBDA, seed=st.integers(0, 2**32 - 1))
def test_sampled_index_matches_numpy_formula(scores, lam, seed):
    dist = lambda_probabilities(scores, lam)
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample_categorical(dist, new_rng) == ref_index(dist.probs, ref_rng.random())
    assert new_rng.random() == ref_rng.random()  # one draw consumed on each side


@settings(max_examples=200, deadline=None)
@given(scores=score_vectors(), lam=LAMBDA, data=st.data())
def test_draws_on_cdf_boundaries_match_numpy_formula(scores, lam, data):
    dist = lambda_probabilities(scores, lam)
    cdf = np.cumsum(dist.probs).tolist()
    u = data.draw(st.one_of(st.sampled_from(cdf), st.just(0.0), st.floats(0.0, 1.0)))
    assert sample_categorical(dist, FixedDraw(u)) == ref_index(dist.probs, u)


def test_draw_past_a_short_cdf_takes_the_last_index():
    dist = LambdaDistribution(np.array([0.0, 0.0]), 1.0, np.array([0.5, 0.5 - 1e-10]))
    assert sample_categorical(dist, FixedDraw(1.0 - 1e-11)) == 1
