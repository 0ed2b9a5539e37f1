"""Scoring-engine unit tests and invariants, checked against straight-line oracles.

The oracle helpers below recompute everything with plain Python floats and
no shared code with the library, so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dora.scoring import (
    CandidateAction,
    LambdaDistribution,
    ScoreParams,
    _minmax,
    _moments,
    lambda_probabilities,
    sample_categorical,
    score_candidates,
)

EPS = 1e-8


# --- independent oracles (pure Python, no numpy) ---


def oracle_mean(values):
    return sum(values) / len(values)


def oracle_var(values):
    mu = sum(values) / len(values)
    return sum((v - mu) ** 2 for v in values) / len(values)


def oracle_minmax(values, eps=EPS):
    lo = min(values)
    hi = max(values)
    return [(v - lo) / (hi - lo + eps) for v in values]


def oracle_scores(logprob_lists, alpha, eps=EPS):
    means = [oracle_mean(lps) for lps in logprob_lists]
    variances = [oracle_var(lps) for lps in logprob_lists]
    norm_means = oracle_minmax(means, eps)
    norm_vars = oracle_minmax(variances, eps)
    return [alpha * m - (1 - alpha) * v for m, v in zip(norm_means, norm_vars)]


def oracle_softmax(scores, lam):
    logits = [lam * s for s in scores]
    top = max(logits)
    weights = [math.exp(z - top) for z in logits]
    total = sum(weights)
    return [w / total for w in weights]


# Scores of the wrong shape: a scalar, a nested list and a 2-d array. Each
# row has two elements, so no numpy version converts one to a float.
NOT_VECTORS = [0.5, [[0.5, 0.5], [0.5, 0.5]], np.full((2, 2), 0.5)]


def cand(*logprobs, text="a"):
    return CandidateAction(text, tuple(logprobs))


class TestCandidateAction:
    def test_rejects_empty_logprobs(self):
        with pytest.raises(ValueError):
            CandidateAction("x", ())

    def test_rejects_positive_logprob(self):
        with pytest.raises(ValueError):
            cand(-0.1, 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cand(float("-inf"))
        with pytest.raises(ValueError):
            cand(float("nan"))

    def test_zero_is_allowed(self):
        assert cand(0.0).token_logprobs == (0.0,)


def mean_of(*lps):
    return _moments(cand(*lps).token_logprobs)[0]


def variance_of(*lps):
    return _moments(cand(*lps).token_logprobs)[1]


class TestMeanLogprob:
    def test_constant_sequence(self):
        assert mean_of(-1.0, -1.0, -1.0) == -1.0

    def test_singleton(self):
        assert mean_of(-0.5) == -0.5

    def test_hand_sum(self):
        # frozen from oracle_mean([-0.1, -2.0, -0.9])
        assert mean_of(-0.1, -2.0, -0.9) == pytest.approx(-1.0, abs=1e-12)


class TestVarianceLogprob:
    def test_constant_sequence(self):
        assert variance_of(-1.0, -1.0) == 0.0

    def test_singleton_has_zero_spread(self):
        assert variance_of(-0.5) == 0.0

    def test_population_variance(self):
        # frozen from oracle_var([-0.1, -2.0, -0.9]) = 0.6066666666666667
        assert variance_of(-0.1, -2.0, -0.9) == pytest.approx(0.6066666666666667, abs=1e-12)

    def test_divides_by_n_not_n_minus_1(self):
        assert variance_of(-0.2, -0.8) == pytest.approx(0.09, abs=1e-12)  # not 0.18


class TestMinmaxNormalize:
    def test_all_equal_collapses_to_zero(self):
        assert _minmax([3.0, 3.0, 3.0]) == [0.0, 0.0, 0.0]

    def test_endpoints(self):
        out = _minmax([0.0, 1.0])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0 / (1.0 + 1e-8), abs=1e-15)

    def test_direct_evaluation(self):
        # frozen from oracle_minmax([-0.1, -1.25, -1.0])
        out = _minmax([-0.1, -1.25, -1.0])
        expected = [0.9999999913043479, 0.0, 0.21739130245746696]
        assert np.allclose(out, expected, atol=1e-12)

    def test_output_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            values = rng.uniform(-5, 5, size=rng.integers(1, 12))
            out = _minmax(values.tolist())
            assert all(0.0 <= x < 1.0 for x in out)

    def test_rejects_empty_and_non_finite(self):
        for values in ([], [1.0, float("inf")], [float("-inf"), 1.0], [float("nan"), 1.0]):
            with pytest.raises(ValueError):
                _minmax(values)


class TestScoreCandidates:
    def test_singleton_scores_zero(self):
        out = score_candidates([cand(-3.1, -0.4)], ScoreParams(alpha=0.8))
        assert out[0] == 0.0

    def test_three_candidate_chain(self):
        # frozen from oracle_scores([[-0.1,-0.1], [-2.0,-0.5], [-1.0,-1.0]], 0.8)
        cands = [cand(-0.1, -0.1), cand(-2.0, -0.5), cand(-1.0, -1.0)]
        out = score_candidates(cands, ScoreParams(alpha=0.8))
        expected = [0.7999999930434784, -0.19999999644444444, 0.17391304196597357]
        assert np.allclose(out, expected, atol=1e-12)

    def test_identical_candidates_score_zero(self):
        cands = [cand(-0.7, -0.3), cand(-0.7, -0.3)]
        assert list(score_candidates(cands, ScoreParams(alpha=0.8))) == [0.0, 0.0]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            score_candidates([], ScoreParams())

    def test_returns_python_floats(self):
        out = score_candidates([cand(-0.1), cand(-4.0)], ScoreParams(alpha=0.8))
        assert type(out) is list and all(type(x) is float for x in out)

    def test_score_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha = float(rng.uniform(0, 1))
            cands = [
                cand(*rng.uniform(-5, 0, size=rng.integers(1, 20)))
                for _ in range(rng.integers(1, 10))
            ]
            out = np.array(score_candidates(cands, ScoreParams(alpha=alpha)))
            assert np.all(out >= -(1 - alpha) - 1e-12)
            assert np.all(out <= alpha + 1e-12)

    def test_order_matches_input(self):
        cands = [cand(-0.1), cand(-4.0), cand(-1.0)]
        out = score_candidates(cands, ScoreParams(alpha=1.0))
        assert out[0] == max(out) and out[1] == min(out)


class TestLambdaProbabilities:
    def test_lambda_zero_is_exactly_uniform(self):
        dist = lambda_probabilities([0.3, 0.9], 0.0)
        assert list(dist.probs) == [0.5, 0.5]
        dist = lambda_probabilities([5.0, -2.0, 0.1], 0.0)
        assert list(dist.probs) == [1 / 3, 1 / 3, 1 / 3]

    def test_ln2_weights(self):
        dist = lambda_probabilities([1.0, 0.0], math.log(2.0))
        assert np.allclose(dist.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_direct_softmax(self):
        # frozen from oracle_softmax([0.7999999930434784, -0.19999999644444444,
        # 0.17391304196597357], 5.0); note these scores are the frozen outputs
        # of the three-candidate scoring chain above
        scores = [0.7999999930434784, -0.19999999644444444, 0.17391304196597357]
        dist = lambda_probabilities(scores, 5.0)
        expected = [0.951984979044059, 0.006414424669868988, 0.041600596286072045]
        assert np.allclose(dist.probs, expected, atol=1e-12)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            lambda_probabilities([0.1, 0.2], -1.0)

    def test_rejects_empty_or_nan_scores(self):
        with pytest.raises(ValueError):
            lambda_probabilities([], 1.0)
        with pytest.raises(ValueError):
            lambda_probabilities([0.1, float("nan")], 1.0)

    @pytest.mark.parametrize("scores", NOT_VECTORS, ids=repr)
    def test_rejects_scores_that_are_not_a_vector(self, scores):
        with pytest.raises(ValueError, match="scores must be a non-empty 1-d vector"):
            lambda_probabilities(scores, 1.0)

    def test_holds_python_floats(self):
        dist = lambda_probabilities(np.array([0.3, -0.0, 1]), 2.0)
        for values in (dist.scores, dist.probs):
            assert type(values) is list and all(type(x) is float for x in values)
        assert math.copysign(1.0, dist.scores[1]) == -1.0

    def test_normalization_over_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            scores = rng.uniform(-1, 1, size=rng.integers(1, 25))
            lam = float(rng.uniform(0, 50))
            probs = np.array(lambda_probabilities(scores, lam).probs)
            assert abs(float(probs.sum()) - 1.0) <= 1e-9
            assert np.all(probs >= 0.0)

    def test_argmax_preserved_for_positive_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scores = rng.permutation(rng.uniform(-1, 1, size=6))
            for lam in (0.1, 1.0, 5.0, 40.0):
                dist = lambda_probabilities(scores, lam)
                assert int(np.argmax(dist.probs)) == int(np.argmax(scores))

    def test_sharpness_strictly_increasing_in_lambda(self):
        rng = np.random.default_rng(9)
        grid = [0.1, 1.0, 5.0, 20.0, 40.0]
        for _ in range(100):
            scores = rng.permutation(np.linspace(-0.5, 0.5, 5))
            best = int(np.argmax(scores))
            tops = [float(lambda_probabilities(scores, lam).probs[best]) for lam in grid]
            assert all(a < b for a, b in zip(tops, tops[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(-1, 1, size=7)
        dist = lambda_probabilities(scores, 3.0)
        perm = rng.permutation(7)
        permuted = lambda_probabilities(scores[perm], 3.0)
        assert np.allclose(permuted.probs, np.array(dist.probs)[perm], atol=1e-15)
        assert np.allclose(permuted.scores, np.array(dist.scores)[perm], atol=0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            scores = rng.uniform(-1, 1, size=5)
            shift = float(rng.uniform(-10, 10))
            a = lambda_probabilities(scores, 4.0).probs
            b = lambda_probabilities(scores + shift, 4.0).probs
            assert np.allclose(a, b, atol=1e-12)


class TestSampleCategorical:
    def test_singleton(self):
        dist = LambdaDistribution(np.array([0.2]), 1.0, np.array([1.0]))
        for seed in range(20):
            assert sample_categorical(dist, np.random.default_rng(seed)) == 0

    def test_degenerate_mass(self):
        dist = LambdaDistribution(np.array([0.0, 1.0]), 1.0, np.array([0.0, 1.0]))
        for seed in range(20):
            assert sample_categorical(dist, np.random.default_rng(seed)) == 1

    def test_fair_coin_frequencies(self):
        dist = LambdaDistribution(np.array([0.0, 0.0]), 0.0, np.array([0.5, 0.5]))
        rng = np.random.default_rng(101)
        draws = [sample_categorical(dist, rng) for _ in range(10000)]
        freq = sum(draws) / len(draws)
        assert abs(freq - 0.5) <= 0.02

    def test_deterministic_given_seed(self):
        dist = lambda_probabilities([0.1, 0.5, -0.2], 2.0)
        a = [sample_categorical(dist, np.random.default_rng(55)) for _ in range(5)]
        b = [sample_categorical(dist, np.random.default_rng(55)) for _ in range(5)]
        assert a != [a[0]] * 5 or True  # draws vary is not required; determinism is
        assert a == b


class TestLambdaDistributionInvariants:
    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValueError):
            LambdaDistribution(np.array([0.1, 0.2]), 1.0, np.array([0.6, 0.6]))

    def test_rejects_negative_probs(self):
        with pytest.raises(ValueError):
            LambdaDistribution(np.array([0.1, 0.2]), 1.0, np.array([-0.1, 1.1]))

    def test_rejects_nan_probs(self):
        with pytest.raises(ValueError):
            LambdaDistribution(np.array([0.1, 0.2]), 1.0, np.array([float("nan"), 1.0]))

    def test_overflowing_logits_are_rejected(self):
        # 1e308 * 10 overflows to inf, and inf - inf leaves NaN probabilities
        with pytest.raises(ValueError):
            lambda_probabilities([10.0, 0.0], 1e308)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LambdaDistribution(np.array([0.1]), 1.0, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("vectors", NOT_VECTORS, ids=repr)
    def test_rejects_scores_or_probs_that_are_not_a_vector(self, vectors):
        message = "scores and probs must be 1-d vectors of equal length >= 1"
        with pytest.raises(ValueError, match=message):
            LambdaDistribution(vectors, 1.0, [0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            LambdaDistribution([0.1, 0.2], 1.0, vectors)


class TestOracleEquivalence:
    def test_thousand_random_candidate_sets(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            n_cands = int(rng.integers(2, 21))
            alpha = float(rng.uniform(0, 1))
            logprob_lists = [
                list(rng.uniform(-5, 0, size=int(rng.integers(1, 31)))) for _ in range(n_cands)
            ]
            cands = [cand(*lps) for lps in logprob_lists]
            ours = score_candidates(cands, ScoreParams(alpha=alpha))
            reference = oracle_scores(logprob_lists, alpha)
            worst = max(worst, float(np.max(np.abs(ours - np.array(reference)))))
        assert worst < 1e-9

    def test_softmax_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            scores = list(rng.uniform(-1, 1, size=rng.integers(1, 15)))
            lam = float(rng.uniform(0, 45))
            ours = lambda_probabilities(scores, lam).probs
            assert np.allclose(ours, oracle_softmax(scores, lam), atol=1e-12)
