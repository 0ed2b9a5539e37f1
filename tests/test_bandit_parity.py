"""Parity of the list-based classical policies with the numpy formulas they replace.

The reference policies below are the array implementations, inlined: the
list versions must pick the same arm from any counts and sums (zero counts
and exact ties included) and draw from the run's random stream in the same
order, so whole runs keep their pulls. For Thompson sampling that means one
``rng.beta`` call per arm draws what one call on the whole vector draws.

The list versions also keep each arm's mean (and UCB's index) up to date
arm by arm, and a policy whose selection never draws takes a run's reward
uniforms in one call; the cases at the end check both against the formulas
and against one draw per step.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dora.bandit import (
    UCB_BONUS,
    EpsilonGreedyPolicy,
    GreedyPolicy,
    ThompsonPolicy,
    UcbPolicy,
    make_hard_instance,
    run_bandit,
)
from dora.harness import CLASSICAL_POLICIES


class NumpyUcb:
    def __init__(self, bonus: float = 1.0) -> None:
        self.bonus = bonus

    def reset(self, num_arms, horizon=None):
        self.counts = np.zeros(num_arms)
        self.sums = np.zeros(num_arms)

    def select(self, t, rng):
        unpulled = np.flatnonzero(self.counts == 0)
        if len(unpulled):
            return int(unpulled[0])
        scores = self.sums / self.counts + np.sqrt(self.bonus / self.counts)
        return int(np.argmax(scores))

    def update(self, arm, reward):
        self.counts[arm] += 1
        self.sums[arm] += reward


class NumpyGreedy(NumpyUcb):
    def select(self, t, rng):
        unpulled = np.flatnonzero(self.counts == 0)
        if len(unpulled):
            return int(unpulled[0])
        return int(np.argmax(self.sums / self.counts))


class NumpyEpsilonGreedy(NumpyUcb):
    def __init__(self, epsilon0: float = 0.1, decay: float = 0.99) -> None:
        self.epsilon0 = epsilon0
        self.decay = decay

    def reset(self, num_arms, horizon=None):
        super().reset(num_arms, horizon)
        self.epsilon = self.epsilon0

    def select(self, t, rng):
        if rng.random() < self.epsilon:
            return int(rng.integers(len(self.counts)))
        means = np.divide(
            self.sums, self.counts, out=np.zeros_like(self.sums), where=self.counts > 0
        )
        return int(np.argmax(means))

    def update(self, arm, reward):
        super().update(arm, reward)
        self.epsilon *= self.decay


class NumpyThompson:
    def reset(self, num_arms, horizon=None):
        self.alpha = np.full(num_arms, 1.0)
        self.beta = np.full(num_arms, 1.0)

    def select(self, t, rng):
        return int(np.argmax(rng.beta(self.alpha, self.beta)))

    def update(self, arm, reward):
        if reward:
            self.alpha[arm] += 1
        else:
            self.beta[arm] += 1


PAIRS = {
    "ucb": (UcbPolicy, NumpyUcb),
    "ts": (ThompsonPolicy, NumpyThompson),
    "greedy": (GreedyPolicy, NumpyGreedy),
    "eps_greedy": (EpsilonGreedyPolicy, NumpyEpsilonGreedy),
}


@st.composite
def arm_stats(draw):
    """Per-arm (count, sum) pairs; small ranges make zero counts and exact ties common."""
    num_arms = draw(st.integers(2, 8))
    top = draw(st.sampled_from([3, 40]))
    counts = draw(st.lists(st.integers(0, top), min_size=num_arms, max_size=num_arms))
    sums = [draw(st.integers(0, n)) for n in counts]
    return counts, sums


def load(policy, counts, sums):
    policy.reset(len(counts))
    for arm, (n, s) in enumerate(zip(counts, sums)):
        for i in range(n):
            policy.update(arm, 1 if i < s else 0)
    return policy


@pytest.mark.parametrize("name", list(PAIRS))
@settings(max_examples=300, deadline=None)
@given(stats=arm_stats(), seed=st.integers(0, 2**32 - 1))
def test_select_matches_numpy_formula(name, stats, seed):
    counts, sums = stats
    new_cls, ref_cls = PAIRS[name]
    new, ref = load(new_cls(), counts, sums), load(ref_cls(), counts, sums)
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert new.select(0, new_rng) == ref.select(0, ref_rng)
    assert new_rng.random() == ref_rng.random()  # same draws consumed


@pytest.mark.parametrize("name", list(PAIRS))
def test_whole_runs_match_numpy_formula(name):
    new_cls, ref_cls = PAIRS[name]
    for seed in range(200):
        instance = make_hard_instance(2 + seed % 6, 0.2, 200, seed)
        new = run_bandit(new_cls(), instance, seed)
        ref = run_bandit(ref_cls(), instance, seed)
        assert new.pulls == ref.pulls, f"seed {seed}"
        assert new.rewards == ref.rewards, f"seed {seed}"


# --- incremental means and the one-call reward draws ---------------------------


@pytest.mark.parametrize("cls", [UcbPolicy, GreedyPolicy, EpsilonGreedyPolicy])
@settings(max_examples=300, deadline=None)
@given(stats=arm_stats())
def test_updates_keep_every_mean_and_index(cls, stats):
    counts, sums = stats
    policy = load(cls(), counts, sums)
    assert policy.means == [s / n if n else 0.0 for s, n in zip(sums, counts)]
    if cls is UcbPolicy:
        for arm, (n, s) in enumerate(zip(counts, sums)):
            if n:
                assert policy.index[arm] == s / n + math.sqrt(UCB_BONUS / n)


class NoDraws:
    """A stand-in generator that fails on any use."""

    def __getattribute__(self, name):
        raise AssertionError(f"select used the generator: rng.{name}")


def test_flagged_policies_never_draw_in_select():
    assert UcbPolicy.select_draws is False and GreedyPolicy.select_draws is False
    for cls in CLASSICAL_POLICIES.values():
        if getattr(cls, "select_draws", True):
            continue
        policy = cls()
        policy.reset(5)
        rewards = np.random.default_rng(3)
        for t in range(200):
            arm = policy.select(t, NoDraws())
            policy.update(arm, 1 if rewards.random() < 0.5 else 0)


class PerStepUcb(UcbPolicy):
    select_draws = True


class PerStepGreedy(GreedyPolicy):
    select_draws = True


@pytest.mark.parametrize(
    "flagged, per_step", [(UcbPolicy, PerStepUcb), (GreedyPolicy, PerStepGreedy)]
)
def test_one_draw_call_matches_per_step_draws(flagged, per_step):
    for seed in range(200):
        instance = make_hard_instance(2 + seed % 6, 0.2, 200, seed)
        new = run_bandit(flagged(), instance, seed)
        ref = run_bandit(per_step(), instance, seed)
        assert new.pulls == ref.pulls, f"seed {seed}"
        assert new.rewards == ref.rewards, f"seed {seed}"
