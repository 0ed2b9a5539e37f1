"""Bernoulli K-armed bandit lab: hard instance, classical baselines, metrics.

The hard instance gives one uniformly chosen arm mean 0.5 + gap/2 and every
other arm 0.5 - gap/2. Regret is pseudo-regret (true means), with the gap
charged as a penalty for each invalid step. A run is fully determined by
(agent, instance, seed): the instance layout, the reward stream, and any
policy randomness draw from sub-streams of the run seed.

Also here: the strict answer-envelope parsing for arm-pressing replies, a
softmax-over-running-means agent driven by a lambda schedule, a
text-environment adapter that exposes the bandit through observation
summaries to the episode loop, and the context and reply parser with which
``agent.temperature_step`` plays the language-model temperature baseline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import prompts
from .agent import DoraParams, HistoryTriple
from .lambda_control import LambdaSchedule, lambda_exp
from .prompts import ARM_COLORS
from .scoring import lambda_probabilities, sample_categorical
from .textenv import EnvError, TextEnvStep

INVALID_PULL = -1

_COLOR = "|".join(ARM_COLORS)
# Bit-exact apart from the color's case and surrounding whitespace.
_ANSWER_RE = re.compile(rf"^\s*<Answer>I will press ((?i:{_COLOR})) button</Answer>\s*$")
_LOOSE_PRESS_RE = re.compile(rf"\bpress\s+({_COLOR})\s+button\b", re.IGNORECASE)


@dataclass(frozen=True)
class BanditInstance:
    """Arm means, the optimal arm, the horizon, and the suboptimality gap."""

    arm_means: tuple[float, ...]
    best_arm: int
    horizon: int
    gap: float

    @property
    def num_arms(self) -> int:
        return len(self.arm_means)

    @property
    def best_mean(self) -> float:
        return self.arm_means[self.best_arm]


def make_hard_instance(
    num_arms: int = 5, gap: float = 0.2, horizon: int = 200, seed: int = 0
) -> BanditInstance:
    """One uniformly random arm at 0.5 + gap/2, the rest at 0.5 - gap/2."""
    if num_arms < 2:
        raise ValueError(f"need at least 2 arms, got {num_arms!r}")
    if not (0.0 < gap < 1.0):
        raise ValueError(f"gap must lie in (0, 1), got {gap!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    rng = np.random.default_rng([seed, 0])
    best = int(rng.integers(num_arms))
    means = [0.5 - gap / 2.0] * num_arms
    means[best] = 0.5 + gap / 2.0
    return BanditInstance(tuple(means), best, horizon, gap)


@dataclass
class BanditRun:
    """Per-step pulls (INVALID_PULL for invalid steps) and binary rewards."""

    pulls: list[int]
    rewards: list[int]

    def __post_init__(self) -> None:
        if len(self.pulls) != len(self.rewards):
            raise ValueError("pulls and rewards must be aligned")

    @property
    def invalid_count(self) -> int:
        return sum(1 for a in self.pulls if a == INVALID_PULL)


@dataclass(frozen=True)
class BanditMetrics:
    mean_avg_reward: float
    cumulative_regret: float
    best_arm_fraction: float
    suffix_failure: bool
    invalid_count: int


def compute_metrics(run: BanditRun, instance: BanditInstance) -> BanditMetrics:
    """Table-style metrics for one run.

    Pseudo-regret sums (best mean - pulled mean) over valid pulls plus the
    gap per invalid step; the reward average divides by the horizon, so
    invalid steps count against it. Suffix failure means the best arm was
    never pulled in the second half of the horizon.
    """
    horizon = instance.horizon
    gap, best_arm, best_mean = instance.gap, instance.best_arm, instance.best_mean
    arm_means = instance.arm_means
    pulls = run.pulls
    regret = 0.0
    for arm in pulls:
        if arm == INVALID_PULL:
            regret += gap
        else:
            regret += best_mean - arm_means[arm]
    best_pulls = sum(1 for a in pulls if a == best_arm)
    second_half = pulls[horizon // 2 :]
    return BanditMetrics(
        mean_avg_reward=sum(run.rewards) / horizon,
        cumulative_regret=regret,
        best_arm_fraction=best_pulls / horizon,
        suffix_failure=not any(a == best_arm for a in second_half),
        invalid_count=run.invalid_count,
    )


# --- answer parsing -----------------------------------------------------------


def parse_answer_envelope(text: str) -> int | None:
    """Strictly parse '<Answer>I will press COLOR button</Answer>'.

    Only the color is case-insensitive and only surrounding whitespace is
    tolerated; anything else is invalid (None).
    """
    match = _ANSWER_RE.match(text)
    if match is None:
        return None
    return ARM_COLORS.index(match.group(1).lower())


def arm_from_action(text: str) -> int | None:
    """Map an action string to an arm by its 'press COLOR button' phrase, which
    the normalized candidate form and the strict answer envelope both hold."""
    match = _LOOSE_PRESS_RE.search(text)
    if match is None:
        return None
    return ARM_COLORS.index(match.group(1).lower())


def press_action(arm: int) -> str:
    return f"press {ARM_COLORS[arm]} button"


# --- classical policies ---------------------------------------------------------


def _argmax(values: list[float]) -> int:
    """Index of the largest value; ties go to the first, as with ``np.argmax``."""
    return values.index(max(values))


def _summary(step_count: int, counts: Sequence[int], means: Sequence[float]) -> str:
    """The summarized-history observation of the first ``len(counts)`` arms."""
    return prompts.mab_history(step_count, counts, means, ARM_COLORS[: len(counts)])


class _EmpiricalMeans:
    """Per-arm pull counts, reward sums and empirical means in plain lists.

    The classical policies pick over a handful of arms at every step, where
    list arithmetic beats numpy's per-call overhead. An update recomputes
    only the pulled arm's mean, ``sums[arm] / counts[arm]``, and an arm never
    pulled reads 0.0: the same floats as
    ``np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)``,
    so pulls are unchanged.
    """

    def reset(self, num_arms: int) -> None:
        self.counts = [0] * num_arms
        self.sums = [0.0] * num_arms
        self.means = [0.0] * num_arms

    def update(self, arm: int, reward: int) -> None:
        self.counts[arm] += 1
        self.sums[arm] += reward
        self.means[arm] = self.sums[arm] / self.counts[arm]


# The c of UCB's sqrt(c / n) exploration bonus.
UCB_BONUS = 1.0


class UcbPolicy(_EmpiricalMeans):
    """Empirical mean plus a sqrt(UCB_BONUS / n) bonus; one initial pull of every arm.

    The bonus has no log-t term, so an update changes only the pulled arm's index.
    """

    select_draws = False

    def reset(self, num_arms: int) -> None:
        super().reset(num_arms)
        self.index = [0.0] * num_arms

    def select(self, t: int, rng: np.random.Generator) -> int:
        if 0 in self.counts:
            return self.counts.index(0)
        return _argmax(self.index)

    def update(self, arm: int, reward: int) -> None:
        super().update(arm, reward)
        self.index[arm] = self.means[arm] + math.sqrt(UCB_BONUS / self.counts[arm])


# Every Thompson-sampling arm starts from the uniform prior Beta(1, 1).
TS_ALPHA0 = 1.0
TS_BETA0 = 1.0


class ThompsonPolicy:
    """Independent Beta-Bernoulli posteriors, initialized at Beta(TS_ALPHA0, TS_BETA0).

    One ``rng.beta(a, b)`` call per arm, in arm order, draws the same stream
    as one call on the parameter vectors, without its per-call array checks.
    """

    def reset(self, num_arms: int) -> None:
        self.alpha = [TS_ALPHA0] * num_arms
        self.beta = [TS_BETA0] * num_arms

    def select(self, t: int, rng: np.random.Generator) -> int:
        return _argmax(list(map(rng.beta, self.alpha, self.beta)))

    def update(self, arm: int, reward: int) -> None:
        if reward:
            self.alpha[arm] += 1
        else:
            self.beta[arm] += 1


class GreedyPolicy(_EmpiricalMeans):
    """Pure argmax of empirical means after one initial pull of every arm."""

    select_draws = False

    def select(self, t: int, rng: np.random.Generator) -> int:
        if 0 in self.counts:
            return self.counts.index(0)
        return _argmax(self.means)


EPSILON0 = 0.1
EPSILON_DECAY = 0.99


class EpsilonGreedyPolicy(_EmpiricalMeans):
    """Random arm with probability epsilon, else argmax of empirical means.

    No initialization sweep: unpulled arms count as mean 0 and exploration is
    left entirely to the epsilon draws. Epsilon starts at :data:`EPSILON0`
    and decays by :data:`EPSILON_DECAY` after every update.
    """

    def reset(self, num_arms: int) -> None:
        super().reset(num_arms)
        self.epsilon = EPSILON0

    def select(self, t: int, rng: np.random.Generator) -> int:
        if rng.random() < self.epsilon:
            return int(rng.integers(len(self.counts)))
        return _argmax(self.means)

    def update(self, arm: int, reward: int) -> None:
        super().update(arm, reward)
        self.epsilon *= EPSILON_DECAY


class ScheduledSoftmaxAgent(_EmpiricalMeans):
    """Samples arms from a softmax over running empirical means whose sharpness
    follows a lambda schedule: early steps are near uniform, late steps
    concentrate on the best-looking arm."""

    def __init__(self, schedule: LambdaSchedule) -> None:
        self.schedule = schedule

    def select(self, t: int, rng: np.random.Generator) -> int:
        lam = lambda_exp(self.schedule, min(t, self.schedule.horizon))
        dist = lambda_probabilities(self.means, lam)
        return sample_categorical(dist, rng)


# The temperature baseline's decaying schedule: its start and growth rate k.
TAU_MAX = 2.0
TAU_DECAY_K = 5.0


def decaying_temperature(horizon: int) -> Callable[[int], float]:
    """Exponentially decaying temperature from TAU_MAX at t=0 to 0 at t=horizon."""
    schedule = LambdaSchedule(0.0, TAU_MAX, TAU_DECAY_K, horizon)
    return lambda t: TAU_MAX - lambda_exp(schedule, min(max(t, 0), horizon))


# --- running -------------------------------------------------------------------


def run_bandit(agent, instance: BanditInstance, seed: int) -> BanditRun:
    """Play one horizon of an agent; rewards draw Bernoulli(mean) from the run's stream.

    Each step takes one uniform for its reward after the agent's selection.
    An agent whose class sets ``select_draws = False`` takes nothing from the
    stream in ``select``, so its horizon's uniforms come from one
    ``rng.random(horizon)`` call, which on PCG64 yields the same doubles as
    one call per step. An arm outside ``[0, num_arms)`` raises ``ValueError``.
    """
    rng = np.random.default_rng([seed, 1])
    arm_means, num_arms, horizon = instance.arm_means, instance.num_arms, instance.horizon
    agent.reset(num_arms)
    if getattr(agent, "select_draws", True):
        draw = rng.random
    else:
        draw = iter(rng.random(horizon).tolist()).__next__
    pulls: list[int] = []
    rewards: list[int] = []
    arm = 0  # an IndexError that select raises at step 0 is re-raised below
    try:
        for t in range(horizon):
            arm = agent.select(t, rng)
            reward = 1 if draw() < arm_means[arm] else 0
            pulls.append(arm)
            rewards.append(reward)
            agent.update(arm, reward)
    except IndexError:
        if -num_arms <= arm < num_arms:  # the agent's own error, not the arm lookup
            raise
        pulls.append(arm)
    # A negative arm passes the lookup: it indexes from the end of arm_means.
    if pulls and not 0 <= min(pulls) <= max(pulls) < num_arms:
        t, arm = next((t, a) for t, a in enumerate(pulls) if not 0 <= a < num_arms)
        raise ValueError(f"step {t}: the agent picked arm {arm!r}, outside [0, {num_arms})")
    return BanditRun(pulls, rewards)


# --- text-environment adapter ----------------------------------------------------


class BanditEnv(_EmpiricalMeans):
    """The bandit behind the text-env interface.

    Observations are the summarized-history prompt; actions are parsed with
    :func:`arm_from_action`. Unparseable actions are invalid steps: no
    reward, no history update, but the step still counts against the
    horizon. The reward stream matches :func:`run_bandit` for the same seed.
    The valid pulls' counts and reward sums are its :class:`_EmpiricalMeans`.
    """

    def __init__(self, instance: BanditInstance, seed: int) -> None:
        self.instance = instance
        self.seed = seed
        self._started = False

    def reset(self, seed: int | None = None) -> str:
        if seed is not None:
            self.seed = seed
        self._rng = np.random.default_rng([self.seed, 1])
        self._started = True
        self.t = 0
        self.pulls: list[int] = []
        self.rewards: list[int] = []
        super().reset(self.instance.num_arms)
        return _summary(self.t, self.counts, self.means)

    def step(self, action_text: str) -> TextEnvStep:
        if not self._started:
            raise EnvError("reset() must be called before step()")
        if self.t >= self.instance.horizon:
            raise EnvError("bandit horizon exhausted; reset() to start a new run")
        arm = arm_from_action(action_text)
        if arm is not None and not (0 <= arm < self.instance.num_arms):
            arm = None
        if arm is None:
            reward = 0
            self.pulls.append(INVALID_PULL)
        else:
            reward = 1 if self._rng.random() < self.instance.arm_means[arm] else 0
            self.pulls.append(arm)
            self.update(arm, reward)
        self.rewards.append(reward)
        self.t += 1
        return TextEnvStep(
            observation=_summary(self.t, self.counts, self.means),
            reward=float(reward),
            score=sum(self.sums) / self.instance.horizon,
            terminal=self.t >= self.instance.horizon,
            valid_action=arm is not None,
        )

    def to_run(self) -> BanditRun:
        return BanditRun(list(self.pulls), list(self.rewards))


def make_mab_context_builder(instance: BanditInstance) -> Callable:
    """Context builder for bandit episodes: system prompt plus the summary
    observation (the observation already carries the whole history)."""
    system = prompts.mab_system(instance.num_arms, instance.horizon)

    def build(history: Sequence[HistoryTriple], observation: str, params: DoraParams):
        return [
            {"role": "system", "content": system},
            {"role": "user", "content": observation},
        ]

    return build


def answer_action(text: str) -> str:
    """The temperature baseline's action on the bandit: the arm of a reply in
    the strict answer envelope, else ``""``, which :class:`BanditEnv` records
    as an invalid pull, as it does an arm past ``num_arms``."""
    arm = parse_answer_envelope(text)
    return "" if arm is None else press_action(arm)
