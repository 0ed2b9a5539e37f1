"""Per-step explore/greedy orchestration and the one episode loop of every text agent.

One step fills in one :class:`StepRecord`: build the context, ask the
policy whether to be greedy or to explore; when exploring, pick a lambda
(scheduled or policy-sampled), generate candidates, drop the ones already
tried under this observation, score the rest, and sample from the
lambda-softmax. With nothing to sample from it decodes one greedy action.
The chosen action joins the per-observation used-action set.

:func:`drive_episode` runs any step policy against an environment;
:func:`run_episode` drives the DORA step, and :func:`temperature_step` is
the temperature baseline of both suites; both record backend errors as steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import prompts
from .lambda_control import LambdaSource, ScheduledLambda, extract_lambda, lambda_exp
from .policy import (
    BackendError,
    Mode,
    PolicyBackend,
    PolicyRequest,
    PromptKind,
    decide_mode,
    first_action,
    generate_candidates,
    greedy_action,
)
from .scoring import ScoreParams, lambda_probabilities, sample_categorical, score_candidates
from .textenv import EnvError

HistoryTriple = tuple[str, str, float]
ContextBuilder = Callable[[Sequence[HistoryTriple], str, "DoraParams"], list[dict]]

# A policy-sampled lambda reply that does not parse is asked for once more;
# each request is sampled at TAU_LAMBDA.
LAMBDA_RETRIES = 1
TAU_LAMBDA = 0.2
# The context holds the last HISTORY_WINDOW (observation, action) turns.
HISTORY_WINDOW = 20
# The action a step records when the backend failed.
INVALID_ACTION = ""


class FallbackReason(Enum):
    EMPTY_CANDIDATES = "empty_candidates"
    PARSE_FAILURE = "parse_failure"
    BACKEND_ERROR = "backend_error"


@dataclass(frozen=True)
class DoraParams:
    """Hyperparameters of one agent: candidate count, scoring weight, greedy prompt."""

    n_candidates: int = 20
    alpha: float = 0.8
    greedy_kind: PromptKind = PromptKind.GREEDY_ACTION
    system_prompt: str | None = None


@dataclass(frozen=True)
class ScoredCandidate:
    action: str
    score: float
    prob: float


@dataclass
class StepRecord:
    """What one step decided and why; candidates are present only in explore mode."""

    step: int
    observation: str
    mode: Mode
    chosen_action: str
    lam: float | None = None
    candidates: list[ScoredCandidate] | None = None
    fallback_reason: FallbackReason | None = None
    error: str | None = None  # a BACKEND_ERROR step's message; no artifact line writes it
    unreachable: bool = False  # the BACKEND_ERROR reached no endpoint


class UsedActionRegistry:
    """Per-observation sets of actions already taken; sets only ever grow."""

    def __init__(self) -> None:
        self._sets: dict[str, set[str]] = {}

    @staticmethod
    def _key(observation: str) -> str:
        return observation.strip()

    def used(self, observation: str) -> frozenset[str]:
        return frozenset(self._sets.get(self._key(observation), ()))

    def add(self, observation: str, action: str) -> None:
        self._sets.setdefault(self._key(observation), set()).add(action)


def build_text_context(
    history: Sequence[HistoryTriple], observation: str, params: DoraParams
) -> list[dict]:
    """Rolling-window chat context: system prompt, recent (obs, action) turns, current obs.

    Nonzero rewards are surfaced as a bracketed line at the start of the
    following observation message.
    """
    system = params.system_prompt if params.system_prompt is not None else prompts.zero_shot()
    messages = [{"role": "system", "content": system}]
    pending_reward = 0.0
    for obs, action, reward in history[-HISTORY_WINDOW:]:
        messages.append({"role": "user", "content": _with_reward(obs, pending_reward)})
        messages.append({"role": "assistant", "content": action})
        pending_reward = reward
    messages.append({"role": "user", "content": _with_reward(observation, pending_reward)})
    return messages


def _with_reward(observation: str, reward: float) -> str:
    if reward:
        return f"[reward: {reward:g}]\n{observation}"
    return observation


def _resolve_lambda(
    backend: PolicyBackend,
    context: list[dict],
    lambda_source: LambdaSource,
    step: int,
) -> tuple[float, bool]:
    """Return (lambda, parse_failed). Scheduled sources never fail."""
    if isinstance(lambda_source, ScheduledLambda):
        sched = lambda_source.schedule
        t = min(max(step, 0), sched.horizon)
        return lambda_exp(sched, t), False
    lo, hi = lambda_source.bounds
    messages = (*context, {"role": "user", "content": prompts.lambda_decision(lo, hi)})
    request = PolicyRequest(messages, TAU_LAMBDA, PromptKind.LAMBDA_DECISION)
    for _ in range(LAMBDA_RETRIES + 1):
        value = extract_lambda(backend.complete(request).text)
        if value is not None:
            return min(max(value, lo), hi), False
    return lambda_source.fallback_value, True


def dora_step(
    backend: PolicyBackend,
    lambda_source: LambdaSource,
    registry: UsedActionRegistry,
    history: Sequence[HistoryTriple],
    observation: str,
    params: DoraParams,
    rng: np.random.Generator,
    step: int = 0,
    context_builder: ContextBuilder | None = None,
) -> StepRecord:
    """Run one explore-or-greedy decision step and return its full record.

    One record is filled in as each decision is taken; greedy mode and an
    explore step with no fresh candidate (``[]``, ``EMPTY_CANDIDATES``) share
    one greedy decode. A backend error leaves the registry untouched and the
    record at :data:`INVALID_ACTION`, ``candidates=None`` and
    ``BACKEND_ERROR``, with ``mode`` and ``lam`` as far as the step got.
    """
    if not observation:
        raise ValueError("observation must be non-empty")
    build = context_builder or build_text_context
    context = build(history, observation, params)

    record = StepRecord(step, observation, Mode.GREEDY, INVALID_ACTION)
    try:
        record.mode = decide_mode(backend, context)
        if record.mode is Mode.EXPLORE:
            record.lam, parse_failed = _resolve_lambda(backend, context, lambda_source, step)
            if parse_failed:
                record.fallback_reason = FallbackReason.PARSE_FAILURE
            candidates = generate_candidates(backend, context, params.n_candidates)
            used = registry.used(observation)
            fresh = [c for c in candidates if c.text not in used]
            record.candidates = []
            if fresh:
                scores = score_candidates(fresh, ScoreParams(params.alpha))
                dist = lambda_probabilities(scores, record.lam)
                record.chosen_action = fresh[sample_categorical(dist, rng)].text
                record.candidates = [
                    ScoredCandidate(c.text, s, p) for c, s, p in zip(fresh, dist.scores, dist.probs)
                ]
            else:
                record.fallback_reason = FallbackReason.EMPTY_CANDIDATES
        if not record.candidates:
            record.chosen_action = greedy_action(backend, context, params.greedy_kind)
    except BackendError as exc:
        # chosen_action is only set once the last request has succeeded.
        record.candidates = None
        record.fallback_reason = FallbackReason.BACKEND_ERROR
        record.error = str(exc)
        record.unreachable = exc.unreachable
        return record

    registry.add(observation, record.chosen_action)
    return record


@dataclass
class EpisodeLog:
    """Ordered step records plus the observation/reward streams of one episode.

    ``observations`` holds every observation the agent received: the reset
    observation followed by the result of each step, so it is one longer
    than ``steps`` unless the episode aborted.
    """

    steps: list[StepRecord] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    observations: list[str] = field(default_factory=list)
    terminal: bool = False
    partial: bool = False
    score: float = 0.0
    token_count: int = 0

    @property
    def num_steps(self) -> int:
        return len(self.steps)


StepPolicy = Callable[[Sequence[HistoryTriple], str, int], StepRecord]


def drive_episode(
    backend: PolicyBackend, env, step: StepPolicy, max_steps: int, seed: int | None = None
) -> EpisodeLog:
    """Drive ``step(history, observation, t)`` against ``env`` until terminal or ``max_steps``.

    The environment contract is ``reset(seed) -> observation`` and
    ``step(action) -> TextEnvStep``. Environment errors abort the episode
    with the log flagged as partial. An episode whose every step fell back on
    a backend error raises :class:`BackendError`, and so does one whose
    endpoint is unreachable before any step succeeded, at that step.
    ``backend`` gives the token count.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps!r}")

    observation = env.reset(seed)
    history: list[HistoryTriple] = []
    log = EpisodeLog(observations=[observation])
    tokens_before = backend.tokens_used

    succeeded = False  # whether any step got past the backend
    for t in range(max_steps):
        record = step(history, observation, t)
        log.steps.append(record)
        if record.fallback_reason is not FallbackReason.BACKEND_ERROR:
            succeeded = True
        elif record.unreachable and not succeeded:
            break  # the endpoint is down; every later step would wait out its retries too
        try:
            result = env.step(record.chosen_action)
        except EnvError:
            log.partial = True
            break
        log.rewards.append(result.reward)
        log.observations.append(result.observation)
        log.score = result.score
        history.append((observation, record.chosen_action, result.reward))
        observation = result.observation
        if result.terminal:
            log.terminal = True
            break

    if not succeeded:
        raise BackendError(f"backend failed on all {log.num_steps} steps: {log.steps[-1].error}")
    log.token_count = backend.tokens_used - tokens_before
    return log


def run_episode(
    backend: PolicyBackend,
    env,
    lambda_source: LambdaSource,
    params: DoraParams,
    max_steps: int,
    rng: np.random.Generator,
    context_builder: ContextBuilder | None = None,
    seed: int | None = None,
) -> EpisodeLog:
    """Drive the DORA agent (:func:`dora_step` with one used-action registry
    per episode) against ``env``; see :func:`drive_episode`."""
    registry = UsedActionRegistry()

    def step(history: Sequence[HistoryTriple], observation: str, t: int) -> StepRecord:
        return dora_step(
            backend,
            lambda_source,
            registry,
            history,
            observation,
            params,
            rng,
            step=t,
            context_builder=context_builder,
        )

    return drive_episode(backend, env, step, max_steps, seed)


def temperature_step(
    backend: PolicyBackend,
    params: DoraParams,
    temperature: Callable[[int], float],
    context_builder: ContextBuilder | None = None,
    parse_action: Callable[[str], str] = first_action,
) -> StepPolicy:
    """Temperature-scaled decoding over DORA's context: one ``params.greedy_kind``
    request at ``temperature(t)`` per step, playing ``parse_action(reply.text)``;
    a backend error is a ``BACKEND_ERROR`` step, as in :func:`dora_step`."""

    def step(history: Sequence[HistoryTriple], observation: str, t: int) -> StepRecord:
        context = (context_builder or build_text_context)(history, observation, params)
        record = StepRecord(t, observation, Mode.GREEDY, INVALID_ACTION)
        try:
            reply = backend.complete(PolicyRequest(context, temperature(t), params.greedy_kind))
        except BackendError as exc:
            record.fallback_reason = FallbackReason.BACKEND_ERROR
            record.error = str(exc)
            record.unreachable = exc.unreachable
        else:
            record.chosen_action = parse_action(reply.text)
        return record

    return step
