"""Explore/greedy step orchestration and episode running, driven by scripted mocks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dora.agent import (
    HISTORY_WINDOW,
    INVALID_ACTION,
    DoraParams,
    FallbackReason,
    StepRecord,
    UsedActionRegistry,
    build_text_context,
    dora_step,
    drive_episode,
    run_episode,
    temperature_step,
)
from dora.bandit import BanditEnv, make_hard_instance, make_mab_context_builder, press_action
from dora.lambda_control import LambdaSchedule, PolicySampledLambda, ScheduledLambda
from dora.policy import (
    BackendError,
    MockPolicy,
    Mode,
    PolicyBackend,
    PromptKind,
    ScriptEntry,
)
from dora.textenv import NOTHING_HAPPENS, EnvError, KeyMazeWorld

OBS = "you are in a room"
FLAT_LAMBDA = ScheduledLambda(LambdaSchedule(0.0, 0.0, k=5.0, horizon=100))
SHARP_LAMBDA = ScheduledLambda(LambdaSchedule(1e6, 1e6, k=5.0, horizon=100))
PARAMS = DoraParams(system_prompt="play the game")


def explore_script(candidates, greedy="fallback move", lam=None):
    entries = [ScriptEntry.mode("EXPLORE")]
    if lam is not None:
        reply = json.dumps({"lambda": lam}, separators=(",", ":"))
        entries.append(ScriptEntry(PromptKind.LAMBDA_DECISION, reply))
    entries.append(ScriptEntry.candidates(candidates))
    entries.append(ScriptEntry.greedy(greedy))
    return entries


def record_to_dict(record: StepRecord) -> dict:
    return {
        "step": record.step,
        "observation": record.observation,
        "mode": record.mode.value,
        "chosen_action": record.chosen_action,
        "lambda": record.lam,
        "candidates": [(c.action, c.score, c.prob) for c in record.candidates]
        if record.candidates is not None
        else None,
        "fallback": record.fallback_reason.value if record.fallback_reason else None,
    }


class FailingBackend(PolicyBackend):
    def complete(self, request):
        raise BackendError("synthetic transport failure")


class FailsAtRequest(MockPolicy):
    """A scripted mock whose ``fail_at``-th request (completion or rescore,
    counted from 1) raises :class:`BackendError`."""

    def __init__(self, entries, fail_at, rescores=None):
        super().__init__(entries, rescores)
        self.fail_at = fail_at
        self.requests = 0

    def _request(self):
        self.requests += 1
        if self.requests == self.fail_at:
            raise BackendError(f"synthetic failure at request {self.fail_at}")

    def complete(self, request):
        self._request()
        return super().complete(request)

    def rescore(self, context, text):
        self._request()
        return super().rescore(context, text)


class TestDoraStepGreedyBranch:
    def test_greedy_action_chosen(self):
        mock = MockPolicy([ScriptEntry.mode("GREEDY"), ScriptEntry.greedy("go north")])
        registry = UsedActionRegistry()
        record = dora_step(
            mock, FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(0)
        )
        assert record.mode is Mode.GREEDY
        assert record.chosen_action == "go north"
        assert record.candidates is None
        assert record.lam is None
        assert record.fallback_reason is None

    def test_exactly_one_generation_call(self):
        mock = MockPolicy([ScriptEntry.mode("GREEDY"), ScriptEntry.greedy("go north")])
        dora_step(mock, FLAT_LAMBDA, UsedActionRegistry(), [], OBS, PARAMS, np.random.default_rng(0))
        assert mock.calls == [PromptKind.MODE_DECISION, PromptKind.GREEDY_ACTION]

    def test_greedy_action_registered(self):
        mock = MockPolicy([ScriptEntry.mode("GREEDY"), ScriptEntry.greedy("go north")])
        registry = UsedActionRegistry()
        dora_step(mock, FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(0))
        assert registry.used(OBS) == {"go north"}

    def test_greedy_may_repeat_used_action(self):
        registry = UsedActionRegistry()
        registry.add(OBS, "go north")
        mock = MockPolicy([ScriptEntry.mode("GREEDY"), ScriptEntry.greedy("go north")])
        record = dora_step(
            mock, FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(0)
        )
        assert record.chosen_action == "go north"

    @pytest.mark.parametrize(
        "reply", ["[" * 100_000, '{"mode": ' + "[" * 100_000 + "}"], ids=["bare", "in-object"]
    )
    def test_mode_reply_nested_too_deep_is_greedy(self, reply):
        entries = [ScriptEntry(PromptKind.MODE_DECISION, reply), ScriptEntry.greedy("look")]
        mock = MockPolicy(entries)
        record = dora_step(
            mock, FLAT_LAMBDA, UsedActionRegistry(), [], OBS, PARAMS, np.random.default_rng(0)
        )
        assert (record.mode, record.chosen_action, record.fallback_reason) == (
            Mode.GREEDY, "look", None
        )


class TestDoraStepExploreBranch:
    CANDIDATES = ["go north", "go south", "go east", "go west"]

    def test_uniform_at_lambda_zero(self):
        from scipy import stats as scipy_stats

        counts = {c: 0 for c in self.CANDIDATES}
        replays = 10000
        for i in range(replays):
            mock = MockPolicy(explore_script(self.CANDIDATES))
            record = dora_step(
                mock,
                FLAT_LAMBDA,
                UsedActionRegistry(),
                [],
                OBS,
                PARAMS,
                np.random.default_rng(i),
            )
            counts[record.chosen_action] += 1
        for action in self.CANDIDATES:
            assert abs(counts[action] / replays - 0.25) <= 0.02
        assert scipy_stats.chisquare(list(counts.values())).pvalue > 0.01

    def test_scheduled_call_accounting(self):
        mock = MockPolicy(explore_script(self.CANDIDATES))
        dora_step(mock, FLAT_LAMBDA, UsedActionRegistry(), [], OBS, PARAMS, np.random.default_rng(1))
        assert mock.calls == [PromptKind.MODE_DECISION, PromptKind.CANDIDATE_LIST]

    def test_policy_sampled_call_accounting(self):
        mock = MockPolicy(explore_script(self.CANDIDATES, lam=2.0))
        record = dora_step(
            mock,
            PolicySampledLambda((0.0, 40.0)),
            UsedActionRegistry(),
            [],
            OBS,
            PARAMS,
            np.random.default_rng(1),
        )
        assert record.lam == 2.0
        assert mock.calls == [
            PromptKind.MODE_DECISION,
            PromptKind.LAMBDA_DECISION,
            PromptKind.CANDIDATE_LIST,
        ]

    def test_rescoring_calls_counted(self):
        mock = MockPolicy(
            explore_script(self.CANDIDATES),
            rescores={c: [-0.5] for c in self.CANDIDATES},
        )
        dora_step(mock, FLAT_LAMBDA, UsedActionRegistry(), [], OBS, PARAMS, np.random.default_rng(1))
        assert mock.rescore_calls == len(self.CANDIDATES)
        assert mock.calls == [PromptKind.MODE_DECISION, PromptKind.CANDIDATE_LIST]

    def test_record_carries_scored_candidates(self):
        mock = MockPolicy(explore_script(self.CANDIDATES))
        record = dora_step(
            mock, FLAT_LAMBDA, UsedActionRegistry(), [], OBS, PARAMS, np.random.default_rng(2)
        )
        assert record.mode is Mode.EXPLORE
        assert record.lam == 0.0
        assert [c.action for c in record.candidates] == self.CANDIDATES
        assert abs(sum(c.prob for c in record.candidates) - 1.0) <= 1e-9

    def test_used_actions_filtered_out(self):
        registry = UsedActionRegistry()
        registry.add(OBS, "go north")
        registry.add(OBS, "go south")
        mock = MockPolicy(explore_script(self.CANDIDATES))
        record = dora_step(
            mock, FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(3)
        )
        surviving = {c.action for c in record.candidates}
        assert surviving == {"go east", "go west"}
        assert record.chosen_action in surviving

    def test_non_repetition_over_many_steps(self):
        registry = UsedActionRegistry()
        chosen = []
        for i in range(4):
            mock = MockPolicy(explore_script(self.CANDIDATES))
            record = dora_step(
                mock, FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(100 + i)
            )
            assert record.fallback_reason is None
            assert record.chosen_action not in chosen
            chosen.append(record.chosen_action)
        assert registry.used(OBS) == set(self.CANDIDATES)

    def test_all_used_falls_back_to_greedy(self):
        registry = UsedActionRegistry()
        for action in self.CANDIDATES:
            registry.add(OBS, action)
        mock = MockPolicy(explore_script(self.CANDIDATES, greedy="fallback move"))
        record = dora_step(
            mock, FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(4)
        )
        assert record.mode is Mode.EXPLORE
        assert record.fallback_reason is FallbackReason.EMPTY_CANDIDATES
        assert record.candidates == []
        assert record.chosen_action == "fallback move"
        assert mock.calls == [
            PromptKind.MODE_DECISION,
            PromptKind.CANDIDATE_LIST,
            PromptKind.GREEDY_ACTION,
        ]

    def test_empty_candidate_reply_falls_back(self):
        mock = MockPolicy(explore_script([""], greedy="fallback move"))
        record = dora_step(
            mock, FLAT_LAMBDA, UsedActionRegistry(), [], OBS, PARAMS, np.random.default_rng(5)
        )
        assert record.fallback_reason is FallbackReason.EMPTY_CANDIDATES
        assert record.chosen_action == "fallback move"

    def test_argmax_at_huge_lambda(self):
        rescores = {
            "go north": [-0.1],
            "go south": [-2.0],
            "go east": [-1.0],
            "go west": [-3.0],
        }
        for seed in range(25):
            mock = MockPolicy(explore_script(self.CANDIDATES), rescores=rescores)
            record = dora_step(
                mock,
                SHARP_LAMBDA,
                UsedActionRegistry(),
                [],
                OBS,
                PARAMS,
                np.random.default_rng(seed),
            )
            assert record.chosen_action == "go north"

    def test_lambda_parse_retry_then_fallback(self):
        entries = [
            ScriptEntry.mode("EXPLORE"),
            ScriptEntry(PromptKind.LAMBDA_DECISION, "about five?"),
            ScriptEntry(PromptKind.LAMBDA_DECISION, "still no json"),
            ScriptEntry.candidates(self.CANDIDATES),
        ]
        mock = MockPolicy(entries)
        record = dora_step(
            mock,
            PolicySampledLambda((0.0, 40.0)),
            UsedActionRegistry(),
            [],
            OBS,
            PARAMS,
            np.random.default_rng(6),
        )
        assert record.lam == 20.0  # midpoint fallback
        assert record.fallback_reason is FallbackReason.PARSE_FAILURE
        assert mock.calls.count(PromptKind.LAMBDA_DECISION) == 2

    def test_lambda_reply_clamped(self):
        mock = MockPolicy(explore_script(self.CANDIDATES, lam=99.0))
        record = dora_step(
            mock,
            PolicySampledLambda((0.0, 40.0)),
            UsedActionRegistry(),
            [],
            OBS,
            PARAMS,
            np.random.default_rng(7),
        )
        assert record.lam == 40.0


class TestDoraStepErrors:
    def test_backend_error_yields_invalid_record(self):
        registry = UsedActionRegistry()
        record = dora_step(
            FailingBackend(), FLAT_LAMBDA, registry, [], OBS, PARAMS, np.random.default_rng(0)
        )
        assert record.fallback_reason is FallbackReason.BACKEND_ERROR
        assert record.chosen_action == INVALID_ACTION
        assert registry.used(OBS) == frozenset()

    CANDIDATES = ["go north", "go south", "open door"]
    SAMPLED = PolicySampledLambda((0.0, 40.0))

    @pytest.mark.parametrize(
        "entries, lambda_source, used, rescores, fail_at, mode, lam",
        [
            ([ScriptEntry.mode("EXPLORE")], FLAT_LAMBDA, [], None, 1, Mode.GREEDY, None),
            (explore_script(CANDIDATES, lam=7.0), SAMPLED, [], None, 2, Mode.EXPLORE, None),
            (explore_script(CANDIDATES, lam=7.0), SAMPLED, [], None, 3, Mode.EXPLORE, 7.0),
            (
                explore_script(CANDIDATES, lam=7.0),
                SAMPLED,
                [],
                {c: [-0.5] for c in CANDIDATES},
                5,
                Mode.EXPLORE,
                7.0,
            ),
            (explore_script(CANDIDATES, lam=7.0), SAMPLED, CANDIDATES, None, 4, Mode.EXPLORE, 7.0),
            (
                [ScriptEntry.mode("GREEDY"), ScriptEntry.greedy("go north")],
                FLAT_LAMBDA,
                [],
                None,
                2,
                Mode.GREEDY,
                None,
            ),
        ],
        ids=["mode", "lambda", "candidates", "rescore", "greedy_after_used", "greedy_mode"],
    )
    def test_backend_error_at_each_request(
        self, entries, lambda_source, used, rescores, fail_at, mode, lam
    ):
        registry = UsedActionRegistry()
        for action in used:
            registry.add(OBS, action)
        mock = FailsAtRequest(entries, fail_at, rescores)
        record = dora_step(
            mock, lambda_source, registry, [], OBS, PARAMS, np.random.default_rng(0)
        )
        assert mock.requests == fail_at
        assert record.mode is mode
        assert record.lam == lam
        assert record.candidates is None
        assert record.fallback_reason is FallbackReason.BACKEND_ERROR
        assert record.chosen_action == INVALID_ACTION
        assert registry.used(OBS) == frozenset(used)

    def test_empty_observation_rejected(self):
        mock = MockPolicy([])
        with pytest.raises(ValueError):
            dora_step(mock, FLAT_LAMBDA, UsedActionRegistry(), [], "", PARAMS, np.random.default_rng(0))


class TestUsedActionRegistry:
    def test_monotone_growth(self):
        registry = UsedActionRegistry()
        sizes = []
        for i in range(6):
            registry.add(OBS, f"action {i}")
            sizes.append(len(registry.used(OBS)))
        assert sizes == sorted(sizes)
        registry.add(OBS, "action 0")  # re-adding never shrinks
        assert len(registry.used(OBS)) == 6

    def test_keys_are_per_observation(self):
        registry = UsedActionRegistry()
        registry.add("room a", "go north")
        assert registry.used("room b") == frozenset()
        assert registry.used("  room a  ") == {"go north"}


class TestBuildTextContext:
    def test_window_and_reward_folding(self):
        params = DoraParams(system_prompt="sys")
        history = [
            (f"obs{k}", f"act{k}", 0.5 if k == 1 else 0.0) for k in range(HISTORY_WINDOW + 1)
        ]
        messages = build_text_context(history, "now", params)
        assert messages[0] == {"role": "system", "content": "sys"}
        # window keeps the last HISTORY_WINDOW triples
        assert len(messages) == 1 + 2 * HISTORY_WINDOW + 1
        assert messages[1]["content"] == "obs1"
        assert messages[2] == {"role": "assistant", "content": "act1"}
        assert messages[3]["content"].startswith("[reward: 0.5]")
        assert messages[-1] == {"role": "user", "content": "now"}


class TestRunEpisode:
    def keymaze_mock(self):
        candidates = ["go north", "go east", "go west", "open chest", "look"]
        return MockPolicy(
            [ScriptEntry.mode("EXPLORE"), ScriptEntry.candidates(candidates),
             ScriptEntry.greedy("look")],
            loop=True,
        )

    def test_max_steps_zero_rejected(self):
        with pytest.raises(ValueError):
            run_episode(
                self.keymaze_mock(),
                KeyMazeWorld(),
                FLAT_LAMBDA,
                PARAMS,
                max_steps=0,
                rng=np.random.default_rng(0),
            )

    def test_byte_identical_replay(self):
        def play():
            log = run_episode(
                self.keymaze_mock(),
                KeyMazeWorld(),
                FLAT_LAMBDA,
                PARAMS,
                max_steps=12,
                rng=np.random.default_rng(42),
                seed=42,
            )
            payload = {
                "steps": [record_to_dict(r) for r in log.steps],
                "rewards": log.rewards,
                "observations": log.observations,
                "terminal": log.terminal,
                "partial": log.partial,
                "score": log.score,
                "tokens": log.token_count,
            }
            return json.dumps(payload, sort_keys=True)

        assert play() == play()

    def test_history_accumulates_and_tokens_counted(self):
        log = run_episode(
            self.keymaze_mock(),
            KeyMazeWorld(),
            FLAT_LAMBDA,
            PARAMS,
            max_steps=8,
            rng=np.random.default_rng(7),
        )
        assert log.num_steps == 8
        assert len(log.observations) == 9
        assert len(log.rewards) == 8
        assert log.token_count > 0
        assert not log.terminal and not log.partial

    def test_bandit_env_concentrates_late(self):
        # Explore every step on the 5-arm bandit with scheduled lambda in
        # [0, 40]: candidate scores are fixed by scripted logprobs that favor
        # the best arm, so early steps spread across arms and late steps
        # concentrate on it.
        instance = make_hard_instance(5, 0.2, 200, seed=5)
        actions = [press_action(a) for a in range(5)]
        rescores = {}
        low = [-1.5, -1.2, -2.0, -2.5]
        others = iter(low)
        for arm, action in enumerate(actions):
            rescores[action] = [-0.1] if arm == instance.best_arm else [next(others)]
        mock = MockPolicy(
            [ScriptEntry.mode("EXPLORE"), ScriptEntry.candidates(actions)],
            rescores=rescores,
            loop=True,
        )
        env = BanditEnv(instance, seed=5)
        run_episode(
            mock,
            env,
            ScheduledLambda(LambdaSchedule(0.0, 40.0, 5.0, 200)),
            make_params_for_bandit(),
            max_steps=200,
            rng=np.random.default_rng(5),
            context_builder=make_mab_context_builder(instance),
            seed=5,
        )
        run = env.to_run()
        pulls = run.pulls
        first = sum(1 for a in pulls[:50] if a == instance.best_arm) / 50
        last = sum(1 for a in pulls[-50:] if a == instance.best_arm) / 50
        assert last > first
        assert len({a for a in pulls[:50]}) >= 4  # early diversity

    def test_backend_error_on_every_step_fails_the_episode(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BackendError, match="^backend failed on all 4 steps: synthetic"):
            run_episode(FailingBackend(), KeyMazeWorld(), FLAT_LAMBDA, PARAMS, max_steps=4, rng=rng)


class RecordingMock(MockPolicy):
    """A mock that keeps every request it answers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


class TestTemperatureStep:
    PARAMS = DoraParams(system_prompt="play the game")

    @staticmethod
    def tau(t: int) -> float:
        return 1.0 / (t + 1)

    def play(self, replies, max_steps):
        mock = RecordingMock([ScriptEntry.greedy(text) for text in replies])
        step = temperature_step(mock, self.PARAMS, self.tau)
        log = drive_episode(mock, KeyMazeWorld(), step, max_steps, seed=3)
        return log, mock.requests

    def test_backend_sees_the_dora_context(self):
        # "open chest" is rewarded, so the next context carries a reward line;
        # 25 steps fill the 20-turn window.
        replies = ["go north", "open chest"] + ["look"] * 23
        log, requests = self.play(replies, 25)
        assert log.num_steps == len(requests) == 25
        assert log.rewards[1] == 0.25
        for t, request in enumerate(requests):
            history = [
                (log.observations[k], log.steps[k].chosen_action, log.rewards[k])
                for k in range(t)
            ]
            expected = build_text_context(history, log.observations[t], self.PARAMS)
            assert request.context == tuple(expected)
            assert request.temperature == self.tau(t)
            assert request.prompt_kind is PromptKind.GREEDY_ACTION
        assert requests[2].context[-1]["content"].startswith("[reward: 0.25]\n")
        assert len(requests[-1].context) == 1 + 2 * HISTORY_WINDOW + 1

    def test_first_action_line_is_played(self):
        log, _ = self.play(['\n- \n1. "Go North"\nlook'], 1)
        record = log.steps[0]
        assert (record.chosen_action, record.mode, record.lam, record.candidates) == (
            "go north", Mode.GREEDY, None, None
        )
        assert "storage room" in log.observations[1]

    def test_reply_without_an_action_line_steps_with_empty_action(self):
        log, _ = self.play(["\n  \n- \n"], 1)
        assert log.steps[0].chosen_action == ""
        assert log.steps[0].fallback_reason is None
        assert log.observations[1] == NOTHING_HAPPENS

    def test_backend_error_is_an_invalid_step_and_the_episode_goes_on(self):
        mock = FailsAtRequest([ScriptEntry.greedy(t) for t in ("go north", "look", "go south")], 2)
        step = temperature_step(mock, self.PARAMS, self.tau)
        log = drive_episode(mock, KeyMazeWorld(), step, 4, seed=3)
        assert mock.requests == log.num_steps == 4
        actions = [r.chosen_action for r in log.steps]
        assert actions == ["go north", INVALID_ACTION, "look", "go south"]
        assert [r.fallback_reason for r in log.steps] == [
            None, FallbackReason.BACKEND_ERROR, None, None
        ]
        assert log.steps[1].error == "synthetic failure at request 2"
        assert log.observations[2] == NOTHING_HAPPENS
        assert not log.partial

    def test_backend_error_on_every_step_fails_the_episode(self):
        backend = FailingBackend()
        step = temperature_step(backend, self.PARAMS, self.tau)
        with pytest.raises(BackendError, match="^backend failed on all 3 steps: synthetic"):
            drive_episode(backend, KeyMazeWorld(), step, 3)

    def test_env_error_ends_the_episode_partial(self):
        class FailsAtStep(KeyMazeWorld):
            calls = 0

            def step(self, action_text):
                self.calls += 1
                if self.calls == 4:
                    raise EnvError("stepped outside the contract")
                return super().step(action_text)

        mock = MockPolicy([ScriptEntry.greedy("look")], loop=True)
        step = temperature_step(mock, self.PARAMS, self.tau)
        log = drive_episode(mock, FailsAtStep(), step, 10, seed=3)
        assert (log.num_steps, len(log.rewards), len(log.observations)) == (4, 3, 4)
        assert log.partial and not log.terminal


def make_params_for_bandit() -> DoraParams:
    return DoraParams(n_candidates=5, greedy_kind=PromptKind.MAB_ANSWER)
