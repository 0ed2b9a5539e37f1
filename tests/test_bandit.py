"""Bandit lab: hard instance, classical policies, metrics, envelope parsing."""

from __future__ import annotations

import re

import numpy as np
import pytest

from dora import bandit, harness, prompts
from dora.agent import DoraParams, drive_episode, temperature_step
from dora.bandit import (
    ARM_COLORS,
    INVALID_PULL,
    BanditEnv,
    BanditRun,
    EpsilonGreedyPolicy,
    GreedyPolicy,
    ScheduledSoftmaxAgent,
    ThompsonPolicy,
    UcbPolicy,
    answer_action,
    arm_from_action,
    compute_metrics,
    decaying_temperature,
    make_hard_instance,
    make_mab_context_builder,
    parse_answer_envelope,
    press_action,
    run_bandit,
)
from dora.lambda_control import LambdaSchedule
from dora.policy import BackendError, MockPolicy, PromptKind, ScriptEntry, ScriptExhaustedError
from dora.textenv import EnvError


class TestMakeHardInstance:
    def test_standard_instance(self):
        inst = make_hard_instance(5, 0.2, 200, seed=0)
        assert inst.arm_means[inst.best_arm] == pytest.approx(0.6)
        others = [m for a, m in enumerate(inst.arm_means) if a != inst.best_arm]
        assert all(m == pytest.approx(0.4) for m in others)
        assert inst.gap == pytest.approx(0.2)

    def test_extreme_gap(self):
        inst = make_hard_instance(2, 0.99, 100, seed=1)
        assert sorted(inst.arm_means) == [pytest.approx(0.005), pytest.approx(0.995)]

    def test_seed_determinism(self):
        a = make_hard_instance(5, 0.2, 200, seed=7)
        b = make_hard_instance(5, 0.2, 200, seed=7)
        assert a.best_arm == b.best_arm
        assert a.arm_means == b.arm_means

    def test_best_arm_varies_across_seeds(self):
        arms = {make_hard_instance(5, 0.2, 200, seed=s).best_arm for s in range(40)}
        assert len(arms) == 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_hard_instance(1, 0.2, 200, seed=0)
        with pytest.raises(ValueError):
            make_hard_instance(5, 0.0, 200, seed=0)
        with pytest.raises(ValueError):
            make_hard_instance(5, 1.0, 200, seed=0)


class TestUcbPolicy:
    def test_initial_round_robin(self):
        policy = UcbPolicy()
        policy.reset(5)
        rng = np.random.default_rng(0)
        for t in range(5):
            arm = policy.select(t, rng)
            assert arm == t
            policy.update(arm, 0)

    def test_hand_applied_rule_after_sweep(self):
        policy = UcbPolicy()
        policy.reset(5)
        for arm, reward in enumerate([1, 0, 0, 0, 0]):
            policy.update(arm, reward)
        # scores: 1 + 1 = 2 for arm 0, 0 + 1 = 1 elsewhere
        assert policy.select(5, np.random.default_rng(0)) == 0

    def test_all_equal_ties_to_lowest_index(self):
        policy = UcbPolicy()
        policy.reset(4)
        for arm in range(4):
            policy.update(arm, 1)
        assert policy.select(4, np.random.default_rng(0)) == 0


class TestThompsonPolicy:
    def test_fresh_posteriors_are_symmetric(self):
        policy = ThompsonPolicy()
        rng = np.random.default_rng(77)
        counts = np.zeros(5)
        for _ in range(10000):
            policy.reset(5)
            counts[policy.select(0, rng)] += 1
        assert np.all(np.abs(counts / 10000 - 0.2) <= 0.02)

    def test_lopsided_posteriors(self):
        policy = ThompsonPolicy()
        policy.reset(2)
        policy.alpha = np.array([100.0, 1.0])
        policy.beta = np.array([1.0, 100.0])
        rng = np.random.default_rng(3)
        picks = sum(policy.select(0, rng) == 0 for _ in range(10000))
        assert picks / 10000 > 0.99

    def test_update_increments_exactly_one(self):
        policy = ThompsonPolicy()
        policy.reset(5)
        policy.update(2, 1)
        assert policy.alpha[2] == 2.0 and policy.beta[2] == 1.0
        policy.update(2, 0)
        assert policy.alpha[2] == 2.0 and policy.beta[2] == 2.0

    def test_posterior_bookkeeping_along_a_run(self):
        instance = make_hard_instance(5, 0.2, 200, seed=9)
        policy = ThompsonPolicy()
        rng = np.random.default_rng([9, 1])
        policy.reset(5)
        counts = [0] * 5
        for t in range(200):
            arm = policy.select(t, rng)
            reward = 1 if rng.random() < instance.arm_means[arm] else 0
            policy.update(arm, reward)
            counts[arm] += 1
            assert [a + b - 2 for a, b in zip(policy.alpha, policy.beta)] == counts


class TestGreedyPolicy:
    def test_sweep_then_argmax_lock(self):
        policy = GreedyPolicy()
        policy.reset(5)
        rng = np.random.default_rng(0)
        for arm, reward in enumerate([0, 1, 0, 0, 0]):
            assert policy.select(arm, rng) == arm
            policy.update(arm, reward)
        # absent new evidence, arm 1 is selected forever
        for t in range(5, 25):
            arm = policy.select(t, rng)
            assert arm == 1
            policy.update(arm, 1)


class TestEpsilonGreedyPolicy:
    def test_decay_after_updates(self):
        policy = EpsilonGreedyPolicy()
        policy.reset(5)
        for _ in range(10):
            policy.update(0, 0)
        assert policy.epsilon == pytest.approx(0.1 * 0.99**10, abs=1e-12)
        assert policy.epsilon == pytest.approx(0.09043820750088044, abs=1e-12)

    def test_no_initial_sweep(self):
        # With unpulled means treated as zero and epsilon inactive, the
        # argmax stays on the lowest index until rewards differentiate arms.
        policy = EpsilonGreedyPolicy()
        policy.reset(5)
        policy.epsilon = 0.0
        rng = np.random.default_rng(0)
        assert policy.select(0, rng) == 0
        policy.update(0, 0)
        assert policy.select(1, rng) == 0

    def test_exploits_known_best(self):
        policy = EpsilonGreedyPolicy()
        policy.reset(3)
        policy.epsilon = 0.0
        policy.update(2, 1)
        assert policy.select(1, np.random.default_rng(1)) == 2


class TestRunBanditAndMetrics:
    def test_determinism(self):
        instance = make_hard_instance(5, 0.2, 200, seed=11)
        a = run_bandit(UcbPolicy(), instance, 11)
        b = run_bandit(UcbPolicy(), instance, 11)
        assert a.pulls == b.pulls and a.rewards == b.rewards

    def test_optimal_play(self):
        instance = make_hard_instance(5, 0.2, 200, seed=17)

        class AlwaysBest:
            def reset(self, num_arms):
                pass

            def select(self, t, rng):
                return instance.best_arm

            def update(self, arm, reward):
                pass

        metrics = compute_metrics(run_bandit(AlwaysBest(), instance, 17), instance)
        assert metrics.cumulative_regret == pytest.approx(0.0)
        assert metrics.best_arm_fraction == 1.0
        assert metrics.suffix_failure is False
        assert metrics.invalid_count == 0

    def test_never_best_play(self):
        instance = make_hard_instance(5, 0.2, 200, seed=19)
        worst = (instance.best_arm + 1) % 5

        class NeverBest:
            def reset(self, num_arms):
                pass

            def select(self, t, rng):
                return worst

            def update(self, arm, reward):
                pass

        metrics = compute_metrics(run_bandit(NeverBest(), instance, 19), instance)
        assert metrics.cumulative_regret == pytest.approx(40.0)  # 200 * 0.2
        assert metrics.suffix_failure is True
        assert metrics.best_arm_fraction == 0.0

    @pytest.mark.parametrize("bad_arm", [INVALID_PULL, 5])
    def test_out_of_range_arm_is_a_value_error(self, bad_arm):
        # -1 would index the last arm's mean, and 5 past a 5-arm tuple.
        instance = make_hard_instance(5, 0.2, 200, seed=29)

        class StraysAtStep7:
            def reset(self, num_arms):
                pass

            def select(self, t, rng):
                return bad_arm if t == 7 else 0

            def update(self, arm, reward):
                pass

        with pytest.raises(ValueError, match=rf"^step 7: .* arm {bad_arm}, outside \[0, 5\)$"):
            run_bandit(StraysAtStep7(), instance, 29)

    def test_agent_index_error_propagates(self):
        instance = make_hard_instance(5, 0.2, 200, seed=31)

        class Broken:
            def reset(self, num_arms):
                pass

            def select(self, t, rng):
                return [][t]

            def update(self, arm, reward):
                pass

        with pytest.raises(IndexError):
            run_bandit(Broken(), instance, 31)

    def test_regret_identity_with_invalid_steps(self):
        instance = make_hard_instance(5, 0.2, 200, seed=23)
        pulls = []
        rewards = []
        suboptimal = (instance.best_arm + 2) % 5
        for t in range(200):
            if t % 10 == 0:
                pulls.append(INVALID_PULL)
                rewards.append(0)
            elif t % 2 == 0:
                pulls.append(instance.best_arm)
                rewards.append(1)
            else:
                pulls.append(suboptimal)
                rewards.append(0)
        run = BanditRun(pulls, rewards)
        metrics = compute_metrics(run, instance)
        n_subopt = sum(1 for a in pulls if a not in (INVALID_PULL, instance.best_arm))
        expected = instance.gap * (n_subopt + run.invalid_count)
        assert metrics.cumulative_regret == pytest.approx(expected)
        # consistency: best + suboptimal + invalid add up to the horizon
        assert (
            metrics.best_arm_fraction * 200 + n_subopt + metrics.invalid_count
            == pytest.approx(200)
        )

    def test_suffix_failure_boundary(self):
        instance = make_hard_instance(5, 0.2, 200, seed=29)
        other = (instance.best_arm + 1) % 5
        # best arm pulled exactly once, at step index 100 (first of the second half)
        pulls = [other] * 200
        pulls[100] = instance.best_arm
        assert compute_metrics(BanditRun(pulls, [0] * 200), instance).suffix_failure is False
        pulls[100] = other
        pulls[99] = instance.best_arm  # last step of the first half only
        assert compute_metrics(BanditRun(pulls, [0] * 200), instance).suffix_failure is True


class TestAnswerEnvelope:
    def test_exact_match(self):
        assert parse_answer_envelope("<Answer>I will press red button</Answer>") == 2

    def test_all_colors(self):
        for arm, color in enumerate(ARM_COLORS):
            assert parse_answer_envelope(f"<Answer>I will press {color} button</Answer>") == arm

    def test_color_case_insensitive(self):
        assert parse_answer_envelope("<Answer>I will press BLUE button</Answer>") == 0
        assert parse_answer_envelope("<Answer>I will press Purple button</Answer>") == 4

    def test_surrounding_whitespace_tolerated(self):
        assert parse_answer_envelope("  <Answer>I will press green button</Answer>\n") == 1

    def test_everything_else_invalid(self):
        bad = [
            "<answer>I will press red button</answer>",  # envelope case matters
            "<Answer>i will press red button</Answer>",  # sentence case matters
            "<Answer>I will press teal button</Answer>",  # unknown color
            "<Answer>I will press red button</Answer> ok",  # trailing prose
            "I will press red button",
            "",
        ]
        for text in bad:
            assert parse_answer_envelope(text) is None

    def test_arm_from_action_accepts_normalized_forms(self):
        assert arm_from_action("press red button") == 2
        assert arm_from_action("<answer>i will press yellow button</answer>") == 3
        assert arm_from_action("<Answer>I will press blue button</Answer>") == 0
        assert arm_from_action("open door") is None

    def test_press_action_round_trip(self):
        for arm in range(5):
            assert arm_from_action(press_action(arm)) == arm

    def test_patterns_are_built_from_the_one_list_of_colors(self):
        # The alternations spelled out by hand before they were built from ARM_COLORS.
        assert bandit._ANSWER_RE.pattern == (
            r"^\s*<Answer>I will press ((?i:blue|green|red|yellow|purple)) button</Answer>\s*$"
        )
        assert bandit._ANSWER_RE.flags == re.compile("").flags
        assert bandit._LOOSE_PRESS_RE.pattern == (
            r"\bpress\s+(blue|green|red|yellow|purple)\s+button\b"
        )
        assert bandit._LOOSE_PRESS_RE.flags == re.compile("", re.IGNORECASE).flags
        assert ARM_COLORS is harness.ARM_COLORS is prompts.ARM_COLORS


class FailingOnce(MockPolicy):
    """A mock whose ``fail_at``-th request raises a backend error."""

    def __init__(self, entries, fail_at: int) -> None:
        super().__init__(entries)
        self.fail_at = fail_at

    def complete(self, request):
        if len(self.calls) + 1 == self.fail_at:
            self.calls.append(request.prompt_kind)
            raise BackendError("connection reset")
        return super().complete(request)


def play_answers(backend, num_arms: int, horizon: int, seed: int, temperature=lambda t: 0.0):
    """One bandit episode of the temperature baseline; returns (env, log)."""
    instance = make_hard_instance(num_arms, 0.2, horizon, seed=seed)
    env = BanditEnv(instance, seed)
    params = DoraParams(greedy_kind=PromptKind.MAB_ANSWER)
    build = make_mab_context_builder(instance)
    step = temperature_step(backend, params, temperature, build, answer_action)
    return env, drive_episode(backend, env, step, horizon, seed)


class TestAnswerStep:
    def test_valid_answers_drive_pulls(self):
        env, log = play_answers(MockPolicy([ScriptEntry.answer("red")] * 3), 5, 3, 31)
        run = env.to_run()
        assert run.pulls == [2, 2, 2]
        assert run.invalid_count == 0
        assert log.terminal and [r.chosen_action for r in log.steps] == ["press red button"] * 3

    def test_unparseable_reply_is_invalid_pull(self):
        entries = [
            ScriptEntry.answer("red"),
            ScriptEntry(PromptKind.MAB_ANSWER, "I refuse to answer"),
            ScriptEntry.answer("blue"),
        ]
        env, log = play_answers(MockPolicy(entries), 5, 3, 37)
        run = env.to_run()
        assert run.pulls[1] == INVALID_PULL
        assert run.rewards[1] == 0
        assert log.steps[1].chosen_action == ""
        # the invalid pull left no trace in the summarized statistics
        assert env.counts == [1, 0, 1, 0, 0]
        assert "you have taken 2 actions" in log.observations[2]

    def test_only_the_strict_envelope_is_an_answer(self):
        # a lower-case envelope would pass arm_from_action, but not the reply contract
        entries = [ScriptEntry(PromptKind.MAB_ANSWER, "<answer>i will press red button</answer>")]
        env, _ = play_answers(MockPolicy(entries), 5, 1, 39)
        assert env.to_run().pulls == [INVALID_PULL]

    def test_arm_past_num_arms_is_invalid_pull(self):
        entries = [ScriptEntry.answer("purple"), ScriptEntry.answer("green")]
        env, _ = play_answers(MockPolicy(entries), 3, 2, 41)
        assert env.to_run().pulls == [INVALID_PULL, 1]
        assert env.counts == [0, 1, 0]

    def test_backend_error_is_one_invalid_pull(self):
        backend = FailingOnce([ScriptEntry.answer("green")] * 3, fail_at=2)
        env, log = play_answers(backend, 5, 4, 43)
        run = env.to_run()
        assert run.pulls == [1, INVALID_PULL, 1, 1]
        assert run.rewards[1] == 0
        assert log.terminal and not log.partial
        assert env.counts == [0, 3, 0, 0, 0]

    def test_other_errors_propagate(self):
        with pytest.raises(ScriptExhaustedError):
            play_answers(MockPolicy([ScriptEntry.answer("red")]), 5, 2, 47)

    def test_request_carries_summary_and_temperature(self):
        seen = []

        class Recording(MockPolicy):
            def complete(self, request):
                seen.append(request)
                return super().complete(request)

        backend = Recording([ScriptEntry.answer("red")] * 2)
        play_answers(backend, 5, 2, 53, temperature=lambda t: 0.5 + t)
        assert [r.temperature for r in seen] == [0.5, 1.5]
        assert {r.prompt_kind for r in seen} == {PromptKind.MAB_ANSWER}
        assert [r.context[0]["role"] for r in seen] == ["system", "system"]
        assert "you have taken 0 actions" in seen[0].context[1]["content"]
        assert "you have taken 1 actions" in seen[1].context[1]["content"]

    def test_decaying_temperature_schedule(self):
        tau = decaying_temperature(200)
        assert tau(0) == pytest.approx(2.0, abs=1e-12)
        assert tau(200) == pytest.approx(0.0, abs=1e-12)
        values = [tau(t) for t in range(0, 201, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestScheduledSoftmaxAgent:
    def test_first_pick_uniformish_and_late_picks_concentrate(self):
        instance = make_hard_instance(5, 0.2, 200, seed=41)
        agent = ScheduledSoftmaxAgent(LambdaSchedule(0.0, 40.0, 5.0, 200))
        run = run_bandit(agent, instance, 41)
        first = sum(1 for a in run.pulls[:50] if a == instance.best_arm) / 50
        last = sum(1 for a in run.pulls[-50:] if a == instance.best_arm) / 50
        assert last > first


class TestBanditEnv:
    def test_observation_renders_history(self):
        instance = make_hard_instance(5, 0.2, 10, seed=43)
        env = BanditEnv(instance, seed=43)
        obs = env.reset()
        assert "you have taken 0 actions" in obs
        assert "- Blue button: pressed 0 times" in obs
        step = env.step("press blue button")
        assert "you have taken 1 actions" in step.observation
        assert step.valid_action is True

    def test_three_arm_prompts_name_only_its_three_colors(self):
        instance = make_hard_instance(3, 0.2, 10, seed=43)
        system = make_mab_context_builder(instance)((), "", DoraParams())[0]["content"]
        observation = BanditEnv(instance, seed=43).reset()
        assert "interacting with 3 buttons labeled {blue, green, red}." in system
        for text in (system, observation):
            assert text.endswith("where COLOR is one of {blue, green, red}.\n")
            assert "yellow" not in text and "purple" not in text

    def test_invalid_action_counts_against_horizon(self):
        instance = make_hard_instance(5, 0.2, 3, seed=47)
        env = BanditEnv(instance, seed=47)
        env.reset()
        step = env.step("dance wildly")
        assert step.valid_action is False
        assert step.reward == 0.0
        run_after = [env.step(press_action(0)), env.step(press_action(1))]
        assert run_after[-1].terminal is True
        run = env.to_run()
        assert run.pulls[0] == INVALID_PULL
        assert run.invalid_count == 1

    def test_reward_stream_matches_run_bandit(self):
        # The same arms pulled through either interface see the same rewards.
        instance = make_hard_instance(5, 0.2, 20, seed=53)

        class FixedArm:
            def reset(self, num_arms):
                pass

            def select(self, t, rng):
                return 2

            def update(self, arm, reward):
                pass

        direct = run_bandit(FixedArm(), instance, 53)
        env = BanditEnv(instance, seed=53)
        env.reset()
        for _ in range(20):
            env.step(press_action(2))
        assert env.to_run().rewards == direct.rewards

    def test_score_is_reward_total_over_horizon_at_every_step(self):
        instance = make_hard_instance(5, 0.2, 40, seed=57)
        env = BanditEnv(instance, seed=57)
        for _ in range(2):  # a reset starts the total from zero again
            env.reset()
            for t in range(40):
                action = "dance" if t % 7 == 3 else press_action(t % 5)
                step = env.step(action)
                assert step.score == sum(env.rewards) / 40
            assert step.score == env.to_run().rewards.count(1) / 40

    def test_step_past_horizon_raises(self):
        instance = make_hard_instance(5, 0.2, 2, seed=59)
        env = BanditEnv(instance, seed=59)
        env.reset()
        env.step(press_action(0))
        env.step(press_action(1))
        with pytest.raises(EnvError):
            env.step(press_action(2))

    def test_step_before_reset_raises(self):
        env = BanditEnv(make_hard_instance(5, 0.2, 2, seed=61), seed=61)
        with pytest.raises(EnvError):
            env.step(press_action(0))
