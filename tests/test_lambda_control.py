"""Exploration-degree selection: the exponential schedule and policy-sampled replies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dora.agent import DoraParams, FallbackReason, StepRecord, UsedActionRegistry, dora_step
from dora.lambda_control import (
    MAX_GROWTH_K,
    LambdaSchedule,
    PolicySampledLambda,
    ScheduledLambda,
    extract_lambda,
    lambda_exp,
)
from dora.policy import MockPolicy, PromptKind, ScriptEntry

MAB_SCHEDULE = LambdaSchedule(lambda_min=0.0, lambda_max=40.0, k=5.0, horizon=200)


class TestLambdaSchedule:
    def test_endpoint_exactness(self):
        assert lambda_exp(MAB_SCHEDULE, 0) == pytest.approx(0.0, abs=1e-12)
        assert lambda_exp(MAB_SCHEDULE, 200) == pytest.approx(40.0, abs=1e-12)
        shifted = LambdaSchedule(2.5, 37.0, k=3.0, horizon=77)
        assert lambda_exp(shifted, 0) == pytest.approx(2.5, abs=1e-12)
        assert lambda_exp(shifted, 77) == pytest.approx(37.0, abs=1e-12)

    def test_midpoint_value(self):
        # frozen from direct evaluation of the ramp at t=100 with k=5, T=200
        assert lambda_exp(MAB_SCHEDULE, 100) == pytest.approx(3.034327200849742, abs=1e-9)

    def test_strictly_increasing(self):
        values = [lambda_exp(MAB_SCHEDULE, t) for t in range(201)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_slower_than_linear_early(self):
        midpoint = lambda_exp(MAB_SCHEDULE, 100)
        assert midpoint < 0.0 + (40.0 - 0.0) / 2

    def test_range_containment(self):
        for t in range(0, 201, 7):
            value = lambda_exp(MAB_SCHEDULE, t)
            assert 0.0 <= value <= 40.0

    def test_constant_schedule(self):
        flat = LambdaSchedule(0.0, 0.0, k=5.0, horizon=10)
        assert all(lambda_exp(flat, t) == 0.0 for t in range(11))

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_exp(MAB_SCHEDULE, -1)
        with pytest.raises(ValueError):
            lambda_exp(MAB_SCHEDULE, 201)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LambdaSchedule(3.0, 1.0)
        with pytest.raises(ValueError):
            LambdaSchedule(0.0, 40.0, k=0.0)
        with pytest.raises(ValueError):
            LambdaSchedule(0.0, 40.0, k=5.0, horizon=0)
        with pytest.raises(ValueError):
            LambdaSchedule(-1.0, 40.0)

    @pytest.mark.parametrize("k", [800.0, math.nextafter(MAX_GROWTH_K, math.inf), math.inf])
    def test_growth_past_the_float_range_is_rejected(self, k):
        with pytest.raises(ValueError, match="growth constant k"):
            LambdaSchedule(0.0, 40.0, k=k)

    def test_growth_at_the_bound_ramps_finitely(self):
        steep = LambdaSchedule(0.0, 40.0, k=MAX_GROWTH_K, horizon=200)
        ramp = [lambda_exp(steep, t) for t in range(201)]
        assert all(math.isfinite(lam) for lam in ramp)
        assert ramp[0] == 0.0 and ramp[-1] == 40.0


class TestParseLambdaReply:
    """A policy-sampled lambda reply as an explore step resolves it: parsed by
    ``extract_lambda``, clamped into the source's bounds, and replaced by the
    midpoint of the bounds when it still does not parse after the retry."""

    BOUNDS = (0.0, 40.0)

    @staticmethod
    def explore(raw: str, bounds=BOUNDS) -> tuple[StepRecord, MockPolicy]:
        mock = MockPolicy(
            [
                ScriptEntry.mode("EXPLORE"),
                ScriptEntry(PromptKind.LAMBDA_DECISION, raw),
                ScriptEntry.candidates(["go north", "look"]),
            ],
            loop=True,
        )
        record = dora_step(
            mock,
            PolicySampledLambda(bounds),
            UsedActionRegistry(),
            [],
            "a room",
            DoraParams(system_prompt="play"),
            np.random.default_rng(0),
        )
        return record, mock

    def test_strict_json(self):
        record, _ = self.explore('{"lambda":0.5}')
        assert (record.lam, record.fallback_reason) == (0.5, None)

    def test_clamps_to_upper_bound(self):
        assert self.explore('{"lambda":99}')[0].lam == 40.0

    def test_clamps_to_lower_bound(self):
        assert self.explore('{"lambda":-3}', (1.0, 40.0))[0].lam == 1.0

    def test_prose_falls_back(self):
        record, mock = self.explore("I choose lambda 3")
        assert record.lam == 20.0
        assert record.fallback_reason is FallbackReason.PARSE_FAILURE
        assert mock.calls.count(PromptKind.LAMBDA_DECISION) == 2

    def test_whitespace_and_embedded_object(self):
        assert self.explore('  {"lambda": 2.25}\n')[0].lam == 2.25
        assert self.explore('sure: {"lambda": 7} ok?')[0].lam == 7.0

    def test_wrong_types_fall_back(self):
        for raw in ('{"lambda":"high"}', '{"lambda":true}', '{"mode":"EXPLORE"}', ""):
            record, _ = self.explore(raw)
            assert record.lam == 20.0, raw
            assert record.fallback_reason is FallbackReason.PARSE_FAILURE, raw

    @pytest.mark.parametrize(
        "raw", ["[" * 100_000, '{"lambda": ' + "[" * 100_000 + "}"], ids=["bare", "in-object"]
    )
    def test_reply_nested_too_deep_falls_back(self, raw):
        record, mock = self.explore(raw)
        assert (record.lam, record.fallback_reason) == (20.0, FallbackReason.PARSE_FAILURE)
        assert mock.calls.count(PromptKind.LAMBDA_DECISION) == 2

    def test_never_out_of_bounds(self):
        junk = [
            '{"lambda": 1e12}',
            '{"lambda": -1e12}',
            '{"lambda": NaN}',
            "lambda",
            "{",
            "[1,2]",
            '{"lambda": null}',
            '{"lambda": %s}' % ("9" * 400),
        ]
        for raw in junk:
            assert 0.0 <= self.explore(raw)[0].lam <= 40.0, raw


class TestExtractLambda:
    def test_plain_number(self):
        assert extract_lambda('{"lambda": 12.5}') == 12.5
        assert extract_lambda('{"lambda": -1e12}') == -1e12  # clamping is the agent's job

    def test_integer_accepted(self):
        assert extract_lambda('{"lambda": 3}') == 3.0

    def test_failures_return_none(self):
        assert extract_lambda("nope") is None
        assert extract_lambda('{"lambda": "x"}') is None
        assert extract_lambda('{"lambda": Infinity}') is None
        assert extract_lambda('{"lambda": NaN}') is None
        assert extract_lambda('{"lambda": true}') is None
        assert extract_lambda('{"lambda": %s}' % ("9" * 400)) is None
        assert extract_lambda("I choose lambda 3") is None


class TestLambdaSources:
    def test_fallback_defaults_to_midpoint(self):
        source = PolicySampledLambda(bounds=(0.0, 40.0))
        assert source.fallback_value == 20.0

    def test_unordered_bounds_rejected(self):
        with pytest.raises(ValueError):
            PolicySampledLambda(bounds=(5.0, 1.0))

    def test_scheduled_wraps_schedule(self):
        source = ScheduledLambda(MAB_SCHEDULE)
        assert source.schedule.lambda_max == 40.0
        assert math.isclose(lambda_exp(source.schedule, 200), 40.0)
