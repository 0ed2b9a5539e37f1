"""Policy layer: normalization, reply parsing, candidate assembly, the mock."""

from __future__ import annotations

import json

import pytest
import requests

from dora import policy
from dora.policy import (
    BackendError,
    MockPolicy,
    MockScriptError,
    Mode,
    PolicyReply,
    PolicyRequest,
    PromptKind,
    RemotePolicy,
    ScriptEntry,
    ScriptExhaustedError,
    decide_mode,
    first_action,
    generate_candidates,
    greedy_action,
    normalize_action,
    parse_mode_reply,
)

CTX = ({"role": "user", "content": "you are in a room"},)


class TestNormalizeAction:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("go north", "go north"),
            ("  Go  North  ", "go north"),
            ("1. go north", "go north"),
            ("2) open door", "open door"),
            ("(3] take key", "take key"),
            ("- look around", "look around"),
            ("* unlock door", "unlock door"),
            ('"go west"', "go west"),
            ("'press red button'", "press red button"),
            ("`help`", "help"),
            ("  12.   'Open   Chest'  ", "open chest"),
            ("3.", ""),
            ("", ""),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_action(raw) == expected

    def test_idempotent(self):
        samples = [
            "1. Go North",
            '" - 2) TAKE the key "',
            "look",
            "préss Bütton",
            "go  \t north",
        ]
        for raw in samples:
            once = normalize_action(raw)
            assert normalize_action(once) == once

    def test_numbers_inside_actions_survive(self):
        assert normalize_action("take 2 apples") == "take 2 apples"


class TestParseModeReply:
    def test_explore_exact(self):
        assert parse_mode_reply('{"mode":"EXPLORE"}') is Mode.EXPLORE

    def test_greedy_exact(self):
        assert parse_mode_reply('{"mode":"GREEDY"}') is Mode.GREEDY

    def test_whitespace_tolerant_envelope(self):
        assert parse_mode_reply('   {"mode": "EXPLORE"}  \n') is Mode.EXPLORE

    def test_case_sensitive_value(self):
        assert parse_mode_reply('{"mode":"explore"}') is Mode.GREEDY

    def test_garbage_defaults_to_greedy(self):
        assert parse_mode_reply("let me think…") is Mode.GREEDY
        assert parse_mode_reply("") is Mode.GREEDY
        assert parse_mode_reply('{"mode": 3}') is Mode.GREEDY


class TestDecideMode:
    def test_round_trip(self):
        mock = MockPolicy([ScriptEntry.mode("EXPLORE"), ScriptEntry.mode("GREEDY")])
        assert decide_mode(mock, CTX) is Mode.EXPLORE
        assert decide_mode(mock, CTX) is Mode.GREEDY
        assert mock.calls.count(PromptKind.MODE_DECISION) == 2

    def test_appends_instruction_to_context(self):
        seen = {}

        class Spy(MockPolicy):
            def complete(self, request):
                seen["context"] = request.context
                return super().complete(request)

        spy = Spy([ScriptEntry.mode("GREEDY")])
        decide_mode(spy, CTX)
        assert seen["context"][-1]["role"] == "user"
        assert "GREEDY or EXPLORE" in seen["context"][-1]["content"]


class TestGenerateCandidates:
    def test_line_split_preserves_order(self):
        mock = MockPolicy([ScriptEntry.candidates(["go north", "open door", "take key"])])
        cands = generate_candidates(mock, CTX, n_candidates=20)
        assert [c.text for c in cands] == ["go north", "open door", "take key"]

    def test_dedup_after_normalization(self):
        mock = MockPolicy([ScriptEntry.candidates(["1. go north", "2. go north"])])
        cands = generate_candidates(mock, CTX, n_candidates=20)
        assert [c.text for c in cands] == ["go north"]

    def test_truncates_to_n(self):
        lines = [f"action {i}" for i in range(25)]
        mock = MockPolicy([ScriptEntry.candidates(lines)])
        cands = generate_candidates(mock, CTX, n_candidates=20)
        assert len(cands) == 20
        assert cands[0].text == "action 0"
        assert cands[-1].text == "action 19"

    def test_empty_reply_gives_empty_list(self):
        mock = MockPolicy([ScriptEntry.candidates(["", "   ", "2."])])
        assert generate_candidates(mock, CTX, n_candidates=5) == []

    def test_never_empty_actions(self):
        mock = MockPolicy([ScriptEntry.candidates(["go", "", "look", "  "])])
        cands = generate_candidates(mock, CTX, n_candidates=10)
        assert all(c.text for c in cands)

    def test_flat_logprobs_without_source(self):
        mock = MockPolicy([ScriptEntry.candidates(["go north", "look"])])
        cands = generate_candidates(mock, CTX, n_candidates=5)
        assert all(c.token_logprobs == (0.0,) for c in cands)

    def test_rescoring_path(self):
        mock = MockPolicy(
            [ScriptEntry.candidates(["Go North", "look"])],
            rescores={"go north": [-0.1, -0.3], "look": [-0.9]},
        )
        cands = generate_candidates(mock, CTX, n_candidates=5)
        assert cands[0].token_logprobs == (-0.1, -0.3)
        assert cands[1].token_logprobs == (-0.9,)
        assert mock.rescore_calls == 2

    def test_slicing_path_excludes_separators_and_bullets(self):
        # Token stream reproduces the text exactly; newline and bullet tokens
        # must not contribute to any line's log-probabilities.
        tokens = [
            ("- ", -9.0),
            ("go", -0.1),
            (" north", -0.2),
            ("\n", -9.0),
            ("open", -0.3),
            (" door", -0.4),
        ]
        entry = ScriptEntry.candidates(["- go north", "open door"], token_logprobs=tokens)
        mock = MockPolicy([entry])
        cands = generate_candidates(mock, CTX, n_candidates=5)
        assert cands[0].text == "go north"
        assert cands[0].token_logprobs == (-0.1, -0.2)
        assert cands[1].token_logprobs == (-0.3, -0.4)

    def test_slicing_falls_back_when_tokens_misaligned(self):
        entry = ScriptEntry.candidates(
            ["go north", "open door"], token_logprobs=[("completely", -0.5), ("off", -0.5)]
        )
        mock = MockPolicy([entry])
        cands = generate_candidates(mock, CTX, n_candidates=5)
        assert all(c.token_logprobs == (0.0,) for c in cands)

    def test_invalid_n(self):
        mock = MockPolicy([])
        with pytest.raises(ValueError):
            generate_candidates(mock, CTX, n_candidates=0)

    @pytest.mark.parametrize("bad", [float("-inf"), float("inf"), float("nan"), 0.5])
    def test_bad_sliced_logprob_is_backend_error(self, bad):
        tokens = [("go", -0.1), (" north", bad), ("\n", -0.01), ("look", -0.2)]
        entry = ScriptEntry.candidates(["go north", "look"], token_logprobs=tokens)
        with pytest.raises(BackendError):
            generate_candidates(MockPolicy([entry]), CTX, n_candidates=5)

    def test_bad_rescore_is_backend_error(self):
        mock = MockPolicy(
            [ScriptEntry.candidates(["go north", "look"])],
            rescores={"go north": [-0.1], "look": [float("-inf")]},
        )
        with pytest.raises(BackendError):
            generate_candidates(mock, CTX, n_candidates=5)


class TestGreedyAction:
    def test_mock_passthrough(self):
        mock = MockPolicy([ScriptEntry.greedy("Press Red Button")])
        assert greedy_action(mock, CTX) == "press red button"

    def test_first_non_empty_line(self):
        mock = MockPolicy([ScriptEntry.greedy("\n\n  go north\nextra")])
        assert greedy_action(mock, CTX) == "go north"

    def test_requested_at_temperature_zero(self):
        temps = []

        class Spy(MockPolicy):
            def complete(self, request):
                temps.append(request.temperature)
                return super().complete(request)

        greedy_action(Spy([ScriptEntry.greedy("look")]), CTX)
        assert temps == [0.0]

    @pytest.mark.parametrize(
        "text", ["look", "\n\n  go north\nextra", '- \n1. "Open Chest"\nlook', "", "\n  \n- \n"]
    )
    def test_parses_its_reply_with_first_action(self, text):
        mock = MockPolicy([ScriptEntry.greedy(text)])
        if first_action(text):
            assert greedy_action(mock, CTX) == first_action(text)
        else:
            with pytest.raises(BackendError, match="empty greedy action"):
                greedy_action(mock, CTX)


class TestFirstAction:
    def test_first_line_that_normalizes_to_an_action(self):
        assert first_action('\n  \n- \n1. "Open Chest"\nlook') == "open chest"

    def test_no_action_line_gives_empty_string(self):
        assert first_action("") == ""
        assert first_action("\n  \n- \n''\n") == ""


class TestMockPolicy:
    def test_replays_in_order_per_kind(self):
        mock = MockPolicy(
            [
                ScriptEntry.greedy("first"),
                ScriptEntry.mode("EXPLORE"),
                ScriptEntry.greedy("second"),
            ]
        )
        assert greedy_action(mock, CTX) == "first"
        assert decide_mode(mock, CTX) is Mode.EXPLORE
        assert greedy_action(mock, CTX) == "second"

    def test_exhaustion_raises(self):
        mock = MockPolicy([ScriptEntry.greedy("only")])
        greedy_action(mock, CTX)
        with pytest.raises(ScriptExhaustedError):
            greedy_action(mock, CTX)

    def test_empty_script_raises_immediately(self):
        mock = MockPolicy([])
        with pytest.raises(ScriptExhaustedError):
            decide_mode(mock, CTX)

    def test_loop_cycles_entries(self):
        mock = MockPolicy([ScriptEntry.greedy("a"), ScriptEntry.greedy("b")], loop=True)
        texts = [greedy_action(mock, CTX) for _ in range(5)]
        assert texts == ["a", "b", "a", "b", "a"]

    def test_token_accounting(self):
        mock = MockPolicy([ScriptEntry.greedy("go north"), ScriptEntry.greedy("look")])
        greedy_action(mock, CTX)
        greedy_action(mock, CTX)
        assert mock.tokens_used == 3  # two words + one word

    def test_from_file_round_trip(self, tmp_path):
        script = {
            "loop": True,
            "rescores": {"go north": [-0.5]},
            "entries": [
                {"kind": "mode", "text": '{"mode":"EXPLORE"}'},
                {"kind": "candidates", "text": "go north"},
                {"kind": "greedy", "text": "look"},
                {"kind": "lambda", "text": '{"lambda":1.5}'},
                {"kind": "answer", "text": "<Answer>I will press red button</Answer>"},
            ],
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        mock = MockPolicy.from_file(path)
        assert decide_mode(mock, CTX) is Mode.EXPLORE
        cands = generate_candidates(mock, CTX, 5)
        assert cands[0].token_logprobs == (-0.5,)

    def test_rescore_normalizes_a_decorated_action(self):
        mock = MockPolicy([], rescores={"press red button": [-0.2, -0.3]})
        assert mock.rescore(CTX, "  - Press RED button") == [-0.2, -0.3]
        assert mock.rescore(CTX, "press red button") == [-0.2, -0.3]
        assert mock.rescore_calls == 2

    def test_rescore_of_an_unknown_action_raises(self):
        mock = MockPolicy([], rescores={"press red button": [-0.2]})
        with pytest.raises(MockScriptError, match="'press blue button'"):
            mock.rescore(CTX, "  - Press BLUE button")
        assert mock.rescore_calls == 1

    def test_rescore_returns_a_fresh_list(self):
        mock = MockPolicy([], rescores={"look": [-0.9]})
        mock.rescore(CTX, "look").append(-1.0)
        assert mock.rescore(CTX, "look") == [-0.9]

    def test_fresh_mock_replays_from_the_start(self):
        template = MockPolicy(
            [ScriptEntry.greedy("go north"), ScriptEntry.greedy("look")],
            rescores={"go north": [-0.5], "look": [-0.9]},
        )
        first = template.fresh()
        assert greedy_action(first, CTX) == "go north"
        assert first.rescore(CTX, "go north") == [-0.5]
        second = template.fresh()
        assert (second.calls, second.rescore_calls, second.tokens_used) == ([], 0, 0)
        assert greedy_action(second, CTX) == "go north"
        assert second.rescore(CTX, "go north") == [-0.5]
        assert greedy_action(first, CTX) == "look"
        assert first.rescore(CTX, "look") == [-0.9]
        assert (first.calls, first.rescore_calls) == ([PromptKind.GREEDY_ACTION] * 2, 2)
        assert (second.calls, second.rescore_calls) == ([PromptKind.GREEDY_ACTION], 1)
        assert (first.tokens_used, second.tokens_used) == (3, 2)
        assert (template.calls, template.rescore_calls, template.tokens_used) == ([], 0, 0)

    def test_mutating_a_reply_does_not_change_later_replies(self):
        tokens = [("go", -0.1), (" north", -0.2)]
        mock = MockPolicy([ScriptEntry.candidates(["go north"], tokens)], loop=True)
        request = PolicyRequest(CTX, 0.7, PromptKind.CANDIDATE_LIST)
        reply = mock.complete(request)
        reply.token_logprobs[0] = ("stop", -9.0)
        reply.token_logprobs.append(("!", -1.0))
        assert mock.complete(request).token_logprobs == tokens
        assert mock.fresh().complete(request).token_logprobs == tokens

    def test_answer_entry_shape(self):
        entry = ScriptEntry.answer("blue")
        assert entry.text == "<Answer>I will press blue button</Answer>"
        assert entry.kind is PromptKind.MAB_ANSWER


class TestRequestReplyContracts:
    def test_empty_context_rejected(self):
        with pytest.raises(ValueError):
            PolicyRequest((), 0.0)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            PolicyRequest(CTX, -0.5)
        with pytest.raises(ValueError):
            PolicyRequest(CTX, float("nan"))

    def test_negative_token_count_rejected(self):
        with pytest.raises(ValueError):
            PolicyReply("x", None, -1)


def completion(content="go north", logprobs=None, usage=None) -> dict:
    """A chat-completion reply body with one choice."""
    return {
        "choices": [{"message": {"content": content}, "logprobs": logprobs}],
        "usage": usage,
    }


class FakeResponse:
    def __init__(
        self, status_code: int, body: dict | None = None, headers: dict | None = None
    ) -> None:
        self.status_code = status_code
        self.body = body
        self.text = json.dumps(body)
        self.headers = headers or {}

    def json(self) -> dict:
        return self.body


def not_json_response() -> requests.Response:
    response = requests.Response()
    response.status_code, response._content = 200, b"not json"
    return response


@pytest.fixture
def endpoint(monkeypatch):
    """Stub ``requests.post`` and the backoff sleep: returns the queue of
    responses to serve (an exception in it is raised), the list of calls
    made, and the list of sleeps."""
    responses, calls, sleeps = [], [], []

    def post(url, json, headers, timeout):
        calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        response = responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setattr(policy.time, "sleep", sleeps.append)
    return responses, calls, sleeps


class TestRemotePolicy:
    @pytest.mark.parametrize("api_key", ["", "sk-test"])
    def test_request_body_headers_and_timeout(self, endpoint, api_key):
        responses, calls, _ = endpoint
        responses.append(FakeResponse(200, completion()))
        backend = RemotePolicy(base_url="http://localhost:1/v1/", api_key=api_key, model="m")
        backend.complete(PolicyRequest(CTX, 0.3))
        (call,) = calls
        assert call["url"] == "http://localhost:1/v1/chat/completions"
        assert call["json"] == {
            "model": "m",
            "messages": [dict(m) for m in CTX],
            "temperature": 0.3,
            "max_tokens": 256,
            "logprobs": True,
        }
        assert call["timeout"] == 60
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = "Bearer sk-test"
        assert call["headers"] == headers

    def test_rate_limit_is_retried(self, endpoint):
        responses, calls, sleeps = endpoint
        responses += [FakeResponse(429), FakeResponse(200, completion())]
        backend = RemotePolicy(base_url="http://localhost:1", model="m")
        assert backend.complete(PolicyRequest(CTX, 0.0)).text == "go north"
        assert len(calls) == 2 and sleeps == [0.5]

    def test_rate_limit_on_every_attempt_is_a_backend_error(self, endpoint):
        responses, calls, sleeps = endpoint
        responses += [FakeResponse(429)] * 3
        with pytest.raises(BackendError, match="after 3 attempts"):
            RemotePolicy(base_url="http://localhost:1", model="m").complete(PolicyRequest(CTX, 0.0))
        assert len(calls) == 3 and sleeps == [0.5, 1.0]

    @pytest.mark.parametrize(
        "status,retry_after,wait",
        [
            (429, "3", 3.0),
            (503, "3", 3.0),
            (429, "Wed, 21 Oct 2026 07:28:00 GMT", 0.5),
            (429, "-1", 0.5),
            (429, "9999", 60.0),
            (500, "3", 0.5),
        ],
    )
    def test_retry_after_seconds_set_the_wait(self, endpoint, status, retry_after, wait):
        responses, calls, sleeps = endpoint
        responses += [
            FakeResponse(status, headers={"Retry-After": retry_after}),
            FakeResponse(200, completion()),
        ]
        backend = RemotePolicy(base_url="http://localhost:1", model="m")
        assert backend.complete(PolicyRequest(CTX, 0.0)).text == "go north"
        assert len(calls) == 2 and sleeps == [wait]

    def test_body_nested_too_deep_is_a_backend_error(self, endpoint):
        responses, calls, _ = endpoint
        for _ in range(policy.MAX_RETRIES + 1):
            response = requests.Response()
            response.status_code, response._content = 200, b"[" * 100_000
            responses.append(response)
        with pytest.raises(BackendError, match="transport failed after 3 attempts: .*recursion"):
            RemotePolicy(base_url="http://localhost:1", model="m").complete(PolicyRequest(CTX, 0.0))
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "replies,unreachable",
        [
            ([requests.ConnectionError("refused")] * 3, True),
            ([requests.ConnectTimeout(), requests.ReadTimeout(), requests.ConnectionError()], True),
            ([requests.ConnectionError(), FakeResponse(503), requests.ConnectionError()], False),
            ([FakeResponse(500)] * 3, False),
            ([FakeResponse(429)] * 3, False),
            ([not_json_response() for _ in range(3)], False),
        ],
        ids=["refused", "timeouts", "one-503", "500", "429", "bad-body"],
    )
    def test_unreachable_when_no_attempt_reached_the_endpoint(
        self, endpoint, replies, unreachable
    ):
        responses, calls, _ = endpoint
        responses += replies
        with pytest.raises(BackendError, match="after 3 attempts") as caught:
            RemotePolicy(base_url="http://localhost:1", model="m").complete(PolicyRequest(CTX, 0.0))
        assert caught.value.unreachable is unreachable
        assert len(calls) == 3

    def test_client_error_is_not_retried(self, endpoint):
        responses, calls, sleeps = endpoint
        responses.append(FakeResponse(400, {"error": "bad request"}))
        with pytest.raises(BackendError, match="400"):
            RemotePolicy(base_url="http://localhost:1", model="m").complete(PolicyRequest(CTX, 0.0))
        assert len(calls) == 1 and sleeps == []

    @pytest.mark.parametrize(
        "usage,tokens", [({"completion_tokens": 0}, 0), ({"completion_tokens": 5}, 5), (None, 3)]
    )
    def test_reported_completion_tokens_are_the_count(self, usage, tokens):
        backend = RemotePolicy(base_url="http://localhost:1", model="m")
        backend._post = lambda payload: completion(content="go north now", usage=usage)
        assert backend.complete(PolicyRequest(CTX, 0.0)).token_count == tokens
        assert backend.tokens_used == tokens

    @pytest.mark.parametrize(
        "data,field",
        [
            (completion(usage={"completion_tokens": -3}), "completion_tokens"),
            (completion(usage={"completion_tokens": "abc"}), "completion_tokens"),
            (completion(usage=[3]), "usage"),
            (completion(content=7), "content"),
            (completion(logprobs=[{"token": "go", "logprob": -0.1}]), None),
            (completion(logprobs={"content": [{"token": 5, "logprob": -0.1}]}), None),
            (completion(logprobs={"content": [{"token": "go", "logprob": 10**400}]}), None),
        ],
    )
    def test_malformed_reply_is_a_backend_error_or_has_no_logprobs(self, data, field):
        backend = RemotePolicy(base_url="http://localhost:1", model="m")
        backend._post = lambda payload: data
        request = PolicyRequest(CTX, 0.0)
        if field is not None:
            with pytest.raises(BackendError, match=field):
                backend.complete(request)
        else:
            reply = backend.complete(request)
            assert (reply.text, reply.token_logprobs, reply.token_count) == ("go north", None, 2)
