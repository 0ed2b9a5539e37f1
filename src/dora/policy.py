"""Backends that propose actions: a remote chat-completion client and a scripted mock.

The action-proposing policy is consulted for four things: the greedy/explore
mode decision, a list of candidate actions, a single greedy action, and
(optionally) an exploration parameter. All replies are plain text; this
module owns the parsing and the canonical normalization of action strings.

Candidate log-probability acquisition has two paths:

* rescoring (default when the backend supports it): each candidate's exact
  text is force-decoded under the same context and its per-token
  log-probabilities are used directly;
* slicing: the list-generation reply's own token log-probabilities are cut
  at line boundaries, excluding separator and bullet tokens.

Rescoring is preferred because sliced log-probabilities still contain list
formatting noise. A backend with neither capability yields flat candidates
(a single 0.0 log-probability each), which downstream scoring turns into a
uniform sampling distribution.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .lambda_control import extract_json_object
from .prompts import candidate_generation, mode_decision
from .scoring import CandidateAction


class BackendError(Exception):
    """Transport or protocol failure talking to the policy backend; ``unreachable``
    when no attempt reached the endpoint."""

    def __init__(self, message: str, unreachable: bool = False) -> None:
        super().__init__(message)
        self.unreachable = unreachable


class MockScriptError(RuntimeError):
    """A mock script of the wrong shape, or a mock driven outside its script."""


class ScriptExhaustedError(MockScriptError):
    """No scripted reply left for the requested prompt kind."""


class PromptKind(Enum):
    MODE_DECISION = "mode"
    CANDIDATE_LIST = "candidates"
    GREEDY_ACTION = "greedy"
    LAMBDA_DECISION = "lambda"
    MAB_ANSWER = "answer"


class Mode(Enum):
    GREEDY = "GREEDY"
    EXPLORE = "EXPLORE"


@dataclass(frozen=True)
class PolicyRequest:
    """One call to the policy: message context, sampling temperature, prompt kind."""

    context: tuple[dict, ...]
    temperature: float
    prompt_kind: PromptKind = PromptKind.GREEDY_ACTION

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(self.context))
        if len(self.context) == 0:
            raise ValueError("request context must be non-empty")
        t = float(self.temperature)
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")


@dataclass
class PolicyReply:
    """Raw completion text, optional (token, logprob) pairs, and a token count."""

    text: str
    token_logprobs: list[tuple[str, float]] | None = None
    token_count: int = 0

    def __post_init__(self) -> None:
        if self.token_count < 0:
            raise ValueError("token_count must be >= 0")


class PolicyBackend:
    """Base class for policy backends; subclasses implement :meth:`complete`.

    ``tokens_used`` is a simple cumulative completion-token counter.
    """

    tokens_used: int = 0

    def complete(self, request: PolicyRequest) -> PolicyReply:
        raise NotImplementedError

    @property
    def supports_rescoring(self) -> bool:
        return False

    def rescore(self, context: Sequence[dict], text: str) -> list[float]:
        """Per-token log-probabilities of ``text`` force-decoded under ``context``."""
        raise NotImplementedError(f"{type(self).__name__} does not support rescoring")

    def _count(self, reply: PolicyReply) -> PolicyReply:
        self.tokens_used += reply.token_count
        return reply


# --- action-string normalization ------------------------------------------

_BULLET_RE = re.compile(r"^(?:[-*>•]+|\(?\d+[.):\]])\s*")
_CLOSING_QUOTE = {'"': '"', "'": "'", "`": "`", "“": "”", "‘": "’"}


def _strip_decorations(line: str) -> tuple[str, int]:
    """Strip outer whitespace, leading bullets/numbering, and surrounding quotes.

    Returns the stripped core and its start offset in the original string,
    so callers can map the core back to token positions. Each pass strips
    whitespace, then one bullet, then one quote pair; passes repeat until a
    pass removes neither a bullet nor quotes.
    """
    core = line
    start = 0
    while True:
        stripped = core.lstrip()
        start += len(core) - len(stripped)
        core = stripped.rstrip()
        m = _BULLET_RE.match(core)
        if m:
            start += m.end()
            core = core[m.end() :]
        if len(core) >= 2 and _CLOSING_QUOTE.get(core[0]) == core[-1]:
            start += 1
            core = core[1:-1]
        elif not m:
            return core, start


def normalize_action(text: str) -> str:
    """Canonical action form: decorations stripped, lowercased, whitespace collapsed.

    Idempotent: normalizing a normalized string is a no-op.
    """
    core, _ = _strip_decorations(text)
    return " ".join(core.lower().split())


def first_action(text: str) -> str:
    """The first line of a reply that normalizes to a non-empty action, or ``""``."""
    for line in text.split("\n"):
        action = normalize_action(line)
        if action:
            return action
    return ""


# --- reply parsing ----------------------------------------------------------


def parse_mode_reply(text: str) -> Mode:
    """Strict-JSON mode parse; anything that is not exactly EXPLORE means GREEDY."""
    obj = extract_json_object(text)
    if obj is not None and obj.get("mode") == "EXPLORE":
        return Mode.EXPLORE
    return Mode.GREEDY


def decide_mode(backend: PolicyBackend, context: Sequence[dict], temperature: float = 0.2) -> Mode:
    """Ask the policy whether to act greedily or explore."""
    messages = (*context, {"role": "user", "content": mode_decision()})
    reply = backend.complete(PolicyRequest(messages, temperature, PromptKind.MODE_DECISION))
    return parse_mode_reply(reply.text)


def _sliced_line_logprobs(
    reply: PolicyReply, line_spans: list[tuple[int, int]]
) -> list[list[float]] | None:
    """Cut the reply's token log-probabilities at line boundaries.

    Tokens are assigned to the first line whose content region (the part
    that survives decoration stripping) their span overlaps, so newline and
    bullet tokens drop out. ``line_spans`` are sorted and disjoint, so one
    forward walk over the tokens meets each line in turn. Returns None when
    the token stream does not reproduce the reply text.
    """
    if not reply.token_logprobs:
        return None
    if "".join([tok for tok, _ in reply.token_logprobs]) != reply.text:
        return None
    out: list[list[float]] = [[] for _ in line_spans]
    n_lines = len(line_spans)
    line = 0
    tok_end = 0
    for token, lp in reply.token_logprobs:
        tok_start = tok_end
        tok_end += len(token)
        while line < n_lines and line_spans[line][1] <= tok_start:
            line += 1
        if line == n_lines:
            break
        if tok_end > line_spans[line][0]:
            out[line].append(lp)
    return out


def _candidate_logprobs(
    backend: PolicyBackend,
    context: Sequence[dict],
    reply: PolicyReply,
    kept: list[tuple[str, tuple[int, int]]],
) -> list[list[float]]:
    if backend.supports_rescoring:
        return [backend.rescore(context, text) for text, _ in kept]
    sliced = _sliced_line_logprobs(reply, [span for _, span in kept])
    if sliced is not None:
        return [lps if lps else [0.0] for lps in sliced]
    # No log-probability source: flat candidates, scored uniformly downstream.
    return [[0.0] for _ in kept]


def _candidate(text: str, logprobs) -> CandidateAction:
    """A candidate from backend output; log-probabilities that are not finite
    and <= 0 are a bad reply, so they raise :class:`BackendError`."""
    try:
        return CandidateAction(text, logprobs)
    except ValueError as exc:
        raise BackendError(f"policy returned bad log-probabilities for {text!r}: {exc}") from exc


def generate_candidates(
    backend: PolicyBackend,
    context: Sequence[dict],
    n_candidates: int = 20,
    temperature: float = 0.7,
) -> list[CandidateAction]:
    """Request a list of candidate actions, one per line, and normalize them.

    Lines are stripped of bullets/numbering/quotes, lowercased, and
    de-duplicated preserving first occurrence; at most ``n_candidates`` are
    returned. An unparseable (all-empty) reply yields an empty list.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    messages = (*context, {"role": "user", "content": candidate_generation(n_candidates)})
    reply = backend.complete(PolicyRequest(messages, temperature, PromptKind.CANDIDATE_LIST))

    kept: list[tuple[str, tuple[int, int]]] = []
    seen: set[str] = set()
    offset = 0
    for raw_line in reply.text.split("\n"):
        core, start = _strip_decorations(raw_line)
        text = " ".join(core.lower().split())
        if text and text not in seen:
            seen.add(text)
            kept.append((text, (offset + start, offset + start + len(core))))
            if len(kept) == n_candidates:
                break
        offset += len(raw_line) + 1
    if not kept:
        return []

    logprobs = _candidate_logprobs(backend, context, reply, kept)
    return [_candidate(text, lps) for (text, _), lps in zip(kept, logprobs)]


def greedy_action(
    backend: PolicyBackend,
    context: Sequence[dict],
    prompt_kind: PromptKind = PromptKind.GREEDY_ACTION,
) -> str:
    """Decode a single action at temperature 0 and normalize it.

    Only the action is read; the reply's log-probabilities are not.
    """
    reply = backend.complete(PolicyRequest(tuple(context), 0.0, prompt_kind))
    text = first_action(reply.text)
    if not text:
        raise BackendError("policy returned an empty greedy action")
    return text


# --- deterministic scripted mock -------------------------------------------

_KINDS = tuple(kind.value for kind in PromptKind)


def _is_number(value) -> bool:
    """Whether a decoded JSON value is a number that a float holds (a bool is not)."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _is_token_pair(value) -> bool:
    """Whether a decoded JSON value is a ``[token, log-probability]`` pair."""
    return (
        type(value) is list and len(value) == 2 and type(value[0]) is str and _is_number(value[1])
    )


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted reply, matched to requests by prompt kind."""

    kind: PromptKind
    text: str
    token_logprobs: tuple[tuple[str, float], ...] | None = None
    token_count: int | None = None

    @classmethod
    def mode(cls, value: str) -> "ScriptEntry":
        return cls(PromptKind.MODE_DECISION, json.dumps({"mode": value}, separators=(",", ":")))

    @classmethod
    def candidates(cls, lines: Sequence[str], token_logprobs=None) -> "ScriptEntry":
        return cls(
            PromptKind.CANDIDATE_LIST,
            "\n".join(lines),
            tuple((t, float(lp)) for t, lp in token_logprobs) if token_logprobs else None,
        )

    @classmethod
    def greedy(cls, text: str) -> "ScriptEntry":
        return cls(PromptKind.GREEDY_ACTION, text)

    @classmethod
    def answer(cls, color: str) -> "ScriptEntry":
        return cls(PromptKind.MAB_ANSWER, f"<Answer>I will press {color} button</Answer>")

    def to_reply(self) -> PolicyReply:
        lps = list(self.token_logprobs) if self.token_logprobs is not None else None
        if self.token_count is not None:
            count = self.token_count
        elif lps is not None:
            count = len(lps)
        else:
            count = len(self.text.split())
        return PolicyReply(self.text, lps, count)


class MockPolicy(PolicyBackend):
    """Replays scripted replies deterministically, one queue per prompt kind.

    With ``loop=False`` (the default) running past the script raises
    :class:`ScriptExhaustedError` so tests fail loudly; ``loop=True`` cycles
    each queue, which keeps long harness runs scriptable with short files.
    An instance drives at most one episode at a time; its ``calls`` log makes
    per-kind call accounting assertable, and :meth:`fresh` gives the next
    episode its own mock without re-reading the script.
    """

    def __init__(
        self,
        entries: Sequence[ScriptEntry],
        rescores: dict[str, Sequence[float]] | None = None,
        loop: bool = False,
    ) -> None:
        self.loop = loop
        scripted: dict[PromptKind, list[ScriptEntry]] = {kind: [] for kind in PromptKind}
        for entry in entries:
            scripted[entry.kind].append(entry)
        self._scripted = {kind: tuple(queue) for kind, queue in scripted.items()}
        self._rescores = (
            {normalize_action(k): tuple(float(x) for x in v) for k, v in rescores.items()}
            if rescores is not None
            else None
        )
        self._start()

    def _start(self) -> None:
        self.tokens_used = 0
        self.calls: list[PromptKind] = []
        self.rescore_calls = 0
        self._cursor = dict.fromkeys(PromptKind, 0)

    def fresh(self) -> "MockPolicy":
        """A new mock that replays this one's script from the start.

        The script queues and the rescore table are shared, and no mock ever
        changes them; the cursors, the call log and the counters are its own.
        """
        mock = copy.copy(self)
        mock._start()
        return mock

    @classmethod
    def from_file(cls, path) -> "MockPolicy":
        """Parse a mock script; a part of the wrong shape is a :class:`MockScriptError`."""
        with open(path, "r", encoding="utf-8") as fp:
            spec = json.load(fp)
        if not isinstance(spec, dict) or not isinstance(spec.get("entries", []), list):
            raise MockScriptError("a script must be an object whose 'entries' is a list")
        entries = []
        for i, item in enumerate(spec.get("entries", [])):
            kind = item.get("kind") if isinstance(item, dict) else None
            if kind not in _KINDS or type(item.get("text")) is not str:
                raise MockScriptError(f"entry {i} lacks a string 'text' or a 'kind' in {_KINDS}")
            lps, count = item.get("token_logprobs") or None, item.get("token_count")
            if lps is not None and not (isinstance(lps, list) and all(map(_is_token_pair, lps))):
                raise MockScriptError(f"entry {i}: token_logprobs must be [token, number] pairs")
            if count is not None and not (type(count) is int and count >= 0):
                raise MockScriptError(f"entry {i}: token_count must be an integer >= 0")
            lps = tuple((t, float(lp)) for t, lp in lps) if lps else None
            entries.append(ScriptEntry(PromptKind(kind), item["text"], lps, count))
        rescores = spec.get("rescores")
        if rescores is not None and not (
            isinstance(rescores, dict)
            and all(isinstance(v, list) and all(map(_is_number, v)) for v in rescores.values())
        ):
            raise MockScriptError("rescores must map actions to lists of numbers")
        return cls(entries, rescores, bool(spec.get("loop", False)))

    def serves(self, kind: PromptKind) -> bool:
        """Whether the script holds a reply of ``kind``."""
        return bool(self._scripted[kind])

    @property
    def supports_rescoring(self) -> bool:
        return self._rescores is not None

    def rescore(self, context: Sequence[dict], text: str) -> list[float]:
        if self._rescores is None:
            raise NotImplementedError("mock has no rescore table")
        self.rescore_calls += 1
        # Keys are normalized and candidates arrive normalized, so the raw
        # text almost always hits; normalizing a key is a no-op, so the
        # fallback finds the same entry.
        lps = self._rescores.get(text)
        if lps is None:
            key = normalize_action(text)
            if key not in self._rescores:
                raise MockScriptError(f"no scripted rescore for action {key!r}")
            lps = self._rescores[key]
        return list(lps)

    def complete(self, request: PolicyRequest) -> PolicyReply:
        self.calls.append(request.prompt_kind)
        queue = self._scripted[request.prompt_kind]
        index = self._cursor[request.prompt_kind]
        if index >= len(queue):
            if self.loop and queue:
                index = 0
            else:
                raise ScriptExhaustedError(
                    f"script exhausted for {request.prompt_kind.value!r} "
                    f"(served {len(queue)} replies)"
                )
        self._cursor[request.prompt_kind] = index + 1
        return self._count(queue[index].to_reply())


# --- remote chat-completion client ------------------------------------------

ENV_API_BASE = "DORA_API_BASE"
ENV_API_KEY = "DORA_API_KEY"
ENV_MODEL = "DORA_MODEL"

# What every remote request asks for, and how a failed one is retried: the
# wait before retry n (from 0) is BACKOFF_S * 2**n seconds, unless a 429 or
# 503 reply names its own wait in Retry-After (see _retry_wait).
MAX_TOKENS = 256
REQUEST_LOGPROBS = True
TIMEOUT_S = 60.0
MAX_RETRIES = 2
BACKOFF_S = 0.5


def _retry_wait(retry_after: str | None, backoff: float) -> float:
    """The wait a ``Retry-After`` header gives as a number of seconds, capped at
    :data:`TIMEOUT_S`; ``backoff`` when it gives none (absent, a date, negative)."""
    try:
        seconds = float(retry_after)
    except (TypeError, ValueError):
        return backoff
    return min(seconds, TIMEOUT_S) if seconds >= 0 else backoff


class RemotePolicy(PolicyBackend):
    """Minimal JSON client for chat-completion style endpoints.

    Configuration comes from arguments or the ``DORA_API_BASE`` /
    ``DORA_API_KEY`` / ``DORA_MODEL`` environment variables. Requests carry
    {model, messages, temperature, max_tokens, logprobs}; responses are read
    for message content and, when present, token-level log-probabilities.
    Transport failures, 5xx replies and 429 (rate limited) replies are
    retried :data:`MAX_RETRIES` times with exponential backoff, or after the
    ``Retry-After`` seconds of a 429 or 503, then surfaced as
    :class:`BackendError`, marked unreachable when every attempt failed to
    connect or timed out.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
    ) -> None:
        self.tokens_used = 0
        self.base_url = (base_url or os.environ.get(ENV_API_BASE, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.base_url or not self.model:
            raise ValueError(
                f"remote backend needs {ENV_API_BASE} and {ENV_MODEL} "
                "(environment variables or constructor arguments)"
            )

    def _post(self, payload: dict) -> dict:
        import requests

        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        unreachable = True
        for attempt in range(MAX_RETRIES + 1):
            wait = BACKOFF_S * (2**attempt)
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=TIMEOUT_S)
                if resp.status_code in (429, 503):
                    wait = _retry_wait(resp.headers.get("Retry-After"), wait)
                if resp.status_code >= 500 or resp.status_code == 429:
                    raise requests.RequestException(f"endpoint returned {resp.status_code}")
                if resp.status_code != 200:
                    raise BackendError(f"endpoint returned {resp.status_code}: {resp.text[:200]}")
                return resp.json()
            except BackendError:
                raise
            except (requests.RequestException, ValueError, RecursionError) as exc:
                last_error = exc
                unreachable &= isinstance(exc, (requests.ConnectionError, requests.Timeout))
                if attempt < MAX_RETRIES:
                    time.sleep(wait)
        raise BackendError(
            f"transport failed after {MAX_RETRIES + 1} attempts: {last_error}", unreachable
        )

    def complete(self, request: PolicyRequest) -> PolicyReply:
        payload = {
            "model": self.model,
            "messages": [dict(m) for m in request.context],
            "temperature": request.temperature,
            "max_tokens": MAX_TOKENS,
            "logprobs": REQUEST_LOGPROBS,
        }
        data = self._post(payload)
        try:
            choice = data["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if content is not None and not isinstance(content, str):
            raise BackendError(f"message content must be a string or null, got {content!r}")
        text = content or ""
        # Log-probabilities that are not as expected leave the reply without them.
        token_logprobs = None
        logprobs = choice.get("logprobs")
        logprob_block = logprobs.get("content") if isinstance(logprobs, dict) else None
        if logprob_block:
            try:
                token_logprobs = [(item["token"], float(item["logprob"])) for item in logprob_block]
                if not all(isinstance(token, str) for token, _ in token_logprobs):
                    token_logprobs = None
            except (KeyError, TypeError, ValueError, OverflowError):
                token_logprobs = None
        usage = data.get("usage")
        if usage is not None and not isinstance(usage, dict):
            raise BackendError(f"usage must be an object, got {usage!r}")
        tokens = (usage or {}).get("completion_tokens")
        if tokens is not None and (type(tokens) is not int or tokens < 0):
            raise BackendError(f"usage.completion_tokens must be an integer >= 0, got {tokens!r}")
        if tokens is None:
            tokens = len(token_logprobs) if token_logprobs else len(text.split())
        return self._count(PolicyReply(text, token_logprobs, tokens))

