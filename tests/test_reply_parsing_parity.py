"""Parity of the one-pass reply parsing with the implementations it replaces.

The references below are the earlier ``_strip_decorations`` (a character
loop that re-slices the line on every pass) and ``_sliced_line_logprobs``
(every token tested against every kept line), inlined. Results are compared
with ``==``. Lines are built from bullets, numbering, quote pairs (nested
and Unicode) and whitespace of every kind ``str.isspace`` accepts; token
streams cut the reply anywhere, so tokens span newlines and line
boundaries, and repeated cuts give empty tokens.

``arm_from_action`` is checked against its earlier form, which tried the
strict answer envelope before the loose 'press COLOR button' search, on
texts built from envelope and phrase fragments.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from dora.bandit import arm_from_action
from dora.policy import (
    MockPolicy,
    PolicyReply,
    ScriptEntry,
    _sliced_line_logprobs,
    _strip_decorations,
    generate_candidates,
)
from dora.scoring import CandidateAction

_REF_BULLET_RE = re.compile(r"^(?:[-*>•]+|\(?\d+[.):\]])\s*")
_REF_QUOTE_PAIRS = {('"', '"'), ("'", "'"), ("`", "`"), ("“", "”"), ("‘", "’")}
_REF_COLORS = ("blue", "green", "red", "yellow", "purple")
_REF_ANSWER_RE = re.compile(
    r"^\s*<Answer>I will press ((?i:blue|green|red|yellow|purple)) button</Answer>\s*$"
)
_REF_PRESS_RE = re.compile(r"\bpress\s+(blue|green|red|yellow|purple)\s+button\b", re.IGNORECASE)


def ref_strip_decorations(line: str) -> tuple[str, int]:
    start = 0
    end = len(line)
    changed = True
    while changed:
        changed = False
        while start < end and line[start].isspace():
            start += 1
            changed = True
        while end > start and line[end - 1].isspace():
            end -= 1
            changed = True
        m = _REF_BULLET_RE.match(line[start:end])
        if m and m.end() > 0:
            start += m.end()
            changed = True
        if end - start >= 2 and (line[start], line[end - 1]) in _REF_QUOTE_PAIRS:
            start += 1
            end -= 1
            changed = True
    return line[start:end], start


def ref_sliced_line_logprobs(reply, line_spans):
    if not reply.token_logprobs:
        return None
    if "".join(tok for tok, _ in reply.token_logprobs) != reply.text:
        return None
    spans = []
    pos = 0
    for token, lp in reply.token_logprobs:
        spans.append((pos, pos + len(token), lp))
        pos += len(token)
    out = [[] for _ in line_spans]
    for tok_start, tok_end, lp in spans:
        for i, (start, end) in enumerate(line_spans):
            if tok_start < end and tok_end > start:
                out[i].append(lp)
                break
    return out


def ref_kept(text: str, n_candidates: int):
    """The candidate-line loop of ``generate_candidates``, on the reference strip."""
    kept = []
    seen = set()
    offset = 0
    for raw_line in text.split("\n"):
        core, start = ref_strip_decorations(raw_line)
        norm = " ".join(core.lower().split())
        if norm and norm not in seen:
            seen.add(norm)
            kept.append((norm, (offset + start, offset + start + len(core))))
        offset += len(raw_line) + 1
    return kept[:n_candidates]


WHITESPACE = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", " ", "　"]
PIECES = [
    *WHITESPACE,
    "-", "*", ">", "•", "- ", "-- ", "* ", "> ", "• ",
    "1.", "2)", "3:", "1]", "(1)", "(1]", "(2.", "10. ", "٣.", "(", ")", ".", "]", "1",
    '"', "'", "`", "“", "”", "‘", "’", '"\'', "'\"", "“'", "'”",
    "go", "north", "Open  Chest", "take key", "LOOK", "a", "é",
]
lines = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=12).map("".join),
    st.text(alphabet="".join(WHITESPACE) + "-*>•().:]0123456789\"'`“”‘’ab", max_size=16),
)
logprobs = st.floats(min_value=-30.0, max_value=0.0, allow_nan=False)


@st.composite
def replies(draw):
    """A reply whose lines repeat (so de-duplication drops some) and a token
    stream that cuts it at arbitrary, possibly repeated, offsets."""
    pool = draw(st.lists(lines, min_size=1, max_size=5))
    text = "\n".join(draw(st.lists(st.sampled_from(pool), max_size=10)))
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=len(text) + 3)))
    bounds = [0, *cuts, len(text)]
    tokens = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    lps = draw(st.lists(logprobs, min_size=len(tokens), max_size=len(tokens)))
    return PolicyReply(text, list(zip(tokens, lps)))


@settings(max_examples=2000, deadline=None)
@given(lines)
def test_strip_decorations_matches_reference(line):
    assert _strip_decorations(line) == ref_strip_decorations(line)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=20).map("".join))
def test_strip_decorations_matches_reference_on_long_lines(line):
    assert _strip_decorations(line) == ref_strip_decorations(line)


@settings(max_examples=500, deadline=None)
@given(replies(), st.integers(1, 8))
def test_sliced_line_logprobs_matches_reference(reply, n_candidates):
    spans = [span for _, span in ref_kept(reply.text, n_candidates)]
    assert _sliced_line_logprobs(reply, spans) == ref_sliced_line_logprobs(reply, spans)


@settings(max_examples=300, deadline=None)
@given(replies(), st.integers(1, 8))
def test_generate_candidates_matches_reference(reply, n_candidates):
    entry = ScriptEntry.candidates(reply.text.split("\n"), reply.token_logprobs)
    context = ({"role": "user", "content": "room"},)
    got = generate_candidates(MockPolicy([entry]), context, n_candidates)
    kept = ref_kept(reply.text, n_candidates)
    sliced = ref_sliced_line_logprobs(reply, [span for _, span in kept])
    expected = [
        CandidateAction(text, tuple(lps) if lps else (0.0,))
        for (text, _), lps in zip(kept, sliced)
    ]
    assert [(c.text, c.token_logprobs) for c in got] == [
        (c.text, c.token_logprobs) for c in expected
    ]


@settings(max_examples=300, deadline=None)
@given(replies(), st.integers(1, 8), st.sampled_from(["drop", "extra", "swap"]))
def test_stream_that_does_not_reproduce_the_text_gives_none(reply, n_candidates, how):
    tokens = list(reply.token_logprobs)
    if how == "drop" and reply.text:
        tokens = [(tok, lp) for tok, lp in tokens if tok][:-1]
    elif how == "swap" and reply.text:
        tok, lp = next((t, lp) for t, lp in tokens if t)
        tokens[tokens.index((tok, lp))] = (tok[:-1] + chr(ord(tok[-1]) ^ 1), lp)
    else:
        tokens.append(("x", -0.5))
    broken = PolicyReply(reply.text, tokens)
    spans = [span for _, span in ref_kept(reply.text, n_candidates)]
    assert ref_sliced_line_logprobs(broken, spans) is None
    assert _sliced_line_logprobs(broken, spans) is None


def test_missing_or_empty_token_stream_gives_none():
    spans = [(0, 2)]
    for tokens in (None, []):
        reply = PolicyReply("go", tokens)
        assert _sliced_line_logprobs(reply, spans) is None
        assert ref_sliced_line_logprobs(reply, spans) is None


def test_empty_tokens_inside_on_and_after_line_bounds():
    # "go" occupies [0, 2): an empty token at 1 lands in it, at 0 and 2 it does not
    reply = PolicyReply("go\nup", [("", -1.0), ("g", -0.1), ("", -2.0), ("o", -0.2),
                                    ("", -3.0), ("\nu", -0.3), ("p", -0.4), ("", -4.0)])
    spans = [(0, 2), (3, 5)]
    assert _sliced_line_logprobs(reply, spans) == [[-0.1, -2.0, -0.2], [-0.3, -0.4]]
    assert ref_sliced_line_logprobs(reply, spans) == [[-0.1, -2.0, -0.2], [-0.3, -0.4]]


def ref_arm_from_action(text: str) -> int | None:
    match = _REF_ANSWER_RE.match(text) or _REF_PRESS_RE.search(text)
    return None if match is None else _REF_COLORS.index(match.group(1).lower())


ANSWER_PIECES = [
    "<Answer>I will press red button</Answer>", "<Answer>", "</Answer>", "<answer>",
    "I will ", "press", "Press", "PRESS", "pressed", " ", "  ", "\n", "\t", "\u00a0", "\x0b",
    "button", "Button", "buttons", "blue", "Green", "RED", "yellow", "PuRpLe", "orange",
    "x", "_", ".", "I",
]


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(ANSWER_PIECES), max_size=16).map("".join), st.text()))
def test_arm_from_action_matches_strict_then_loose_reference(text):
    assert arm_from_action(text) == ref_arm_from_action(text)
