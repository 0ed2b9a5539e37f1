"""Byte guard: pinned SHA-256 digests of small demo-config suites and their report.

The first digests were recorded before the classical-bandit hot path moved
from numpy arrays to plain lists, the suite default became serial, and the
plot writers merged; the policy-sampled lambda and ``llm_temp`` bandit pins
were recorded before scoring, sampling and the bandit summary moved to
Python floats; the invalid-pull pin was recorded before classical step lines
moved from the JSON encoder to a format template. A speed-up that moves any
artifact byte fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dora.harness import ExperimentConfig, report, run_suite

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# (demo config, agent override, runs) -> digest of the suite's output directory
SUITE_DIGESTS = {
    ("bandit_ucb.json", "ucb", 20): "65bce1fe4a393f79cda15302755b8a03e3dcc60102356c621b7ca73e8b7084a2",
    ("bandit_ucb.json", "ts", 20): "471302bd64d8b6456b91b89852e40c3b2afd9da0f4722e3013dd3307ab31da45",
    ("bandit_ucb.json", "greedy", 20): "6f48edbbc3d310db2204b829c7c1da7748a7ad50f721c78bcbf8fa1ea7e01891",
    ("bandit_ucb.json", "eps_greedy", 20): "cc0d1c2e45730a8bcca5c21c549e1820b72206a9d91d514050b5a3c83b24bf3c",
    ("bandit_dora_mock.json", None, 2): "3ae870214d73fbebe5499a86f877acf11cfd51313176c2f895a5eb8c35cfccce",
    ("keymaze_dora_mock.json", None, 2): "ff26373b4ad531470708c9b55b82eb98b1cb83a6d6e84b6a9f6e5cb9171bf0f9",
}
REPORT_DIGEST = "bfedc1a300fc6879903a992561cbf4a837abdb740276d50344e3b74049e26f8d"

# Pinned after REPORT_DIGEST, so these suites run outside the reported directory.
UNREPORTED_SUITE_DIGESTS = {
    ("bandit_dora_mock.json", "dora_auto", 2): "3a5b179b67b1b628babd4b34dec184c9dd58e7899931765de6098febe134427e",
    ("bandit_dora_mock.json", "llm_temp", 2): "ba3e8f4b1513e9758b1066506b1124ca34328f967db8510d8c459d58b784da9e",
}
ALL_SUITE_DIGESTS = {**SUITE_DIGESTS, **UNREPORTED_SUITE_DIGESTS}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def load_demo_config(name: str, agent: str | None, runs: int, out: Path) -> ExperimentConfig:
    data = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    if "backend" in data:
        data["backend"] = "mock:" + str(CONFIGS / Path(data["backend"].split(":", 1)[1]).name)
    data.update(runs=runs, output_dir=str(out))
    if agent is not None:
        data["agent"] = agent
    return ExperimentConfig.from_dict(data)


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    dirs = {}
    for key in ALL_SUITE_DIGESTS:
        name, agent, runs = key
        parent = "runs" if key in SUITE_DIGESTS else "unreported"
        out = root / parent / f"{Path(name).stem}_{agent or 'default'}"
        run_suite(load_demo_config(name, agent, runs, out))
        dirs[key] = out
    return root, dirs


@pytest.mark.parametrize("key", list(ALL_SUITE_DIGESTS), ids=lambda k: f"{k[0]}:{k[1]}")
def test_suite_artifacts_are_pinned(suites, key):
    _, dirs = suites
    assert tree_digest(dirs[key]) == ALL_SUITE_DIGESTS[key]


def test_report_outputs_are_pinned(suites):
    root, _ = suites
    report(root / "runs", root / "report")
    assert tree_digest(root / "report") == REPORT_DIGEST


# A KeyMaze script on the slicing path: decorated candidate lines, token
# log-probabilities with newline tokens and tokens across line boundaries,
# one token stream that does not reproduce its text, and no rescore table.
SLICED_CANDIDATES = [
    '1. go north\n2. "open chest"\n3) take key\n- look\n- go north\n\n* \'go east\'',
    "- go south\n- “unlock door”\n(1) go west\n1] take key\n   go east  \n`look`",
    "Here are options:\n> go north\n• open chest\n10. go south\n\t- 'unlock door'",
    "go west\ngo east",
]
SLICED_GREEDY = ["1. go north", '"look"', "- open chest", "take key", "  go south\nlook"]
SLICED_LAMBDAS = ['{"lambda":3.5}', "lambda please", "no idea", '{"lambda":12}', '{"lambda":0.25}']
SLICED_MODES = ["EXPLORE", "EXPLORE", "GREEDY", "EXPLORE", "EXPLORE", "GREEDY"]

# (agent, runs) -> digest of the suite's output directory; pinned after
# REPORT_DIGEST, so these suites also run outside the reported directory.
SLICED_SUITE_DIGESTS = {
    ("dora_auto", 2): "feca2b41aa5ae1fad441b6a744150cd88116126ed12c670be1ef678f0ccfbde5",
    ("llm_temp", 2): "44039922196ba2244a6efe264cc3be7aa3813c56b28d3cbdef09d9844e82be34",
}


def sliced_tokens(text: str, index: int) -> list:
    """Cut ``text`` into tokens of 1-4 characters (with an empty token after
    the second), each with a log-probability in [-0.87, -0.05]."""
    widths = (1, 3, 2, 4, 1, 2)
    tokens, pos, i = [], 0, 0
    while pos < len(text):
        width = widths[(i + index) % len(widths)]
        tokens.append([text[pos : pos + width], -0.05 - 0.0625 * ((i * 7 + index) % 14)])
        pos += width
        i += 1
        if i == 2:
            tokens.append(["", -0.5])
    return tokens


def write_sliced_script(path: Path) -> Path:
    entries = [{"kind": "mode", "text": json.dumps({"mode": m})} for m in SLICED_MODES]
    for index, text in enumerate(SLICED_CANDIDATES):
        tokens = sliced_tokens(text, index)
        if index == len(SLICED_CANDIDATES) - 1:
            tokens = tokens[:-1]  # this stream does not reproduce its text: flat candidates
        entries.append({"kind": "candidates", "text": text, "token_logprobs": tokens})
    entries += [{"kind": "lambda", "text": text} for text in SLICED_LAMBDAS]
    entries += [{"kind": "greedy", "text": text} for text in SLICED_GREEDY]
    path.write_text(json.dumps({"loop": True, "entries": entries}), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def sliced_suites(tmp_path_factory):
    root = tmp_path_factory.mktemp("sliced")
    script = write_sliced_script(root / "sliced_keymaze_script.json")
    dirs = {}
    for agent, runs in SLICED_SUITE_DIGESTS:
        out = root / "unreported" / f"sliced_{agent}"
        config = load_demo_config("keymaze_dora_mock.json", agent, runs, out)
        config.backend = f"mock:{script}"
        config.n_candidates = 4
        run_suite(config)
        dirs[agent, runs] = out
    return dirs


@pytest.mark.parametrize("key", list(SLICED_SUITE_DIGESTS), ids=lambda k: f"sliced:{k[0]}")
def test_sliced_keymaze_artifacts_are_pinned(sliced_suites, key):
    assert tree_digest(sliced_suites[key]) == SLICED_SUITE_DIGESTS[key]


# A bandit temperature-baseline script whose answers mix the strict envelope
# with replies the parser rejects: no envelope, an unknown color, an arm past
# the suite's three, an empty reply and a lower-case tag. Each rejected answer
# is an invalid pull, written as ``"arm":null`` and ``"valid":false``.
INVALID_PULL_ANSWERS = [
    "<Answer>I will press red button</Answer>",
    "I will press green button",
    "  <Answer>I will press Blue button</Answer>\n",
    "<Answer>I will press orange button</Answer>",
    "<Answer>I will press green button</Answer>",
    "<Answer>I will press purple button</Answer>",
    "",
    "<Answer>I will press red button</Answer>",
    "<answer>I will press blue button</answer>",
]

# (agent, runs) -> digest of the suite's output directory; pinned after
# REPORT_DIGEST, so this suite also runs outside the reported directory.
INVALID_PULL_SUITE_DIGESTS = {
    ("llm_temp", 2): "a3e556f5e96a706323a29b4513678fdefd2b6dd20b4f719b459c4a616388a696",
}


@pytest.fixture(scope="module")
def invalid_pull_suites(tmp_path_factory):
    root = tmp_path_factory.mktemp("invalid_pulls")
    script = root / "invalid_pull_bandit_script.json"
    entries = [{"kind": "answer", "text": text} for text in INVALID_PULL_ANSWERS]
    script.write_text(json.dumps({"loop": True, "entries": entries}), encoding="utf-8")
    dirs = {}
    for agent, runs in INVALID_PULL_SUITE_DIGESTS:
        out = root / "unreported" / f"invalid_pulls_{agent}"
        config = load_demo_config("bandit_dora_mock.json", agent, runs, out)
        config.backend = f"mock:{script}"
        config.num_arms = 3
        config.horizon = 40
        run_suite(config)
        dirs[agent, runs] = out
    return dirs


@pytest.mark.parametrize("key", list(INVALID_PULL_SUITE_DIGESTS), ids=lambda k: f"invalid:{k[0]}")
def test_invalid_pull_bandit_artifacts_are_pinned(invalid_pull_suites, key):
    assert tree_digest(invalid_pull_suites[key]) == INVALID_PULL_SUITE_DIGESTS[key]
