"""The three benchmark workloads: their configs, seeded inputs, passes and output checks.

A pass runs every suite of a workload through ``dora.harness.run_suite``
into a fresh directory, the way ``dora-lab bandit run`` / ``keymaze run``
would. The workload seed picks the master seed and, for KeyMaze, the mock
script; the program only sees the files written here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str
    agents: tuple[str, ...]
    runs: int
    why: str


# Run counts size one pass at roughly 1-1.5 s on a 2-core machine, so a
# 30 s measurement holds about ten passes and the median is steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bandit-classical",
            "demos/configs/bandit_ucb.json",
            ("ucb", "ts", "greedy", "eps_greedy"),
            50,
            "classical bandit policies and the harness writers; agent, policy and scoring "
            "are bypassed",
        ),
        Workload(
            "bandit-dora",
            "demos/configs/bandit_dora_mock.json",
            ("dora_scheduled",),
            20,
            "every step explores: decide, generate, rescore, score and sample on a "
            "2-message bandit context",
        ),
        Workload(
            "keymaze-dora",
            "demos/configs/keymaze_dora_mock.json",
            ("dora_auto",),
            100,
            "KeyMaze with sliced log-probs, policy-sampled lambda, 20-turn contexts and "
            "registry fallbacks",
        ),
    )
}

SEED_STRIDE = 100_000  # master seeds of different workload seeds never share a run seed

KEYMAZE_ACTIONS = (
    "go north", "go south", "go east", "go west", "open chest", "take key",
    "unlock door", "look", "help", "take chest", "open door", "read mural",
)
LINE_DECORATIONS = ("", "", "- ", "1. ", '"')


def _tokens(line: str, rng: random.Random) -> list[list]:
    """Split one candidate line into tokens with log-probabilities in [-3, 0)."""
    words = line.split(" ")
    pieces = [words[0]] + [" " + w for w in words[1:]]
    return [[piece, round(rng.uniform(-3.0, -0.01), 4)] for piece in pieces]


def keymaze_script(seed: int) -> dict:
    """A looping mock script drawn from ``seed``.

    The mix is fixed (7 of 11 mode replies EXPLORE, 6-line candidate lists,
    one of 8 lambda replies needing the embedded-object parser and two in a
    row failing it); only the order and the actions vary with the seed, so
    every seed costs about the same per step. Candidates carry token log-probabilities and there is
    no rescore table, so scores come from slicing.
    """
    rng = random.Random(seed)
    modes = ["EXPLORE"] * 7 + ["GREEDY"] * 4
    rng.shuffle(modes)
    entries = [{"kind": "mode", "text": json.dumps({"mode": m})} for m in modes]
    for _ in range(5):
        lines = rng.sample(KEYMAZE_ACTIONS, 6)
        tokens: list[list] = []
        for i, action in enumerate(lines):
            decoration = rng.choice(LINE_DECORATIONS)
            line = decoration + action + ('"' if decoration == '"' else "")
            if i:
                tokens.append(["\n", -0.01])
            tokens += _tokens(line, rng)
        text = "".join(tok for tok, _ in tokens)
        entries.append({"kind": "candidates", "text": text, "token_logprobs": tokens})
    lambdas = [json.dumps({"lambda": round(rng.uniform(0.0, 48.0), 3)}) for _ in range(5)]
    lambdas.append(f"Sure: {{\"lambda\": {rng.randint(1, 30)}}}")
    rng.shuffle(lambdas)
    # Two unparseable replies in a row exhaust the retry: a parse-failure step.
    at = rng.randrange(len(lambdas) + 1)
    lambdas[at:at] = ["a high lambda, please", "lambda: low"]
    entries += [{"kind": "lambda", "text": text} for text in lambdas]
    entries += [{"kind": "greedy", "text": rng.choice(KEYMAZE_ACTIONS[:8])} for _ in range(3)]
    return {"loop": True, "entries": entries}


def prepare(workload: Workload, seed: int, work: Path, workers: int | None) -> list[Path]:
    """Write one config file per suite into ``work`` and return their paths."""
    work.mkdir(parents=True, exist_ok=True)
    base = json.loads(Path(workload.base_config).read_text(encoding="utf-8"))
    base.update(runs=workload.runs, master_seed=seed * SEED_STRIDE)
    if workers is not None:
        base["workers"] = workers
    if workload.name == "keymaze-dora":
        script = work / "mock_keymaze_script.json"
        script.write_text(json.dumps(keymaze_script(seed), indent=1), encoding="utf-8")
        base["backend"] = f"mock:{script}"
    paths = []
    for agent in workload.agents:
        path = work / f"config_{agent}.json"
        path.write_text(json.dumps(dict(base, agent=agent), indent=1), encoding="utf-8")
        paths.append(path)
    return paths


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int


def run_pass(harness, configs: list[Path], out: Path) -> PassResult:
    """Run every suite into ``out/<agent>``; the wall time covers ``run_suite`` only."""
    wall = 0.0
    attempted = failed = 0
    for path in configs:
        config = harness.ExperimentConfig.from_file(path)
        config.output_dir = str(out / config.agent)
        start = time.perf_counter()
        artifacts = harness.run_suite(config)
        wall += time.perf_counter() - start
        attempted += config.runs
        failed += len(artifacts.failures)
    return PassResult(wall, attempted, failed)


def run_report(harness, runs_dir: Path, out: Path) -> float:
    start = time.perf_counter()
    harness.report(runs_dir, out)
    return time.perf_counter() - start


def digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class OutputSummary:
    steps: int
    lines: int
    runs: int
    failed_runs: int
    problems: list[str]


def _csv_rows(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[1:]


def check_outputs(workload: Workload, runs_dir: Path, report_dir: Path) -> OutputSummary:
    """Count steps and JSONL lines, and check the artifacts against each other.

    Checks: every suite's ``summary.json`` is complete; each run file holds one
    config line, its step lines and one metrics line; bandit runs take the
    full horizon and their metrics line agrees with their step lines; the
    report tables repeat the suites' ``aggregate.csv`` rows.
    """
    problems: list[str] = []
    steps = lines = runs = failed = 0
    aggregate_rows: list[str] = []
    for agent in workload.agents:
        suite = runs_dir / agent
        summary = json.loads((suite / "summary.json").read_text(encoding="utf-8"))
        runs += summary["runs"]
        failed += summary["runs"] - summary["completed"]
        if summary["failures"] or summary["completed"] != summary["runs"]:
            problems.append(f"{agent}: {summary['completed']}/{summary['runs']} runs completed")
        run_files = sorted(suite.glob("*.jsonl"))
        if len(run_files) != summary["completed"]:
            problems.append(f"{agent}: {len(run_files)} run files for {summary['completed']} runs")
        for path in run_files:
            records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            kinds = [r["kind"] for r in records]
            step_records = records[1:-1]
            lines += len(records)
            steps += len(step_records)
            if kinds[0] != "config" or kinds[-1] != "metrics" or set(kinds[1:-1]) != {"step"}:
                problems.append(f"{path.name}: bad line kinds")
                continue
            config, metrics = records[0], records[-1]
            if config["suite"] == "bandit":
                horizon = config["horizon"]
                rewards = sum(r["reward"] for r in step_records)
                best = sum(1 for r in step_records if r["arm"] == config["best_arm"])
                if (len(step_records) != horizon or metrics["mean_avg_reward"] != rewards / horizon
                        or metrics["best_arm_frac"] != best / horizon):
                    problems.append(f"{path.name}: metrics disagree with step lines")
            elif metrics["steps"] != len(step_records):
                problems.append(f"{path.name}: metrics disagree with step lines")
        aggregate_rows += _csv_rows(suite / "aggregate.csv")
    table = "metric_table.csv" if workload.name.startswith("bandit") else "loops_table.csv"
    if _csv_rows(report_dir / table) != sorted(aggregate_rows):
        problems.append(f"report {table} disagrees with the suites' aggregate.csv rows")
    return OutputSummary(steps, lines, runs, failed, problems)


def effective_workers() -> int | None:
    """The harness default worker count, clamped to the CPUs this process may use.

    Returns None (keep the harness default) unless the default exceeds them.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    default = os.cpu_count() or 1
    return None if default <= usable else usable
