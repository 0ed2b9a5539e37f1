"""Batch experiment runner: configuration, persistence, and reporting.

A suite is N seeded runs of one agent on one environment. Every run writes a
self-describing JSONL file (a config line, one line per step, one metrics
line, all carrying ``schema_version``); a single aggregation pass then
produces the summary CSV and plot-data CSVs. Run i uses seed
``master_seed + i``, and mock/classical batches are byte-for-byte
reproducible from (config, master_seed).
"""

from __future__ import annotations

import contextlib
import copy
import errno
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .agent import (
    DoraParams,
    EpisodeLog,
    FallbackReason,
    drive_episode,
    run_episode,
    temperature_step,
)
from .bandit import (
    INVALID_PULL,
    BanditEnv,
    BanditInstance,
    BanditRun,
    EpsilonGreedyPolicy,
    GreedyPolicy,
    ThompsonPolicy,
    UcbPolicy,
    answer_action,
    compute_metrics,
    decaying_temperature,
    make_hard_instance,
    make_mab_context_builder,
    run_bandit,
)
from .lambda_control import MAX_GROWTH_K, LambdaSchedule, PolicySampledLambda, ScheduledLambda
from .policy import (
    BackendError, MockPolicy, MockScriptError, Mode, PromptKind, RemotePolicy, first_action,
)
from .prompts import ARM_COLORS
from .textenv import KeyMazeWorld, loop_stats

SCHEMA_VERSION = 1

SUITES = ("bandit", "keymaze")
CLASSICAL_POLICIES = {
    "ucb": UcbPolicy,
    "ts": ThompsonPolicy,
    "greedy": GreedyPolicy,
    "eps_greedy": EpsilonGreedyPolicy,
}
CLASSICAL_AGENTS = tuple(CLASSICAL_POLICIES)
BACKEND_AGENTS = ("llm_temp", "dora_scheduled", "dora_auto")
AGENTS = CLASSICAL_AGENTS + BACKEND_AGENTS


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


class ReportError(Exception):
    """Run artifacts missing or unreadable."""


class SchemaVersionError(ReportError):
    """Artifact written under a different schema version."""


def _finite_nonnegative(value: float) -> bool:
    return math.isfinite(value) and value >= 0


_NUMBER = (int, float)
_NONE = type(None)


def _fits(value, types: tuple, check) -> bool:
    """Whether ``value`` has exactly one of ``types`` and passes ``check`` (if any)."""
    return type(value) in types and (check is None or check(value))


_SUITE = ((str,), lambda v: v in SUITES, f"one of {SUITES}")

# (field, accepted types, check, what the field must be) for every config
# field. The type must match exactly, so a boolean is no integer; None passes
# where _NONE is accepted.
_FIELD_RULES = (
    ("suite", *_SUITE),
    ("agent", (str,), lambda v: v in AGENTS, f"one of {AGENTS}"),
    ("runs", (int,), lambda v: v >= 1, "an integer >= 1"),
    ("master_seed", (int,), lambda v: v >= 0, "an integer >= 0"),
    ("output_dir", (str,), None, "a path string"),
    (
        "backend",
        (str, _NONE),
        lambda v: v == "remote" or v.startswith("mock:"),
        "'remote' or 'mock:<script.json>'",
    ),
    ("workers", (int, _NONE), lambda v: v >= 1, "an integer >= 1"),
    ("num_arms", (int,), lambda v: v >= 2, "an integer >= 2"),
    ("gap", _NUMBER, lambda v: 0 < v < 1, "a number in (0, 1)"),
    ("horizon", (int,), lambda v: v >= 1, "an integer >= 1"),
    ("n_candidates", (int,), lambda v: v >= 1, "an integer >= 1"),
    ("alpha", _NUMBER, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    ("lambda_min", _NUMBER, _finite_nonnegative, "a finite number >= 0"),
    ("lambda_max", _NUMBER, _finite_nonnegative, "a finite number >= 0"),
    ("growth_k", _NUMBER, lambda v: 0 < v <= MAX_GROWTH_K, f"a number in (0, {MAX_GROWTH_K!r}]"),
    (
        "temperature",
        (*_NUMBER, str),
        lambda v: v == "decay" if type(v) is str else _finite_nonnegative(v),
        "'decay' or a finite number >= 0",
    ),
    ("world", (str, _NONE), None, "a path string"),
    ("max_steps", (int, _NONE), lambda v: v >= 1, "an integer >= 1"),
)


@dataclass
class ExperimentConfig:
    suite: str = "bandit"
    agent: str = "ucb"
    runs: int = 20
    master_seed: int = 0
    output_dir: str = "runs"
    backend: str | None = None
    workers: int | None = None
    # bandit instance
    num_arms: int = 5
    gap: float = 0.2
    horizon: int = 200
    # explore/greedy agent
    n_candidates: int = 20
    alpha: float = 0.8
    lambda_min: float = 0.0
    lambda_max: float = 40.0
    growth_k: float = 5.0
    # temperature baseline: a number, or "decay" for the decaying schedule
    temperature: float | str = 0.0
    # keymaze
    world: str | None = None
    max_steps: int | None = None

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "ExperimentConfig":
        merged = {**data, **{k: v for k, v in (overrides or {}).items() if v is not None}}
        unknown = set(merged) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**merged)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(data, overrides)

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless every value fits; opens no file."""
        for name, types, check, requirement in _FIELD_RULES:
            value = getattr(self, name)
            if value is None and _NONE in types:
                continue
            if not _fits(value, types, check):
                raise ConfigError(f"{name} must be {requirement}, got {value!r}")
        if self.lambda_min > self.lambda_max:
            raise ConfigError(
                f"lambda_min must be <= lambda_max, got {self.lambda_min!r} > {self.lambda_max!r}"
            )
        if self.suite == "keymaze" and self.agent in CLASSICAL_AGENTS:
            raise ConfigError(f"agent {self.agent!r} only runs on the bandit suite")
        colors = len(ARM_COLORS)
        if self.suite == "bandit" and self.agent in BACKEND_AGENTS and self.num_arms > colors:
            raise ConfigError(
                f"agent {self.agent!r} names arms by color, so num_arms must be <= {colors}"
            )
        if self.agent in BACKEND_AGENTS and not self.backend:
            raise ConfigError(f"agent {self.agent!r} needs --backend mock:<script.json> or remote")

    def keymaze_world(self) -> KeyMazeWorld:
        """The world each run of a KeyMaze suite plays a copy of, set up once before
        any run; a ``world`` file that cannot be read or checked is a :class:`ConfigError`."""
        if self.world is None:
            return KeyMazeWorld()
        try:
            return KeyMazeWorld.from_file(self.world)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read world {self.world}: {exc}") from exc

    def backend_factory(self):
        """What each run takes a fresh backend from, or None for classical agents,
        which take no backend and so never read the script they are given.

        Set up once, before any run: a remote endpoint that is not configured,
        or a mock script that is missing or cannot be read, has the wrong shape
        or cannot serve the agent, is a :class:`ConfigError`."""
        if self.agent in CLASSICAL_AGENTS:
            return None
        if self.backend == "remote":
            try:
                RemotePolicy()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            return RemotePolicy
        script = self.backend.split(":", 1)[1]
        try:
            mock = MockPolicy.from_file(script)
        except (OSError, ValueError, RecursionError, MockScriptError) as exc:
            raise ConfigError(f"cannot read mock script {script}: {exc}") from exc
        greedy = self.dora_params().greedy_kind
        kind = greedy if self.agent == "llm_temp" else PromptKind.MODE_DECISION
        if not mock.serves(kind):
            raise ConfigError(
                f"mock script {script} holds no {kind.value!r} reply, "
                f"which agent {self.agent!r} asks for on every step"
            )
        return mock.fresh

    def dora_params(self) -> DoraParams:
        greedy = PromptKind.MAB_ANSWER if self.suite == "bandit" else PromptKind.GREEDY_ACTION
        return DoraParams(n_candidates=self.n_candidates, alpha=self.alpha, greedy_kind=greedy)

    def temperature_schedule(self, horizon: int) -> Callable[[int], float]:
        """The temperature baseline's tau(t): constant, or decaying to 0 over ``horizon``."""
        if self.temperature == "decay":
            return decaying_temperature(horizon)
        fixed = float(self.temperature)
        return lambda t: fixed

    def lambda_source(self, horizon: int):
        if self.agent == "dora_auto":
            return PolicySampledLambda((self.lambda_min, self.lambda_max))
        return ScheduledLambda(
            LambdaSchedule(self.lambda_min, self.lambda_max, self.growth_k, horizon)
        )


@dataclass
class RunArtifacts:
    """Where a suite wrote its files, the metrics line of each finished run in
    run order, and one record per failed run."""

    output_dir: Path
    metrics: list[dict]
    failures: list[dict]


def fmt(value) -> str:
    """CSV cell: 6 significant digits for floats, plain text otherwise."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_tables(tables) -> list[Path]:
    """Write each ``(path, text)`` of ``tables`` to ``<path>.tmp``, then rename
    them all into place and return the paths: an error leaves no table and no
    temporary. An existing path that is not a regular file is refused, and an
    OSError names the table, not its temporary."""
    moves: list[tuple[Path, Path]] = []
    path = None
    try:
        for path, text in tables:
            if path.exists() and not path.is_file():
                raise OSError(errno.EEXIST, "not a regular file")
            temp = path.with_name(path.name + ".tmp")
            moves.append((temp, path))
            temp.write_text(text, encoding="utf-8")
        for temp, path in moves:
            temp.replace(path)
    except BaseException as exc:
        for temp, _ in moves:
            with contextlib.suppress(OSError):
                temp.unlink()
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise
    return [path for _, path in moves]


_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _dump_line(obj: dict) -> str:
    return _LINE_ENCODER.encode(obj)


def _run_file(
    config: ExperimentConfig,
    run_index: int,
    seed: int,
    head: dict,
    step_text: list[str],
    tail: dict,
) -> tuple[str, dict]:
    """One run file: the config line, the encoded step lines, the metrics line.

    The config and metrics lines carry the keys every run shares
    (``schema_version``, ``kind``, ``suite``, ``agent``, ``run``, ``seed``)
    plus the suite's own ``head`` and ``tail`` fields. Returns the file text
    and the metrics line, which ``run_suite`` aggregates.
    """
    shared = {
        "schema_version": SCHEMA_VERSION,
        "suite": config.suite,
        "agent": config.agent,
        "run": run_index,
        "seed": seed,
    }
    config_line = {**shared, "kind": "config", **head}
    metrics_line = {**shared, "kind": "metrics", **tail}
    text = "\n".join([_dump_line(config_line), *step_text, _dump_line(metrics_line)]) + "\n"
    return text, metrics_line


def _step_line_from_record(record, run_index: int, **fields) -> str:
    """The encoded step line of one step record, plus the suite's own ``fields``."""
    line = {
        "schema_version": SCHEMA_VERSION,
        "kind": "step",
        "run": run_index,
        "step": record.step,
        "mode": record.mode.value,
        "chosen_action": record.chosen_action,
        "fallback": record.fallback_reason.value if record.fallback_reason else None,
        **fields,
    }
    if record.lam is not None:
        line["lambda"] = record.lam
    if record.candidates is not None:
        line["candidates"] = [
            {"action": c.action, "score": c.score, "prob": c.prob} for c in record.candidates
        ]
    return _dump_line(line)


# --- per-run execution ---------------------------------------------------------


# The step line of a bandit run whose steps carry no step record: the keys in
# sorted order and only integers, ``null`` and booleans as values, none of
# which JSON escapes, so ``%`` writes the bytes ``_dump_line`` would write for
# the same fields without building a dict.
_BANDIT_STEP_LINE = (
    f'{{"arm":%s,"kind":"step","reward":%d,"run":%d,"schema_version":{SCHEMA_VERSION},'
    f'"step":%d,"valid":%s}}'
)


def _bandit_step_text(run: BanditRun, run_index: int) -> list[str]:
    """The run's step lines, filled from ``_BANDIT_STEP_LINE``. A run repeats
    at most 2 * num_arms + 1 (arm, reward) pairs, so the text on either side
    of the step index is filled once per pair."""
    head, tail = _BANDIT_STEP_LINE.rsplit("%d", 1)  # the step index is the last %d
    sides = {}
    for arm, reward in set(zip(run.pulls, run.rewards)):
        if arm == INVALID_PULL:
            sides[arm, reward] = (head % ("null", reward, run_index), tail % "false")
        else:
            sides[arm, reward] = (head % (arm, reward, run_index), tail % "true")
    return [
        f"{before}{t}{after}"
        for t, (before, after) in enumerate(map(sides.__getitem__, zip(run.pulls, run.rewards)))
    ]


def _run_backend_agent(
    config: ExperimentConfig, backend_factory, env, max_steps: int, seed: int,
    context_builder=None, parse_action=first_action,
) -> EpisodeLog | None:
    """One episode of a backend agent on ``env``: the temperature baseline
    (``llm_temp``) or DORA, which samples from the ``[seed, 2]`` stream.

    Returns the episode whose step records the run file holds, or None for
    bandit ``llm_temp``: under schema 1 its step lines hold only the classical
    fields, so they are written from ``_BANDIT_STEP_LINE`` as the classical
    agents' are. The planned schema v2 (see ROADMAP) writes them from the records.
    """
    backend = backend_factory()
    params = config.dora_params()
    if config.agent == "llm_temp":
        tau = config.temperature_schedule(max_steps)
        step = temperature_step(backend, params, tau, context_builder, parse_action)
        episode = drive_episode(backend, env, step, max_steps, seed)
        return episode if config.suite == "keymaze" else None
    return run_episode(
        backend,
        env,
        config.lambda_source(max_steps),
        params,
        max_steps=max_steps,
        rng=np.random.default_rng([seed, 2]),
        context_builder=context_builder,
        seed=seed,
    )


def _run_bandit_one(config: ExperimentConfig, backend_factory, run_index: int):
    seed = config.master_seed + run_index
    instance = make_hard_instance(config.num_arms, config.gap, config.horizon, seed)
    episode: EpisodeLog | None = None

    if config.agent in CLASSICAL_AGENTS:
        run = run_bandit(CLASSICAL_POLICIES[config.agent](), instance, seed)
    else:
        env = BanditEnv(instance, seed)
        episode = _run_backend_agent(
            config, backend_factory, env, config.horizon, seed, make_mab_context_builder(instance),
            answer_action,
        )
        run = env.to_run()

    metrics = compute_metrics(run, instance)
    if episode is None:
        step_text = _bandit_step_text(run, run_index)
    else:
        step_text = [
            _step_line_from_record(
                record,
                run_index,
                arm=None if arm == INVALID_PULL else arm,
                reward=reward,
                valid=arm != INVALID_PULL,
            )
            for arm, reward, record in zip(run.pulls, run.rewards, episode.steps)
        ]
    head = {
        "num_arms": instance.num_arms,
        "gap": instance.gap,
        "horizon": instance.horizon,
        "best_arm": instance.best_arm,
    }
    tail = {
        "best_arm": instance.best_arm,
        "mean_avg_reward": metrics.mean_avg_reward,
        "cum_regret": metrics.cumulative_regret,
        "best_arm_frac": metrics.best_arm_fraction,
        "suffix_failure": metrics.suffix_failure,
        "invalid_count": metrics.invalid_count,
        "pulls": run.pulls,
    }
    return _run_file(config, run_index, seed, head, step_text, tail)


def _run_keymaze_one(config: ExperimentConfig, backend_factory, run_index: int, *, world):
    seed = config.master_seed + run_index
    world = copy.copy(world)  # reset rebuilds every per-episode field; the definition is shared
    max_steps = config.max_steps or world.horizon
    episode = _run_backend_agent(config, backend_factory, world, max_steps, seed)

    stats = loop_stats(episode)
    step_text = [
        _step_line_from_record(record, run_index, observation=record.observation, reward=reward)
        for record, reward in zip(episode.steps, episode.rewards + [0.0] * len(episode.steps))
    ]
    tail = {
        "score": episode.score,
        "steps": episode.num_steps,
        "terminal": episode.terminal,
        "partial": episode.partial,
        "unique_states": stats.unique_states,
        "loops_encountered": stats.loops_encountered,
        "loops_recovered": stats.loops_recovered,
        "token_count": episode.token_count,
    }
    return _run_file(config, run_index, seed, {"max_steps": max_steps}, step_text, tail)


# --- suite driver ---------------------------------------------------------------


def _send_share(one, share: range, send) -> None:
    """In a worker process: ``one(i)`` for each run of ``share``, sent to the
    parent as one list, or the OSError that stopped them (a run file that
    cannot be written)."""
    try:
        results = [one(i) for i in share]
    except OSError as exc:
        results = exc
    send.send(results)


def _run_in_processes(one, runs: int, workers: int) -> list:
    """``one(i)`` for every run ``i`` in run order, from ``workers`` processes.

    Worker k takes the fixed share of runs k, k + workers, k + 2 * workers,
    ... The calling process forks the workers 1..workers-1, runs share 0
    itself, then takes each worker's results from a pipe. An OSError that
    stopped a worker is raised again here, with its type and filename; a
    worker that ends without sending results is a RuntimeError naming its
    runs. Every worker is joined before this returns or raises, and on an
    error it is terminated first. Workers are forked, not spawned, so ``one``
    may be a closure and no worker imports dora and numpy again.
    """
    import multiprocessing  # here, so importing harness skips it

    context = multiprocessing.get_context("fork")
    shares = [range(k, runs, workers) for k in range(workers)]
    results: list = [None] * runs
    children = []
    try:
        for share in shares[1:]:
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_send_share, args=(one, share, send))
            child.start()
            children.append((child, receive, share))
            send.close()  # the child holds the only write end, so its exit ends the pipe
        results[0::workers] = [one(i) for i in shares[0]]
        for child, receive, share in children:
            try:
                sent = receive.recv()
            except EOFError:
                child.join()
                named = ", ".join(map(str, share[:3])) + (", ..." if len(share) > 3 else "")
                raise RuntimeError(
                    f"the worker process for runs {named} exited with code {child.exitcode} "
                    "before sending their results"
                ) from None
            if isinstance(sent, OSError):
                raise sent
            results[share.start::workers] = sent
    except BaseException:
        for child, _, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive, _ in children:
            child.join()
            receive.close()
    return results


def run_suite(config: ExperimentConfig) -> RunArtifacts:
    """Execute N runs and write all artifacts.

    Classical and mock runs hold the GIL, so on Linux they run in forked
    worker processes, the calling process being one of them (see
    :func:`_run_in_processes`), and serially elsewhere. Remote runs wait on
    the network, so they run in threads. The worker count is
    ``config.workers``, by default ``os.cpu_count()``; processes are capped
    at the number of runs. numpy's OpenBLAS leaves a second OS thread after
    import, so Python 3.12 and later raise a DeprecationWarning at the fork.

    Every input is read once, in the calling process before ``output_dir`` is
    made: the backend by :meth:`ExperimentConfig.backend_factory` and a
    KeyMaze world by :meth:`ExperimentConfig.keymaze_world`, whose copy each
    run plays, so no run opens an input file. A backend or world they refuse,
    or an ``output_dir`` that cannot be made a directory, is a
    :class:`ConfigError` before any run starts. Each run writes its JSONL file
    as soon as it ends, so only the metrics of finished runs stay in memory;
    an error writing the file escapes, and a run that fails is recorded.
    Before the first run, the agent's run files and the aggregate and plot
    CSVs that an earlier suite left in ``output_dir`` are removed (regular
    files only), so ``report`` never reads them with this suite's. The
    aggregate CSV, the plot CSVs and summary.json are written after the last
    run, all or nothing (:func:`_write_tables`), from the metrics in run
    order. Repeated invocations with the same config and master seed
    therefore produce identical bytes for mock and classical agents,
    whatever the worker count.
    """
    config.validate()
    backend_factory = config.backend_factory()
    runner = _run_bandit_one if config.suite == "bandit" else functools.partial(
        _run_keymaze_one, world=config.keymaze_world())
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    tables = ("aggregate.csv", "plot_arm_selection.csv", "plot_best_arm_fraction.csv")
    for stale in [*out.glob(f"{config.agent}_run*.jsonl"), *map(out.joinpath, tables)]:
        if stale.is_file():
            stale.unlink()

    def one(i: int):
        try:
            text, metrics_dict = runner(config, backend_factory, i)
        except BackendError as exc:
            return None, {"run": i, "kind": "backend", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - recorded per run, batch continues
            return None, {"run": i, "kind": type(exc).__name__, "error": str(exc)}
        (out / f"{config.agent}_run{i:04d}.jsonl").write_text(text, encoding="utf-8")
        return metrics_dict, None

    workers = config.workers or os.cpu_count() or 1
    if config.backend == "remote" and workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so importing harness skips it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(config.runs)))
    elif min(workers, config.runs) > 1 and sys.platform == "linux":
        results = _run_in_processes(one, config.runs, min(workers, config.runs))
    else:
        results = [one(i) for i in range(config.runs)]

    metrics = [metrics_dict for metrics_dict, failure in results if failure is None]
    failures = [failure for _, failure in results if failure is not None]
    tables: list[tuple[Path, str]] = []
    if metrics:
        if config.suite == "bandit":
            header, row = BANDIT_HEADER, _bandit_aggregate_rows(config.agent, metrics)
            tables += _bandit_plots(
                metrics, config.num_arms, config.horizon,
                out / "plot_arm_selection.csv", out / "plot_best_arm_fraction.csv",
            )
        else:
            header, row = KEYMAZE_HEADER, _keymaze_aggregate_rows(config.agent, metrics)
        tables.append((out / "aggregate.csv", _csv_text(header, [row])))

    summary = {
        "schema_version": SCHEMA_VERSION,
        "suite": config.suite,
        "agent": config.agent,
        "runs": config.runs,
        "completed": len(metrics),
        "failures": failures,
        "master_seed": config.master_seed,
        "incomplete": bool(failures),
    }
    tables.append((out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"))
    _write_tables(tables)

    return RunArtifacts(out, metrics, failures)


BANDIT_HEADER = [
    "agent",
    "mean_avg_reward",
    "suffix_fail_freq",
    "best_arm_frac",
    "cum_regret",
    "invalid_count",
]


def _bandit_aggregate_rows(agent: str, metrics: list[dict]) -> list:
    n = len(metrics)
    return [
        agent,
        sum(m["mean_avg_reward"] for m in metrics) / n,
        sum(bool(m["suffix_failure"]) for m in metrics) / n,
        sum(m["best_arm_frac"] for m in metrics) / n,
        sum(m["cum_regret"] for m in metrics) / n,
        sum(m["invalid_count"] for m in metrics) / n,
    ]


KEYMAZE_HEADER = [
    "agent",
    "runs",
    "mean_score",
    "mean_steps",
    "mean_unique_states",
    "loops_encountered",
    "loops_recovered",
    "recovery_rate",
]


def _keymaze_aggregate_rows(agent: str, metrics: list[dict]) -> list:
    n = len(metrics)
    loops = sum(m["loops_encountered"] for m in metrics)
    recovered = sum(m["loops_recovered"] for m in metrics)
    return [
        agent,
        n,
        sum(m["score"] for m in metrics) / n,
        sum(m["steps"] for m in metrics) / n,
        sum(m["unique_states"] for m in metrics) / n,
        loops,
        recovered,
        (recovered / loops) if loops else 0.0,
    ]


def _plot_series(metrics: list[dict], num_arms: int, horizon: int):
    """The steps t = 1..horizon, and the mean cumulative selections per arm,
    invalid count and best-arm share over t. Every run holds ``horizon`` pulls.

    Selections and invalid pulls are counted over all runs at once: the counts
    are integers, so their sums are exact in any order. The best-arm shares
    are fractions, so they are summed one run after another, in run order.
    """
    n = len(metrics)
    t = np.arange(1, horizon + 1)
    pulls = np.array(
        [[INVALID_PULL if arm is None else arm for arm in m["pulls"]] for m in metrics],
        dtype=np.int64,
    )
    valid = pulls != INVALID_PULL
    steps = np.nonzero(valid)[1]
    picks = np.bincount(steps * num_arms + pulls[valid], minlength=horizon * num_arms)
    cum = np.cumsum(picks.reshape(horizon, num_arms), axis=0)
    invalid = np.cumsum(np.count_nonzero(~valid, axis=0))
    best_frac = np.zeros(horizon)
    for run_pulls, m in zip(pulls, metrics):
        best_frac += np.cumsum(run_pulls == m["best_arm"]) / t
    return t, cum / n, invalid / n, best_frac / n


def _bandit_plots(
    metrics: list[dict], num_arms: int, horizon: int, arm_path: Path, frac_path: Path
) -> list[tuple[Path, str]]:
    """The arm-selection and best-arm-fraction plot CSVs of one agent's runs,
    as ``(path, text)`` pairs. Arms past the named colors are headed ``arm5``,
    ``arm6``, ...
    """
    colors = list(ARM_COLORS[:num_arms]) + [f"arm{i}" for i in range(len(ARM_COLORS), num_arms)]
    t, cum, invalid, best_frac = _plot_series(metrics, num_arms, horizon)
    return [
        (arm_path, _series_text(["t", *colors, "invalid"], [t, cum, invalid])),
        (frac_path, _series_text(["t", "best_arm_frac"], [t, best_frac])),
    ]


def _series_text(header: list[str], columns: list[np.ndarray]) -> str:
    """A plot CSV: the integer step ``t`` first, then float cells written as
    :func:`fmt` writes them (``%.6g``), one row per step."""
    rows = np.column_stack(columns).tolist()
    row = "%d" + ",%.6g" * (len(rows[0]) - 1)
    lines = [",".join(header), *(row % tuple(cells) for cells in rows)]
    return "\n".join(lines) + "\n"


# --- reporting -------------------------------------------------------------------


# The step lines _BANDIT_STEP_LINE and _step_line_from_record write, laid out
# as _dump_line lays them out: keys sorted, no whitespace, ``lambda`` and
# ``candidates`` only when the step has them. A line that fully matches is a
# JSON object whose schema_version is SCHEMA_VERSION, so ``report`` takes it
# undecoded between a run file's config and metrics lines: every key is written
# plainly and once, and numbers and strings are JSON's. Integers have no
# leading zero and at most 18 digits. Every other line there, one with a
# 5000-digit integer too, is refused. The string pattern is the unrolled form,
# which is faster per character than an alternation, and its first branch
# closes a string that holds no escape.
#
# Every optional part is an alternation with an empty branch, ``(?:X|)``, not
# ``(?:X)?``: ``re`` compiles ``?`` over a pattern of more than one op to a
# REPEAT, whose state it keeps for every use until the match ends, and the
# alternation to a BRANCH. Both try X first, so they take the same lines and
# end a match at the same place. A fullmatch of a bandit DORA line with 5
# candidates peaks at about 6 KB (tracemalloc) instead of 13 KB, and takes
# about 4.4 us instead of 5.6 us.
_JSON_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_JSON_NUMBER = _JSON_INT + r"(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"
_JSON_CHARS = r'[^"\\\x00-\x1f]*'
_JSON_ESCAPE = r'\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})'
_JSON_STRING = f'"{_JSON_CHARS}(?:"|{_JSON_ESCAPE}{_JSON_CHARS}(?:{_JSON_ESCAPE}{_JSON_CHARS})*")'


def _json_object_re(members: dict[str, str], optional: tuple[str, ...] = ()) -> str:
    """The pattern of an object that _dump_line writes, from the value pattern
    of each member; the members in ``optional`` may be absent, which the last
    key in sorted order must not be."""
    *head, last = sorted(members)
    body = "".join(
        f'(?:"{key}":{members[key]},|)' if key in optional else f'"{key}":{members[key]},'
        for key in head
    )
    return rf'\{{{body}"{last}":{members[last]}\}}'


def _one_of(values) -> str:
    return "(?:" + "|".join(map(re.escape, values)) + ")"


@functools.cache
def _step_line_patterns():
    """The patterns of the classical, the bandit DORA and the KeyMaze step line.

    Compiled when ``report`` first reads a file, never at import: ``run_suite``
    does not need them.
    """
    shared = {"kind": '"step"', "run": _JSON_INT, "schema_version": str(SCHEMA_VERSION),
              "step": _JSON_INT}
    bandit = {**shared, "arm": f"(?:null|{_JSON_INT})", "valid": "(?:true|false)"}
    candidate = _json_object_re(
        {"action": _JSON_STRING, "prob": _JSON_NUMBER, "score": _JSON_NUMBER}
    )
    record = {
        "candidates": rf"\[(?:{candidate}(?:,{candidate})*+|)\]",
        "chosen_action": _JSON_STRING,
        "fallback": _one_of(["null", *(f'"{reason.value}"' for reason in FallbackReason)]),
        "lambda": _JSON_NUMBER,
        "mode": _one_of(f'"{mode.value}"' for mode in Mode),
        "reward": _JSON_NUMBER,
    }
    return tuple(
        re.compile(_json_object_re(members, ("candidates", "lambda")))
        for members in (
            {**bandit, "reward": _JSON_INT},
            {**bandit, **record},
            {**shared, **record, "observation": _JSON_STRING},
        )
    )


@functools.cache
def _step_run_pattern():
    """The pattern of a run of step lines of any shapes, each line written as
    is and ended by a newline.

    The run repeat is possessive, so the engine drops a line's backtracking
    state once it has taken that line, and one match takes a run of any
    length. Compiled when ``report`` first reads a file, as
    :func:`_step_line_patterns` is. No step shape matches a newline, so a run
    ends on a line boundary.
    """
    shapes = "|".join(shape.pattern for shape in _step_line_patterns())
    return re.compile(rf"(?:(?:{shapes})\n)++")


def _read_run_file(path: Path) -> tuple[dict, dict]:
    """The config and metrics records of a run file in the one layout ``run``
    writes: the config line first, the metrics line last, and between them
    only step lines, each as its writer writes it.

    The file is read as bytes and decoded once. CRLF and then CR become LF
    when the text holds a CR, so its lines are those of ``readlines()`` with
    universal newlines. The first and the last line are decoded and checked;
    one step-run match must take every line between them, and the first line
    it does not take is refused undecoded. Line numbers are counted only for
    the line that fails.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ReportError(f"cannot read run file {path}: {exc}") from exc
    try:
        text = _newlines_to_lf(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        before = _newlines_to_lf(data[: exc.start].decode("utf-8"))
        raise ReportError(f"{_where(path, before, len(before))}: not UTF-8: {exc}") from exc
    end = len(text) - text.endswith("\n")  # the end of the last line
    first_end = text.find("\n", 0, end)
    if first_end < 0:  # one line or none
        if end:
            _decode_line(path, text, 0, text[:end])
        raise ReportError(f"{path}: missing config or metrics record")
    last = text.rfind("\n", 0, end) + 1
    config = _decode_line(path, text, 0, text[:first_end])
    metrics = _decode_line(path, text, last, text[last:end])
    if config.get("kind") != "config" or metrics.get("kind") != "metrics":
        raise ReportError(f"{path}: missing config or metrics record")
    steps = _step_run_pattern().match(text, first_end + 1, last)
    stop = steps.end() if steps else first_end + 1
    if stop != last:
        raise ReportError(f"{_where(path, text, stop)}: not a step line as run writes it")
    return config, metrics


def _newlines_to_lf(text: str) -> str:
    """``text`` with universal newlines: every CRLF and lone CR becomes LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _where(path: Path, text: str, pos: int) -> str:
    """``path:line`` for the line of ``text`` that holds ``pos``."""
    line_no = text.count("\n", 0, pos) + 1
    return f"{path}:{line_no}"


def _decode_line(path: Path, text: str, pos: int, line: str) -> dict:
    """The record of ``line``, which starts at ``pos`` of ``text``: a JSON
    object of this schema."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also a huge integer or deep nesting
        raise ReportError(f"{_where(path, text, pos)}: not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ReportError(f"{_where(path, text, pos)}: not a JSON object")
    version = record.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{_where(path, text, pos)}: {record.get('kind', 'record')} field schema_version "
            f"must be the integer {SCHEMA_VERSION}, got {version!r}"
        )
    return record


# An agent names plot files and table rows, so it must be a plain file-name
# part; counts and reals must average and sum to finite floats.
_AGENT = (
    (str,),
    lambda v: re.fullmatch(r"[\w.-]{1,64}", v, re.ASCII) is not None,
    "1 to 64 ASCII letters, digits, '_', '.' or '-'",
)
_COUNT = ((int,), lambda v: 0 <= v < 2**63, "an integer in [0, 2**63)")
_SIZE = ((int,), lambda v: v >= 1, "an integer >= 1")
_REAL = (_NUMBER, lambda v: abs(v) <= sys.float_info.max, "a finite number")

# (field, (accepted types, check, what it must be)) for every field ``report``
# reads from a run file's (config, metrics) records, by suite; as in
# _FIELD_RULES, the type must match exactly, so a boolean is no integer.
_REPORT_FIELDS = {
    "bandit": (
        (("agent", _AGENT), ("num_arms", _SIZE), ("gap", _REAL), ("horizon", _SIZE)),
        (("best_arm", _COUNT), ("mean_avg_reward", _REAL), ("cum_regret", _REAL),
         ("best_arm_frac", _REAL), ("suffix_failure", ((bool,), None, "a boolean")),
         ("invalid_count", _COUNT), ("pulls", ((list,), None, "a list"))),
    ),
    "keymaze": (
        (("agent", _AGENT), ("max_steps", _SIZE)),
        (("score", _REAL), ("steps", _COUNT), ("unique_states", _COUNT),
         ("loops_encountered", _COUNT), ("loops_recovered", _COUNT)),
    ),
}


def _check_fields(path: Path, kind: str, record: dict, rules) -> None:
    """Raise :class:`ReportError` unless ``record`` holds every field of ``rules``, each fit."""
    missing = [name for name, _ in rules if name not in record]
    if missing:
        raise ReportError(f"{path}: {kind} record lacks {', '.join(missing)}")
    for name, (types, check, requirement) in rules:
        value = record[name]
        if not _fits(value, types, check):
            raise ReportError(
                f"{path}: {kind} field {name} must be {requirement}, got {value!r}"
            )


def _pulls_fit(pulls: list, num_arms: int, horizon: int) -> bool:
    """Whether ``pulls`` holds exactly ``horizon`` arms, each ``null``,
    ``INVALID_PULL`` or an integer in ``[0, num_arms)``."""
    if len(pulls) != horizon or not set(map(type, pulls)) <= {int, _NONE}:
        return False
    arms = set(pulls) - {None, INVALID_PULL}
    return not arms or (min(arms) >= 0 and max(arms) < num_arms)


# The most cells ``report`` writes into one arm-selection plot: a ``t``
# column, one per arm and an ``invalid`` column, by ``horizon`` rows. The demo
# plots hold 1,400; a plot at the limit took about 600 MB of memory and 3 s
# to build and write on a 2-vCPU host.
MAX_PLOT_CELLS = 10_000_000

_SHAPE = "(num_arms, horizon)"


def _same_setting(firsts: dict, path: Path, agent: str, name: str, value) -> None:
    """Refuse a run of ``agent`` whose setting ``name`` differs from that of
    the agent's first run; ``firsts`` maps (agent, name) to that run's value
    and file."""
    first, first_path = firsts.setdefault((agent, name), (value, path))
    if value != first:
        raise ReportError(
            f"{path}: agent {agent!r} has {name} = {value!r}, but {first_path} has {first!r}; "
            "report them from separate directories"
        )


def report(input_dir, output_dir) -> list[Path]:
    """Aggregate a directory of run JSONL files into summary tables and plot CSVs.

    Raises :class:`ReportError` (before writing anything) when the directory
    holds no artifacts, a run file is not in the one layout ``run`` writes
    (see :func:`_read_run_file`) or its config or metrics line is not a JSON
    object whose ``schema_version`` is exactly the integer
    :data:`SCHEMA_VERSION`, a config record's ``suite`` is not one of
    :data:`SUITES`, a config or metrics record lacks a field read here or
    holds one of the wrong type or out of range, a bandit run's ``pulls`` do
    not fit its ``(num_arms, horizon)``, its arm-selection plot would pass
    :data:`MAX_PLOT_CELLS`, one bandit agent's runs differ in ``(num_arms,
    horizon)`` or in ``gap``, one KeyMaze agent's runs differ in
    ``max_steps``, or ``output_dir`` cannot be made a directory; and, naming
    the file, when a table or plot path exists and is not a regular file or
    cannot be written. The tables are written all or nothing (see
    :func:`_write_tables`), so a report error leaves no table.
    """
    input_dir = Path(input_dir)
    paths = sorted(input_dir.glob("**/*.jsonl"))
    if not paths:
        raise ReportError(f"no run artifacts (*.jsonl) found under {input_dir}")

    bandit_metrics: dict[str, list[dict]] = {}
    keymaze_metrics: dict[str, list[dict]] = {}
    firsts: dict[tuple[str, str], tuple[object, Path]] = {}
    for path in paths:
        header, metrics = _read_run_file(path)
        _check_fields(path, "config", header, (("suite", _SUITE),))
        suite = header["suite"]
        config_fields, metrics_fields = _REPORT_FIELDS[suite]
        _check_fields(path, "config", header, config_fields)
        _check_fields(path, "metrics", metrics, metrics_fields)
        if suite == "bandit":
            agent = header["agent"]
            shape = (header["num_arms"], header["horizon"])
            if not _pulls_fit(metrics["pulls"], *shape):
                raise ReportError(
                    f"{path}: metrics field pulls must hold exactly {shape[1]} arms, each "
                    f"null, {INVALID_PULL} or an integer in [0, {shape[0]})"
                )
            cells = (shape[0] + 2) * shape[1]
            if cells > MAX_PLOT_CELLS:
                raise ReportError(
                    f"{path}: (num_arms, horizon) = {shape} needs an arm-selection plot of "
                    f"{cells} cells, past the limit of {MAX_PLOT_CELLS}"
                )
            _same_setting(firsts, path, agent, _SHAPE, shape)
            _same_setting(firsts, path, agent, "gap", header["gap"])
            bandit_metrics.setdefault(agent, []).append(metrics)
        else:
            _same_setting(firsts, path, header["agent"], "max_steps", header["max_steps"])
            keymaze_metrics.setdefault(header["agent"], []).append(metrics)

    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReportError(f"cannot create output directory {out}: {exc}") from exc
    shapes = {agent: firsts[agent, _SHAPE][0] for agent in bandit_metrics}
    try:
        return _write_tables(_report_tables(out, bandit_metrics, shapes, keymaze_metrics))
    except OSError as exc:
        raise ReportError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc


def _report_tables(out: Path, bandit_metrics, shapes, keymaze_metrics):
    """The tables and plots of a report as ``(path, text)`` pairs, each one
    built when it is taken."""
    if bandit_metrics:
        agents = sorted(bandit_metrics)
        rows = [_bandit_aggregate_rows(agent, bandit_metrics[agent]) for agent in agents]
        yield out / "metric_table.csv", _csv_text(BANDIT_HEADER, rows)
        for agent in agents:
            yield from _bandit_plots(
                bandit_metrics[agent], *shapes[agent],
                out / f"arm_selection_{agent}.csv", out / f"best_arm_fraction_{agent}.csv",
            )
    if keymaze_metrics:
        agents = sorted(keymaze_metrics)
        rows = [_keymaze_aggregate_rows(agent, keymaze_metrics[agent]) for agent in agents]
        yield out / "loops_table.csv", _csv_text(KEYMAZE_HEADER, rows)
