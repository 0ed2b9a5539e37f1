"""Harness: config handling, artifact determinism, schemas, report, exit codes."""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import re
import select
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dora import harness
from dora.cli import main
from dora.harness import (
    SCHEMA_VERSION,
    ConfigError,
    ExperimentConfig,
    ReportError,
    SchemaVersionError,
    fmt,
    report,
    run_suite,
)
from dora.agent import FallbackReason, ScoredCandidate, StepRecord
from dora.bandit import INVALID_PULL, decaying_temperature
from dora.lambda_control import MAX_GROWTH_K
from dora.policy import Mode, PolicyRequest, PromptKind

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
SRC = Path(harness.__file__).resolve().parents[1]

BANDIT_ACTIONS = "press blue button\npress green button\npress red button\npress yellow button\npress purple button"

# A 5000-digit integer, past CPython's default limit on converting str to int.
LONG_INT = "1" + "0" * 5000
# An integer JSON decodes, but no float holds.
HUGE = 10**400


def run_files(artifacts) -> list[Path]:
    return sorted(artifacts.output_dir.glob("*.jsonl"))


def suite_files(artifacts) -> dict[str, bytes]:
    """Every file a suite wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(artifacts.output_dir.iterdir())}


def write_bandit_mock(path: Path, loop: bool = True) -> str:
    script = {
        "loop": loop,
        "rescores": {
            "press blue button": [-1.1],
            "press green button": [-0.9],
            "press red button": [-0.2],
            "press yellow button": [-1.4],
            "press purple button": [-0.7],
        },
        "entries": [
            {"kind": "mode", "text": '{"mode":"EXPLORE"}'},
            {"kind": "candidates", "text": BANDIT_ACTIONS},
            {"kind": "answer", "text": "<Answer>I will press red button</Answer>"},
        ],
    }
    path.write_text(json.dumps(script))
    return str(path)


def write_keymaze_mock(path: Path) -> str:
    script = {
        "loop": True,
        "entries": [
            {"kind": "mode", "text": '{"mode":"EXPLORE"}'},
            {
                "kind": "candidates",
                "text": "go north\ngo south\ngo east\ngo west\nopen chest\ntake key\nunlock door\nlook",
            },
            {"kind": "greedy", "text": "look"},
        ],
    }
    path.write_text(json.dumps(script))
    return str(path)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestExperimentConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_flag_overrides_file_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agent": "ts", "runs": 5}))
        config = ExperimentConfig.from_file(cfg, {"agent": "ucb"})
        assert config.agent == "ucb"
        assert config.runs == 5  # file value survives where no flag given

    def test_none_overrides_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agent": "ts"}))
        config = ExperimentConfig.from_file(cfg, {"agent": None, "runs": None})
        assert config.agent == "ts"

    def test_classical_agent_on_keymaze_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"suite": "keymaze", "agent": "ucb"})

    def test_backend_required_for_llm_agents(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"agent": "dora_scheduled"})

    def test_missing_mock_script_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"agent": "dora_auto", "backend": "mock:/nope.json"})

    def test_remote_without_env_vars_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DORA_API_BASE", raising=False)
        monkeypatch.delenv("DORA_MODEL", raising=False)
        config = ExperimentConfig.from_dict(
            {"agent": "llm_temp", "backend": "remote", "runs": 1}
        )
        with pytest.raises(ConfigError):
            config.backend_factory()

    def test_temperature_schedule(self):
        decay = ExperimentConfig(temperature="decay").temperature_schedule(50)
        reference = decaying_temperature(50)
        assert [decay(t) for t in (0, 25, 50)] == [reference(t) for t in (0, 25, 50)]
        fixed = ExperimentConfig(temperature=1).temperature_schedule(50)
        assert fixed(0) == fixed(49) == 1.0
        assert type(fixed(0)) is float

    def test_bad_suite_and_runs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"suite": "chess"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"runs": 0})

    def test_integer_too_long_to_convert_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"agent": "ucb", "runs": %s}' % LONG_INT)
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_file(cfg)

    def test_nesting_too_deep_to_decode_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="cannot read config .*recursion"):
            ExperimentConfig.from_file(cfg)

    def test_every_field_has_a_rule(self):
        assert [rule[0] for rule in harness._FIELD_RULES] == [
            f.name for f in fields(ExperimentConfig)
        ]


class TestCsvFormatting:
    def test_six_significant_digits(self):
        assert fmt(13.684932111) == "13.6849"
        assert fmt(0.000123456789) == "0.000123457"
        assert fmt(1.0) == "1"
        assert fmt(True) == "1"
        assert fmt("ucb") == "ucb"
        assert fmt(200) == "200"


def plot_series_by_run(metrics: list[dict], num_arms: int, horizon: int):
    """The per-run loop ``_plot_series`` replaced, every series summed run by run."""
    n = len(metrics)
    cum = np.zeros((horizon, num_arms))
    invalid = np.zeros(horizon)
    best_frac = np.zeros(horizon)
    for m in metrics:
        pulls = np.array(
            [INVALID_PULL if arm is None else arm for arm in m["pulls"]], dtype=np.int64
        )
        steps = len(pulls)
        valid = pulls != INVALID_PULL
        picks = np.zeros((steps, num_arms))
        picks[np.flatnonzero(valid), pulls[valid]] = 1.0
        cum[:steps] += np.cumsum(picks, axis=0)
        invalid[:steps] += np.cumsum(~valid)
        best_frac[:steps] += np.cumsum(pulls == m["best_arm"]) / np.arange(1, steps + 1)
    return cum / n, invalid / n, best_frac / n


@st.composite
def bandit_metrics(draw):
    """(metrics, num_arms, horizon): runs of ``horizon`` pulls each, any mix of
    arms, ``null`` and ``INVALID_PULL``, and a best arm that may be none of them."""
    num_arms, horizon = draw(st.integers(2, 8)), draw(st.integers(1, 40))
    pull = st.sampled_from([None, INVALID_PULL, *range(num_arms)])
    run = st.fixed_dictionaries({
        "pulls": st.lists(pull, min_size=horizon, max_size=horizon),
        "best_arm": st.integers(INVALID_PULL, num_arms),
    })
    return draw(st.lists(run, min_size=1, max_size=12)), num_arms, horizon


class TestPlotCsv:
    @settings(max_examples=300, deadline=None)
    @given(bandit_metrics())
    def test_series_equal_the_per_run_sums(self, drawn):
        t, *series = harness._plot_series(*drawn)
        assert t.tolist() == list(range(1, drawn[2] + 1))
        for got, expected in zip(series, plot_series_by_run(*drawn)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=20))
    def test_rows_are_written_as_fmt_writes_cells(self, tmp_path, rows):
        header = ["t", "a", "b", "c"]
        harness._write_series(
            tmp_path / "series.csv", header, [np.arange(1, len(rows) + 1), np.array(rows)]
        )
        cells = [[t, *row] for t, row in enumerate(rows, 1)]
        harness._write_csv(tmp_path / "cells.csv", header, cells)
        assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


class TestBanditSuite:
    def run_config(self, tmp_path, name, **kw):
        base = {
            "suite": "bandit",
            "agent": "ucb",
            "runs": 4,
            "master_seed": 3,
            "horizon": 30,
            "workers": 1,
            "output_dir": str(tmp_path / name),
        }
        base.update(kw)
        return ExperimentConfig.from_dict(base)

    def test_classical_artifacts(self, tmp_path):
        artifacts = run_suite(self.run_config(tmp_path, "out"))
        assert not artifacts.failures
        assert len(run_files(artifacts)) == 4
        header = (artifacts.output_dir / "aggregate.csv").read_text().splitlines()[0]
        assert header == "agent,mean_avg_reward,suffix_fail_freq,best_arm_frac,cum_regret,invalid_count"
        for line in run_files(artifacts)[0].read_text().splitlines():
            assert json.loads(line)["schema_version"] == SCHEMA_VERSION

    def test_byte_identical_reruns(self, tmp_path):
        a = run_suite(self.run_config(tmp_path, "a"))
        b = run_suite(self.run_config(tmp_path, "b"))
        assert suite_files(a) == suite_files(b)

    def test_worker_count_does_not_change_artifacts(self, tmp_path):
        serial = run_suite(self.run_config(tmp_path, "w1", workers=1, runs=8))
        pooled = run_suite(self.run_config(tmp_path, "w4", workers=4, runs=8))
        assert suite_files(serial) == suite_files(pooled)

    def test_dora_mock_runs_and_is_deterministic(self, tmp_path):
        script = write_bandit_mock(tmp_path / "script.json")
        a = run_suite(
            self.run_config(tmp_path, "da", agent="dora_scheduled", backend=f"mock:{script}", runs=3)
        )
        b = run_suite(
            self.run_config(tmp_path, "db", agent="dora_scheduled", backend=f"mock:{script}", runs=3)
        )
        assert not a.failures and not b.failures
        assert suite_files(a) == suite_files(b)

    def test_explore_steps_are_auditable(self, tmp_path):
        script = write_bandit_mock(tmp_path / "script.json")
        artifacts = run_suite(
            self.run_config(tmp_path, "audit", agent="dora_scheduled", backend=f"mock:{script}", runs=1)
        )
        step_lines = [
            json.loads(line)
            for line in run_files(artifacts)[0].read_text().splitlines()
            if json.loads(line)["kind"] == "step"
        ]
        explore = [line for line in step_lines if line.get("mode") == "EXPLORE"]
        assert explore, "expected explore steps in the log"
        for line in explore:
            if line.get("fallback"):
                continue
            assert "lambda" in line
            assert line["candidates"], "scored candidate list missing"
            for cand in line["candidates"]:
                assert {"action", "score", "prob"} <= set(cand)
            total = sum(c["prob"] for c in line["candidates"])
            assert abs(total - 1.0) <= 1e-9

    def test_plot_conservation(self, tmp_path):
        script = write_bandit_mock(tmp_path / "script.json")
        artifacts = run_suite(
            self.run_config(tmp_path, "plot", agent="dora_scheduled", backend=f"mock:{script}", runs=2)
        )
        lines = (artifacts.output_dir / "plot_arm_selection.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t" and header[-1] == "invalid"
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            t, colors, invalid = cells[0], cells[1:-1], cells[-1]
            assert abs(sum(colors) + invalid - t) <= 0.01  # 6-sig-digit rounding

    def test_ucb_thousand_run_aggregate_row(self, tmp_path):
        # End-to-end check of the aggregation path at reference scale: the
        # CSV row for UCB over 1000 seeded runs on the hard instance.
        config = ExperimentConfig.from_dict(
            {
                "agent": "ucb",
                "runs": 1000,
                "master_seed": 0,
                "output_dir": str(tmp_path / "ucb1000"),
            }
        )
        artifacts = run_suite(config)
        header, row = (artifacts.output_dir / "aggregate.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["agent"] == "ucb"
        assert abs(float(cells["cum_regret"]) - 13.68) <= 1.5
        assert float(cells["invalid_count"]) == 0

    def test_each_run_file_is_written_when_its_run_ends(self, tmp_path, monkeypatch):
        config = self.run_config(tmp_path, "out")
        out = Path(config.output_dir)
        runner = harness._run_bandit_one
        present = []

        def spy(config, backend_factory, run_index):
            present.append(sorted(p.name for p in out.glob("*.jsonl")))
            return runner(config, backend_factory, run_index)

        monkeypatch.setattr(harness, "_run_bandit_one", spy)
        run_suite(config)
        assert present == [[f"ucb_run{j:04d}.jsonl" for j in range(i)] for i in range(4)]

    @pytest.mark.parametrize("workers", [1, 2])  # at 2, run 1 is in the forked worker's share
    def test_run_file_write_error_escapes(self, tmp_path, workers):
        config = self.run_config(tmp_path, "out", workers=workers)
        blocked = Path(config.output_dir) / "ucb_run0001.jsonl"
        blocked.mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as info:
            run_suite(config)
        assert info.value.filename == str(blocked)

    def test_partial_batch_recorded(self, tmp_path):
        # a non-looping script exhausts after the first run's first step
        script = write_bandit_mock(tmp_path / "short.json", loop=False)
        artifacts = run_suite(
            self.run_config(
                tmp_path, "partial", agent="dora_scheduled", backend=f"mock:{script}", runs=2
            )
        )
        assert artifacts.failures
        summary = json.loads((artifacts.output_dir / "summary.json").read_text())
        assert summary["incomplete"] is True
        assert summary["completed"] < 2


class TestWorkerDefault:
    def config(self, tmp_path, name, **kw):
        base = {"agent": "ucb", "runs": 6, "horizon": 40, "output_dir": str(tmp_path / name)}
        base.update(kw)
        return ExperimentConfig.from_dict(base)

    def forbid_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a GIL-bound suite must not start a thread pool")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)  # more than one worker

    def spy_on_forks(self, monkeypatch) -> list[int]:
        """The pid of the process that starts each forked worker, from here on."""
        process = multiprocessing.get_context("fork").Process
        start = process.start
        starts = []

        def spy(worker):
            starts.append(os.getpid())
            start(worker)

        monkeypatch.setattr(process, "start", spy)
        return starts

    def test_classical_suite_starts_no_thread_pool(self, tmp_path, monkeypatch):
        self.forbid_pool(monkeypatch)
        assert not run_suite(self.config(tmp_path, "ucb")).failures

    def test_mock_suite_starts_no_thread_pool(self, tmp_path, monkeypatch):
        self.forbid_pool(monkeypatch)
        script = write_bandit_mock(tmp_path / "script.json")
        config = self.config(tmp_path, "dora", agent="dora_scheduled", backend=f"mock:{script}", runs=2)
        assert not run_suite(config).failures

    @pytest.mark.skipif(sys.platform != "linux", reason="suites fork workers only on Linux")
    def test_mock_suite_forks_a_process_per_worker_but_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        starts = self.spy_on_forks(monkeypatch)
        script = write_bandit_mock(tmp_path / "script.json")
        config = self.config(tmp_path, "dora", agent="dora_scheduled", backend=f"mock:{script}")
        artifacts = run_suite(config)
        assert starts == [os.getpid()] * 3
        assert not artifacts.failures and len(run_files(artifacts)) == config.runs == 6

    def test_one_run_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        starts = self.spy_on_forks(monkeypatch)
        assert not run_suite(self.config(tmp_path, "ucb", runs=1)).failures
        assert starts == []

    @pytest.mark.skipif(sys.platform != "linux", reason="suites fork workers only on Linux")
    def test_worker_that_exits_without_results_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_send_share", lambda one, share, send: os._exit(7))
        config = self.config(tmp_path, "ucb", runs=8, workers=2)
        with pytest.raises(RuntimeError, match=r"runs 1, 3, 5, \.\.\. exited with code 7 "):
            run_suite(config)
        assert not (Path(config.output_dir) / "summary.json").exists()

    def test_error_in_the_parents_share_stops_every_worker(self, tmp_path):
        config = self.config(tmp_path, "ucb", runs=40, horizon=2000, workers=4)
        blocked = Path(config.output_dir) / "ucb_run0000.jsonl"
        blocked.mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as info:
            run_suite(config)
        assert info.value.filename == str(blocked)
        assert multiprocessing.active_children() == []

    def test_remote_suite_keeps_the_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DORA_API_BASE", "http://127.0.0.1:9")
        monkeypatch.setenv("DORA_MODEL", "test-model")
        pools = []

        class Started(Exception):
            pass

        def record_pool(max_workers):
            pools.append(max_workers)
            raise Started  # stop before any run reaches the endpoint

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", record_pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)  # a pool even on one CPU
        config = self.config(tmp_path, "remote", agent="dora_scheduled", backend="remote", runs=2)
        with pytest.raises(Started):
            run_suite(config)
        assert pools == [4]

    def test_unset_workers_matches_four_workers(self, tmp_path):
        script = write_bandit_mock(tmp_path / "script.json")
        for agent, backend in (("eps_greedy", None), ("dora_scheduled", f"mock:{script}")):
            serial = self.config(tmp_path, f"{agent}_default", agent=agent, backend=backend)
            pooled = self.config(tmp_path, f"{agent}_w4", agent=agent, backend=backend, workers=4)
            run_suite(serial)
            run_suite(pooled)
            assert tree_bytes(Path(serial.output_dir)) == tree_bytes(Path(pooled.output_dir))

    def test_import_does_not_load_the_thread_pool(self):
        code = (
            "import sys\nimport dora.harness\n"
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False False\n"


HI = ({"role": "user", "content": "hi"},)


class TestMockBackendFactory:
    def factory(self, tmp_path, script):
        return ExperimentConfig.from_dict(
            {"agent": "dora_scheduled", "backend": f"mock:{script}", "output_dir": str(tmp_path)}
        ).backend_factory()

    def test_mocks_from_one_factory_share_no_state(self, tmp_path):
        script = tmp_path / "modes.json"
        modes = [{"kind": "mode", "text": f'{{"mode":"{m}"}}'} for m in ("EXPLORE", "GREEDY")]
        script.write_text(json.dumps({"rescores": {"look": [-0.5]}, "entries": modes}))
        make = self.factory(tmp_path, script)
        request = PolicyRequest(HI, 0.2, PromptKind.MODE_DECISION)
        first = make()
        assert first.complete(request).text == '{"mode":"EXPLORE"}'
        first.rescore((), "look")
        second = make()
        assert (second.calls, second.rescore_calls, second.tokens_used) == ([], 0, 0)
        assert second.complete(request).text == '{"mode":"EXPLORE"}'
        assert first.complete(request).text == '{"mode":"GREEDY"}'
        assert (len(first.calls), first.rescore_calls, first.tokens_used) == (2, 1, 2)
        assert (len(second.calls), second.rescore_calls, second.tokens_used) == (1, 0, 1)

    def test_script_is_read_once_per_factory(self, tmp_path, monkeypatch):
        reads = []
        from_file = harness.MockPolicy.from_file

        def counted(path):
            reads.append(path)
            return from_file(path)

        monkeypatch.setattr(harness.MockPolicy, "from_file", counted)
        make = self.factory(tmp_path, write_bandit_mock(tmp_path / "script.json"))
        assert reads == []
        mocks = [make() for _ in range(3)]
        assert len(reads) == 1 and len({id(m) for m in mocks}) == 3

    def test_factory_is_safe_across_threads(self, tmp_path):
        # Eight threads on a short switch interval each take a mock from one
        # factory and drive it; a shared cursor or call log would interleave.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        make = self.factory(tmp_path, write_bandit_mock(tmp_path / "script.json"))
        kinds = [PromptKind.MODE_DECISION, PromptKind.CANDIDATE_LIST, PromptKind.MAB_ANSWER] * 50

        def drive(_):
            mock = make()
            return mock, [mock.complete(PolicyRequest(HI, 0.2, kind)).text for kind in kinds]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(drive, range(32), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        expected = drive(0)[1]
        assert len({id(mock) for mock, _ in results}) == 32
        for mock, replies in results:
            assert replies == expected
            assert mock.calls == kinds

    def test_pooled_keymaze_mock_suite_matches_serial(self, tmp_path):
        script = write_keymaze_mock(tmp_path / "km.json")
        dirs = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            config = {
                "suite": "keymaze",
                "agent": "dora_auto",
                "runs": 4,
                "max_steps": 12,
                "backend": f"mock:{script}",
                "workers": workers,
                "output_dir": str(out),
            }
            run_suite(ExperimentConfig.from_dict(config))
            dirs.append(out)
        assert tree_bytes(dirs[0]) == tree_bytes(dirs[1])


BAD_SCRIPTS = {
    "unknown_kind": (
        '{"loop": true, "entries": [{"kind": "mode", "text": "x"}, {"kind": "bogus", "text": "y"}]}',
        "MockScriptError",
        "unknown script entry kind 'bogus' in {path}",
    ),
    "not_json": (
        '{"loop": true, "entries": [',
        "JSONDecodeError",
        "Expecting value: line 1 column 28 (char 27)",
    ),
}


class TestBadMockScript:
    @pytest.mark.parametrize("workers", [None, 3])
    @pytest.mark.parametrize("name", list(BAD_SCRIPTS))
    def test_every_run_fails_and_is_recorded(self, tmp_path, name, workers):
        text, kind, message = BAD_SCRIPTS[name]
        script = tmp_path / f"{name}.json"
        script.write_text(text)
        config = {
            "agent": "dora_scheduled",
            "runs": 3,
            "horizon": 5,
            "workers": workers,
            "backend": f"mock:{script}",
            "output_dir": str(tmp_path / "out"),
        }
        artifacts = run_suite(ExperimentConfig.from_dict(config))
        assert artifacts.failures and run_files(artifacts) == []
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        error = message.format(path=script)
        assert summary["failures"] == [{"run": i, "kind": kind, "error": error} for i in range(3)]
        assert summary["incomplete"] is True and summary["completed"] == 0

    @pytest.mark.parametrize("name", list(BAD_SCRIPTS))
    def test_cli_exits_partial(self, tmp_path, name, capsys):
        text, kind, _ = BAD_SCRIPTS[name]
        script = tmp_path / f"{name}.json"
        script.write_text(text)
        args = ["--agent", "dora_scheduled", "--backend", f"mock:{script}", "--runs", "2"]
        code = main(["bandit", "run", *args, "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"run 1 failed ({kind})" in capsys.readouterr().out


class TestKeymazeSuite:
    def test_llm_temp_keymaze_runs(self, tmp_path):
        script = tmp_path / "temp.json"
        script.write_text(
            json.dumps({"loop": True, "entries": [{"kind": "greedy", "text": "go east"}]})
        )
        config = ExperimentConfig.from_dict(
            {
                "suite": "keymaze",
                "agent": "llm_temp",
                "runs": 2,
                "max_steps": 6,
                "temperature": "decay",
                "workers": 1,
                "backend": f"mock:{script}",
                "output_dir": str(tmp_path / "temp_out"),
            }
        )
        artifacts = run_suite(config)
        assert not artifacts.failures
        assert artifacts.metrics[0]["steps"] == 6
        assert artifacts.metrics[0]["loops_encountered"] > 0  # stuck in the dead end

    def test_dora_keymaze_runs(self, tmp_path):
        script = write_keymaze_mock(tmp_path / "km.json")
        config = ExperimentConfig.from_dict(
            {
                "suite": "keymaze",
                "agent": "dora_scheduled",
                "runs": 2,
                "master_seed": 0,
                "max_steps": 15,
                "lambda_min": 0.0,
                "lambda_max": 0.0,
                "workers": 1,
                "backend": f"mock:{script}",
                "output_dir": str(tmp_path / "km_out"),
            }
        )
        artifacts = run_suite(config)
        assert not artifacts.failures
        text = (artifacts.output_dir / "aggregate.csv").read_text().splitlines()
        assert text[0].startswith("agent,runs,mean_score")
        metrics = artifacts.metrics[0]
        assert metrics["unique_states"] >= 1
        assert metrics["loops_recovered"] <= metrics["loops_encountered"]

    @staticmethod
    def bad_logprob_config(tmp_path, bad, modes) -> dict:
        """A KeyMaze DORA config of 3 steps whose mode replies cycle through
        ``modes`` and whose candidate list has the token log-probability ``bad``."""
        lines = ["go north", "look"]
        tokens = [["go", -0.1], [" north", bad], ["\n", -0.01], ["look", -0.2]]
        script = tmp_path / "km.json"
        script.write_text(
            json.dumps(
                {
                    "loop": True,
                    "entries": [
                        *({"kind": "mode", "text": json.dumps({"mode": m})} for m in modes),
                        {"kind": "candidates", "text": "\n".join(lines), "token_logprobs": tokens},
                        {"kind": "greedy", "text": "look"},
                    ],
                }
            )
        )
        return {
            "suite": "keymaze",
            "agent": "dora_scheduled",
            "runs": 1,
            "max_steps": 3,
            "backend": f"mock:{script}",
            "output_dir": str(tmp_path / "km_out"),
        }

    @pytest.mark.parametrize("bad", [float("-inf"), float("nan"), 0.5])
    def test_bad_token_logprob_is_a_backend_error_step(self, tmp_path, bad):
        # A candidate list whose token log-probabilities include a value that
        # is not finite and <= 0: the step falls back, and the run, whose
        # GREEDY step succeeds, completes.
        config = self.bad_logprob_config(tmp_path, bad, ["EXPLORE", "GREEDY"])
        artifacts = run_suite(ExperimentConfig.from_dict(config))
        assert not artifacts.failures
        records = [json.loads(line) for line in run_files(artifacts)[0].read_text().splitlines()]
        steps = [r for r in records if r["kind"] == "step"]
        assert [r["fallback"] for r in steps] == ["backend_error", None, "backend_error"]
        assert [r["chosen_action"] for r in steps] == ["", "look", ""]

    @pytest.mark.parametrize("bad", [float("-inf"), float("nan"), 0.5])
    def test_bad_token_logprob_on_every_step_is_a_backend_failure(self, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.bad_logprob_config(tmp_path, bad, ["EXPLORE"])))
        assert main(["keymaze", "run", "--config", str(cfg)]) == 2
        out = tmp_path / "km_out"
        assert not list(out.glob("*.jsonl"))
        [failure] = json.loads((out / "summary.json").read_text())["failures"]
        assert failure["kind"] == "backend"
        assert failure["error"].startswith("backend failed on all 3 steps: ")
        assert "bad log-probabilities" in failure["error"]


class TestReport:
    def test_empty_directory_errors_without_output(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "tables"
        with pytest.raises(ReportError):
            report(empty, out)
        assert not out.exists()

    def test_schema_mismatch_is_explicit(self, tmp_path):
        bad = tmp_path / "runs"
        bad.mkdir()
        (bad / "x_run0000.jsonl").write_text(json.dumps({"schema_version": 99, "kind": "config"}) + "\n")
        with pytest.raises(SchemaVersionError):
            report(bad, tmp_path / "tables")

    def test_optimal_play_series_is_constant_one(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        horizon = 10
        lines = [
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "config",
                "suite": "bandit",
                "agent": "oracle",
                "run": 0,
                "seed": 0,
                "num_arms": 5,
                "gap": 0.2,
                "horizon": horizon,
                "best_arm": 2,
            }
        ]
        lines += [
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "step",
                "run": 0,
                "step": t,
                "arm": 2,
                "reward": 1,
                "valid": True,
            }
            for t in range(horizon)
        ]
        lines.append(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "metrics",
                "suite": "bandit",
                "agent": "oracle",
                "run": 0,
                "seed": 0,
                "best_arm": 2,
                "mean_avg_reward": 1.0,
                "cum_regret": 0.0,
                "best_arm_frac": 1.0,
                "suffix_failure": False,
                "invalid_count": 0,
                "pulls": [2] * horizon,
            }
        )
        (runs / "oracle_run0000.jsonl").write_text(
            "\n".join(harness._dump_line(line) for line in lines) + "\n"
        )
        written = report(runs, tmp_path / "tables")
        frac = [p for p in written if p.name == "best_arm_fraction_oracle.csv"][0]
        rows = frac.read_text().splitlines()[1:]
        assert len(rows) == horizon
        assert all(row.split(",")[1] == "1" for row in rows)

    def test_more_arms_than_colors_keeps_csvs_rectangular(self, tmp_path):
        runs = tmp_path / "runs"
        suite = run_suite(
            ExperimentConfig.from_dict(
                {"agent": "ucb", "runs": 3, "num_arms": 7, "horizon": 25, "output_dir": str(runs)}
            )
        )
        written = report(runs, tmp_path / "tables")
        from_report = [p for p in written if p.name == "arm_selection_ucb.csv"][0]
        from_suite = suite.output_dir / "plot_arm_selection.csv"
        for path in (from_report, from_suite):
            header, *rows = path.read_text().splitlines()
            assert header == "t,blue,green,red,yellow,purple,arm5,arm6,invalid"
            assert len(rows) == 25
            assert {len(row.split(",")) for row in rows} == {len(header.split(","))}
        assert from_report.read_bytes() == from_suite.read_bytes()

    def test_merges_agents_into_one_table(self, tmp_path):
        out_a = tmp_path / "runs"
        for agent in ("ucb", "greedy"):
            run_suite(
                ExperimentConfig.from_dict(
                    {
                        "agent": agent,
                        "runs": 2,
                        "horizon": 20,
                        "workers": 1,
                        "master_seed": 1,
                        "output_dir": str(out_a / agent),
                    }
                )
            )
        written = report(out_a, tmp_path / "tables")
        table = [p for p in written if p.name == "metric_table.csv"][0]
        rows = table.read_text().splitlines()
        assert rows[0].startswith("agent,")
        assert [row.split(",")[0] for row in rows[1:]] == ["greedy", "ucb"]


    def write_greedy_runs(self, tmp_path) -> Path:
        runs = tmp_path / "runs"
        run_suite(
            ExperimentConfig.from_dict(
                {"agent": "greedy", "runs": 2, "horizon": 20, "output_dir": str(runs)}
            )
        )
        return runs

    def assert_report_fails(self, runs: Path, tmp_path, *fragments: str) -> None:
        out = tmp_path / "tables"
        with pytest.raises(ReportError) as info:
            report(runs, out)
        for fragment in fragments:
            assert fragment in str(info.value)
        assert not out.exists()
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", ["[1]", '"metrics"', "3", "null"])
    def test_line_that_is_not_an_object_is_a_report_error(self, tmp_path, line):
        """In place of the metrics line, which is decoded; between the first
        and the last line it is no step line (see TestStepLineShapes)."""
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0001.jsonl"
        lines = path.read_text().splitlines()
        lines[-1] = line
        path.write_text("\n".join(lines) + "\n")
        self.assert_report_fails(runs, tmp_path, f"{path}:22:", "not a JSON object")

    def test_file_of_only_config_and_metrics_lines_is_read(self, tmp_path):
        runs = self.write_greedy_runs(tmp_path)
        report(runs, tmp_path / "full")
        for path in runs.glob("*.jsonl"):
            first, *_, last = path.read_text().splitlines()
            path.write_text(f"{first}\n{last}\n")
        report(runs, tmp_path / "bare")
        assert tree_bytes(tmp_path / "bare") == tree_bytes(tmp_path / "full")

    MISSING = "{path}: missing config or metrics record"

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param("", MISSING, id="empty"),
            pytest.param("\n", MISSING, id="blank"),
            pytest.param("{config}", MISSING, id="config-unended"),
            pytest.param("{config}\n", MISSING, id="config"),
            pytest.param("{config}\n{steps}", MISSING, id="metrics-dropped"),
            pytest.param("{metrics}\n{steps}{config}\n", MISSING, id="swapped"),
            pytest.param("{config}\n{steps}{metrics_cut}", "{path}:22: not valid JSON: ",
                         id="metrics-truncated"),
        ],
    )
    def test_file_out_of_the_run_layout_is_refused(self, tmp_path, text, message):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0000.jsonl"
        config, *steps, metrics = path.read_text().splitlines()
        steps = "".join(line + "\n" for line in steps)
        path.write_text(text.format(config=config, steps=steps, metrics=metrics,
                                    metrics_cut=metrics[:-9]))
        self.assert_report_fails(runs, tmp_path, message.format(path=path))

    @pytest.mark.parametrize(
        "kind,name",
        [
            ("config", "num_arms"),
            ("config", "gap"),
            ("config", "horizon"),
            ("config", "agent"),
            ("config", "suite"),
            ("metrics", "mean_avg_reward"),
            ("metrics", "invalid_count"),
            ("metrics", "pulls"),
            ("metrics", "best_arm"),
        ],
    )
    def test_bandit_record_without_a_field_is_a_report_error(self, tmp_path, kind, name):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0000.jsonl"
        self.edit_records(path, lambda records: records[kind].pop(name))
        self.assert_report_fails(runs, tmp_path, str(path), f"{kind} record lacks {name}")

    @staticmethod
    def edit_records(path: Path, edit) -> None:
        """Apply ``edit`` to the config and metrics records, by kind, and
        rewrite only their lines, the first and the last; the step lines stay
        as written."""
        first, *steps, last = path.read_text().splitlines()
        records = {"config": json.loads(first), "metrics": json.loads(last)}
        edit(records)
        lines = [json.dumps(records["config"]), *steps, json.dumps(records["metrics"])]
        path.write_text("".join(line + "\n" for line in lines))

    @pytest.mark.parametrize(
        "kind,name,value",
        [
            ("config", "num_arms", "5"),
            ("config", "num_arms", 0),
            ("config", "gap", "0.2"),
            ("config", "horizon", True),
            ("config", "horizon", 20.0),
            ("config", "agent", 5),
            ("config", "suite", "maze"),
            ("config", "suite", None),
            ("config", "schema_version", True),
            ("metrics", "schema_version", 1.0),
            ("metrics", "best_arm", None),
            ("metrics", "mean_avg_reward", "0.5"),
            ("metrics", "cum_regret", None),
            ("metrics", "best_arm_frac", True),
            ("metrics", "suffix_failure", 0),
            ("metrics", "invalid_count", 1.0),
            ("metrics", "pulls", "0,1,2"),
        ],
    )
    def test_bandit_field_of_the_wrong_type_is_a_report_error(self, tmp_path, kind, name, value):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0001.jsonl"
        self.edit_records(path, lambda records: records[kind].update({name: value}))
        self.assert_report_fails(runs, tmp_path, str(path), f"{kind} field {name} must be")

    @pytest.mark.parametrize(
        "index,arm", [(0, 5), (3, 9), (0, -2), (1, True), (2, 1.0), (4, "red"), (20, 0)]
    )
    def test_pull_outside_the_run_is_a_report_error(self, tmp_path, index, arm):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0000.jsonl"

        def edit(records):
            pulls = records["metrics"]["pulls"]
            if index < len(pulls):
                pulls[index] = arm
            else:
                pulls.append(arm)  # one pull past the horizon

        self.edit_records(path, edit)
        self.assert_report_fails(runs, tmp_path, str(path), "metrics field pulls must hold")

    def test_fewer_pulls_than_the_horizon_is_a_report_error(self, tmp_path):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0001.jsonl"
        self.edit_records(path, lambda records: records["metrics"]["pulls"].pop())
        self.assert_report_fails(runs, tmp_path, str(path), "pulls must hold exactly 20 arms")

    def test_horizon_past_any_run_is_a_report_error(self, tmp_path):
        runs = self.write_greedy_runs(tmp_path)
        for path in sorted(runs.glob("*.jsonl")):
            self.edit_records(path, lambda records: records["config"].update(horizon=2**70))
        self.assert_report_fails(runs, tmp_path, f"pulls must hold exactly {2**70} arms")

    def test_arm_count_past_the_plot_limit_is_a_report_error(self, tmp_path, report_child):
        runs = self.write_greedy_runs(tmp_path)
        for path in sorted(runs.glob("*.jsonl")):
            self.edit_records(path, lambda records: records["config"].update(num_arms=2**70))
        out = tmp_path / "tables"
        outcome, message = report_child(runs, out)
        assert outcome == "ReportError", message
        assert f"(num_arms, horizon) = ({2**70}, 20)" in message
        assert f"past the limit of {harness.MAX_PLOT_CELLS}" in message
        assert not out.exists()

    @pytest.mark.parametrize("spare", [0, -1])
    def test_plot_at_the_cell_limit_is_written_and_one_past_is_refused(
        self, tmp_path, monkeypatch, spare
    ):
        runs = self.write_greedy_runs(tmp_path)
        monkeypatch.setattr(harness, "MAX_PLOT_CELLS", (5 + 2) * 20 + spare)
        if spare:
            self.assert_report_fails(runs, tmp_path, "(num_arms, horizon) = (5, 20)", "139")
        else:
            assert report(runs, tmp_path / "tables")

    @pytest.mark.parametrize(
        "kind,name,value",
        [
            ("config", "agent", "a/b"),
            ("config", "agent", "../greedy"),
            ("config", "agent", "a\x00b"),
            ("config", "agent", "\ud800"),
            ("config", "agent", "a,b"),
            ("config", "agent", ""),
            ("config", "agent", "x" * 65),
            ("config", "gap", float("nan")),
            ("metrics", "mean_avg_reward", HUGE),
            ("metrics", "cum_regret", float("nan")),
            ("metrics", "best_arm_frac", float("-inf")),
            ("metrics", "best_arm", HUGE),
            ("metrics", "invalid_count", 2**63),
            ("metrics", "invalid_count", -1),
        ],
        ids=lambda value: "HUGE" if value == HUGE else None,
    )
    def test_bandit_field_out_of_range_is_a_report_error(self, tmp_path, kind, name, value):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0001.jsonl"
        self.edit_records(path, lambda records: records[kind].update({name: value}))
        self.assert_report_fails(runs, tmp_path, str(path), f"{kind} field {name} must be")

    @pytest.mark.parametrize(
        "kind,name,value",
        [
            ("config", "agent", "\ud800"),
            ("config", "agent", "a\nb"),
            ("metrics", "score", HUGE),
            ("metrics", "score", float("nan")),
            ("metrics", "steps", HUGE),
            ("metrics", "loops_recovered", HUGE),
        ],
        ids=lambda value: "HUGE" if value == HUGE else None,
    )
    def test_keymaze_field_out_of_range_is_a_report_error(self, tmp_path, kind, name, value):
        path = self.write_keymaze_run(tmp_path)
        self.edit_records(path, lambda records: records[kind].update({name: value}))
        self.assert_report_fails(path.parent, tmp_path, str(path), f"{kind} field {name} must be")

    def test_null_and_invalid_pulls_are_read(self, tmp_path):
        runs = self.write_greedy_runs(tmp_path)

        def edit(records):
            records["metrics"]["pulls"][:2] = [None, INVALID_PULL]

        self.edit_records(runs / "greedy_run0000.jsonl", edit)
        assert main(["report", "--in", str(runs), "--out", str(tmp_path / "tables")]) == 0

    def test_file_that_is_not_utf8_is_a_report_error(self, tmp_path):
        runs = self.write_greedy_runs(tmp_path)
        path = runs / "greedy_run0001.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'\xff\xfe' + lines[1]
        path.write_bytes(b"".join(lines))
        self.assert_report_fails(runs, tmp_path, f"{path}:2: not UTF-8: ", "0xff")

    def test_directory_named_like_a_run_file_is_a_report_error(self, tmp_path):
        runs = self.write_greedy_runs(tmp_path)
        (runs / "x.jsonl").mkdir()
        self.assert_report_fails(runs, tmp_path, f"cannot read run file {runs / 'x.jsonl'}: ")

    def write_keymaze_run(self, tmp_path) -> Path:
        runs = tmp_path / "runs"
        script = write_keymaze_mock(tmp_path / "km.json")
        run_suite(
            ExperimentConfig.from_dict(
                {
                    "suite": "keymaze",
                    "agent": "llm_temp",
                    "runs": 1,
                    "max_steps": 5,
                    "backend": f"mock:{script}",
                    "output_dir": str(runs),
                }
            )
        )
        return runs / "llm_temp_run0000.jsonl"

    @pytest.mark.parametrize("name", ["loops_encountered", "score", "unique_states"])
    def test_keymaze_metrics_without_a_field_is_a_report_error(self, tmp_path, name):
        path = self.write_keymaze_run(tmp_path)
        self.edit_records(path, lambda records: records["metrics"].pop(name))
        self.assert_report_fails(path.parent, tmp_path, str(path), f"metrics record lacks {name}")

    @pytest.mark.parametrize(
        "kind,name,value",
        [
            ("config", "agent", None),
            ("config", "suite", "chess"),
            ("config", "schema_version", "1"),
            ("config", "max_steps", None),
            ("config", "max_steps", 0),
            ("metrics", "score", "0.5"),
            ("metrics", "steps", 5.0),
            ("metrics", "unique_states", False),
            ("metrics", "loops_encountered", None),
            ("metrics", "loops_recovered", "0"),
        ],
    )
    def test_keymaze_field_of_the_wrong_type_is_a_report_error(self, tmp_path, kind, name, value):
        path = self.write_keymaze_run(tmp_path)
        self.edit_records(path, lambda records: records[kind].update({name: value}))
        self.assert_report_fails(path.parent, tmp_path, str(path), f"{kind} field {name} must be")

    def test_mixed_bandit_shapes_are_a_report_error(self, tmp_path):
        runs = tmp_path / "runs"
        for name, num_arms in (("a_k5", 5), ("b_k2", 2)):
            run_suite(
                ExperimentConfig.from_dict(
                    {
                        "agent": "ucb",
                        "runs": 2,
                        "num_arms": num_arms,
                        "horizon": 20,
                        "output_dir": str(runs / name),
                    }
                )
            )
        out = tmp_path / "tables"
        with pytest.raises(ReportError) as info:
            report(runs, out)
        assert str(info.value) == (
            f"{runs / 'b_k2' / 'ucb_run0000.jsonl'}: agent 'ucb' has (num_arms, horizon) = "
            f"(2, 20), but {runs / 'a_k5' / 'ucb_run0000.jsonl'} has (5, 20); report them from "
            "separate directories"
        )
        assert not out.exists()

    def test_one_bandit_agents_runs_of_different_gaps_are_a_report_error(self, tmp_path):
        runs = tmp_path / "runs"
        for gap in (0.2, 0.4):
            config = {"agent": "ucb", "runs": 3, "gap": gap, "output_dir": str(runs / f"gap{gap}")}
            run_suite(ExperimentConfig.from_dict(config))
        out = tmp_path / "tables"
        with pytest.raises(ReportError) as info:
            report(runs, out)
        assert str(info.value) == (
            f"{runs / 'gap0.4' / 'ucb_run0000.jsonl'}: agent 'ucb' has gap = 0.4, but "
            f"{runs / 'gap0.2' / 'ucb_run0000.jsonl'} has 0.2; report them from separate directories"
        )
        assert not out.exists()

    def test_one_keymaze_agents_runs_of_different_max_steps_are_a_report_error(self, tmp_path):
        runs = tmp_path / "runs"
        script = write_keymaze_mock(tmp_path / "km.json")
        for max_steps in (5, 6):
            config = {"suite": "keymaze", "agent": "llm_temp", "runs": 2, "max_steps": max_steps,
                      "backend": f"mock:{script}", "output_dir": str(runs / f"steps{max_steps}")}
            run_suite(ExperimentConfig.from_dict(config))
        out = tmp_path / "tables"
        with pytest.raises(ReportError) as info:
            report(runs, out)
        assert str(info.value) == (
            f"{runs / 'steps6' / 'llm_temp_run0000.jsonl'}: agent 'llm_temp' has max_steps = 6, "
            f"but {runs / 'steps5' / 'llm_temp_run0000.jsonl'} has 5; report them from separate "
            "directories"
        )
        assert not out.exists()


# The classical step shape as it was built from the writer's template: the
# first ``%s`` (arm) made ``null`` or a JSON integer, each ``%d`` a JSON integer
# and the last ``%s`` ``true``/``false``.
TEMPLATE_STEP_RE = re.compile(
    re.escape(harness._BANDIT_STEP_LINE)
    .replace("%s", f"(?:null|{harness._JSON_INT})", 1)
    .replace("%d", harness._JSON_INT)
    .replace("%s", "(?:true|false)")
)


class TestStepLineTemplate:
    """The lines ``_BANDIT_STEP_LINE`` writes match the classical shape, shape 0
    of ``_step_line_patterns()``, so ``report`` takes them undecoded between a
    run file's first and last line. A line close to that shape is decoded and
    checked in the place of the config or the metrics line, and refused
    between them (``TestStepLineShapes``)."""

    CLASSICAL_RE = harness._step_line_patterns()[0]

    def test_classical_shape_is_the_template_pattern(self):
        assert self.CLASSICAL_RE.pattern == TEMPLATE_STEP_RE.pattern

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(TEMPLATE_STEP_RE, fullmatch=True))
    def test_every_matching_line_is_an_object_of_this_schema(self, line):
        record = json.loads(line)
        assert type(record) is dict
        assert type(record["schema_version"]) is int
        assert record["schema_version"] == SCHEMA_VERSION

    json_int = st.integers(-(10**18) + 1, 10**18 - 1)

    @settings(max_examples=300, deadline=None)
    @given(st.none() | json_int, json_int, json_int, json_int, st.booleans())
    def test_every_written_line_matches(self, arm, reward, run, step, valid):
        line = harness._BANDIT_STEP_LINE % (
            "null" if arm is None else arm, reward, run, step, "true" if valid else "false"
        )
        assert self.CLASSICAL_RE.fullmatch(line)

    STEP = harness._BANDIT_STEP_LINE % (1, 0, 0, 3, "true")
    WRONG_VERSION = [
        pytest.param(STEP.replace('"schema_version":1', '"schema_version":1.0'), 1.0, id="float"),
        pytest.param(STEP.replace('"schema_version":1', '"schema_version":true'), True,
                     id="boolean"),
        pytest.param(
            '{"kind":"step","arm":1,"reward":0,"run":0,"schema_version":"1","step":3,"valid":true}',
            "1", id="reordered-keys",
        ),
    ]
    NOT_JSON = [
        pytest.param(STEP.replace('"reward":0', '"reward":01'), id="leading-zero"),
        pytest.param(STEP + "x", id="trailing-bytes"),
        pytest.param(STEP + STEP, id="two-lines-in-one"),
        pytest.param(STEP.replace('"step":3', f'"step":{LONG_INT}'), id="5000-digits"),
    ]

    @pytest.mark.parametrize("line,version", WRONG_VERSION)
    def test_close_line_with_a_wrong_version_is_a_schema_error(self, tmp_path, line, version):
        runs, path = self.replace_line(tmp_path, 0, line)
        with pytest.raises(SchemaVersionError) as info:
            report(runs, tmp_path / "tables")
        assert str(info.value) == (
            f"{path}:1: step field schema_version must be the integer 1, got {version!r}"
        )

    @pytest.mark.parametrize("line", NOT_JSON)
    def test_close_line_that_is_not_json_is_a_report_error(self, tmp_path, line):
        runs, path = self.replace_line(tmp_path, -1, line)
        with pytest.raises(ValueError) as decoding:
            json.loads(line)
        with pytest.raises(ReportError) as info:
            report(runs, tmp_path / "tables")
        assert type(info.value) is ReportError
        assert str(info.value) == f"{path}:22: not valid JSON: {decoding.value}"

    def test_line_nested_too_deep_is_a_report_error(self, tmp_path):
        runs, path = self.replace_line(tmp_path, -1, "[" * 100_000)
        expected = f"^{re.escape(str(path))}:22: not valid JSON: .*recursion"
        with pytest.raises(ReportError, match=expected):
            report(runs, tmp_path / "tables")

    @staticmethod
    def edit_first_run(tmp_path, edit) -> tuple[Path, Path]:
        """A greedy suite of 2 runs of 20 steps, whose first run file's lines
        (22 of them) ``edit`` then changes in place."""
        runs = tmp_path / "runs"
        run_suite(
            ExperimentConfig.from_dict(
                {"agent": "greedy", "runs": 2, "horizon": 20, "output_dir": str(runs)}
            )
        )
        path = runs / "greedy_run0000.jsonl"
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return runs, path

    @staticmethod
    def insert_line(tmp_path, line: str) -> tuple[Path, Path]:
        """A greedy suite with ``line`` as line 5 of its first run file."""

        def edit(lines):
            assert TestStepLineTemplate.CLASSICAL_RE.fullmatch(lines[4])
            lines.insert(4, line)

        return TestStepLineTemplate.edit_first_run(tmp_path, edit)

    @staticmethod
    def replace_line(tmp_path, at: int, line: str) -> tuple[Path, Path]:
        """A greedy suite with ``line`` in place of the config line (``at`` 0)
        or the metrics line (``at`` -1) of its first run file."""

        def edit(lines):
            lines[at] = line

        return TestStepLineTemplate.edit_first_run(tmp_path, edit)


def demo_config(name: str, runs: int, out: Path) -> ExperimentConfig:
    """A demo config with its mock script found from any working directory."""
    data = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    data["backend"] = "mock:" + str(CONFIGS / data["backend"].split("/")[-1])
    data.update(runs=runs, output_dir=str(out))
    return ExperimentConfig.from_dict(data)


JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\n\u00e9\u2028\U0001f600'))
JSON_FLOAT = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 1e16, 1.5e-7])
    | st.integers(-1000, 1000).map(float)
)
JSON_INT = st.integers(-(10**18) + 1, 10**18 - 1)


@st.composite
def step_records(draw) -> StepRecord:
    """A step record in one of the forms ``dora_step`` and ``temperature_step`` write."""
    candidates = st.lists(
        st.builds(ScoredCandidate, JSON_TEXT, JSON_FLOAT, JSON_FLOAT), min_size=1, max_size=6
    )
    lam = JSON_FLOAT | st.integers(0, 100)
    form = draw(st.sampled_from(["explore", "greedy", *FallbackReason]))
    if form == "explore":
        mode, fields = Mode.EXPLORE, {"lam": draw(lam), "candidates": draw(candidates)}
    elif form == "greedy":
        mode, fields = Mode.GREEDY, {}
    elif form is FallbackReason.EMPTY_CANDIDATES:
        mode, fields = Mode.EXPLORE, {"lam": draw(lam), "candidates": []}
    elif form is FallbackReason.PARSE_FAILURE:
        mode = draw(st.sampled_from(Mode))
        fields = {"lam": draw(st.none() | lam), "candidates": draw(st.none() | candidates)}
    else:  # BACKEND_ERROR: mode and lambda as far as the step got
        mode, fields = draw(st.sampled_from(Mode)), {"lam": draw(st.none() | lam)}
    return StepRecord(
        draw(JSON_INT),
        draw(JSON_TEXT),
        mode,
        draw(JSON_TEXT),
        fallback_reason=form if isinstance(form, FallbackReason) else None,
        **fields,
    )


# A step record, and the bandit DORA and KeyMaze step lines written from it.
RECORD = StepRecord(
    3,
    "You are in the hall.",
    Mode.EXPLORE,
    "go north",
    lam=2.5,
    candidates=[ScoredCandidate("go north", 0.25, 0.75), ScoredCandidate("look", -1.0, 0.25)],
)
BANDIT_STEP = harness._step_line_from_record(RECORD, 0, arm=2, reward=1, valid=True)
KEYMAZE_STEP = harness._step_line_from_record(RECORD, 0, observation=RECORD.observation, reward=0.0)
# Edits that take a DORA step line off its shape, each with what decoding the
# edited line gives: "read" (a step record of this schema), "json" (not JSON),
# or the schema_version it then holds.
NEAR_MISS_EDITS = [
    pytest.param(lambda s: s.replace('"mode":', '"mode": '), "read", id="space-after-colon"),
    pytest.param(
        lambda s: '{"kind":"step",' + s[1:].replace(',"kind":"step"', ""), "read",
        id="reordered-keys",
    ),
    pytest.param(
        lambda s: s.replace('"schema_version":1', '"schema_version":1.0'), 1.0,
        id="version-float",
    ),
    pytest.param(
        lambda s: s.replace('"schema_version":1', '"schema_version":true'), True,
        id="version-true",
    ),
    pytest.param(
        lambda s: s.replace('"step":', '"schema_version":2,"step":'), 2,
        id="second-version",
    ),
    pytest.param(
        lambda s: s.replace('"chosen_action"', '"\\u0063hosen_action"'), "read",
        id="escaped-key",
    ),
    pytest.param(
        lambda s: s.replace('"go north"', '"go\x01north"', 1), "json", id="control-character"
    ),
    pytest.param(
        lambda s: s.replace('"go north"', '"go\\qnorth"', 1), "json", id="bad-escape"
    ),
    pytest.param(lambda s: s[:-1] + ",}", "json", id="trailing-comma"),
    pytest.param(lambda s: s[:-9], "json", id="truncated"),
    pytest.param(
        lambda s: re.sub('"reward":[^,]*', '"reward":01', s), "json", id="leading-zero"
    ),
    pytest.param(
        lambda s: re.sub('"reward":[^,]*', f'"reward":{LONG_INT}', s), "json",
        id="5000-digit-reward",
    ),
    pytest.param(
        lambda s: s.replace('"step":3', f'"step":{LONG_INT}'), "json",
        id="5000-digit-step",
    ),
]
CLASSICAL_STEP = TestStepLineTemplate.STEP
# Lines that no step shape takes: the near misses of both DORA lines, the lines
# close to the classical one, a step line in the layout of ``json.dumps``, with
# padding or reordered keys, and lines that are no step line at all.
OFF_SHAPE_LINES = [
    *(
        pytest.param(edit.values[0](step), id=f"{edit.id}-{name}")
        for edit in NEAR_MISS_EDITS
        for name, step in (("bandit", BANDIT_STEP), ("keymaze", KEYMAZE_STEP))
    ),
    *(pytest.param(p.values[0], id=f"classical-{p.id}")
      for p in TestStepLineTemplate.WRONG_VERSION + TestStepLineTemplate.NOT_JSON),
    pytest.param(json.dumps(json.loads(CLASSICAL_STEP)), id="json-dumps-layout"),
    pytest.param(
        '{"kind":"step","arm":1,"reward":0,"run":0,"schema_version":1,"step":3,"valid":true}',
        id="reordered-step",
    ),
    pytest.param(" " + CLASSICAL_STEP, id="padded-before"),
    pytest.param(CLASSICAL_STEP + "\t", id="padded-after"),
    pytest.param("", id="blank"),
    pytest.param("[" * 100_000, id="nested-too-deep"),
    *(pytest.param(line, id=f"not-an-object-{line}") for line in ["[1]", '"metrics"', "3", "null"]),
]


class TestStepLineShapes:
    """``report`` takes the bandit DORA and KeyMaze step lines that
    ``_step_line_from_record`` writes undecoded between a run file's first and
    last line, by matching them against their shapes, and refuses every other
    line there. Its first and last line are decoded and checked."""

    _, BANDIT_RE, KEYMAZE_RE = harness._step_line_patterns()

    @pytest.mark.parametrize("pattern", [BANDIT_RE, KEYMAZE_RE], ids=["bandit", "keymaze"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_matching_line_is_an_object_of_this_schema(self, pattern, data):
        line = data.draw(st.from_regex(pattern, fullmatch=True))
        record = json.loads(line)
        assert type(record) is dict
        assert type(record["schema_version"]) is int
        assert record["schema_version"] == SCHEMA_VERSION

    @settings(max_examples=300, deadline=None)
    @given(step_records(), JSON_INT, st.none() | JSON_INT, JSON_INT, st.booleans())
    def test_every_written_bandit_line_matches(self, record, run, arm, reward, valid):
        line = harness._step_line_from_record(record, run, arm=arm, reward=reward, valid=valid)
        assert self.BANDIT_RE.fullmatch(line)

    @settings(max_examples=300, deadline=None)
    @given(step_records(), JSON_INT, JSON_FLOAT)
    def test_every_written_keymaze_line_matches(self, record, run, reward):
        line = harness._step_line_from_record(
            record, run, observation=record.observation, reward=reward
        )
        assert self.KEYMAZE_RE.fullmatch(line)

    @pytest.mark.parametrize("step", [BANDIT_STEP, KEYMAZE_STEP], ids=["bandit", "keymaze"])
    @pytest.mark.parametrize("edit,outcome", NEAR_MISS_EDITS)
    def test_near_miss_is_decoded_and_checked(self, tmp_path, monkeypatch, step, edit, outcome):
        """In place of the metrics line: the line decoded as a step record is
        refused for its kind, and every other one names its line."""
        line = edit(step)
        assert not self.BANDIT_RE.fullmatch(line) and not self.KEYMAZE_RE.fullmatch(line)
        runs, path = TestStepLineTemplate.replace_line(tmp_path, -1, line)
        decoded = self.record_loads(monkeypatch)
        with pytest.raises(ReportError) as info:
            report(runs, tmp_path / "tables")
        monkeypatch.undo()
        assert line in decoded
        if outcome == "read":
            assert str(info.value) == f"{path}: missing config or metrics record"
        elif outcome == "json":
            with pytest.raises(ValueError) as decoding:
                json.loads(line)
            assert type(info.value) is ReportError
            assert str(info.value) == f"{path}:22: not valid JSON: {decoding.value}"
        else:
            assert type(info.value) is SchemaVersionError
            assert str(info.value) == (
                f"{path}:22: step field schema_version must be the integer 1, got {outcome!r}"
            )

    @pytest.mark.parametrize("line", OFF_SHAPE_LINES)
    def test_line_between_that_no_shape_takes_is_refused(self, tmp_path, monkeypatch, line):
        assert not any(shape.fullmatch(line) for shape in harness._step_line_patterns())
        runs, path = TestStepLineTemplate.insert_line(tmp_path, line)
        decoded = self.record_loads(monkeypatch)
        with pytest.raises(ReportError) as info:
            report(runs, tmp_path / "tables")
        monkeypatch.undo()
        assert type(info.value) is ReportError
        assert str(info.value) == f"{path}:5: not a step line as run writes it"
        assert len(decoded) == 2 and line not in decoded

    def test_report_decodes_only_config_and_metrics_lines(self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        for name in ("bandit_dora_mock.json", "keymaze_dora_mock.json"):
            run_suite(demo_config(name, 2, runs / name))
        files = sorted(runs.glob("**/*.jsonl"))
        decoded = self.record_loads(monkeypatch)
        report(runs, tmp_path / "tables")
        monkeypatch.undo()
        assert len(files) == 4
        assert len(decoded) == 2 * len(files)
        assert {json.loads(s)["kind"] for s in decoded} == {"config", "metrics"}

    @staticmethod
    def record_loads(monkeypatch) -> list[str]:
        """The text of every ``json.loads`` call from here on, in call order."""
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        return decoded

    def test_patterns_are_compiled_by_report_not_by_run_suite(self, tmp_path):
        code = (
            "import re, sys\n"
            "from dora import harness\n"
            "config = harness.ExperimentConfig.from_dict({'suite': 'bandit', 'agent': 'dora_scheduled',"
            " 'runs': 2, 'horizon': 20, 'n_candidates': 5, 'backend': 'mock:' + sys.argv[1],"
            " 'output_dir': sys.argv[2]})\n"
            "compiled = (harness._step_line_patterns, harness._step_run_pattern)\n"
            "def module_patterns():\n"
            "    return [k for k, v in vars(harness).items() if isinstance(v, re.Pattern)]\n"
            "print(module_patterns())\n"
            "harness.run_suite(config)\n"
            "print(module_patterns())\n"
            "print(*(f.cache_info().currsize for f in compiled))\n"
            "harness.report(sys.argv[2], sys.argv[3])\n"
            "print(*(f.cache_info().currsize for f in compiled))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, write_bandit_mock(tmp_path / "mock.json"),
             str(tmp_path / "runs"), str(tmp_path / "tables")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]", "0 0", "1 1"]


def read_run_file_by_line(path: Path) -> tuple[dict, dict]:
    """The positional reader, one line at a time: the file read as text with
    universal newlines, its first and its last line decoded and checked, then
    every line between them fully matched against each step shape in turn. The
    text is decoded whole, so a decoding error names its byte position in the
    file (``readlines`` on the file would name it within an 8 KiB chunk)."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            lines = [line.removesuffix("\n") for line in io.StringIO(fp.read()).readlines()]
    except OSError as exc:
        raise ReportError(f"cannot read run file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path}:{undecodable_line(path)}: not UTF-8: {exc}") from exc

    def decode(line_no: int) -> dict:
        line = lines[line_no - 1]
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ReportError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ReportError(f"{path}:{line_no}: not a JSON object")
        version = record.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"{path}:{line_no}: {record.get('kind', 'record')} field schema_version "
                f"must be the integer {SCHEMA_VERSION}, got {version!r}"
            )
        return record

    if len(lines) < 2:
        if lines and lines[0]:
            decode(1)
        raise ReportError(f"{path}: missing config or metrics record")
    config, metrics = decode(1), decode(len(lines))
    if config.get("kind") != "config" or metrics.get("kind") != "metrics":
        raise ReportError(f"{path}: missing config or metrics record")
    shapes = [pattern.fullmatch for pattern in harness._step_line_patterns()]
    for line_no, line in enumerate(lines[1:-1], 2):
        if not any(is_step(line) for is_step in shapes):
            raise ReportError(f"{path}:{line_no}: not a step line as run writes it")
    return config, metrics


def undecodable_line(path: Path) -> int:
    """The number of the first line of ``path`` that is not UTF-8, counted over
    the lines of the file read with universal newlines."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        return next(n for n, line in enumerate(fp, 1) if re.search("[\udc80-\udcff]", line))


def classical_step_line(arm, reward, run, step) -> str:
    valid = arm is not None
    return harness._BANDIT_STEP_LINE % (arm if valid else "null", reward, run, step,
                                        "true" if valid else "false")


# One strategy per step-line shape, each as its writer writes the line.
STEP_LINES = [
    st.builds(classical_step_line, st.none() | JSON_INT, JSON_INT, JSON_INT, JSON_INT),
    st.builds(
        lambda record, run, arm, reward, valid: harness._step_line_from_record(
            record, run, arm=arm, reward=reward, valid=valid
        ),
        step_records(), JSON_INT, st.none() | JSON_INT, JSON_INT, st.booleans(),
    ),
    st.builds(
        lambda record, run, reward: harness._step_line_from_record(
            record, run, observation=record.observation, reward=reward
        ),
        step_records(), JSON_INT, JSON_FLOAT,
    ),
]
# Edits that take a step line off its shape: between a run file's first and
# last line it is then refused; in their place it is decoded as a step record,
# or is not JSON, or has the wrong schema_version.
NEAR_MISSES = [
    lambda line: line.replace(":", ": ", 1),
    lambda line: line[:-1],
    lambda line: line.replace('"schema_version":1', '"schema_version":1.0'),
    lambda line: line + "x",
]
# A KeyMaze step line with a raw U+2028 (a line break to str.splitlines, not to
# readlines) inside its action string.
U2028_LINE = harness._step_line_from_record(
    StepRecord(3, "hall", Mode.GREEDY, "go\u2028north"), 0, observation="hall", reward=0.0
).replace("\\u2028", "\u2028")
OTHER_LINES = st.one_of(
    st.builds(
        lambda kind, n: harness._dump_line({"schema_version": SCHEMA_VERSION, "kind": kind, "n": n}),
        st.sampled_from(["config", "metrics"]), JSON_INT,
    ),
    st.sampled_from(["", " ", "\t", " \t  ", U2028_LINE]),
    st.one_of(STEP_LINES).map(lambda line: line + " "),
    st.one_of(STEP_LINES).map(lambda line: " " + line),
)


CONFIG_LINE = harness._dump_line({"schema_version": SCHEMA_VERSION, "kind": "config"})
METRICS_LINE = harness._dump_line({"schema_version": SCHEMA_VERSION, "kind": "metrics"})


@st.composite
def run_file_texts(draw) -> str:
    """The text of a run file: runs of step lines of one shape, some with a
    near-miss line inside, between other lines, most often after a config line
    and before a metrics line; mostly LF endings, with some CRLF and lone CR,
    and maybe no final newline."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            shape = draw(st.sampled_from(STEP_LINES))
            run = draw(st.lists(shape, min_size=1, max_size=5))
            if draw(st.booleans()):
                edit = draw(st.sampled_from(NEAR_MISSES))
                at = draw(st.integers(0, len(run) - 1))
                run.insert(at, edit(run[at]))
            lines += run
        else:
            lines += draw(st.lists(OTHER_LINES, min_size=1, max_size=3))
    if draw(st.integers(0, 3)):
        lines = [CONFIG_LINE, *lines, METRICS_LINE]
    ends = draw(st.lists(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


# Byte sequences that are not UTF-8: a stray continuation byte, a lead byte
# without its continuation, a cut three-byte sequence, an encoded surrogate, an
# overlong slash, and 0xff.
BAD_UTF8 = [b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"]


@st.composite
def run_file_bytes(draw) -> bytes:
    """The bytes of a run file: a drawn text, encoded, then maybe a UTF-8 BOM
    in front, some LF line ends turned into CRLF or a lone CR, and bytes that
    are not UTF-8 put inside a drawn line."""
    data = draw(run_file_texts()).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    lines = data.split(b"\n")
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=len(lines) - 1,
                         max_size=len(lines) - 1))
    data = lines[0] + b"".join(end + line for end, line in zip(ends, lines[1:]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
    return data


def read_outcome(read, path: Path):
    """What ``read(path)`` returns, or the type and text of the error it raises."""
    try:
        return read(path)
    except ReportError as exc:
        return type(exc), str(exc)


class TestStepRunScan:
    """``_read_run_file`` takes every line between a run file's first and last
    line, of any number and shapes, with one pattern match, and reads every
    file as the positional per-line reader does."""

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=run_file_texts().map(lambda text: text.encode("utf-8")) | run_file_bytes())
    def test_reads_as_the_per_line_reader_does(self, tmp_path, data):
        path = tmp_path / "run.jsonl"
        path.write_bytes(data)
        assert read_outcome(harness._read_run_file, path) == read_outcome(
            read_run_file_by_line, path
        )

    def test_a_match_takes_the_whole_run_and_the_scan_goes_on(self, tmp_path):
        step, lines = classical_step_line(1, 0, 0, 3), 200
        text = f"{step}\n" * lines
        assert harness._step_run_pattern().match(text).group().count("\n") == lines
        path = tmp_path / "run.jsonl"
        bad = lines - 60
        path.write_text(
            f"{CONFIG_LINE}\n" + f"{step}\n" * (bad - 2) + "x\n" + f"{step}\n" * 64
            + f"{METRICS_LINE}\n"
        )
        with pytest.raises(ReportError, match=f"run.jsonl:{bad}: not a step line"):
            harness._read_run_file(path)
        assert read_outcome(harness._read_run_file, path) == read_outcome(
            read_run_file_by_line, path
        )

    def test_one_match_takes_3000_lines_of_every_shape_in_under_64_kb(self):
        candidates = [ScoredCandidate(f"press {color} button", -0.25 * i, 0.2)
                      for i, color in enumerate(["blue", "green", "red", "yellow", "purple"])]
        records = [
            StepRecord(step, "hall", Mode.EXPLORE, "press red button", lam=1.5 + step / 7,
                       candidates=candidates)
            for step in range(1000)
        ]
        # 1,000 bandit DORA, then 1,000 KeyMaze, then 1,000 classical lines.
        text = "".join(
            [harness._step_line_from_record(r, 4, arm=2, reward=r.step % 2, valid=True) + "\n"
             for r in records]
            + [harness._step_line_from_record(r, 4, observation="You are in the hall.",
                                              reward=0.5) + "\n" for r in records]
            + [classical_step_line(r.step % 5, r.step % 2, 4, r.step) + "\n" for r in records]
        )
        pattern = harness._step_run_pattern()
        tracemalloc.start()
        try:
            match = pattern.match(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert match.end() == len(text)
        assert peak < 64 * 1024

    def test_bad_byte_past_the_first_chunk_names_its_file_position(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = harness._dump_line({"schema_version": SCHEMA_VERSION, "kind": "config"})
        path.write_bytes(f"{config}\r\n".encode() * 400 + b"\xff\n")
        outcome = read_outcome(harness._read_run_file, path)
        assert outcome == (
            ReportError,
            f"{path}:401: not UTF-8: 'utf-8' codec can't decode byte 0xff in position "
            f"{(len(config) + 2) * 400}: invalid start byte",
        )
        assert outcome == read_outcome(read_run_file_by_line, path)


# The step shapes as they were built before every optional part became an
# alternation with an empty branch: ``(?:X)?`` for the number's fraction and
# exponent, an optional member and the candidate list, and the string pattern
# without its first closing branch.
OLD_JSON_NUMBER = harness._JSON_INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
OLD_JSON_STRING = r'"[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*"'


def old_json_object_re(members: dict[str, str], optional: tuple[str, ...] = ()) -> str:
    *head, last = sorted(members)
    body = "".join(
        f'(?:"{key}":{members[key]},)?' if key in optional else f'"{key}":{members[key]},'
        for key in head
    )
    return rf'\{{{body}"{last}":{members[last]}\}}'


def old_step_line_shapes() -> tuple[str, str]:
    candidate = old_json_object_re(
        {"action": OLD_JSON_STRING, "prob": OLD_JSON_NUMBER, "score": OLD_JSON_NUMBER}
    )
    shared = {
        "candidates": rf"\[(?:{candidate}(?:,{candidate})*)?\]",
        "chosen_action": OLD_JSON_STRING,
        "fallback": harness._one_of(["null", *(f'"{reason.value}"' for reason in FallbackReason)]),
        "kind": '"step"',
        "lambda": OLD_JSON_NUMBER,
        "mode": harness._one_of(f'"{mode.value}"' for mode in Mode),
        "reward": OLD_JSON_NUMBER,
        "run": harness._JSON_INT,
        "schema_version": str(SCHEMA_VERSION),
        "step": harness._JSON_INT,
    }
    bandit = {**shared, "arm": f"(?:null|{harness._JSON_INT})", "valid": "(?:true|false)"}
    keymaze = {**shared, "observation": OLD_JSON_STRING}
    return tuple(old_json_object_re(members, ("candidates", "lambda")) for members in (bandit, keymaze))


OLD_SHAPES = [re.compile(shape) for shape in old_step_line_shapes()]
OLD_RUNS = [
    re.compile(rf"(?:{shape}\n){{1,{lines}}}")
    for shape, lines in zip(old_step_line_shapes(), (8, 8))
]
# Characters the shapes turn on, for edits that take a line near its shape.
SHAPE_CHARACTERS = '"\\{}[],:.-+eE0123456789ntrufalsbx/ \x01\x1f\u00e9'


@st.composite
def edited(draw, line: str) -> str:
    """``line`` after one to three edits: a character deleted, put in or
    replaced, or a slice deleted or repeated."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(line)))
        end = draw(st.integers(at, min(len(line), at + 12)))
        char = draw(st.sampled_from(SHAPE_CHARACTERS))
        edit = draw(st.sampled_from(["delete", "insert", "replace", "cut", "repeat"]))
        line = {
            "delete": line[:at] + line[at + 1:],
            "insert": line[:at] + char + line[at:],
            "replace": line[:at] + char + line[at + 1:],
            "cut": line[:at] + line[end:],
            "repeat": line[:end] + line[at:],
        }[edit]
    return line


def shape_lines(shape: int):
    """Lines written in one DORA shape (0 bandit, 1 KeyMaze), some edited."""
    written = STEP_LINES[1 + shape]
    return written | written.flatmap(edited)


class TestBranchFormShapes:
    """The step shapes written with ``(?:X|)`` take exactly the lines the
    shapes written with ``(?:X)?`` took, and a run match ends where it did."""

    NEW_SHAPES = harness._step_line_patterns()[1:]
    NEW_RUNS = (harness._step_run_pattern(),) * 2

    @pytest.mark.parametrize("shape", [0, 1], ids=["bandit", "keymaze"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_drawn_lines_match_both_or_neither(self, shape, data):
        old, new = OLD_SHAPES[shape], self.NEW_SHAPES[shape]
        line = data.draw(st.from_regex(old, fullmatch=True) | st.from_regex(new, fullmatch=True))
        assert old.fullmatch(line) and new.fullmatch(line)

    @pytest.mark.parametrize("shape", [0, 1], ids=["bandit", "keymaze"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_edited_lines_match_alike_and_runs_end_alike(self, shape, data):
        lines = data.draw(st.lists(shape_lines(shape), min_size=1, max_size=6))
        old, new = OLD_SHAPES[shape], self.NEW_SHAPES[shape]
        for line in lines:
            assert bool(old.fullmatch(line)) == bool(new.fullmatch(line)), line
        text = "".join(line + "\n" for line in lines)
        old_run, new_run = OLD_RUNS[shape], self.NEW_RUNS[shape]
        pos = 0
        while pos < len(text):
            old_match, new_match = old_run.match(text, pos), new_run.match(text, pos)
            assert (old_match and old_match.end()) == (new_match and new_match.end()), text[pos:]
            pos = text.index("\n", pos) + 1


# A small directory of run files, 2 runs each of ucb, the bandit DORA mock and
# the KeyMaze DORA mock, from the demo configs with horizon 16 and max_steps 12.
REPORT_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "report_runs"
FIXTURE_FILES = {
    path.relative_to(REPORT_FIXTURE).as_posix(): path.read_bytes()
    for path in sorted(REPORT_FIXTURE.glob("*/*.jsonl"))
}
# The address space a report child may take; a plot at MAX_PLOT_CELLS takes
# about 600 MB.
REPORT_MEMORY_CAP = 2 * 1024**3
# Reads "runs out" pairs as JSON lines and prints the outcome of report for
# each: the names it wrote, or the text of the ReportError it raised. Any other
# error ends the process.
REPORT_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from dora.harness import ReportError, report
for line in sys.stdin:
    try:
        outcome = ["written", sorted(path.name for path in report(*json.loads(line)))]
    except ReportError as exc:
        outcome = ["ReportError", str(exc)]
    print(json.dumps(outcome), flush=True)
"""


class ReportChild:
    """``report`` in a child process under ``REPORT_MEMORY_CAP``, started on
    first use and again after a call that ended it."""

    TIMEOUT_S = 60

    def __init__(self):
        self.process = None

    def __call__(self, runs: Path, out: Path) -> list:
        """``["written", names]``, ``["ReportError", message]``, or
        ``["ended", stderr]`` when the child died or hung."""
        if self.process is None:
            self.stderr = tempfile.TemporaryFile()
            self.process = subprocess.Popen(
                [sys.executable, "-c", REPORT_CHILD, str(REPORT_MEMORY_CAP)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        self.process.stdin.write(json.dumps([str(runs), str(out)]) + "\n")
        self.process.stdin.flush()
        if select.select([self.process.stdout], [], [], self.TIMEOUT_S)[0]:
            reply = self.process.stdout.readline()
            if reply:
                return json.loads(reply)
        self.close()
        self.stderr.seek(0)
        return ["ended", self.stderr.read().decode(errors="replace")[-4000:]]

    def close(self) -> None:
        if self.process is not None:
            self.process.kill()
            self.process.wait()
            self.process = None


@pytest.fixture(scope="module")
def report_child():
    child = ReportChild()
    yield child
    child.close()


# Values a field is set to half of the time: numbers and strings at the edges
# of what a reader or a file name takes. The other half is any JSON value.
HOSTILE_VALUES = [
    -1, 0, 2**63, 2**70, -(2**70), HUGE, -HUGE, 1e308, -1e308,
    float("nan"), float("inf"), "", "a/b", "../x", "a,b", "a\nb", "a\x00b", "\ud800", "x" * 300,
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=4), values, max_size=3),
    max_leaves=5,
)


@st.composite
def fixture_mutants(draw) -> dict[str, bytes]:
    """The fixture's files after one mutation of one file: a field of a line
    set to another JSON value or deleted, one byte changed, or one line dropped."""
    files = dict(FIXTURE_FILES)
    name = draw(st.sampled_from(sorted(files)))
    data = files[name]
    mutation = draw(st.sampled_from(["set", "delete", "byte", "drop"]))
    if mutation == "byte":
        at = draw(st.integers(0, len(data) - 1))
        files[name] = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        return files
    lines = data.splitlines()
    # The config and metrics lines, which report reads, half of the time.
    at = draw(st.sampled_from([0, len(lines) - 1]) | st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[at]
    else:
        record = json.loads(lines[at])
        key = draw(st.sampled_from(sorted(record)))
        if mutation == "delete":
            del record[key]
        else:
            record[key] = draw(st.sampled_from(HOSTILE_VALUES) | JSON_VALUES)
        # As the writer lays a line out, with NaN and Infinity allowed.
        lines[at] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    files[name] = b"".join(line + b"\n" for line in lines)
    return files


class TestReportFuzz:
    """``report`` over any single mutation of a small run directory writes
    every table, or raises ReportError and leaves no output directory."""

    def test_fixture_is_reported_whole(self, tmp_path, report_child):
        outcome, names = report_child(REPORT_FIXTURE, tmp_path / "tables")
        assert outcome == "written", names
        assert names == sorted(
            ["metric_table.csv", "loops_table.csv"]
            + [f"{plot}_{agent}.csv" for plot in ("arm_selection", "best_arm_fraction")
               for agent in ("dora_scheduled", "ucb")]
        )

    @settings(max_examples=400, deadline=None)
    @given(files=fixture_mutants())
    def test_mutant_is_reported_whole_or_refused(self, report_child, files):
        with tempfile.TemporaryDirectory() as tmp:
            runs, out = Path(tmp) / "runs", Path(tmp) / "tables"
            for name, data in files.items():
                (runs / name).parent.mkdir(parents=True, exist_ok=True)
                (runs / name).write_bytes(data)
            outcome, detail = report_child(runs, out)
            if outcome == "ReportError":
                assert not out.exists(), detail
                return
            assert outcome == "written", detail
            names = {path.name for path in out.iterdir()}
            assert names == set(detail)
            plots = sorted(names - {"metric_table.csv", "loops_table.csv"})
            assert len(plots) == len(names) - 2
            arms = [name.removeprefix("arm_selection_") for name in plots if name.startswith("arm_")]
            fractions = [name.removeprefix("best_arm_fraction_") for name in plots
                         if name.startswith("best_")]
            assert arms and arms == fractions


class TestCli:
    def test_successful_run_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "bandit",
                "run",
                "--agent",
                "ucb",
                "--runs",
                "2",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "cli_out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "cli_out" / "aggregate.csv").exists()

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "agent": "ts",
                    "runs": 2,
                    "horizon": 20,
                    "workers": 1,
                    "output_dir": str(tmp_path / "cfg_out"),
                }
            )
        )
        assert main(["bandit", "run", "--config", str(cfg)]) == 0

    def test_unknown_agent_is_config_error(self, tmp_path):
        assert main(["bandit", "run", "--agent", "alphago"]) == 1

    def test_report_round_trip(self, tmp_path):
        out = tmp_path / "r_out"
        main(["bandit", "run", "--agent", "greedy", "--runs", "2", "--out", str(out)])
        code = main(["report", "--in", str(out), "--out", str(tmp_path / "tables")])
        assert code == 0
        assert (tmp_path / "tables" / "metric_table.csv").exists()

    def test_report_out_that_is_a_file_is_report_error(self, tmp_path, capsys):
        runs, out = tmp_path / "runs", tmp_path / "tables"
        main(["bandit", "run", "--agent", "greedy", "--runs", "2", "--out", str(runs)])
        out.write_text("kept")
        capsys.readouterr()
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"report error: cannot create output directory {out}: ")
        assert out.read_text() == "kept"

    def test_run_out_that_is_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        out.write_text("kept")
        assert main(["bandit", "run", "--agent", "ucb", "--runs", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot create output directory {out}: ")
        assert out.read_text() == "kept"

    def test_table_that_cannot_be_written_is_report_error(self, tmp_path, capsys):
        runs, out = tmp_path / "runs", tmp_path / "tables"
        main(["bandit", "run", "--agent", "greedy", "--runs", "2", "--out", str(runs)])
        (out / "metric_table.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"report error: cannot write {out / 'metric_table.csv'}: ")

    def test_later_table_that_cannot_be_written_leaves_no_table(self, tmp_path, capsys):
        runs, out = tmp_path / "runs", tmp_path / "tables"
        main(["bandit", "run", "--agent", "ucb", "--runs", "2", "--out", str(runs)])
        (out / "arm_selection_ucb.csv").mkdir(parents=True)
        capsys.readouterr()
        assert main(["report", "--in", str(runs), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"report error: cannot write {out / 'arm_selection_ucb.csv'}: "
        )
        assert [path.name for path in out.iterdir()] == ["arm_selection_ucb.csv"]

    def test_rerun_with_fewer_runs_leaves_no_earlier_run_file(self, tmp_path):
        runs, tables = tmp_path / "runs", tmp_path / "tables"
        main(["bandit", "run", "--agent", "greedy", "--runs", "2", "--out", str(runs)])
        for extra in (["--runs", "3"], ["--runs", "2", "--seed", "7"]):
            assert main(["bandit", "run", "--agent", "ucb", *extra, "--out", str(runs)]) == 0
        assert sorted(path.name for path in runs.glob("*.jsonl")) == [
            f"{agent}_run{i:04d}.jsonl" for agent in ("greedy", "ucb") for i in range(2)
        ]
        assert main(["report", "--in", str(runs), "--out", str(tables)]) == 0
        ucb_row = (tables / "metric_table.csv").read_text().splitlines()[-1]
        assert ucb_row == (runs / "aggregate.csv").read_text().splitlines()[-1]

    def test_rerun_whose_every_run_fails_leaves_no_earlier_output(self, tmp_path):
        runs = tmp_path / "runs"
        run_suite(demo_config("bandit_dora_mock.json", 2, runs))
        empty = tmp_path / "empty.json"
        empty.write_text('{"entries": []}')
        command = ["bandit", "run", "--config", str(CONFIGS / "bandit_dora_mock.json"),
                   "--backend", f"mock:{empty}", "--runs", "2", "--out", str(runs)]
        assert main(command) == 3
        assert json.loads((runs / "summary.json").read_text())["completed"] == 0
        assert [path.name for path in runs.iterdir()] == ["summary.json"]
        assert main(["report", "--in", str(runs), "--out", str(tmp_path / "tables")]) == 1

    @pytest.mark.parametrize("name", ["ucb_run0001.jsonl", "summary.json"])
    def test_artifact_that_cannot_be_written_exits_one_naming_it(self, tmp_path, name):
        out = tmp_path / "runs"
        (out / name).mkdir(parents=True)
        command = ["bandit", "run", "--config", str(CONFIGS / "bandit_ucb.json"), "--runs", "3",
                   "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "dora.cli", *command], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 1
        assert done.stderr.startswith(f"cannot write {out / name}: ")
        assert "Traceback" not in done.stderr

    def test_report_empty_dir_is_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--in", str(empty), "--out", str(tmp_path / "t")]) == 1

    def test_exhausted_script_is_partial_batch(self, tmp_path):
        script = write_bandit_mock(tmp_path / "short.json", loop=False)
        code = main(
            [
                "bandit",
                "run",
                "--agent",
                "dora_scheduled",
                "--backend",
                f"mock:{script}",
                "--runs",
                "2",
                "--out",
                str(tmp_path / "po"),
            ]
        )
        assert code == 3

    def write_llm_temp_config(self, tmp_path, **extra) -> str:
        script = tmp_path / "temp.json"
        script.write_text(
            json.dumps({"loop": True, "entries": [{"kind": "greedy", "text": "go east"}]})
        )
        cfg = tmp_path / "cfg.json"
        config = {
            "agent": "llm_temp",
            "runs": 1,
            "backend": f"mock:{script}",
            "output_dir": str(tmp_path / "out"),
        }
        cfg.write_text(json.dumps(dict(config, **extra)))
        return str(cfg)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("temperature", "hot"),
            ("temperature", -1.0),
            ("temperature", float("inf")),
            ("temperature", float("nan")),
            ("temperature", True),
            ("max_steps", 0),
            ("max_steps", -2),
            ("max_steps", 2.5),
        ],
    )
    def test_bad_temperature_or_max_steps_is_config_error(self, tmp_path, capsys, key, value):
        cfg = self.write_llm_temp_config(tmp_path, **{key: value})
        assert main(["keymaze", "run", "--config", cfg]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def write_dora_bandit_config(self, tmp_path, **extra) -> str:
        cfg = tmp_path / "cfg.json"
        config = {
            "agent": "dora_scheduled",
            "runs": 1,
            "horizon": 10,
            "backend": "mock:" + write_bandit_mock(tmp_path / "mock.json"),
            "output_dir": str(tmp_path / "out"),
        }
        cfg.write_text(json.dumps(dict(config, **extra)))
        return str(cfg)

    @pytest.mark.parametrize(
        "extra",
        [
            {"runs": "3"},
            {"runs": True},
            {"workers": "2"},
            {"workers": -1},
            {"workers": 0},
            {"horizon": "20"},
            {"horizon": 0},
            {"gap": 1.5},
            {"gap": True},
            {"master_seed": -1},
            {"n_candidates": 0},
            {"lambda_min": 5, "lambda_max": 1},
            {"lambda_max": float("inf")},
            {"alpha": 2.0},
            {"tau_lambda": -0.5},
            {"tau_decision": 0.2},
            {"growth_k": 0},
            {"growth_k": 800},
            {"agent": "llm_temp", "num_arms": 6},
            {"num_arms": 6},
            {"agent": "dora_auto", "num_arms": 7},
        ],
        ids=lambda extra: ",".join(f"{k}={v!r}" for k, v in extra.items()),
    )
    def test_bad_bandit_field_is_config_error(self, tmp_path, capsys, extra):
        cfg = self.write_dora_bandit_config(tmp_path, **extra)
        assert main(["bandit", "run", "--config", cfg]) == 1
        assert next(iter(extra)) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_growth_k_at_its_bound_runs(self, tmp_path):
        cfg = self.write_dora_bandit_config(tmp_path, runs=2, growth_k=MAX_GROWTH_K)
        assert main(["bandit", "run", "--config", cfg]) == 0

    def test_good_bandit_fields_run(self, tmp_path):
        cfg = self.write_dora_bandit_config(tmp_path, runs=2, workers=2, gap=0.5, alpha=1)
        assert main(["bandit", "run", "--config", cfg]) == 0

    @pytest.mark.parametrize("extra", [{"temperature": 0, "max_steps": 1}, {"temperature": 0.7}])
    def test_good_temperature_and_max_steps_run(self, tmp_path, extra):
        cfg = self.write_llm_temp_config(tmp_path, **extra)
        assert main(["keymaze", "run", "--config", cfg]) == 0

    def test_unreachable_remote_is_backend_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DORA_API_BASE", "http://127.0.0.1:9")
        monkeypatch.setenv("DORA_MODEL", "test-model")
        monkeypatch.setenv("DORA_API_KEY", "k")
        script_unused = tmp_path / "km_out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "agent": "llm_temp",
                    "runs": 1,
                    "max_steps": 2,
                    "workers": 1,
                    "output_dir": str(script_unused),
                }
            )
        )
        code = main(["keymaze", "run", "--config", str(cfg), "--backend", "remote"])
        assert code == 2

    @pytest.mark.parametrize("agent", ["llm_temp", "dora_scheduled", "dora_auto"])
    @pytest.mark.parametrize("suite", ["bandit", "keymaze"])
    def test_unreachable_endpoint_fails_every_backend_agent(
        self, tmp_path, monkeypatch, suite, agent
    ):
        # Every step of the run falls back on a transport error, so the run is
        # a backend failure: no run file, and the command exits 2.
        monkeypatch.setenv("DORA_API_BASE", "http://127.0.0.1:9")
        monkeypatch.setenv("DORA_MODEL", "test-model")
        monkeypatch.setattr("dora.policy.time.sleep", lambda seconds: None)
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        length = {"bandit": "horizon", "keymaze": "max_steps"}[suite]
        cfg.write_text(
            json.dumps(
                {"agent": agent, "runs": 1, length: 3, "workers": 1, "output_dir": str(out)}
            )
        )
        assert main([suite, "run", "--config", str(cfg), "--backend", "remote"]) == 2
        assert not list(out.glob("*.jsonl"))
        [failure] = json.loads((out / "summary.json").read_text())["failures"]
        assert failure["kind"] == "backend"
        assert "backend failed on all 1 steps: transport failed" in failure["error"]

    @pytest.mark.parametrize("agent", ["dora_auto", "llm_temp"])
    def test_unreachable_endpoint_fails_a_run_at_its_first_step(self, tmp_path, agent):
        # With the real backoff sleeps, each step that walks its retries waits
        # 1.5 s: a run that walked all 200 steps would take about 300 s.
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"agent": agent, "runs": 1, "horizon": 200, "workers": 1, "output_dir": str(out)}
            )
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "DORA_API_BASE": "http://127.0.0.1:9",
            "DORA_MODEL": "test-model",
        }
        command = ["bandit", "run", "--config", str(cfg), "--backend", "remote"]
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "dora.cli", *command],
            capture_output=True, text=True, timeout=20, env=env,
        )
        assert done.returncode == 2, done.stderr
        assert time.monotonic() - start < 10
        [failure] = json.loads((out / "summary.json").read_text())["failures"]
        assert failure["error"].startswith("backend failed on all 1 steps: transport failed")

    def test_refused_step_after_a_success_is_one_backend_error_step(self, tmp_path, monkeypatch):
        # Every attempt of the second step is refused; the other steps are answered.
        import requests

        from dora import policy

        refused = range(2, 3 + policy.MAX_RETRIES)  # 1-based numbers of the refused calls
        calls = []

        class Reply:
            status_code = 200
            headers: dict = {}

            def json(self):
                return {"choices": [{"message": {"content": "go east"}}]}

        def post(url, **kwargs):
            calls.append(url)
            if len(calls) in refused:
                raise requests.ConnectionError("connection refused")
            return Reply()

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(policy.time, "sleep", lambda seconds: None)
        monkeypatch.setenv("DORA_API_BASE", "http://127.0.0.1:9")
        monkeypatch.setenv("DORA_MODEL", "test-model")
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        config = {"agent": "llm_temp", "runs": 1, "max_steps": 4, "workers": 1}
        cfg.write_text(json.dumps(dict(config, output_dir=str(out))))
        assert main(["keymaze", "run", "--config", str(cfg), "--backend", "remote"]) == 0
        [path] = out.glob("*.jsonl")
        steps = [r for r in map(json.loads, path.read_text().splitlines()) if r["kind"] == "step"]
        assert [r["fallback"] for r in steps] == [None, "backend_error", None, None]
        assert len(calls) == 3 + len(refused)
