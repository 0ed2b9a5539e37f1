"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dora  # noqa: E402
import dora.harness  # noqa: E402
from layers import PER_LAYER, LayerStats, coverage_problems, instrument, layer_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Span, Tracer, covered_ns, percentile, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, check_outputs, digest, keymaze_script, prepare, run_pass, run_report, tree_bytes,
)


def span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, None)


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 40, 90, 1), span(4, 50, 60, 3)]
        assert self_times(spans) == {1: 100 - 20 - 50, 2: 20, 3: 50 - 10, 4: 10}

    def test_overlapping_children_count_their_union(self):
        # Two worker threads running runs side by side under one suite span.
        spans = [span(1, 0, 100), span(2, 10, 60, 1), span(3, 40, 80, 1)]
        assert self_times(spans)[1] == 100 - 70

    def test_children_are_clipped_to_the_parent(self):
        assert covered_ns(10, 20, [(0, 15), (18, 30)]) == 7

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile([], 50) == 0.0


class Greeter:
    def greet(self, name):
        return f"hi {name}"


def test_tracer_records_parents_notes_and_restores():
    tracer = Tracer()
    original = Greeter.__dict__["greet"]
    tracer.wrap(Greeter, "greet", "greet", note=lambda a, k, result: len(result))
    outer = tracer.traced("outer", lambda: Greeter().greet("ada"))
    assert outer() == "hi ada"
    tracer.restore()
    assert Greeter.__dict__["greet"] is original
    inner, root = tracer.spans
    assert (inner.name, inner.parent, inner.note) == ("greet", root.id, 6)
    assert root.parent is None


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_traced_matches_untraced(name, tmp_path, at_root):
    workload = dataclasses.replace(WORKLOADS[name], runs=2)
    configs = prepare(workload, 7, tmp_path / "inputs", workers=None)
    plain = run_pass(dora.harness, configs, tmp_path / "plain")
    run_report(dora.harness, tmp_path / "plain", tmp_path / "plain_report")
    outputs = check_outputs(workload, tmp_path / "plain", tmp_path / "plain_report")
    assert outputs.problems == [] and plain.failed == 0 and outputs.runs == 2 * len(configs)

    tracer = Tracer()
    originals = {n: getattr(dora.harness, n) for n in ("run_suite", "run_bandit", "report")}
    instrument(tracer, dora)
    try:
        run_pass(dora.harness, configs, tmp_path / "traced")
        run_report(dora.harness, tmp_path / "traced", tmp_path / "traced_report")
    finally:
        tracer.restore()
    assert {n: getattr(dora.harness, n) for n in originals} == originals
    assert digest(tmp_path / "traced") == digest(tmp_path / "plain")
    assert digest(tmp_path / "traced_report") == digest(tmp_path / "plain_report")

    stats = LayerStats(tracer.spans, passes=1)
    assert coverage_problems(name, stats) == []
    setup = {"import_s": 0.1, "config_s": 0.01}
    metrics = layer_metrics(stats, outputs.steps, tree_bytes(tmp_path / "plain"), setup, 0.0)
    assert list(metrics) == [metric for metric, _ in PER_LAYER]


def test_coverage_guard_fails_when_the_target_layer_is_bypassed(tmp_path, at_root):
    # bandit-dora inputs run as if they were keymaze-dora: rescoring is then a violation.
    workload = dataclasses.replace(WORKLOADS["bandit-dora"], runs=1)
    configs = prepare(workload, 0, tmp_path / "inputs", workers=None)
    tracer = Tracer()
    instrument(tracer, dora)
    try:
        run_pass(dora.harness, configs, tmp_path / "out")
    finally:
        tracer.restore()
    stats = LayerStats(tracer.spans, passes=1)
    assert coverage_problems("keymaze-dora", stats) == ["keymaze-dora made 1000 rescore calls"]
    assert coverage_problems("bandit-classical", stats)


def test_keymaze_script_is_seeded_and_sliceable():
    assert keymaze_script(3) == keymaze_script(3) != keymaze_script(4)
    for entry in keymaze_script(3)["entries"]:
        if entry["kind"] == "candidates":
            assert "".join(tok for tok, _ in entry["token_logprobs"]) == entry["text"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_digest_is_stable_across_invocations(at_root):
    runs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "bandit-dora", "--seed", "5",
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert [name for name in result["metrics"]] == [name for name, _ in END_TO_END]
        runs.append(next(line for line in lines if line.startswith("digest ")))
    assert runs[0] == runs[1]


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "bandit-dora",
                           "--seed", "0", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
