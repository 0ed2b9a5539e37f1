"""Where the traced run wraps dora, and the per-layer metrics read from its spans.

Each wrap sits at the call site the program uses: ``harness`` calls
``run_bandit``, ``run_episode`` and ``loop_stats`` through its own module
namespace, ``agent`` calls the policy, scoring and lambda functions through
its namespace, and methods are wrapped on their classes. Notes on spans are
read from arguments and results only, so tracing cannot change behaviour.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from spans import Tracer, percentile, self_times

CLASSICAL_POLICIES = {"ucb": "UcbPolicy", "ts": "ThompsonPolicy", "greedy": "GreedyPolicy",
                      "eps_greedy": "EpsilonGreedyPolicy"}
COMPLETE_KINDS = ("mode", "candidates", "greedy", "lambda", "answer")
FALLBACKS = ("empty_candidates", "parse_failure", "backend_error")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("setup.import_s", "s"),
    ("setup.config_s", "s"),
    ("harness.run_suite.self_s", "s"),
    ("harness.bytes_per_step", "B"),
    ("harness.pool.busy_ratio", "ratio"),
    ("harness.pool.threads", "count"),
    ("bandit.run_bandit.run_ms_p50", "ms"),
    ("bandit.run_bandit.run_ms_p99", "ms"),
    *[(f"bandit.select.{agent}.self_us_per_call", "us") for agent in CLASSICAL_POLICIES],
    ("bandit.update.self_us_per_call", "us"),
    ("bandit.compute_metrics.self_ms", "ms"),
    ("bandit.BanditEnv.step.self_us_per_call", "us"),
    ("prompts.mab_history.calls", "count"),
    ("prompts.mab_history.self_us_per_call", "us"),
    ("agent.dora_step.calls", "count"),
    ("agent.dora_step.step_ms_p50", "ms"),
    ("agent.dora_step.step_ms_p99", "ms"),
    ("agent.dora_step.self_us_per_call", "us"),
    ("agent.run_episode.run_ms_p50", "ms"),
    ("agent.run_episode.run_ms_p99", "ms"),
    ("agent.context.self_us_per_call", "us"),
    ("agent.context.messages_per_call", "count"),
    ("agent.fresh_candidate_ratio", "ratio"),
    *[(f"agent.fallback.{reason}", "count") for reason in FALLBACKS],
    *[(f"policy.complete.calls.{kind}", "count") for kind in COMPLETE_KINDS],
    ("policy.complete.self_us_per_call", "us"),
    ("policy.rescore.calls", "count"),
    ("policy.rescore.self_us_per_call", "us"),
    ("policy.generate_candidates.self_us_per_call", "us"),
    ("policy.decide_mode.self_us_per_call", "us"),
    ("policy.greedy_action.self_us_per_call", "us"),
    ("policy.flat_candidate_ratio", "ratio"),
    ("backend_calls_per_step", "count"),
    ("tokens_per_step", "count"),
    ("scoring.score_candidates.self_us_per_call", "us"),
    ("scoring.score_candidates.candidates_per_call", "count"),
    ("scoring.lambda_probabilities.self_us_per_call", "us"),
    ("scoring.sample_categorical.self_us_per_call", "us"),
    ("lambda_control.lambda_exp.calls", "count"),
    ("lambda_control.lambda_exp.self_us", "us"),
    ("lambda_control.extract_lambda.calls", "count"),
    ("lambda_control.extract_lambda.self_us", "us"),
    ("textenv.KeyMazeWorld.step.self_us_per_call", "us"),
    ("textenv.valid_action_ratio", "ratio"),
    ("textenv.loop_stats.self_ms", "ms"),
    ("tracing_overhead", "ratio"),
]


def _run_id(args, kwargs):
    config, _, run_index = args
    return f"{config.agent}/{run_index}"


def _flat_count(candidates) -> int:
    return sum(1 for c in candidates if c.token_logprobs == (0.0,))


def instrument(tracer: Tracer, dora) -> None:
    """Wrap every layer boundary the benchmark measures; ``dora`` is the package."""
    harness, agent, bandit, policy, textenv, prompts = (
        dora.harness, dora.agent, dora.bandit, dora.policy, dora.textenv, dora.prompts)
    tracer.wrap(harness, "run_suite", "harness.run_suite")
    tracer.wrap(harness, "report", "harness.report")
    thread = lambda a, k, result: threading.get_ident()  # noqa: E731
    tracer.wrap(harness, "_run_bandit_one", "harness.run", thread, _run_id)
    tracer.wrap(harness, "_run_keymaze_one", "harness.run", thread, _run_id)
    tracer.wrap(harness, "run_bandit", "bandit.run_bandit")
    tracer.wrap(harness, "compute_metrics", "bandit.compute_metrics")
    tracer.wrap(harness, "run_episode", "agent.run_episode")
    tracer.wrap(harness, "loop_stats", "textenv.loop_stats")
    for agent_name, cls_name in CLASSICAL_POLICIES.items():
        cls = getattr(bandit, cls_name)
        tracer.wrap(cls, "select", f"bandit.select.{agent_name}")
        tracer.wrap(cls, "update", "bandit.update")
    tracer.wrap(bandit.BanditEnv, "step", "bandit.BanditEnv.step")
    tracer.wrap(prompts, "mab_history", "prompts.mab_history")

    context_note = lambda a, k, messages: len(messages)  # noqa: E731
    make_mab_context = harness.make_mab_context_builder
    tracer.patch(harness, "make_mab_context_builder", lambda *a, **k: tracer.traced(
        "agent.context", make_mab_context(*a, **k), context_note))
    tracer.wrap(agent, "build_text_context", "agent.context", context_note)
    tracer.wrap(agent, "dora_step", "agent.dora_step",
                lambda a, k, record: record.fallback_reason and record.fallback_reason.value)
    tracer.wrap(agent, "decide_mode", "policy.decide_mode")
    tracer.wrap(agent, "generate_candidates", "policy.generate_candidates",
                lambda a, k, cands: (len(cands), _flat_count(cands)))
    tracer.wrap(agent, "greedy_action", "policy.greedy_action")
    tracer.wrap(agent, "score_candidates", "scoring.score_candidates",
                lambda a, k, scores: len(scores))
    tracer.wrap(agent, "lambda_probabilities", "scoring.lambda_probabilities")
    tracer.wrap(agent, "sample_categorical", "scoring.sample_categorical")
    tracer.wrap(agent, "lambda_exp", "lambda_control.lambda_exp")
    tracer.wrap(agent, "extract_lambda", "lambda_control.extract_lambda")
    tracer.wrap(policy.MockPolicy, "complete", "policy.complete",
                lambda a, k, reply: (a[1].prompt_kind.value, reply.token_count))
    tracer.wrap(policy.MockPolicy, "rescore", "policy.rescore")
    tracer.wrap(textenv.KeyMazeWorld, "step", "textenv.KeyMazeWorld.step",
                lambda a, k, result: result.valid_action)


class LayerStats:
    """Spans of ``passes`` identical traced passes, grouped by layer name."""

    def __init__(self, spans, passes: int) -> None:
        self.passes = passes
        selfs = self_times(spans)
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append((span, selfs[span.id]))

    def calls(self, name: str) -> float:
        return len(self.by_name[name]) / self.passes

    def self_us(self, name: str) -> float:
        return sum(s for _, s in self.by_name[name]) / 1e3 / self.passes

    def self_us_per_call(self, name: str) -> float:
        entries = self.by_name[name]
        return sum(s for _, s in entries) / 1e3 / len(entries) if entries else 0.0

    def wall_ms(self, name: str, q: float) -> float:
        return percentile([(span.end - span.start) / 1e6 for span, _ in self.by_name[name]], q)

    def notes(self, name: str) -> list:
        return [span.note for span, _ in self.by_name[name]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: LayerStats, steps: int, bytes_written: int, setup: dict,
                  overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric, from the spans of the traced passes.

    ``steps`` and ``bytes_written`` are per pass; counts are per pass too.
    A layer the workload never calls reads 0.
    """
    m = {"setup.import_s": setup["import_s"], "setup.config_s": setup["config_s"]}
    suites = stats.by_name["harness.run_suite"]
    runs = stats.by_name["harness.run"]
    m["harness.run_suite.self_s"] = stats.self_us("harness.run_suite") / 1e6
    m["harness.bytes_per_step"] = bytes_written / steps
    m["harness.pool.busy_ratio"] = _ratio(sum(s.end - s.start for s, _ in runs),
                                          sum(s.end - s.start for s, _ in suites))
    threads = defaultdict(set)
    for span, _ in runs:
        threads[span.parent].add(span.note)
    m["harness.pool.threads"] = max((len(t) for t in threads.values()), default=0)
    m["bandit.run_bandit.run_ms_p50"] = stats.wall_ms("bandit.run_bandit", 50)
    m["bandit.run_bandit.run_ms_p99"] = stats.wall_ms("bandit.run_bandit", 99)
    for agent_name in CLASSICAL_POLICIES:
        name = f"bandit.select.{agent_name}"
        m[f"{name}.self_us_per_call"] = stats.self_us_per_call(name)
    m["bandit.update.self_us_per_call"] = stats.self_us_per_call("bandit.update")
    m["bandit.compute_metrics.self_ms"] = stats.self_us("bandit.compute_metrics") / 1e3
    m["bandit.BanditEnv.step.self_us_per_call"] = stats.self_us_per_call("bandit.BanditEnv.step")
    m["prompts.mab_history.calls"] = stats.calls("prompts.mab_history")
    m["prompts.mab_history.self_us_per_call"] = stats.self_us_per_call("prompts.mab_history")

    m["agent.dora_step.calls"] = stats.calls("agent.dora_step")
    m["agent.dora_step.step_ms_p50"] = stats.wall_ms("agent.dora_step", 50)
    m["agent.dora_step.step_ms_p99"] = stats.wall_ms("agent.dora_step", 99)
    m["agent.dora_step.self_us_per_call"] = stats.self_us_per_call("agent.dora_step")
    m["agent.run_episode.run_ms_p50"] = stats.wall_ms("agent.run_episode", 50)
    m["agent.run_episode.run_ms_p99"] = stats.wall_ms("agent.run_episode", 99)
    m["agent.context.self_us_per_call"] = stats.self_us_per_call("agent.context")
    messages = stats.notes("agent.context")
    m["agent.context.messages_per_call"] = _ratio(sum(messages), len(messages))
    generated = stats.notes("policy.generate_candidates")
    n_generated = sum(n for n, _ in generated)
    n_scored = sum(stats.notes("scoring.score_candidates"))
    m["agent.fresh_candidate_ratio"] = _ratio(n_scored, n_generated)
    fallbacks = stats.notes("agent.dora_step")
    for reason in FALLBACKS:
        m[f"agent.fallback.{reason}"] = fallbacks.count(reason) / stats.passes

    completes = stats.notes("policy.complete")
    kinds = [kind for kind, _ in completes]
    for kind in COMPLETE_KINDS:
        m[f"policy.complete.calls.{kind}"] = kinds.count(kind) / stats.passes
    m["policy.complete.self_us_per_call"] = stats.self_us_per_call("policy.complete")
    m["policy.rescore.calls"] = stats.calls("policy.rescore")
    m["policy.rescore.self_us_per_call"] = stats.self_us_per_call("policy.rescore")
    for name in ("generate_candidates", "decide_mode", "greedy_action"):
        m[f"policy.{name}.self_us_per_call"] = stats.self_us_per_call(f"policy.{name}")
    m["policy.flat_candidate_ratio"] = _ratio(sum(f for _, f in generated), n_generated)
    backend_calls = len(completes) + len(stats.by_name["policy.rescore"])
    m["backend_calls_per_step"] = backend_calls / stats.passes / steps
    m["tokens_per_step"] = sum(t for _, t in completes) / stats.passes / steps

    for name in ("score_candidates", "lambda_probabilities", "sample_categorical"):
        m[f"scoring.{name}.self_us_per_call"] = stats.self_us_per_call(f"scoring.{name}")
    m["scoring.score_candidates.candidates_per_call"] = _ratio(
        n_scored, len(stats.by_name["scoring.score_candidates"]))
    for name in ("lambda_exp", "extract_lambda"):
        m[f"lambda_control.{name}.calls"] = stats.calls(f"lambda_control.{name}")
        m[f"lambda_control.{name}.self_us"] = stats.self_us(f"lambda_control.{name}")

    m["textenv.KeyMazeWorld.step.self_us_per_call"] = stats.self_us_per_call(
        "textenv.KeyMazeWorld.step")
    valid = stats.notes("textenv.KeyMazeWorld.step")
    m["textenv.valid_action_ratio"] = _ratio(sum(valid), len(valid))
    m["textenv.loop_stats.self_ms"] = stats.self_us("textenv.loop_stats") / 1e3
    m["tracing_overhead"] = overhead
    return {name: m[name] for name, _ in PER_LAYER}


def coverage_problems(workload: str, stats: LayerStats) -> list[str]:
    """Guards that fail loudly when a workload stops using the layer it targets."""
    problems = []
    generated = stats.notes("policy.generate_candidates")
    n_generated = sum(n for n, _ in generated)
    rescores = len(stats.by_name["policy.rescore"])
    if workload == "bandit-classical":
        if stats.calls("agent.dora_step") or not stats.calls("bandit.run_bandit"):
            problems.append("bandit-classical must run classical policies and no dora_step")
    elif workload == "bandit-dora":
        kept = n_generated + len(stats.by_name["policy.greedy_action"])
        if not rescores or rescores != kept:
            problems.append(f"bandit-dora made {rescores} rescore calls for {kept} kept candidates")
    elif workload == "keymaze-dora":
        if rescores:
            problems.append(f"keymaze-dora made {rescores} rescore calls")
        if not n_generated or sum(f for _, f in generated) == n_generated:
            problems.append("keymaze-dora candidates all came back flat")
    return problems
