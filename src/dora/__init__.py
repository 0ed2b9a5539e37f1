"""Training-free exploration control for language-model agents.

The pipeline: decide greedy vs. explore, generate candidate actions, score
them from token log-probabilities, and sample from a softmax whose sharpness
is set by an exploration parameter lambda (scheduled or policy-chosen).
Ships with a reproducible Bernoulli-bandit lab and a deterministic toy text
world for exercising every component without a live model.
"""

from .agent import (
    DoraParams,
    EpisodeLog,
    FallbackReason,
    ScoredCandidate,
    StepRecord,
    UsedActionRegistry,
    build_text_context,
    dora_step,
    drive_episode,
    run_episode,
    temperature_step,
)
from .bandit import (
    ARM_COLORS,
    INVALID_PULL,
    BanditEnv,
    BanditInstance,
    BanditMetrics,
    BanditRun,
    EpsilonGreedyPolicy,
    GreedyPolicy,
    ScheduledSoftmaxAgent,
    ThompsonPolicy,
    UcbPolicy,
    answer_action,
    arm_from_action,
    compute_metrics,
    decaying_temperature,
    make_hard_instance,
    make_mab_context_builder,
    parse_answer_envelope,
    press_action,
    run_bandit,
)
from .lambda_control import (
    DEFAULT_LAMBDA_BOUNDS,
    LambdaSchedule,
    LambdaSource,
    PolicySampledLambda,
    ScheduledLambda,
    extract_lambda,
    lambda_exp,
)
from .policy import (
    BackendError,
    MockPolicy,
    MockScriptError,
    Mode,
    PolicyBackend,
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
)
from .scoring import (
    CandidateAction,
    LambdaDistribution,
    ScoreParams,
    lambda_probabilities,
    sample_categorical,
    score_candidates,
)
from .textenv import (
    EnvError,
    KeyMazeWorld,
    LoopStats,
    TextEnvStep,
    default_world_definition,
    loop_stats,
    unique_states,
)

__version__ = "0.1.0"
