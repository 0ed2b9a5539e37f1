"""Training-free exploration control for language-model agents.

The pipeline: decide greedy vs. explore, generate candidate actions, score
them from token log-probabilities, and sample from a softmax whose sharpness
is set by an exploration parameter lambda (scheduled or policy-chosen).
Ships with a reproducible Bernoulli-bandit lab and a deterministic toy text
world for exercising every component without a live model.

The root re-exports nothing: import each name from its module, one of
scoring, lambda_control, policy, agent, bandit, textenv, prompts, harness, cli.
"""

__version__ = "0.1.0"
