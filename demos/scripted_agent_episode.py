#!/usr/bin/env python3
"""One fully scripted explore/greedy episode on KeyMaze, step records included.

A deterministic mock stands in for the language model: it always chooses to
explore and always proposes the same eight candidate actions. The per-step
records show the machinery at work: the used-action registry filters out
actions already tried under the current observation, the survivors are
scored and sampled through the lambda softmax, and every step logs its full
candidate table.
"""

import numpy as np

from dora.agent import DoraParams, run_episode
from dora.lambda_control import LambdaSchedule, ScheduledLambda
from dora.policy import MockPolicy, ScriptEntry
from dora.textenv import KeyMazeWorld, unique_states

CANDIDATES = [
    "go north", "go south", "go east", "go west",
    "open chest", "take key", "unlock door", "look",
]

backend = MockPolicy(
    [
        ScriptEntry.mode("EXPLORE"),
        ScriptEntry.candidates(CANDIDATES),
        ScriptEntry.greedy("look"),
    ],
    rescores={c: [-0.2 - 0.1 * i] for i, c in enumerate(CANDIDATES)},
    loop=True,
)

log = run_episode(
    backend,
    KeyMazeWorld(),
    ScheduledLambda(LambdaSchedule(0.0, 8.0, k=5.0, horizon=15)),
    DoraParams(system_prompt="play the game"),
    max_steps=15,
    rng=np.random.default_rng(7),
    seed=7,
)

for record, reward in zip(log.steps, log.rewards):
    lam = f"{record.lam:.2f}" if record.lam is not None else "-"
    survivors = len(record.candidates) if record.candidates is not None else 0
    flag = f"  [{record.fallback_reason.value}]" if record.fallback_reason else ""
    print(
        f"step {record.step:>2}  mode={record.mode.value:<7} lambda={lam:>5} "
        f"candidates={survivors}  -> {record.chosen_action!r}  reward {reward:+.2f}{flag}"
    )

print(f"\nepisode: {log.num_steps} steps, score {log.score:.2f}, "
      f"unique states {unique_states(log)}, tokens {log.token_count}")
print("note how repeated visits to the same observation leave fewer candidates,")
print("because the registry refuses actions already tried there.")
