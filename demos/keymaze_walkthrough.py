#!/usr/bin/env python3
"""A tour of the KeyMaze toy world and its exploration telemetry.

Plays the optimal seven-step path (chest, key, door, courtyard) printing
every observation, then sends a stubborn wanderer into the gilded dead-end
corridor and reports the loop statistics its trajectory produces.
"""

from dora.textenv import KeyMazeWorld, loop_stats
from dora.agent import EpisodeLog, StepRecord
from dora.policy import Mode

OPTIMAL = ["go north", "open chest", "take key", "go south", "go west", "unlock door", "go west"]

world = KeyMazeWorld()
print("== optimal playthrough ==")
print(f"> (reset)\n{world.reset()}\n")
for action in OPTIMAL:
    result = world.step(action)
    print(f"> {action}   [reward {result.reward:+.2f}, score {result.score:.2f}]")
    print(result.observation + "\n")
print(f"terminal: {result.terminal}, final score: {result.score}\n")

print("== a wanderer stuck in the bright corridor ==")
world = KeyMazeWorld()
observations = [world.reset()]
actions = ["go east"] * 10
for action in actions:
    observations.append(world.step(action).observation)

episode = EpisodeLog(
    steps=[
        StepRecord(step=i, observation=observations[i], mode=Mode.GREEDY, chosen_action=a)
        for i, a in enumerate(actions)
    ],
    rewards=[0.0] * len(actions),
    observations=observations,
)
stats = loop_stats(episode)
print(f"actions: {len(actions)} x 'go east'")
print(f"unique states visited: {stats.unique_states}")
print(f"loops encountered: {stats.loops_encountered}, recovered: {stats.loops_recovered}")
print("the corridor looks like progress but is a dead end; repeating the same")
print("(observation, action) pair counts as a loop, and no new state ever appears.")
