"""KeyMaze world mechanics and the exploration telemetry definitions."""

from __future__ import annotations

import json

import pytest

from dora import textenv
from dora.agent import EpisodeLog, StepRecord
from dora.policy import Mode
from dora.textenv import (
    COMMANDS_HELP,
    NOTHING_HAPPENS,
    EnvError,
    KeyMazeWorld,
    default_world_definition,
    loop_stats,
    unique_states,
)

OPTIMAL_PATH = [
    "go north",
    "open chest",
    "take key",
    "go south",
    "go west",
    "unlock door",
    "go west",
]


def make_episode(pairs, extra_observations=()):
    """Build a minimal EpisodeLog from (observation, action) pairs plus the
    observations that followed the last action."""
    observations = [o for o, _ in pairs] + list(extra_observations)
    steps = [
        StepRecord(step=i, observation=o, mode=Mode.GREEDY, chosen_action=a)
        for i, (o, a) in enumerate(pairs)
    ]
    return EpisodeLog(steps=steps, rewards=[0.0] * len(pairs), observations=observations)


class TestKeyMazeBasics:
    def test_look_is_a_no_op_inspection(self):
        world = KeyMazeWorld()
        first = world.reset()
        step = world.step("look")
        assert step.observation == first
        assert step.reward == 0.0
        assert step.valid_action is True
        assert step.terminal is False

    def test_help_lists_commands(self):
        world = KeyMazeWorld()
        world.reset()
        step = world.step("help")
        assert step.observation == COMMANDS_HELP
        assert "go <direction>" in step.observation

    def test_unrecognized_command(self):
        world = KeyMazeWorld()
        world.reset()
        step = world.step("dance wildly")
        assert step.observation == NOTHING_HAPPENS
        assert step.valid_action is False
        assert step.reward == 0.0

    def test_optimal_walkthrough_scores_one(self):
        world = KeyMazeWorld()
        world.reset()
        scores = []
        for action in OPTIMAL_PATH:
            step = world.step(action)
            assert step.valid_action, f"{action} unexpectedly failed: {step.observation}"
            scores.append(step.score)
        assert step.terminal is True
        assert step.score == pytest.approx(1.0)
        assert scores == sorted(scores)  # score never decreases

    def test_determinism(self):
        actions = ["look", "go east", "go east", "go east", "go west", "help", "go north"]

        def play():
            world = KeyMazeWorld()
            observations = [world.reset()]
            for action in actions:
                observations.append(world.step(action).observation)
            return observations

        assert play() == play()

    def test_step_after_terminal_raises(self):
        world = KeyMazeWorld()
        world.reset()
        for action in OPTIMAL_PATH:
            world.step(action)
        with pytest.raises(EnvError):
            world.step("look")

    def test_step_before_reset_raises(self):
        with pytest.raises(EnvError):
            KeyMazeWorld().step("look")

    def test_score_never_decreases_under_random_play(self):
        import numpy as np

        vocabulary = [
            "go north", "go south", "go east", "go west", "open chest",
            "take key", "unlock door", "look", "help", "dance wildly",
        ]
        rng = np.random.default_rng(33)
        for _ in range(20):
            world = KeyMazeWorld()
            world.reset()
            last_score = 0.0
            for _ in range(50):
                step = world.step(vocabulary[int(rng.integers(len(vocabulary)))])
                assert step.score >= last_score
                assert 0.0 <= step.score <= 1.0
                last_score = step.score
                if step.terminal:
                    break


class TestKeyMazeMechanics:
    def test_locked_door_blocks_until_unlocked(self):
        world = KeyMazeWorld()
        world.reset()
        world.step("go west")  # into the gate room
        blocked = world.step("go west")
        assert blocked.valid_action is False
        assert "locked" in blocked.observation

    def test_unlock_needs_the_key(self):
        world = KeyMazeWorld()
        world.reset()
        world.step("go west")
        attempt = world.step("unlock door")
        assert attempt.valid_action is False
        assert attempt.reward == 0.0

    def test_unlock_elsewhere_does_nothing(self):
        world = KeyMazeWorld()
        world.reset()
        assert world.step("unlock door").observation == NOTHING_HAPPENS

    def test_chest_hides_key_until_opened(self):
        world = KeyMazeWorld()
        world.reset()
        world.step("go north")
        grab = world.step("take key")
        assert grab.valid_action is False
        opened = world.step("open chest")
        assert opened.valid_action is True
        assert opened.reward == pytest.approx(0.25)
        assert "key" in opened.observation
        assert world.step("take key").reward == pytest.approx(0.25)

    def test_reopening_gives_nothing(self):
        world = KeyMazeWorld()
        world.reset()
        world.step("go north")
        world.step("open chest")
        again = world.step("open chest")
        assert again.valid_action is False
        assert again.reward == 0.0

    def test_rewards_fire_once(self):
        world = KeyMazeWorld()
        world.reset()
        world.step("go north")
        world.step("open chest")
        world.step("take key")
        world.step("go south")
        world.step("go north")  # re-entering earns nothing
        step = world.step("look")
        assert step.score == pytest.approx(0.5)

    def test_trap_corridor_descriptions(self):
        world = KeyMazeWorld()
        world.reset()
        lured = world.step("go east")
        assert "way out lies just ahead" in lured.observation
        dead_end = world.step("go east")
        assert "dead end" in dead_end.observation
        wall = world.step("go east")
        assert wall.observation == "You can't go that way."
        assert wall.valid_action is False

    def test_observation_changes_after_opening_chest(self):
        world = KeyMazeWorld()
        world.reset()
        before = world.step("go north").observation
        world.step("open chest")
        after = world.step("look").observation
        assert before != after
        assert "closed" in before and "open" in after

    def test_world_loads_from_file(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(default_world_definition()))
        world = KeyMazeWorld.from_file(path)
        assert "entry hall" in world.reset()
        assert world.horizon == 100

    def test_bad_reward_normalization_rejected(self):
        definition = default_world_definition()
        definition["rewards"]["open chest"] = 0.9
        with pytest.raises(ValueError):
            KeyMazeWorld(definition)


class TestSharedDefaultWorld:
    def test_full_episode_leaves_the_shared_definition_unchanged(self):
        world = KeyMazeWorld()
        world.reset()
        for action in ["look", "help", "take key", "unlock door", *OPTIMAL_PATH]:
            step = world.step(action)
        assert step.terminal
        world.reset()
        world.step("go north")
        world.step("open chest")
        assert world._def is textenv._shipped_definition()
        assert textenv._shipped_definition() == default_world_definition()

    def test_mutating_a_returned_definition_does_not_reach_new_worlds(self):
        first = KeyMazeWorld().reset()
        definition = default_world_definition()
        assert definition is not default_world_definition()
        definition["rooms"][definition["start"]]["description"] = "A changed room."
        definition["objects"].clear()
        definition["rewards"].clear()
        world = KeyMazeWorld()
        assert world.reset() == first
        scores = [world.step(action).score for action in OPTIMAL_PATH]
        assert scores[-1] == pytest.approx(1.0)

    def test_world_files_still_parse_per_world(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(default_world_definition()))
        a, b = KeyMazeWorld.from_file(path), KeyMazeWorld.from_file(path)
        assert a._def == b._def and a._def is not b._def


class TestUniqueStates:
    def test_all_same(self):
        episode = make_episode([("A", "x"), ("A", "x"), ("A", "x")])
        assert unique_states(episode) == 1

    def test_mixed(self):
        episode = make_episode([("A", "x"), ("B", "x"), ("A", "x"), ("C", "x")])
        assert unique_states(episode) == 3

    def test_forty_step_trajectory_matches_set_oracle(self):
        import numpy as np

        rng = np.random.default_rng(12)
        names = ["A", "B", "C", "D", "E", "F", "G"]
        observations = [names[int(rng.integers(len(names)))] for _ in range(41)]
        pairs = [(observations[i], f"a{int(rng.integers(4))}") for i in range(40)]
        episode = make_episode(pairs, extra_observations=[observations[40]])
        assert unique_states(episode) == len(set(observations))

    def test_bounds(self):
        episode = make_episode([("A", "x"), ("B", "y")], extra_observations=["C"])
        n = unique_states(episode)
        assert 1 <= n <= len(episode.observations)
        assert n == 3  # all distinct here

    def test_trailing_whitespace_trimmed(self):
        episode = make_episode([("A ", "x"), ("A", "x")])
        assert unique_states(episode) == 1

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            unique_states(EpisodeLog())


class TestLoopStats:
    def test_immediate_repeat_without_novelty(self):
        episode = make_episode([("A", "x"), ("A", "x")], extra_observations=["A"])
        stats = loop_stats(episode)
        assert stats.loops_encountered == 1
        assert stats.loops_recovered == 0
        assert stats.recovery_rate == 0.0

    def test_repeat_with_novel_next_observation(self):
        episode = make_episode([("A", "x"), ("A", "x")], extra_observations=["B"])
        stats = loop_stats(episode)
        assert stats.loops_encountered == 1
        assert stats.loops_recovered == 1
        assert stats.recovery_rate == 1.0

    def test_crafted_twenty_step_trajectory(self):
        # Three loop events, exactly one recoverable:
        #   steps 1..8 walk A,B,A,B,A,B,A,C with actions x,y,x,y,x,z,w,v;
        #   pairs (A,x) at steps 1,3,5 and (B,y) at steps 2,4 produce loops at
        #   steps 3, 4, 5. Only step 5's window reaches the first C, which is
        #   novel at that point. Steps 9..20 stay on D with fresh actions.
        pairs = [
            ("A", "x"),
            ("B", "y"),
            ("A", "x"),  # loop 1: next observations B, A, B -> no novelty
            ("B", "y"),  # loop 2: next observations A, B, A -> no novelty
            ("A", "x"),  # loop 3: next observations B, A, C -> C is novel
            ("B", "z"),
            ("A", "w"),
            ("C", "v"),
        ]
        pairs += [("D", f"p{i}") for i in range(12)]
        episode = make_episode(pairs, extra_observations=["D"])
        assert len(pairs) == 20
        stats = loop_stats(episode)
        assert stats.loops_encountered == 3
        assert stats.loops_recovered == 1
        assert stats.recovery_rate == pytest.approx(1 / 3)
        assert stats.unique_states == 4

    def test_appending_steps_never_decreases_loops(self):
        pairs = [("A", "x"), ("B", "y"), ("A", "x"), ("A", "x"), ("B", "y")]
        counts = []
        for n in range(1, len(pairs) + 1):
            episode = make_episode(pairs[:n])
            counts.append(loop_stats(episode).loops_encountered)
        assert counts == sorted(counts)

    def test_no_loops_in_fresh_trajectory(self):
        pairs = [("A", "x"), ("B", "x"), ("C", "x")]
        stats = loop_stats(make_episode(pairs, extra_observations=["D"]))
        assert stats.loops_encountered == 0
        assert stats.recovery_rate == 0.0

    def test_recovery_requires_novelty_not_just_change(self):
        # The window after the loop revisits only previously seen states.
        pairs = [("A", "x"), ("B", "y"), ("A", "x"), ("B", "z")]
        episode = make_episode(pairs, extra_observations=["A"])
        stats = loop_stats(episode)
        assert stats.loops_encountered == 1
        assert stats.loops_recovered == 0
