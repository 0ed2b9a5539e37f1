"""Episodic text environment interface, a deterministic toy world, and telemetry.

The toy world ("KeyMaze") is a small room graph with a key locked inside a
chest, a locked door to the goal, and a bright dead-end corridor whose
description suggests progress. It is defined by a JSON document (rooms,
exits, objects, lock relations, reward events), so alternative worlds load
without code changes. All transitions are deterministic.

Telemetry: unique observations per episode, and loop events, where a loop is
any recurrence of an (observation, action) pair within the episode and
counts as recovered when a never-before-seen observation appears within the
next three steps.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

COMMANDS_HELP = (
    "Available commands: go <direction>, help, look, open <object>, "
    "take <object>, unlock door."
)
NOTHING_HAPPENS = "Nothing happens."


class EnvError(RuntimeError):
    """The environment was driven outside its contract (e.g. stepped after terminal)."""


@dataclass(frozen=True)
class TextEnvStep:
    """Result of one environment step."""

    observation: str
    reward: float
    score: float
    terminal: bool
    valid_action: bool


@dataclass(frozen=True)
class LoopStats:
    loops_encountered: int
    loops_recovered: int
    recovery_rate: float
    unique_states: int


class KeyMazeWorld:
    """Deterministic toy text world driven by a JSON definition.

    Recognized commands: ``go <direction>``, ``open <object>``,
    ``take <object>``, ``unlock door``, ``look``, ``help``. Anything else
    answers "Nothing happens." and is marked invalid, as are recognized but
    currently infeasible commands (a locked door, a missing object). One
    instance runs one episode at a time; call :meth:`reset` to start over.
    """

    def __init__(self, definition: dict | None = None) -> None:
        if definition is None:
            definition = _shipped_definition()
        self._check_definition(definition)
        self._def = definition
        self._started = False

    @classmethod
    def from_file(cls, path) -> "KeyMazeWorld":
        with open(path, "r", encoding="utf-8") as fp:
            return cls(json.load(fp))

    @staticmethod
    def _check_definition(d: dict) -> None:
        """Raise ValueError unless ``d`` is an object with ``rooms``, a ``start``
        room among them and a ``goal``, whose reward events sum to 0 or 1, and
        holds every other part in the shape the game reads it: rooms, exits,
        objects and doors name only defined rooms."""
        if not isinstance(d, dict):
            raise ValueError("world definition must be a JSON object")
        for field in ("rooms", "start", "goal"):
            if field not in d:
                raise ValueError(f"world definition missing {field!r}")
        if not isinstance(d["rooms"], dict) or type(d["start"]) is not str:
            raise ValueError("world rooms must be an object and start a room name")
        rooms = d["rooms"]
        if d["start"] not in rooms:
            raise ValueError(f"start room {d['start']!r} not defined")
        horizon = d.get("horizon", 100)
        if type(horizon) is not int or horizon < 1:
            raise ValueError(f"world horizon must be an integer >= 1, got {horizon!r}")

        def defined(room) -> bool:
            return type(room) is str and room in rooms

        for name, room in rooms.items():
            if not isinstance(room, dict) or type(room.get("description")) is not str:
                raise ValueError(f"room {name!r} must be an object with a string description")
            exits = room.get("exits", {})
            if not isinstance(exits, dict) or not all(map(defined, exits.values())):
                raise ValueError(f"exits of room {name!r} must map directions to defined rooms")
        objects = d.get("objects", {})
        if not isinstance(objects, dict) or not all(isinstance(o, dict) for o in objects.values()):
            raise ValueError("world objects must be an object of objects")
        for name, spec in objects.items():
            if spec.get("room") is not None and not defined(spec["room"]):
                raise ValueError(f"object {name!r} must be in a defined room or null")
            contains = spec.get("contains", [])
            if not isinstance(contains, list) or not all(type(c) is str for c in contains):
                raise ValueError(f"object {name!r} contains must be a list of names")
        doors = d.get("doors", [])
        if not isinstance(doors, list) or not all(
            isinstance(door, dict) and defined(door.get("room"))
            and type(door.get("direction")) is str
            and isinstance(door.get("key"), (str, type(None)))
            for door in doors
        ):
            raise ValueError(
                "world doors must be a list of objects, each with a defined room, "
                "a string direction and a string or null key"
            )
        rewards = d.get("rewards", {})
        if not isinstance(rewards, dict) or not all(
            type(v) in (int, float) for v in rewards.values()
        ):
            raise ValueError("world rewards must map events to numbers")
        total = sum(rewards.values())
        if total and abs(total - 1.0) > 1e-9:
            raise ValueError(f"reward events must sum to 1.0 for a normalized score, got {total}")

    @property
    def horizon(self) -> int:
        return self._def.get("horizon", 100)

    def reset(self, seed: int | None = None) -> str:
        """Start a fresh episode and return the first observation (seed is unused:
        the world is fully deterministic, the argument exists for interface parity)."""
        self._started = True
        self._terminal = False
        self._score = 0.0
        self._room = self._def["start"]
        self._inventory: set[str] = set()
        self._open: set[str] = set()
        self._object_rooms = {
            name: spec.get("room") for name, spec in self._def.get("objects", {}).items()
        }
        self._locked = {
            (door["room"], door["direction"]): dict(door)
            for door in self._def.get("doors", [])
            if door.get("locked", False)
        }
        self._fired: set[str] = set()
        return self._describe()

    # -- rendering -----------------------------------------------------------

    def _describe(self) -> str:
        room = self._def["rooms"][self._room]
        parts = [room["description"]]
        for name in self._objects_in_room(self._room):
            spec = self._def["objects"][name]
            if spec.get("openable"):
                if name in self._open:
                    contents = self._visible_contents(name)
                    inside = f" Inside you can see {_join(contents)}." if contents else " It is empty."
                    parts.append(f"There is a {name} here. The {name} is open.{inside}")
                else:
                    parts.append(f"There is a {name} here. The {name} is closed.")
            else:
                parts.append(f"There is a {name} here.")
        for (room_id, direction), door in self._locked.items():
            if room_id == self._room:
                parts.append(f"The {door.get('name', 'door')} to the {direction} is locked.")
        exits = list(room.get("exits", {}))
        if exits:
            parts.append("Exits: " + ", ".join(exits) + ".")
        return " ".join(parts)

    def _objects_in_room(self, room_id: str) -> list[str]:
        return [n for n, where in self._object_rooms.items() if where == room_id]

    def _visible_contents(self, container: str) -> list[str]:
        spec = self._def["objects"][container]
        return [n for n in spec.get("contains", []) if self._object_rooms.get(n) is None
                and n not in self._inventory]

    # -- stepping ------------------------------------------------------------

    def step(self, action_text: str) -> TextEnvStep:
        if not self._started:
            raise EnvError("reset() must be called before step()")
        if self._terminal:
            raise EnvError("episode is finished; reset() to start a new one")

        action = " ".join(str(action_text).lower().split())
        words = action.split()
        verb = words[0] if words else ""

        if verb == "look" and len(words) == 1:
            return self._result(self._describe(), valid=True)
        if verb == "help" and len(words) == 1:
            return self._result(COMMANDS_HELP, valid=True)
        if verb == "go" and len(words) == 2:
            return self._go(words[1])
        if verb == "open" and len(words) >= 2:
            return self._open_object(" ".join(words[1:]))
        if verb == "take" and len(words) >= 2:
            return self._take_object(" ".join(words[1:]))
        if action == "unlock door":
            return self._unlock_door()
        return self._result(NOTHING_HAPPENS, valid=False)

    def _result(self, observation: str, valid: bool, reward: float = 0.0,
                terminal: bool = False) -> TextEnvStep:
        self._score = min(1.0, self._score + reward)
        self._terminal = terminal
        return TextEnvStep(observation, reward, self._score, terminal, valid)

    def _fire(self, event: str) -> float:
        if event in self._fired:
            return 0.0
        self._fired.add(event)
        return float(self._def.get("rewards", {}).get(event, 0.0))

    def _go(self, direction: str) -> TextEnvStep:
        exits = self._def["rooms"][self._room].get("exits", {})
        if direction not in exits:
            return self._result("You can't go that way.", valid=False)
        door = self._locked.get((self._room, direction))
        if door is not None:
            return self._result(f"The {door.get('name', 'door')} is locked.", valid=False)
        self._room = exits[direction]
        reward = self._fire(f"enter {self._room}")
        terminal = self._room == self._def["goal"]
        return self._result(self._describe(), valid=True, reward=reward, terminal=terminal)

    def _open_object(self, name: str) -> TextEnvStep:
        spec = self._def.get("objects", {}).get(name)
        if spec is None or self._object_rooms.get(name) != self._room or not spec.get("openable"):
            return self._result(NOTHING_HAPPENS, valid=False)
        if name in self._open:
            return self._result(f"The {name} is already open.", valid=False)
        self._open.add(name)
        reward = self._fire(f"open {name}")
        contents = self._visible_contents(name)
        inside = f" Inside you can see {_join(contents)}." if contents else " It is empty."
        return self._result(f"You open the {name}.{inside}", valid=True, reward=reward)

    def _take_object(self, name: str) -> TextEnvStep:
        spec = self._def.get("objects", {}).get(name)
        if spec is None or not spec.get("portable") or name in self._inventory:
            return self._result(NOTHING_HAPPENS, valid=False)
        here = self._object_rooms.get(name) == self._room
        in_open_container = any(
            name in self._def["objects"][c].get("contains", [])
            for c in self._open
            if self._object_rooms.get(c) == self._room
        ) and self._object_rooms.get(name) is None
        if not (here or in_open_container):
            return self._result(NOTHING_HAPPENS, valid=False)
        self._inventory.add(name)
        self._object_rooms[name] = "__inventory__"
        reward = self._fire(f"take {name}")
        return self._result(f"You take the {name}.", valid=True, reward=reward)

    def _unlock_door(self) -> TextEnvStep:
        doors_here = [(k, d) for k, d in self._locked.items() if k[0] == self._room]
        if not doors_here:
            return self._result(NOTHING_HAPPENS, valid=False)
        key_, door = doors_here[0]
        needed = door.get("key")
        if needed and needed not in self._inventory:
            return self._result("You have nothing that fits the lock.", valid=False)
        del self._locked[key_]
        reward = self._fire("unlock door")
        return self._result(
            f"You unlock the {door.get('name', 'door')} with the {needed}.",
            valid=True,
            reward=reward,
        )


def _join(names: Iterable[str]) -> str:
    return ", ".join(f"a {n}" for n in names)


def default_world_definition() -> dict:
    """The shipped KeyMaze definition, parsed into a new dict on every call."""
    text = resources.files(__package__).joinpath("worlds/keymaze.json").read_text(encoding="utf-8")
    return json.loads(text)


# Parsed once per process and shared by every default world; worlds only read it.
_shipped_definition = functools.cache(default_world_definition)


# -- telemetry ----------------------------------------------------------------


def _episode_streams(episode) -> tuple[list[str], list[str]]:
    """Observation sequence (trailing whitespace trimmed) and aligned actions."""
    observations = [str(o).rstrip() for o in episode.observations]
    actions = [rec.chosen_action for rec in episode.steps]
    return observations, actions


def unique_states(episode) -> int:
    """Number of distinct observation strings received during the episode."""
    observations, _ = _episode_streams(episode)
    if not observations:
        raise ValueError("episode has no observations")
    return len(set(observations))


def loop_stats(episode) -> LoopStats:
    """Count loop events and how many were escaped within three steps.

    A loop event at step t means the (observation, action) pair already
    occurred at an earlier step; it is recovered when at least one of the
    next three observations was never seen up to and including step t.
    """
    observations, actions = _episode_streams(episode)
    seen_pairs: set[tuple[str, str]] = set()
    prefix: set[str] = set()
    loops = 0
    recovered = 0
    for t, action in enumerate(actions):
        pair = (observations[t], action)
        prefix.add(observations[t])
        if pair in seen_pairs:
            loops += 1
            window = observations[t + 1 : t + 4]
            if any(obs not in prefix for obs in window):
                recovered += 1
        else:
            seen_pairs.add(pair)
    rate = recovered / loops if loops else 0.0
    return LoopStats(loops, recovered, rate, unique_states(episode))
