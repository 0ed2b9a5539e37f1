"""Prompt templates, shipped as plain-text assets and rendered by substitution.

Templates use ``{name}`` placeholders filled with :func:`str.replace` rather
than ``str.format`` so that literal braces in the template bodies (JSON
shapes) survive untouched.
"""

from __future__ import annotations

from importlib import resources

ASSET_NAMES = (
    "mab_system",
    "mab_history",
    "zero_shot",
    "mode_decision",
    "candidate_generation",
    "lambda_decision",
)

# The bandit arms' names: arm i is the ARM_COLORS[i] button.
ARM_COLORS = ("blue", "green", "red", "yellow", "purple")

_cache: dict[str, str] = {}


def load(name: str) -> str:
    """Return the raw text of a prompt asset by name (without the .txt suffix)."""
    if name not in _cache:
        if name not in ASSET_NAMES:
            raise KeyError(f"unknown prompt asset {name!r}")
        _cache[name] = (
            resources.files(__package__).joinpath(f"{name}.txt").read_text(encoding="utf-8")
        )
    return _cache[name]


def _fill(template: str, mapping: dict[str, object]) -> str:
    out = template
    for key, value in mapping.items():
        out = out.replace("{" + key + "}", str(value))
    return out


def _color_set(colors) -> str:
    """The buttons a reply may name, as the prompts list them: ``{blue, green}``."""
    return "{" + ", ".join(colors) + "}"


def mab_system(num_arms: int, horizon: int) -> str:
    """The system prompt of a ``num_arms`` instance, naming its first ``num_arms`` colors."""
    colors = _color_set(ARM_COLORS[:num_arms])
    return _fill(load("mab_system"), {"K": num_arms, "T": horizon, "colors": colors})


def mab_history(step_count: int, counts, avg_rewards, colors) -> str:
    """Summarized per-button history: counts always, averages only once pressed.
    The answer format names ``colors``, the instance's buttons."""
    lines = []
    for color, n, avg in zip(colors, counts, avg_rewards):
        label = color.capitalize()
        if n > 0:
            lines.append(f"- {label} button: pressed {int(n)} times, average reward {avg:.2f}")
        else:
            lines.append(f"- {label} button: pressed 0 times")
    mapping = {"t": step_count, "colors": _color_set(colors), "summary": "\n".join(lines)}
    return _fill(load("mab_history"), mapping)


def mode_decision() -> str:
    return load("mode_decision")


def candidate_generation(n_candidates: int) -> str:
    return _fill(load("candidate_generation"), {"n": n_candidates})


def lambda_decision(lambda_min: float, lambda_max: float) -> str:
    return _fill(
        load("lambda_decision"), {"lambda_min": f"{lambda_min:g}", "lambda_max": f"{lambda_max:g}"}
    )


def zero_shot() -> str:
    return load("zero_shot")
