"""Parity of the classical bandit step-line template with the JSON encoder.

Runs without step records write their step lines from one ``%`` template
instead of encoding a dict per step. The reference below is the dict those
lines were encoded from, inlined: ``_dump_line`` of it must equal the
template's line byte for byte, for valid and invalid pulls, any arm of up
to nine, and run and step indexes up to a million.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from dora.bandit import INVALID_PULL, BanditRun
from dora.harness import SCHEMA_VERSION, _BANDIT_STEP_LINE, _bandit_step_text, _dump_line

INDEX = st.integers(0, 10**6)
NUM_ARMS = st.integers(2, 9)
REWARD = st.sampled_from([0, 1])


def arms(num_arms: int) -> st.SearchStrategy[int]:
    return st.sampled_from([INVALID_PULL, *range(num_arms)])


def reference_line(run_index: int, t: int, arm: int, reward: int) -> str:
    return _dump_line(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "step",
            "run": run_index,
            "step": t,
            "arm": None if arm == INVALID_PULL else arm,
            "reward": reward,
            "valid": arm != INVALID_PULL,
        }
    )


@given(data=st.data(), num_arms=NUM_ARMS, run_index=INDEX)
def test_run_step_text_matches_encoded_dicts(data, num_arms, run_index):
    steps = data.draw(st.lists(st.tuples(arms(num_arms), REWARD), max_size=40))
    pulls = [arm for arm, _ in steps]
    rewards = [0 if arm == INVALID_PULL else reward for arm, reward in steps]
    expected = [reference_line(run_index, t, *step) for t, step in enumerate(zip(pulls, rewards))]
    assert _bandit_step_text(BanditRun(pulls, rewards), run_index) == expected


# The writer fills the template as below; this covers indexes far past a run's length.
@given(data=st.data(), num_arms=NUM_ARMS, run_index=INDEX, t=INDEX, reward=REWARD)
def test_template_matches_encoded_dict_at_any_index(data, num_arms, run_index, t, reward):
    arm = data.draw(arms(num_arms))
    if arm == INVALID_PULL:
        line = _BANDIT_STEP_LINE % ("null", reward, run_index, t, "false")
    else:
        line = _BANDIT_STEP_LINE % (arm, reward, run_index, t, "true")
    assert line == reference_line(run_index, t, arm, reward)
