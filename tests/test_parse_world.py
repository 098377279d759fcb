"""The config loader reads likelihood entries of the common shape, {"agent":
a, "table": [...]} for the agents 1..n in order, as one list of tables, and
walks the entries of any other shape one at a time. Both reads give the same
world, and an entry off the common shape gets the walk's words."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossip_learning import config
from gossip_learning.config import parse_config_dict
from gossip_learning.errors import ValidationError


@st.composite
def common_worlds(draw):
    """2-6 agents on a ring, 1-3 states, one explicit table per agent in
    agent order; every table has the same signal count or each its own."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    same = draw(st.integers(1, 4)) if draw(st.booleans()) else None
    likelihoods = []
    for a in range(1, n + 1):
        d = same or draw(st.integers(1, 4))
        rows = [draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)) for _ in range(k)]
        likelihoods.append({"agent": a, "table": [[x / sum(w) for x in w] for w in rows]})
    return {
        "network": {"n": n, "edges": [[a, a % n + 1] for a in range(1, n + 1)]},
        "selection": {"kind": "uniform"},
        "world": {"states": list(range(1, k + 1)), "true_state": 1, "prior": "uniform", "likelihoods": likelihoods},
        "simulation": {"horizon": 5, "seed": 0},
    }


def parse_counting_walks(raw):
    """The parsed config, and how many times the loader walked the entries."""
    with mock.patch.object(config, "_walk_likelihoods", wraps=config._walk_likelihoods) as walk:
        return parse_config_dict(raw), walk.call_count


@settings(max_examples=100, deadline=None)
@given(raw=common_worlds(), data=st.data())
def test_the_common_shape_reads_the_world_the_walk_reads(raw, data):
    fast, walks = parse_counting_walks(raw)
    assert walks == 0
    n = raw["network"]["n"]
    order = data.draw(st.permutations(range(n)))
    if order == sorted(order):
        order = order[::-1]
    shuffled = copy.deepcopy(raw)
    shuffled["world"]["likelihoods"] = [raw["world"]["likelihoods"][p] for p in order]
    walked, walks = parse_counting_walks(shuffled)
    assert walks == 1
    assert walked.world == fast.world
    assert walked.canonical_dict() == fast.canonical_dict()


BASE = {
    "network": {"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
    "selection": {"kind": "uniform"},
    "world": {"states": [1, 2], "true_state": 1, "prior": "uniform", "likelihoods": [
        {"agent": 1, "table": [[0.5, 0.5], [0.25, 0.75]]},
        {"agent": 2, "table": [[0.2, 0.8], [0.6, 0.4]]},
        {"agent": 3, "table": [[0.5, 0.5], [0.25, 0.75]]},
    ]},
    "simulation": {"horizon": 5, "seed": 0},
}


@pytest.mark.parametrize("k, entry, message", [
    (0, {"agent": True, "table": [[0.5, 0.5], [0.25, 0.75]]},
     "world.likelihoods[0].agent: expected an integer, got True"),
    (0, {"agent": 1.0, "table": [[0.5, 0.5], [0.25, 0.75]]},
     "world.likelihoods[0].agent: expected an integer, got 1.0"),
    (2, {"agent": 3, "table": [[0.5, 0.5], [0.25, 0.75]], "extra": 1},
     "world.likelihoods[2]: unknown key 'extra'"),
    (2, {"agent": 3, "like": "l_4"},
     "world.likelihoods[2].like: 'l_4' must reference an agent with an explicit table"),
    (1, {"agent": 2, "table": "[[0.2, 0.8], [0.6, 0.4]]"},
     "world.likelihoods[1].table: expected an array, got str"),
    (1, [2, [[0.2, 0.8], [0.6, 0.4]]],
     "world.likelihoods[1]: expected an object, got list"),
], ids=["a bool agent", "a float agent", "an extra key", "a like entry naming no table", "a string table",
        "an entry that is no object"])
def test_an_entry_off_the_common_shape_gets_the_walks_message(k, entry, message):
    raw = copy.deepcopy(BASE)
    raw["world"]["likelihoods"][k] = entry
    with pytest.raises(ValidationError) as info:
        parse_counting_walks(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", [{"agent": 3, "like": "l_1"}, {"agent": np.int64(3), "table": [[0.5, 0.5], [0.25, 0.75]]}],
                         ids=["an alias", "a numpy agent id"])
def test_an_entry_off_the_common_shape_that_is_valid_is_walked_to_the_same_world(entry):
    raw = copy.deepcopy(BASE)
    raw["world"]["likelihoods"][2] = entry
    walked, walks = parse_counting_walks(raw)
    assert walks == 1
    assert walked.world == parse_config_dict(BASE).world


def test_a_fault_in_a_common_shape_table_is_named_by_the_world():
    raw = copy.deepcopy(BASE)
    raw["world"]["likelihoods"][1]["table"][0] = [0.2, 0.9]
    with pytest.raises(ValidationError) as info:
        parse_counting_walks(raw)
    assert str(info.value) == (
        "world.likelihoods: agent 2: likelihood row for state 1 sums to 1.1, expected 1 within 1e-12")
