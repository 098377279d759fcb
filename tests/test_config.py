"""The config loader reads a world as whole arrays, and falls back to a walk
over the edges or agents only to word the first fault. Random valid configs
must parse to the models built one edge and one agent at a time, and one
or two injected faults must be reported at the first of them, in the words
the walk uses."""

import copy

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossip_learning.config import parse_config_dict
from gossip_learning.errors import ValidationError
from gossip_learning.graph import DirectedNetwork
from gossip_learning.world import Prior, StateSpace, WorldModel


def distribution(draw, size):
    w = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return [x / sum(w) for x in w]


@st.composite
def configs(draw):
    """2-8 agents, 2-4 states, edges in random order, and one table per
    agent (an agent after the first may share an earlier table through
    "like"); every table has the same signal count or each its own."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 4))
    pairs = [[j, i] for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique_by=tuple))
    uniform = draw(st.booleans())
    size = draw(st.integers(1, 5))
    likelihoods = []
    for a in range(1, n + 1):
        explicit = [e["agent"] for e in likelihoods if "table" in e]
        if explicit and draw(st.booleans()):
            likelihoods.append({"agent": a, "like": f"l_{draw(st.sampled_from(explicit))}"})
        else:
            d = size if uniform else draw(st.integers(1, 5))
            likelihoods.append({"agent": a, "table": [distribution(draw, d) for _ in range(k)]})
    return {
        "network": {"n": n, "edges": edges},
        "selection": {"kind": "uniform"},
        "world": {"states": list(range(1, k + 1)), "true_state": 1, "prior": "uniform", "likelihoods": likelihoods},
        "simulation": {"horizon": 5, "seed": 0},
    }


def per_agent_world(raw) -> WorldModel:
    """The world built one agent at a time: each table padded into the
    tensor by its own signal count."""
    world = raw["world"]
    by_agent = {e["agent"]: e for e in world["likelihoods"]}
    tables = [np.array(by_agent[int(e["like"][2:])]["table"] if "like" in e else e["table"])
              for e in world["likelihoods"]]
    k = len(world["states"])
    padded = np.zeros((len(tables), k, max(t.shape[1] for t in tables)))
    for i, t in enumerate(tables):
        padded[i, :, :t.shape[1]] = t
    return WorldModel(StateSpace(tuple(world["states"]), 0), Prior(np.full(k, 1 / k)), padded,
                      [t.shape[1] for t in tables])


@settings(max_examples=150, deadline=None)
@given(raw=configs())
def test_configs_parse_to_the_models_built_one_item_at_a_time(raw):
    cfg = parse_config_dict(raw)
    edges = raw["network"]["edges"]
    assert cfg.network == DirectedNetwork(raw["network"]["n"], tuple((j - 1, i - 1) for j, i in edges))
    assert cfg.world == per_agent_world(raw)


EDGE_FAULTS = ("bool", "None", "string", "2**70", "ragged", "negative", "-2**63", "tuple")
TABLE_FAULTS = ("bool", "None", "string", "2**70", "ragged row", "row count", "negative", "row sum")


def inject_edge_fault(raw, k, p, fault) -> str:
    """Put fault into edge k's endpoint p; the message that names it."""
    edge, n = raw["network"]["edges"][k], raw["network"]["n"]
    path = f"network.edges[{k}]"
    if fault == "ragged":
        edge.append(1)
        return f"{path}: expected a [source, target] pair"
    if fault == "tuple":  # a valid edge, but only a list is a pair
        raw["network"]["edges"][k] = tuple(edge)
        return f"{path}: expected a [source, target] pair"
    value = {"bool": True, "None": None, "string": "1", "2**70": 2**70, "negative": -1, "-2**63": -2**63}[fault]
    edge[p] = value
    if fault in ("bool", "None", "string"):
        return f"{path}[{p}]: expected an integer, got {value!r}"
    return f"{path}: [{edge[0]}, {edge[1]}] has an endpoint outside 1..{n}"


def inject_table_fault(raw, agent, s, x, fault) -> str:
    """Put fault into agent's table at state row s, signal x (both wrapped
    to the table); the message that names it."""
    table = raw["world"]["likelihoods"][agent - 1]["table"]
    k = len(table)
    s %= k
    row = table[s]
    x %= len(row)
    prefix = f"world.likelihoods: agent {agent}:"
    if fault in ("bool", "None", "string"):
        row[x] = {"bool": False, "None": None, "string": "0.5"}[fault]
        return f"{prefix} likelihood table rows must be numbers, all rows of one length"
    if fault == "ragged row":
        table[s] = row + [0.0] if len(row) == 1 else row[:-1]
        return f"{prefix} likelihood table rows must be numbers, all rows of one length"
    if fault == "row count":
        if x % 2:
            table.append(list(table[0]))
        else:
            table.pop()
        return f"{prefix} table has {len(table)} rows but there are {k} states"
    if fault == "negative":
        row[x] = -0.25
        return f"{prefix} negative likelihood entry -0.25 for state {s + 1}, signal {x}"
    row[x] = 2**70 if fault == "2**70" else row[x] + 0.25
    total = float(np.array(row, dtype=float).sum())
    return f"{prefix} likelihood row for state {s + 1} sums to {total!r}, expected 1 within 1e-12"


def parse_error(raw) -> str:
    try:
        parse_config_dict(raw)
    except ValidationError as exc:
        return str(exc)
    raise AssertionError("the faulty config parsed")


@settings(max_examples=200, deadline=None)
@given(raw=configs(), faults=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 1), st.sampled_from(EDGE_FAULTS)),
                                      min_size=1, max_size=2))
def test_the_first_faulty_edge_is_named(raw, faults):
    m = len(raw["network"]["edges"])
    at = {k % m: fault for k, *fault in faults}
    raw = copy.deepcopy(raw)
    messages = [inject_edge_fault(raw, k, *fault) for k, fault in sorted(at.items())]
    assert parse_error(raw) == messages[0]


# every agent shares the first agent's table, so a fault in it is in the
# whole (agents, states, signals) array
SHARED = {
    "network": {"n": 2, "edges": [[1, 2], [2, 1]]},
    "selection": {"kind": "uniform"},
    "world": {"states": [1, 2], "true_state": 1, "prior": "uniform",
              "likelihoods": [{"agent": 1, "table": [[0.5, 0.5], [0.25, 0.75]]}, {"agent": 2, "like": "l_1"}]},
    "simulation": {"horizon": 5, "seed": 0},
}


@settings(max_examples=200, deadline=None)
@given(raw=configs(), faults=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3), st.integers(0, 4),
                                                st.sampled_from(TABLE_FAULTS)), min_size=1, max_size=2))
@example(raw=SHARED, faults=[(0, 0, 0, "row count")])
@example(raw=SHARED, faults=[(0, 0, 1, "row count")])
def test_the_first_faulty_agent_is_named(raw, faults):
    owners = [e["agent"] for e in raw["world"]["likelihoods"] if "table" in e]
    at = {owners[a % len(owners)]: fault for a, *fault in faults}
    raw = copy.deepcopy(raw)
    messages = [inject_table_fault(raw, a, *fault) for a, fault in sorted(at.items())]
    assert parse_error(raw) == messages[0]
