"""The array model against dense, per-agent references: a selection chain in
CSR form, one likelihood tensor, and draws, divergences and rates computed
for every agent at once must give the bits a per-agent loop over dense rows
gives. Also the first error a config with several faults reports, that a
config error is the field path followed by the model type's own message,
which inputs count as numbers, that every model type holding arrays compares
and hashes by value, and a bound on the memory a 10 000-agent run takes."""

import copy
import dataclasses
import importlib
import math
import pkgutil
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossip_learning
from gossip_learning import example1
from gossip_learning.analysis import OccupancyReport, theoretical_rate
from gossip_learning.arrays import ArrayValue, float_array, int_array
from gossip_learning.config import parse_config_dict
from gossip_learning.errors import MultipleRecurrentClassesError, ValidationError
from gossip_learning.graph import (
    DirectedNetwork,
    SelectionMatrix,
    StationaryDistribution,
    csr_contains,
    custom_selection_matrix,
    stationary_distribution,
    uniform_selection_matrix,
)
from gossip_learning.simulator import SimulationConfig, SimulationTrace, run, run_replications
from gossip_learning.world import (
    Prior,
    StateSpace,
    WorldModel,
    check_global_identifiability,
    kl_divergence,
)
from tests.test_simulator import reference_run


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


# ---- dense, per-agent references ---------------------------------------------


def reference_kl(p, q) -> float:
    """D(p || q) for one pair of 1-D distributions, over p's positive
    entries only."""
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    return max(float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask])))), 0.0)


def reference_rate(pi, tables, theta, check) -> float:
    total = 0.0
    for m, table in enumerate(tables):
        if pi[m] == 0.0:
            continue
        total += pi[m] * reference_kl(table[theta], table[check])
    return float(total)


# ---- random worlds written as configs ------------------------------------------


def distribution(draw, size):
    w = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    return [x / sum(w) for x in w]


@st.composite
def config_worlds(draw):
    """1-6 agents, 2-12 signals per agent, tables with zero entries, agents
    sharing a table through "like", and a selection chain whose recurrent
    class is the first `core` agents: later agents consult earlier ones and
    nobody in the core consults them, so they are transient. Selection is
    uniform or explicit rows, which may put weight on the agent itself."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 4))
    core = draw(st.integers(1, n))
    edges = set()
    for i in range(n):
        pool = [j for j in range(core if i < core else i) if j != i]
        if i < core and core > 1:
            edges.add(((i - 1) % core, i))  # a cycle through the core
        if pool:
            edges.update((j, i) for j in draw(st.lists(st.sampled_from(pool), max_size=3)))
        if i >= core and not any(t == i for _, t in edges):
            edges.add((draw(st.sampled_from(range(i))), i))
    likelihoods = []
    for i in range(n):
        if i and draw(st.booleans()):
            likelihoods.append({"agent": i + 1, "like": f"l_{draw(st.sampled_from([e['agent'] for e in likelihoods if 'table' in e]))}"})
        else:
            size = draw(st.integers(2, 12))
            likelihoods.append({"agent": i + 1, "table": [distribution(draw, size) for _ in range(k)]})
    raw = {
        "network": {"n": n, "edges": sorted([j + 1, i + 1] for j, i in edges)},
        "selection": {"kind": "uniform"},
        "world": {"states": list(range(1, k + 1)), "true_state": draw(st.integers(1, k)), "prior": "uniform",
                  "likelihoods": likelihoods},
        "simulation": {"horizon": draw(st.integers(1, 12)), "seed": draw(st.integers(0, 2**32)),
                       "record_beliefs_every": draw(st.integers(1, 4)), "replications": draw(st.integers(1, 2))},
    }
    if draw(st.booleans()):
        rows = []
        for i in range(n):
            allowed = sorted({j for j, t in edges if t == i} | {i})
            w = draw(st.lists(st.integers(0, 3), min_size=len(allowed), max_size=len(allowed)).filter(any))
            row = [0.0] * n
            for j, x in zip(allowed, w):
                row[j] = x / sum(w)
            rows.append(row)
        raw["selection"] = {"kind": "explicit", "rows": rows}
    return raw


@settings(max_examples=120, deadline=None)
@given(raw=config_worlds())
def test_array_model_matches_dense_per_agent_reference(raw):
    cfg = parse_config_dict(raw)
    world, P = cfg.world, cfg.selection
    n, theta = world.n_agents, world.true_state_index
    tables = [world.likelihood(i) for i in range(n)]

    # the tensor holds each agent's table, zero-padded, and aliases share one
    for i, entry in enumerate(raw["world"]["likelihoods"]):
        source = entry if "table" in entry else raw["world"]["likelihoods"][int(entry["like"][2:]) - 1]
        assert bits(tables[i]) == bits(np.array(source["table"]))
        assert not np.any(world.tables[i, :, world.signal_counts[i]:])

    # the support of every row, against the dense matrix
    chosen = np.tile(np.arange(n), (n, 1)).T
    assert np.array_equal(csr_contains(P.indptr, P.indices, np.arange(n), chosen), P.to_dense()[np.arange(n), chosen] > 0.0)

    # draws and snapshots, against the per-agent loop over dense rows
    for r, tr in enumerate(run_replications(cfg.network, P, world, cfg.simulation)):
        signals, selections, snapshots = reference_run(cfg.network, P, world, cfg.simulation, r)
        assert np.array_equal(tr.signals, signals)
        assert np.array_equal(tr.selections, selections)
        for m, t in enumerate(tr.snapshot_times):
            assert bits(tr.log_beliefs[m]) == bits(snapshots[t])

    # divergences, identifiability and the rate, against one pair at a time
    expected = np.array([[reference_kl(t[theta], t[c]) for c in range(world.num_states)] for t in tables])
    assert bits(world.divergences) == bits(expected)
    report = check_global_identifiability(world, range(n))
    for c, found in report.witnesses:
        assert found == tuple(i for i in range(n) if expected[i, c] > 1e-12)
    try:
        pi = stationary_distribution(P)
    except MultipleRecurrentClassesError:
        return
    for c in range(world.num_states):
        assert bits(theoretical_rate(pi, world, c)) == bits(reference_rate(pi.pi, tables, theta, c))


@pytest.mark.parametrize("explicit", [False, True], ids=["uniform rows", "explicit rows"])
def test_long_rows_draw_like_the_reference(explicit):
    """Rows of many entries take several binary-search steps: 20 agents on
    a complete graph, each consulting 19 agents (uniform rows) or 17 to 20
    (explicit rows with zeros, so row lengths differ), with 20-signal tables
    that have zero entries."""
    n, k, size = 20, 3, 20
    rng = np.random.default_rng(7)
    net = DirectedNetwork(n, [(j, i) for i in range(n) for j in range(n) if i != j])
    if explicit:
        rows = rng.random((n, n)) * (rng.random((n, n)) < 0.95)
        rows[:, 0] += 0.01
        P = custom_selection_matrix(net, rows / rows.sum(axis=1, keepdims=True))
    else:
        P = uniform_selection_matrix(net)
    lengths = np.diff(P.indptr)
    assert lengths.min() > 16 and (lengths.min() < lengths.max()) == explicit
    chosen = rng.integers(0, n, (50, n))
    assert np.array_equal(csr_contains(P.indptr, P.indices, np.arange(n), chosen), P.to_dense()[np.arange(n), chosen] > 0.0)
    raw = rng.integers(0, 4, (n, k, size)).astype(float)
    raw[:, :, 0] += 1.0
    raw[n // 2:] = raw[0]  # half the agents share one table
    world = WorldModel(StateSpace(states=(1, 2, 3), true_state_index=0), Prior(nu=np.full(k, 1 / k)),
                       raw / raw.sum(axis=2, keepdims=True), np.full(n, size))
    cfg = SimulationConfig(horizon=30, seed=11, replications=2)
    for r, tr in enumerate(run_replications(net, P, world, cfg)):
        signals, selections, snapshots = reference_run(net, P, world, cfg, r)
        assert np.array_equal(tr.signals, signals)
        assert np.array_equal(tr.selections, selections)
        assert bits(tr.log_beliefs[-1]) == bits(snapshots[30])


POSITIVE_OR_ZERO = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 3)), size=st.integers(1, 20))
def test_stacked_kl_is_bitwise_its_1d_form(data, shape, size):
    """Every pair of a stacked call gets the bits of the 1-D call on it, and
    the 1-D call the bits of the reference; rows with 8 or more positive
    entries, where numpy's sum switches to pairwise blocks, included."""
    count = shape[0] * shape[1] * size
    p = np.array(data.draw(st.lists(POSITIVE_OR_ZERO, min_size=count, max_size=count))).reshape(*shape, size)
    q = np.array(data.draw(st.lists(POSITIVE_OR_ZERO, min_size=count, max_size=count))).reshape(*shape, size)
    p[0, 0, : min(size, 9)] = 0.5  # one row with up to 9 positive entries
    stacked = kl_divergence(p, q)
    assert stacked.shape == shape
    for a in range(shape[0]):
        for b in range(shape[1]):
            one = kl_divergence(p[a, b], q[a, b])
            assert type(one) is float
            assert bits(stacked[a, b]) == bits(one) == bits(reference_kl(p[a, b], q[a, b]))
    # a leading axis of p broadcasts against q's
    assert bits(kl_divergence(p[:, :1], q)) == bits(kl_divergence(np.broadcast_to(p[:, :1], q.shape), q))


def test_kl_rows_with_many_positive_signals():
    rng = np.random.default_rng(5)
    for size in (7, 8, 9, 16, 17, 40):
        p = rng.dirichlet(np.ones(size), size=50)
        q = rng.dirichlet(np.ones(size), size=50)
        stacked = kl_divergence(p, q)
        assert bits(stacked) == bits([reference_kl(a, b) for a, b in zip(p, q)])


def reference_selection_error(p):
    """The message of the first fault of a dense selection matrix, or None:
    non-finite entries, then the first negative entry in row-major order,
    then the first row whose dense sum is off."""
    if not np.all(np.isfinite(p)):
        return "selection matrix entries must be finite"
    if np.any(p < 0.0):
        i, j = np.argwhere(p < 0.0)[0]
        return f"agent {i + 1} has negative probability {float(p[i, j])!r} of choosing agent {j + 1}"
    sums = p.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-12)
    if bad.size:
        i = int(bad[0])
        if sums[i] == 0.0:
            return f"the row of agent {i + 1} has zero mass on every entry"
        return f"the row of agent {i + 1} sums to {float(sums[i])!r}, expected 1 within 1e-12"
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_selection_validation_reports_what_the_dense_checks_report(data, n):
    """Rows of up to 40 entries, mostly zero, scaled around the 1e-12 row-sum
    tolerance, with an occasional negative or non-finite entry: the CSR
    checks raise the dense checks' first message, row sums included."""
    weights = np.array(data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 7]), min_size=n * n, max_size=n * n)),
                       dtype=float).reshape(n, n)
    weights[:, 0] += weights.sum(axis=1) == 0  # most rows have mass
    p = weights / weights.sum(axis=1, keepdims=True)
    scale = data.draw(st.lists(st.sampled_from([0.0, 3e-13, -3e-13, 1e-12, -1e-12, 1.5e-12, 1e-9]),
                               min_size=n, max_size=n))
    p *= 1.0 + np.array(scale)[:, None]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        p[i, j] = data.draw(st.sampled_from([-0.25, 0.0, np.nan, np.inf]))
    expected = reference_selection_error(p)
    if expected is None:
        P = SelectionMatrix.from_dense(p)
        assert bits(P.to_dense()) == bits(p + 0.0)
    else:
        with pytest.raises(ValidationError) as info:
            SelectionMatrix.from_dense(p)
        assert str(info.value) == expected


# ---- the first of several faults --------------------------------------------
# Messages recorded from the per-agent, dense implementation that the arrays
# replaced.

BASE = example1.config_dict(horizon=20, replications=1)


def parse_error(raw) -> str:
    with pytest.raises(ValidationError) as info:
        parse_config_dict(raw)
    return str(info.value)


def with_selection_rows(edit):
    rows = example1.config().selection.to_dense().tolist()
    edit(rows)
    raw = copy.deepcopy(BASE)
    raw["selection"] = {"kind": "explicit", "rows": rows}
    return raw


def with_tables(tables):
    raw = copy.deepcopy(BASE)
    for agent, table in tables.items():
        raw["world"]["likelihoods"][agent - 1] = {"agent": agent, "table": table}
    return raw


def test_first_selection_support_fault_is_named():
    # agent 2 observes agents 1 and 4 and agent 3 observes agent 2
    def edit(rows):
        rows[1] = [0.25, 0.0, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0]
        rows[2] = [0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0]
    assert parse_error(with_selection_rows(edit)) == (
        "selection.rows: agent 2 puts positive mass on agent 3, which is neither an in-neighbor of 2 nor 2 itself"
    )


def test_a_negative_selection_entry_comes_before_an_earlier_row_sum():
    def edit(rows):
        rows[1] = [0.5, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0]
        rows[2] = [0.0, 1.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert parse_error(with_selection_rows(edit)) == (
        "selection.rows: agent 3 has negative probability -0.5 of choosing agent 3"
    )


@pytest.mark.parametrize("tables, message", [
    ({2: [[0.5, 0.5], [1.5, -0.5], [0.5, 0.5]], 3: [[0.5, 0.4], [0.5, 0.5], [0.5, 0.5]]},
     "world.likelihoods: agent 2: negative likelihood entry -0.5 for state 2, signal 1"),
    ({2: [[0.5, 0.4], [0.5, 0.5], [1.5, -0.5]]},
     "world.likelihoods: agent 2: negative likelihood entry -0.5 for state 3, signal 1"),
    ({2: [[0.5, 0.4], [0.5, 0.5]], 3: [[0.5, 0.5], [-0.5, 1.5], [0.5, 0.5]]},
     "world.likelihoods: agent 2: likelihood row for state 1 sums to 0.9, expected 1 within 1e-12"),
    ({2: [[0.5, 0.5], [0.5, 0.5]], 3: [[0.5, 0.5], [-0.5, 1.5], [0.5, 0.5]]},
     "world.likelihoods: agent 2: table has 2 rows but there are 3 states"),
    ({2: [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.3]], 3: []},
     "world.likelihoods: agent 2: likelihood row for state 3 sums to 0.8999999999999999, expected 1 within 1e-12"),
    ({3: [[]]}, "world.likelihoods: agent 3: likelihood table must be 2-D"),
    ({2: [[0.5, 0.5], [1.0], [0.5, 0.5]]},
     "world.likelihoods: agent 2: likelihood table rows must be numbers, all rows of one length"),
    ({2: [[math.nan, 0.5], [0.5, 0.5], [0.5, 0.5]]},
     "world.likelihoods: agent 2: likelihood row for state 1 sums to nan, expected 1 within 1e-12"),
    ({2: [[0.5, 0.5], [0.5, 0.5], [0.5, math.nan]], 3: [[0.5, 0.5], [1.0], [-0.5, 1.5]]},
     "world.likelihoods: agent 2: likelihood row for state 3 sums to nan, expected 1 within 1e-12"),
], ids=["negative on 2, row sum on 3", "row sum then negative in one agent", "row count and sum on 2",
        "row count on 2, negative on 3", "three signals on 2, none on 3", "empty rows", "ragged rows on 2",
        "NaN on 2", "NaN on 2, ragged rows on 3"])
def test_first_likelihood_fault_is_named(tables, message):
    assert parse_error(with_tables(tables)) == message


# ---- one wording per rule ----------------------------------------------------
# (field path, faulty explicit selection rows or {agent: likelihood table});
# the model type words each fault, and the config loader only puts the path
# in front of its message.

EX1_ROWS = example1.config().selection.to_dense().tolist()


def rows_with(agent, row):
    rows = copy.deepcopy(EX1_ROWS)
    rows[agent - 1] = row
    return rows


SAME_FAULT = {
    "selection support": ("selection.rows", rows_with(2, [0.25, 0.0, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0])),
    "negative selection entry": ("selection.rows", rows_with(2, [-0.5, 1.5] + [0.0] * 6)),
    "selection row sum": ("selection.rows", rows_with(2, [0.5, 0.4] + [0.0] * 6)),
    "short selection row": ("selection.rows", rows_with(3, [0.5, 0.5])),
    "ragged selection rows": ("selection.rows", rows_with(2, [1.0] + [0.0] * 8)),
    "every selection row short": ("selection.rows", [row[:7] for row in EX1_ROWS]),
    "missing selection row": ("selection.rows", EX1_ROWS[:7]),
    "negative likelihood entry": ("world.likelihoods", {2: [[0.5, 0.5], [1.5, -0.5], [0.5, 0.5]]}),
    "likelihood row sum": ("world.likelihoods", {2: [[0.5, 0.5], [0.5, 0.5], [0.5, 0.4]]}),
    "extra likelihood row summing to 0.9": ("world.likelihoods", {2: [[0.5, 0.5]] * 3 + [[0.5, 0.4]]}),
    "extra likelihood row with a negative entry": ("world.likelihoods", {2: [[0.5, 0.5]] * 3 + [[1.5, -0.5]]}),
}


@pytest.mark.parametrize("path, values", SAME_FAULT.values(), ids=SAME_FAULT.keys())
def test_config_message_is_the_field_path_then_the_model_message(path, values):
    cfg = example1.config()
    with pytest.raises(ValidationError) as info:
        if path == "selection.rows":
            custom_selection_matrix(cfg.network, values)
        else:
            tables = [values.get(i + 1, cfg.world.likelihood(i).tolist()) for i in range(cfg.world.n_agents)]
            WorldModel.from_tables(cfg.world.state_space, cfg.world.prior, tables)
    if path == "selection.rows":
        raw = copy.deepcopy(BASE)
        raw["selection"] = {"kind": "explicit", "rows": values}
    else:
        raw = with_tables(values)
    assert parse_error(raw) == f"{path}: {info.value}"


def test_every_exported_name_resolves():
    for name in gossip_learning.__all__:
        assert hasattr(gossip_learning, name), name


# ---- the number rule ----------------------------------------------------------

@pytest.mark.parametrize("x", [
    np.array([[1, 0], [0, 1]]), np.array([0.5, 0.5], dtype=np.float32), np.array([3], dtype=np.uint8),
    [np.int64(1), np.float32(0.5), 2, 2.5], [[1, 0.5], np.array([2.0, 3.0])], np.float64(0.5), [],
], ids=["int array", "float32 array", "uint8 array", "numpy and Python scalars", "array row", "scalar", "empty"])
def test_numbers_become_a_float_array(x):
    arr = float_array(x)
    assert arr.dtype == np.float64 and arr.tolist() == np.asarray(x, dtype=float).tolist()


@pytest.mark.parametrize("x", [
    np.array([True, False]), [True, 1e-300], [np.bool_(True)], [[0.5, None]], ["0.5"], "0.5",
    [[1.0], [np.bool_(False)]], np.array([0.5], dtype=object), [10**400],
], ids=["bool array", "bool", "numpy bool", "None", "string", "bare string", "numpy bool row", "object array",
        "int beyond float"])
def test_what_is_not_numbers(x):
    assert float_array(x) is None


def test_selection_entries_must_be_numbers():
    with pytest.raises(ValidationError) as info:
        SelectionMatrix.from_dense([[True]])
    assert str(info.value) == "the row of agent 1 is not a list of numbers"
    with pytest.raises(ValidationError) as info:
        SelectionMatrix.from_dense(np.eye(2, dtype=bool))
    assert str(info.value) == "the row of agent 1 is not a list of numbers"
    assert SelectionMatrix.from_dense(np.eye(2, dtype=int)) == SelectionMatrix.from_dense(np.eye(2))


# ---- the integer rule ---------------------------------------------------------

@pytest.mark.parametrize("x", [
    np.array([[1, 0], [0, 1]]), np.array([3], dtype=np.uint8), [np.int32(1), 2, np.uint64(3)],
    [[1, 2], np.array([3, 4])], np.int64(5), 5, [],
], ids=["int array", "uint8 array", "numpy and Python ints", "array row", "numpy scalar", "scalar", "empty"])
def test_integers_become_an_int64_array(x):
    arr = int_array(x)
    assert arr.dtype == np.int64 and arr.tolist() == np.asarray(x).tolist()


@pytest.mark.parametrize("x", [
    [0, 1, 2.9], [2.0], np.array([1.0]), [np.float64(1.0)], [True, 1], np.array([True]), [np.bool_(False)],
    [None], ["1"], [2**63],
], ids=["float", "integral float", "float array", "numpy float", "bool", "bool array", "numpy bool", "None",
        "string", "int beyond int64"])
def test_what_is_not_integers(x):
    assert int_array(x) is None


def test_selection_indices_must_be_integers():
    for n in (True, 1.0):
        with pytest.raises(ValidationError) as info:
            SelectionMatrix(n=n, indptr=[0, 1], indices=[0], probs=[1.0])
        assert str(info.value) == f"n: agent count must be an integer, got {n!r}"
    with pytest.raises(ValidationError) as info:
        SelectionMatrix(n=2, indptr=[0, 1, 2.9], indices=[1.5, 0.2], probs=[1.0, 1.0])
    assert str(info.value) == "selection matrix indptr and indices must be integers"
    with pytest.raises(ValidationError) as info:
        SelectionMatrix(n=2, indptr=[0, 1, 2], indices=np.array([1.0, 0.0]), probs=[1.0, 1.0])
    assert str(info.value) == "selection matrix indptr and indices must be integers"


def test_signal_counts_must_be_integers():
    world = example1.config().world
    with pytest.raises(ValidationError) as info:
        WorldModel(world.state_space, world.prior, world.tables, world.signal_counts + 0.7)
    assert str(info.value) == "signal counts must be integers"
    assert WorldModel(world.state_space, world.prior, world.tables, world.signal_counts.tolist()) == world


# ---- the value rule -----------------------------------------------------------
# Each array-holding model type, built from fresh inputs; with changed=True one
# entry of one array differs.

def _two_by_two(changed):
    return [[0.5, 0.5], [0.75, 0.25] if changed else [0.25, 0.75]]


def _trace(changed):
    signals = np.zeros((3, 2), dtype=np.int64)
    signals[2, 1] = int(changed)
    return SimulationTrace(signals, np.zeros((2, 2), dtype=np.int64), (0, 2), np.zeros((2, 2, 2)))


SPACE = StateSpace(states=(1, 2), true_state_index=0)
VALUE_BUILDS = {
    "DirectedNetwork": lambda changed: DirectedNetwork(3, [(0, 1), (1, 2), (2, 0) if changed else (2, 1)]),
    "SelectionMatrix": lambda changed: SelectionMatrix.from_dense(_two_by_two(changed)),
    "StationaryDistribution": lambda changed: StationaryDistribution(np.array(_two_by_two(changed)[1])),
    "Prior": lambda changed: Prior(np.array(_two_by_two(changed)[1])),
    "WorldModel": lambda changed: WorldModel.from_tables(SPACE, Prior(np.array([0.5, 0.5])), [_two_by_two(changed)]),
    "SimulationTrace": _trace,
    "OccupancyReport": lambda changed: OccupancyReport(
        agent=0, t=4, frequencies=np.array([0.25, 0.75]), stationary=np.array(_two_by_two(changed)[1])),
}


@pytest.mark.parametrize("build", VALUE_BUILDS.values(), ids=VALUE_BUILDS.keys())
def test_equal_builds_compare_and_hash_alike(build):
    a, b, other = build(False), build(False), build(True)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other


def test_signed_zeros_give_equal_worlds():
    prior = Prior(np.array([0.5, 0.5]))
    plus = WorldModel.from_tables(SPACE, prior, [[[1.0, 0.0], [0.5, 0.5]]])
    minus = WorldModel.from_tables(SPACE, prior, [[[1.0, -0.0], [0.5, 0.5]]])
    assert plus == minus and hash(plus) == hash(minus)


def test_configs_built_alike_are_one_dict_key():
    a, b = example1.config(), example1.config()
    assert a == b and hash(a) == hash(b)
    assert {a: "example1"}[b] == "example1"
    assert a != example1.config(seed=43)


def test_runs_with_one_seed_give_equal_traces():
    cfg = example1.config(horizon=5)
    runs = [run(cfg.network, cfg.selection, cfg.world, cfg.simulation) for _ in range(2)]
    assert runs[0] == runs[1] and hash(runs[0]) == hash(runs[1])
    assert runs[0] != run(cfg.network, cfg.selection, cfg.world, cfg.simulation, replication=1)


def test_every_dataclass_holding_arrays_is_an_array_value():
    """A model type with an array field must take its == and hash from
    ArrayValue: the generated ones compare arrays with == and cannot hash
    them."""
    holders = set()
    for info in pkgutil.iter_modules(gossip_learning.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gossip_learning.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__):
                continue
            hints = typing.get_type_hints(cls)
            if any(np.ndarray in (hints[f.name], *typing.get_args(hints[f.name])) for f in dataclasses.fields(cls)):
                holders.add(cls.__name__)
                assert issubclass(cls, ArrayValue), cls.__name__
                # declared eq=False: the dataclass added neither == nor hash of its own
                assert (cls.__eq__, cls.__hash__) == (ArrayValue.__eq__, ArrayValue.__hash__), cls.__name__
    assert holders >= set(VALUE_BUILDS)


# ---- memory ---------------------------------------------------------------------


def test_ten_thousand_agents_fit_in_64_mb():
    """A dense n x n float64 copy at this size is 800 MB; the whole pipeline
    must stay under 64 MB of traced allocations."""
    n, k, signals = 10_000, 3, 3
    rng = np.random.default_rng(2015)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = np.stack([rng.integers(0, n, 2 * n), np.repeat(np.arange(n), 2)], axis=1)
    chords = chords[chords[:, 0] != chords[:, 1]]
    edges = np.unique(np.concatenate([ring, chords]), axis=0)
    raw = rng.random((n, k, signals)) + 0.05
    tables = raw / raw.sum(axis=2, keepdims=True)
    tables[:, :, -1] = 1.0 - tables[:, :, :-1].sum(axis=2)

    tracemalloc.start()
    try:
        net = DirectedNetwork(n, edges)
        P = uniform_selection_matrix(net)
        world = WorldModel(StateSpace(states=(1, 2, 3), true_state_index=0), Prior(nu=np.full(k, 1 / k)),
                           tables, np.full(n, signals))
        pi = stationary_distribution(P)
        assert check_global_identifiability(world, range(n)).identifiable
        trace = run_replications(net, P, world, SimulationConfig(horizon=5, seed=1))[0]
        rate = theoretical_rate(pi, world, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.log_beliefs.shape == (6, n, k) and rate > 0.0
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
