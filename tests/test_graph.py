import copy
import importlib.util
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from gossip_learning import example1, graph
from gossip_learning.config import parse_config_dict
from gossip_learning.errors import MultipleRecurrentClassesError, StationarySolveError, ValidationError
from gossip_learning.graph import (
    DirectedNetwork,
    SelectionMatrix,
    StationaryDistribution,
    check_selection_support,
    custom_selection_matrix,
    is_strongly_connected,
    recurrent_classes,
    stationary_distribution,
    uniform_selection_matrix,
)

EX1_EDGES = [(j - 1, i - 1) for j, i in example1.EDGES]

# independent linear-solve oracle value for the benchmark chain
EX1_PI = (1 / 6, 1 / 3, 1 / 4, 1 / 6, 1 / 12, 0.0, 0.0, 0.0)


def ex1_net() -> DirectedNetwork:
    return DirectedNetwork(8, EX1_EDGES)


def _random_net_and_rows(rng, n):
    """A random digraph plus a row-stochastic matrix supported on it."""
    while True:
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, False)
        edges = [(j, i) for i in range(n) for j in range(n) if mask[j, i]]
        net = DirectedNetwork(n, edges)
        rows = np.zeros((n, n))
        for i in range(n):
            allowed = net.in_indices[net.in_indptr[i]:net.in_indptr[i + 1]].tolist() + [i]
            w = rng.random(len(allowed)) + 0.05
            rows[i, allowed] = w / w.sum()
        return net, rows


class TestDirectedNetwork:
    def test_example_in_neighborhoods(self):
        net = ex1_net()
        expected = {0: (2,), 1: (0, 3), 2: (1,), 3: (2, 4), 4: (1,), 5: (2,), 6: (0,), 7: (6,)}
        for i, nbrs in expected.items():
            assert tuple(net.in_indices[net.in_indptr[i]:net.in_indptr[i + 1]].tolist()) == nbrs
            assert net.degree(i) == len(nbrs)

    @pytest.mark.parametrize("i", [-1, 8, True, 1.0])
    def test_degree_of_an_agent_outside_the_network_is_rejected(self, i):
        with pytest.raises(ValidationError) as info:
            ex1_net().degree(i)
        assert str(info.value) == (f"agent {i} outside 0..7" if type(i) is int
                                   else f"agent must be an integer, got {i!r}")

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            DirectedNetwork(3, [(0, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValidationError, match="outside"):
            DirectedNetwork(3, [(0, 3)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            DirectedNetwork(3, [(0, 1), (0, 1)])

    def test_rejects_empty_network(self):
        with pytest.raises(ValidationError, match=r"^n: agent count must be >= 1, got 0$"):
            DirectedNetwork(0, [])

    @pytest.mark.parametrize("n", [2.5, True, None, "2", np.float64(2.0)])
    def test_agent_count_must_be_an_integer(self, n):
        with pytest.raises(ValidationError) as info:
            DirectedNetwork(n=n, edges=[])
        assert str(info.value) == f"n: agent count must be an integer, got {n!r}"

    def test_numpy_integer_agent_count_is_stored_as_an_int(self):
        net = DirectedNetwork(n=np.int32(3), edges=[(0, 1)])
        assert type(net.n) is int
        assert net == DirectedNetwork(3, [(0, 1)])

    def test_networks_with_equal_edges_compare_and_hash_alike(self):
        net = ex1_net()
        twin = DirectedNetwork(net.n, list(net.edges))
        assert net == twin and hash(net) == hash(twin)
        assert net != DirectedNetwork(net.n, list(net.edges[:-1]))

    @pytest.mark.parametrize("edges", [
        ((0, 1), (1, 2), (2, 0)),
        [[0, 1], [1, 2], [2, 0]],
        np.array([[0, 1], [1, 2], [2, 0]]),
        np.array([[0, 1], [1, 2], [2, 0]], dtype=np.uint8),
        [np.array([0, 1]), (np.int32(1), 2), [2, 0]],
    ], ids=["tuples", "lists", "int64 array", "uint8 array", "mixed"])
    def test_edges_are_stored_as_pairs_of_python_ints(self, edges):
        net = DirectedNetwork(3, edges)
        assert net.edges.dtype == np.int64 and not net.edges.flags.writeable
        assert net.edges.tolist() == [[0, 1], [1, 2], [2, 0]]
        cycle = DirectedNetwork(3, ((0, 1), (1, 2), (2, 0)))
        assert net == cycle and hash(net) == hash(cycle)

    @pytest.mark.parametrize("edges, message", [
        (((True, 2),), "edges[0][0]: expected an integer, got True"),
        ([[0, 1], [1, False]], "edges[1][1]: expected an integer, got False"),
        ([(0, 1), (np.True_, 2)], "edges[1][0]: expected an integer, got np.True_"),
        (np.array([[True, False]]), "edges[0][0]: expected an integer, got np.True_"),
    ], ids=["bool in a tuple", "bool in a list", "numpy bool", "bool array"])
    def test_bool_endpoint_is_rejected(self, edges, message):
        with pytest.raises(ValidationError) as info:
            DirectedNetwork(3, edges)
        assert str(info.value) == message


# (n, 0-based edges, the message DirectedNetwork gives for them); a config
# holding the same edges 1-based gives the message after "network."
FAULTY_EDGES = {
    "duplicate at 4 before a self-loop at 7": (
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 1), (4, 0), (1, 3), (2, 2)],
        "edges[4]: duplicate edge [1, 2]"),
    "self-loop at 2 before an endpoint outside at 5 and a duplicate at 6": (
        8, [(0, 1), (1, 0), (3, 3), (1, 2), (2, 0), (0, 8), (0, 1)],
        "edges[2]: self-loop [4, 4] not allowed"),
    "endpoint outside at 1 before a duplicate at 3": (
        8, [(0, 1), (7, 8), (1, 2), (0, 1)],
        "edges[1]: [8, 9] has an endpoint outside 1..8"),
    "endpoint beyond int64 before a self-loop": (
        3, [(0, 1), (2**70, 1), (2, 2)],
        f"edges[1]: [{2**70 + 1}, 2] has an endpoint outside 1..3"),
    "negative endpoint beyond int64": (
        3, [(1, -(2**70))],
        f"edges[0]: [2, {1 - 2**70}] has an endpoint outside 1..3"),
    "duplicate with another edge between its copies": (
        3, [(0, 1), (2, 0), (0, 1)],
        "edges[2]: duplicate edge [1, 2]"),
}


class TestEdgeRules:
    @pytest.mark.parametrize("case", FAULTY_EDGES.values(), ids=FAULTY_EDGES.keys())
    def test_first_faulty_edge_is_named_by_the_network(self, case):
        n, edges, message = case
        for build in (lambda: DirectedNetwork(n, tuple(edges)), lambda: DirectedNetwork(n, edges)):
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("case", FAULTY_EDGES.values(), ids=FAULTY_EDGES.keys())
    def test_first_faulty_edge_is_named_by_the_config(self, case):
        n, edges, message = case
        raw = copy.deepcopy(example1.config_dict(horizon=20))
        raw["network"] = {"n": n, "edges": [[j + 1, i + 1] for j, i in edges]}
        with pytest.raises(ValidationError) as info:
            parse_config_dict(raw)
        assert str(info.value) == "network." + message

    def test_a_value_fault_before_a_type_fault_is_named_first(self):
        raw = copy.deepcopy(example1.config_dict(horizon=20))
        raw["network"]["edges"][2:2] = [[1, 1], [1, "2"]]
        with pytest.raises(ValidationError) as info:
            parse_config_dict(raw)
        assert str(info.value) == "network.edges[2]: self-loop [1, 1] not allowed"

    @pytest.mark.parametrize("edges, message", [
        (((0, 1, 2), (1, 2, 0)), "edges[0]: expected a [source, target] pair"),
        (((0.7, 1.9),), "edges[0][0]: expected an integer, got 0.7"),
        (((0, 1), (1,)), "edges[1]: expected a [source, target] pair"),
        (((0, 0), (0, 1, 2)), "edges[0]: self-loop [1, 1] not allowed"),
        ([np.array(1)], "edges[0]: expected a [source, target] pair"),
        (5, "edges: expected a sequence of [source, target] pairs, got int"),
    ], ids=["triples", "floats", "a single", "a self-loop before a triple", "a 0-d array", "an int"])
    def test_an_edge_that_is_not_an_integer_pair_is_named(self, edges, message):
        with pytest.raises(ValidationError) as info:
            DirectedNetwork(3, edges)
        assert str(info.value) == message

    def test_duplicate_edge_is_rejected_by_the_constructor(self):
        with pytest.raises(ValidationError, match=r"^edges\[1\]: duplicate edge \[1, 2\]$"):
            DirectedNetwork(3, ((0, 1), (0, 1), (1, 2), (2, 0)))


class TestSelectionMatrix:
    def test_uniform_rows_on_example(self):
        p = uniform_selection_matrix(ex1_net()).to_dense()
        assert np.array_equal(p[0], np.eye(8)[2])
        assert p[1, 0] == p[1, 3] == 0.5
        assert p[3, 2] == p[3, 4] == 0.5
        for i in (2, 4, 5, 6, 7):
            assert p[i].sum() == 1.0 and np.count_nonzero(p[i]) == 1
        assert np.all(np.diag(p) == 0.0)  # every agent here has a neighbor

    def test_uniform_isolated_agent_self_selects(self):
        net = DirectedNetwork(3, [(0, 1)])
        p = uniform_selection_matrix(net).to_dense()
        assert p[0, 0] == 1.0 and p[2, 2] == 1.0 and p[1, 0] == 1.0

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            SelectionMatrix.from_dense(np.array([[0.5, 0.4], [0.0, 1.0]]))

    def test_all_zero_row_has_specific_message(self):
        with pytest.raises(ValidationError, match="zero mass on every entry"):
            SelectionMatrix.from_dense(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValidationError):
            SelectionMatrix.from_dense(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            SelectionMatrix.from_dense(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("probs", [np.array([True]), [True], ["1.0"], [None]],
                             ids=["bool array", "bool", "str", "None"])
    def test_probabilities_must_be_numbers(self, probs):
        with pytest.raises(ValidationError) as info:
            SelectionMatrix(n=1, indptr=[0, 1], indices=[0], probs=probs)
        assert str(info.value) == "selection matrix probabilities must be numbers"

    @pytest.mark.parametrize("indptr, indices, probs, message", [
        ([0, 2, 1], [0, 1], [1.0, 1.0], "selection matrix indptr must rise from 0 in 3 entries"),
        ([0, 1, 2], [0], [1.0], "selection matrix stores 2 entries, got 1 indices and 1 probabilities"),
        ([0, 1, 2], [0, 2], [1.0, 1.0], "selection matrix column index outside 0..1"),
        ([0, 2, 3], [1, 0, 1], [0.5, 0.5, 1.0], "selection matrix columns must ascend within each row"),
        ([0, 2, 3], [0, 1, 1], [1.0, 0.0, 1.0], "agent 1 stores a zero probability of choosing agent 2"),
    ], ids=["falling indptr", "entry count", "column past n", "unsorted columns", "stored zero"])
    def test_csr_structure_faults_are_named(self, indptr, indices, probs, message):
        with pytest.raises(ValidationError) as info:
            SelectionMatrix(n=2, indptr=indptr, indices=indices, probs=probs)
        assert str(info.value) == message

    def test_custom_rejects_mass_outside_neighborhood(self):
        net = DirectedNetwork(3, [(0, 1)])
        rows = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValidationError, match="neither an in-neighbor"):
            custom_selection_matrix(net, rows)

    def test_support_error_names_1_based_agents(self):
        net = DirectedNetwork(3, [(0, 1)])
        P = uniform_selection_matrix(DirectedNetwork(3, [(2, 1)]))
        with pytest.raises(ValidationError) as info:
            check_selection_support(net, P)
        assert str(info.value) == (
            "agent 2 puts positive mass on agent 3, which is neither an in-neighbor of 2 nor 2 itself"
        )

    def test_custom_allows_self_weight(self):
        net = DirectedNetwork(2, [(0, 1)])
        p = custom_selection_matrix(net, [[1.0, 0.0], [0.3, 0.7]])
        assert p.to_dense()[1, 1] == 0.7

    def test_support_indices(self):
        p = uniform_selection_matrix(ex1_net())
        assert p.indices[p.indptr[1]:p.indptr[2]].tolist() == [0, 3]
        assert p.indices[p.indptr[7]:p.indptr[8]].tolist() == [6]


class TestStructure:
    def test_example_not_strongly_connected(self):
        assert not is_strongly_connected(ex1_net())

    def test_cycle_is_strongly_connected(self):
        net = DirectedNetwork(3, [(0, 1), (1, 2), (2, 0)])
        assert is_strongly_connected(net)

    def test_example_recurrent_class_and_transients(self):
        rc = recurrent_classes(uniform_selection_matrix(ex1_net()))
        assert rc.classes == ((0, 1, 2, 3, 4),)
        assert rc.transient == (5, 6, 7)

    def test_identity_chain_has_singleton_classes(self):
        net = DirectedNetwork(3, [(0, 1), (1, 2)])
        p = custom_selection_matrix(net, np.eye(3))
        rc = recurrent_classes(p)
        assert rc.classes == ((0,), (1,), (2,))
        assert rc.transient == ()

    def test_strong_connectivity_matches_networkx(self):
        rng = np.random.default_rng(7)
        # a lone agent; agents of in-degree 0 beside a strongly connected rest
        nets = [DirectedNetwork(1, []), DirectedNetwork(2, []), DirectedNetwork(2, [(0, 1)]),
                DirectedNetwork(3, [(0, 1), (1, 2), (2, 1)]), DirectedNetwork(3, [(1, 2), (2, 1)])]
        for _ in range(40):
            n = int(rng.integers(2, 12))
            net, _ = _random_net_and_rows(rng, n)
            # the same net with agent 1 observing no one
            nets += [net, DirectedNetwork(n, [(j, i) for j, i in net.edges.tolist() if i != 0])]
        for net in nets:
            g = nx.DiGraph()
            g.add_nodes_from(range(net.n))
            g.add_edges_from(net.edges.tolist())
            assert is_strongly_connected(net) == nx.is_strongly_connected(g)

    def test_recurrent_classes_match_networkx_condensation(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            net, rows = _random_net_and_rows(rng, n)
            P = custom_selection_matrix(net, rows)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            for i in range(n):
                for j in P.indices[P.indptr[i]:P.indptr[i + 1]]:
                    g.add_edge(i, int(j))  # i can step to j
            cond = nx.condensation(g)
            expected = sorted(
                tuple(sorted(cond.nodes[c]["members"]))
                for c in cond.nodes
                if cond.out_degree(c) == 0
            )
            rc = recurrent_classes(P)
            assert sorted(rc.classes) == expected
            assert rc.transient == tuple(i for i in range(n) if not any(i in cls for cls in expected))


class TestStationary:
    def test_example_matches_linear_solve_oracle(self, ex1_pi):
        assert np.max(np.abs(ex1_pi.pi - np.array(EX1_PI))) <= 1e-10

    def test_example_fixed_point_residual(self, ex1_cfg, ex1_pi):
        P = ex1_cfg.selection.to_dense()
        assert np.max(np.abs(ex1_pi.pi @ P - ex1_pi.pi)) <= 1e-10

    def test_zero_mass_on_transient_agents(self, ex1_pi):
        assert np.all(ex1_pi.pi[5:] == 0.0)

    def test_direct_and_power_agree_with_scipy_oracle(self, monkeypatch):
        rng = np.random.default_rng(1905)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            net = DirectedNetwork(n, [(j, i) for i in range(n) for j in range(n) if i != j])
            rows = rng.random((n, n)) + 0.02
            rows /= rows.sum(axis=1, keepdims=True)
            P = custom_selection_matrix(net, rows)

            ns = null_space(P.to_dense().T - np.eye(n))
            assert ns.shape[1] == 1
            oracle = ns[:, 0] / ns[:, 0].sum()

            direct = stationary_distribution(P).pi
            with monkeypatch.context() as m:
                m.setattr(graph, "DIRECT_SOLVE_LIMIT", 0)  # every class takes power iteration
                power = stationary_distribution(P).pi
            for pi in (direct, power):
                assert np.max(np.abs(pi - oracle)) <= 1e-9

    def test_periodic_two_cycle(self, monkeypatch):
        net = DirectedNetwork(2, [(0, 1), (1, 0)])
        P = uniform_selection_matrix(net)
        assert np.allclose(stationary_distribution(P).pi, [0.5, 0.5], atol=1e-12)
        monkeypatch.setattr(graph, "DIRECT_SOLVE_LIMIT", 0)  # power iteration on the periodic chain
        assert np.allclose(stationary_distribution(P).pi, [0.5, 0.5], atol=1e-12)

    def test_relabeling_permutes_stationary_vector(self, ex1_cfg, ex1_pi):
        rng = np.random.default_rng(3)
        perm = rng.permutation(8)
        P = ex1_cfg.selection.to_dense()
        permuted_edges = [(perm[j], perm[i]) for j, i in ex1_cfg.network.edges]
        net2 = DirectedNetwork(8, permuted_edges)
        rows2 = np.zeros((8, 8))
        rows2[np.ix_(perm, perm)] = P
        pi2 = stationary_distribution(custom_selection_matrix(net2, rows2)).pi
        assert np.max(np.abs(pi2[perm] - ex1_pi.pi)) <= 1e-12

    def test_two_disjoint_cycles_is_ambiguous(self):
        net = DirectedNetwork(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        P = uniform_selection_matrix(net)
        with pytest.raises(MultipleRecurrentClassesError) as exc:
            stationary_distribution(P)
        assert exc.value.classes == ((0, 1), (2, 3))

    def test_single_agent_chain(self):
        net = DirectedNetwork(1, [])
        pi = stationary_distribution(uniform_selection_matrix(net)).pi
        assert pi.tolist() == [1.0]

    @pytest.mark.parametrize("pi", [[np.nan, 1.0], [0.5, np.nan]])
    def test_nan_entry_is_rejected(self, pi):
        with pytest.raises(ValidationError, match="^stationary distribution has a negative or NaN entry$"):
            StationaryDistribution(np.array(pi))

    def test_a_matrix_is_no_distribution(self):
        with pytest.raises(ValidationError, match="^stationary distribution must be a vector$"):
            StationaryDistribution(np.array([[1.0]]))

    def test_sum_off_one_is_named_as_a_float(self):
        with pytest.raises(ValidationError, match=r"^stationary distribution sums to 0\.9$"):
            StationaryDistribution(np.array([0.5, 0.4]))

    def test_nan_solve_fails_the_residual_check(self, monkeypatch):
        monkeypatch.setattr(graph, "_direct_stationary", lambda sub: np.full(len(sub), np.nan))
        with pytest.raises(StationarySolveError, match="residual nan exceeds"):
            stationary_distribution(uniform_selection_matrix(DirectedNetwork(2, [(0, 1), (1, 0)])))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 8))
def test_stationary_contract_on_random_dense_chains(data, n):
    rows = []
    for i in range(n):
        w = data.draw(
            st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
            label=f"row{i}",
        )
        w = np.array(w)
        rows.append(w / w.sum())
    net = DirectedNetwork(n, [(j, i) for i in range(n) for j in range(n) if i != j])
    P = custom_selection_matrix(net, rows)
    pi = stationary_distribution(P).pi
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(pi @ P.to_dense() - pi)) <= 1e-10


def _tarjan_classes(P: SelectionMatrix) -> graph.RecurrentClasses:
    """The recurrent classes of a fresh copy of P, found by Tarjan's pass alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_reaches_all", lambda *args: False)
        return recurrent_classes(SelectionMatrix(P.n, P.indptr, P.indices, P.probs))


def _sparse_uniform_chain(rng, n: int, in_degree: float, ring: bool) -> SelectionMatrix:
    """The uniform chain of a random digraph with about in_degree random
    in-neighbours per agent, on a directed ring of all n agents or not."""
    m = int(in_degree * n)
    pairs = set(zip(rng.integers(0, n, m).tolist(), rng.integers(0, n, m).tolist()))
    if ring:
        pairs |= {(i, (i + 1) % n) for i in range(n)}
    return uniform_selection_matrix(DirectedNetwork(n, sorted((j, i) for j, i in pairs if j != i)))


def _condensation_classes(P: SelectionMatrix) -> list[tuple[int, ...]]:
    """networkx's closed strongly connected components of P's support graph, sorted."""
    g = nx.DiGraph()
    g.add_nodes_from(range(P.n))
    g.add_edges_from(zip(P.rows.tolist(), P.indices.tolist()))  # i can step to j
    cond = nx.condensation(g)
    return sorted(tuple(sorted(cond.nodes[c]["members"])) for c in cond.nodes if cond.out_degree(c) == 0)


class TestSweepProof:
    """recurrent_classes proves one recurrent class by a forward and a
    backward frontier sweep from agent 0, and runs Tarjan's pass otherwise;
    either way its result is Tarjan's."""

    def test_sweeps_prove_strongly_connected_chains_without_tarjan(self, monkeypatch):
        rng = np.random.default_rng(3401)
        chains = [_sparse_uniform_chain(rng, int(rng.integers(2, 300)), 3.0, ring=True) for _ in range(12)]
        net, rows = _random_net_and_rows(rng, 9)
        chains.append(custom_selection_matrix(net, rows))
        chains.append(custom_selection_matrix(DirectedNetwork(1, []), [[1.0]]))  # n = 1
        expected = [_tarjan_classes(P) for P in chains]
        monkeypatch.setattr(graph, "_tarjan_sccs", lambda *args: pytest.fail("Tarjan ran"))
        for P, tarjan in zip(chains, expected):
            rc = recurrent_classes(P)
            assert rc == tarjan and rc.classes == (tuple(range(P.n)),) and rc.transient == ()

    @pytest.mark.parametrize("net, rows, classes, transient", [
        (ex1_net(), None, ((0, 1, 2, 3, 4),), (5, 6, 7)),
        (DirectedNetwork(3, [(1, 2), (2, 1)]), None, ((0,), (1, 2)), ()),
        (DirectedNetwork(4, [(0, 1), (1, 0), (2, 3), (3, 2)]), None, ((0, 1), (2, 3)), ()),
        (DirectedNetwork(3, [(1, 0), (2, 0)]), [[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], ((1,), (2,)), (0,)),
        (DirectedNetwork(3, [(0, 1), (0, 2)]), [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], ((0,),), (1, 2)),
    ], ids=["transient agents", "an agent with no in-neighbour selects itself", "two closed classes",
            "agent 0 reaches all, none reaches it", "all reach agent 0, it reaches none"])
    def test_where_the_sweeps_fail_tarjan_decides(self, net, rows, classes, transient):
        P = uniform_selection_matrix(net) if rows is None else custom_selection_matrix(net, rows)
        fresh = SelectionMatrix(P.n, P.indptr, P.indices, P.probs)
        assert recurrent_classes(fresh) == _tarjan_classes(P) == graph.RecurrentClasses(classes, transient)

    def test_a_ring_longer_than_the_level_cap_falls_back_to_tarjan(self, monkeypatch):
        n = graph.SWEEP_LEVEL_CAP + 5
        P = uniform_selection_matrix(DirectedNetwork(n, [(i, (i + 1) % n) for i in range(n)]))
        calls = []
        tarjan = graph._tarjan_sccs
        monkeypatch.setattr(graph, "_tarjan_sccs", lambda *args: calls.append(1) or tarjan(*args))
        rc = recurrent_classes(P)
        assert calls == [1]
        assert rc == _tarjan_classes(P) == graph.RecurrentClasses((tuple(range(n)),), ())

    def test_recurrent_classes_match_networkx_condensation_at_a_few_hundred_agents(self):
        rng = np.random.default_rng(3402)
        for in_degree in (0.3, 0.8, 1.5, 3.0):
            for ring in (False, True):
                P = _sparse_uniform_chain(rng, int(rng.integers(200, 400)), in_degree, ring)
                expected = _condensation_classes(P)
                rc = recurrent_classes(P)
                assert sorted(rc.classes) == expected
                members = {i for c in expected for i in c}
                assert rc.transient == tuple(i for i in range(P.n) if i not in members)
                assert rc == _tarjan_classes(P)

    def test_the_sweeps_prove_the_wide_benchmark_chain(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("bench_wide", Path(__file__).parents[1] / "bench" / "wide.py")
        wide = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(wide)
        cfg = parse_config_dict(wide.config_dict(42))
        monkeypatch.setattr(graph, "_tarjan_sccs", lambda *args: pytest.fail("Tarjan ran"))
        rc = recurrent_classes(cfg.selection)
        assert rc.classes == (tuple(range(cfg.network.n)),) and rc.transient == ()


def _lexsort_edge_fault(n: int, edges: list) -> str | None:
    """The message naming the first faulty edge, by a pairwise np.lexsort of
    the edges; every edge is a pair of integers."""
    e = np.array([[min(max(x, -1), n) for x in pair] for pair in edges], dtype=np.int64).reshape(-1, 2)
    outside = np.any((e < 0) | (e >= n), axis=1)
    loop = e[:, 0] == e[:, 1]
    order = np.lexsort((e[:, 0], e[:, 1]))
    ordered = e[order]
    repeated = np.zeros(len(e), dtype=bool)
    repeated[order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]] = True
    bad = outside | loop | repeated
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    j, i = (x + 1 for x in edges[k])
    if outside[k]:
        return f"edges[{k}]: [{j}, {i}] has an endpoint outside 1..{n}"
    if loop[k]:
        return f"edges[{k}]: self-loop [{j}, {i}] not allowed"
    return f"edges[{k}]: duplicate edge [{j}, {i}]"


FAR = [2**62, -(2**62), int(np.iinfo(np.int64).max), int(np.iinfo(np.int64).min)]


class TestEdgeKey:
    """DirectedNetwork orders its edges by one int64 key, target then source;
    the first faulty edge it names is that of a pairwise sort."""

    @pytest.mark.parametrize("far", FAR[:3])
    def test_a_far_endpoint_is_outside_never_a_duplicate(self, far):
        for edges, k in (([(0, 1), (far, 1), (far, 1)], 1), ([(far, far), (far, far)], 0),
                         ([(1, far), (2, 0), (1, far)], 0), ([(0, 1), (1, 2), (far, 0), (2, 1)], 2)):
            with pytest.raises(ValidationError) as info:
                DirectedNetwork(3, edges)
            j, i = (x + 1 for x in edges[k])
            assert str(info.value) == f"edges[{k}]: [{j}, {i}] has an endpoint outside 1..3"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_the_named_edge_is_that_of_a_pairwise_lexsort(self, data, n):
        endpoint = st.one_of(st.integers(-2, n + 1), st.integers(0, n - 1), st.sampled_from(FAR))
        edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []  # repeats
        expected = _lexsort_edge_fault(n, edges)
        if expected is None:
            net = DirectedNetwork(n, edges)
            e = np.array(edges, dtype=np.int64).reshape(-1, 2)
            order = np.lexsort((e[:, 0], e[:, 1]))
            assert net.in_indices.tolist() == e[order, 0].tolist()
            assert net.in_indptr.tolist() == np.concatenate([[0], np.cumsum(np.bincount(e[:, 1], minlength=n))]).tolist()
        else:
            with pytest.raises(ValidationError) as info:
                DirectedNetwork(n, edges)
            assert str(info.value) == expected
