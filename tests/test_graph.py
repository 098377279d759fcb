import copy

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from gossip_learning import example1
from gossip_learning.config import parse_config_dict
from gossip_learning.errors import MultipleRecurrentClassesError, ValidationError
from gossip_learning.graph import (
    DirectedNetwork,
    SelectionMatrix,
    check_selection_support,
    custom_selection_matrix,
    from_edge_list,
    is_strongly_connected,
    recurrent_classes,
    stationary_distribution,
    uniform_selection_matrix,
)

EX1_EDGES = [(j - 1, i - 1) for j, i in example1.EDGES]

# independent linear-solve oracle value for the benchmark chain
EX1_PI = (1 / 6, 1 / 3, 1 / 4, 1 / 6, 1 / 12, 0.0, 0.0, 0.0)


def ex1_net() -> DirectedNetwork:
    return from_edge_list(8, EX1_EDGES)


def _random_net_and_rows(rng, n):
    """A random digraph plus a row-stochastic matrix supported on it."""
    while True:
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, False)
        edges = [(j, i) for i in range(n) for j in range(n) if mask[j, i]]
        net = from_edge_list(n, edges)
        rows = np.zeros((n, n))
        for i in range(n):
            allowed = list(net.in_neighbors(i)) + [i]
            w = rng.random(len(allowed)) + 0.05
            rows[i, allowed] = w / w.sum()
        return net, rows


class TestDirectedNetwork:
    def test_example_in_neighborhoods(self):
        net = ex1_net()
        expected = {0: (2,), 1: (0, 3), 2: (1,), 3: (2, 4), 4: (1,), 5: (2,), 6: (0,), 7: (6,)}
        for i, nbrs in expected.items():
            assert net.in_neighbors(i) == nbrs
            assert net.degree(i) == len(nbrs)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            from_edge_list(3, [(0, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValidationError, match="outside"):
            from_edge_list(3, [(0, 3)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            from_edge_list(3, [(0, 1), (0, 1)])

    def test_rejects_empty_network(self):
        with pytest.raises(ValidationError):
            from_edge_list(0, [])

    def test_networks_with_equal_edges_compare_and_hash_alike(self):
        net = ex1_net()
        twin = from_edge_list(net.n, list(net.edges))
        assert net == twin and hash(net) == hash(twin)
        assert net != from_edge_list(net.n, list(net.edges[:-1]))


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
        for build in (lambda: DirectedNetwork(n, tuple(edges)), lambda: from_edge_list(n, edges)):
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
        (((0, 1, 2), (1, 2, 0)), "edges[0]: expected a pair of integers, got (0, 1, 2)"),
        (((0.7, 1.9),), "edges[0]: expected a pair of integers, got (0.7, 1.9)"),
        (((0, 1), (1,)), "edges[1]: expected a pair of integers, got (1,)"),
        (((0, 0), (0, 1, 2)), "edges[0]: self-loop [1, 1] not allowed"),
    ], ids=["triples", "floats", "a single", "a self-loop before a triple"])
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
        net = from_edge_list(3, [(0, 1)])
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

    def test_custom_rejects_mass_outside_neighborhood(self):
        net = from_edge_list(3, [(0, 1)])
        rows = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValidationError, match="neither an in-neighbor"):
            custom_selection_matrix(net, rows)

    def test_support_error_names_1_based_agents(self):
        net = from_edge_list(3, [(0, 1)])
        P = uniform_selection_matrix(from_edge_list(3, [(2, 1)]))
        with pytest.raises(ValidationError) as info:
            check_selection_support(net, P)
        assert str(info.value) == (
            "agent 2 puts positive mass on agent 3, which is neither an in-neighbor of 2 nor 2 itself"
        )

    def test_custom_allows_self_weight(self):
        net = from_edge_list(2, [(0, 1)])
        p = custom_selection_matrix(net, [[1.0, 0.0], [0.3, 0.7]])
        assert p.to_dense()[1, 1] == 0.7

    def test_support_indices(self):
        p = uniform_selection_matrix(ex1_net())
        assert list(p.support(1)) == [0, 3]
        assert list(p.support(7)) == [6]


class TestStructure:
    def test_example_not_strongly_connected(self):
        assert not is_strongly_connected(ex1_net())

    def test_cycle_is_strongly_connected(self):
        net = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert is_strongly_connected(net)

    def test_example_recurrent_class_and_transients(self):
        rc = recurrent_classes(uniform_selection_matrix(ex1_net()))
        assert rc.classes == ((0, 1, 2, 3, 4),)
        assert rc.transient == (5, 6, 7)
        for i in range(8):
            assert rc.reachable_from[i] == (0,)

    def test_identity_chain_has_singleton_classes(self):
        net = from_edge_list(3, [(0, 1), (1, 2)])
        p = custom_selection_matrix(net, np.eye(3))
        rc = recurrent_classes(p)
        assert rc.classes == ((0,), (1,), (2,))
        assert rc.transient == ()

    def test_strong_connectivity_matches_networkx(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            net, _ = _random_net_and_rows(rng, n)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            g.add_edges_from(net.edges)
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
                for j in P.support(i):
                    g.add_edge(i, int(j))  # i can step to j
            cond = nx.condensation(g)
            expected = sorted(
                tuple(sorted(cond.nodes[c]["members"]))
                for c in cond.nodes
                if cond.out_degree(c) == 0
            )
            rc = recurrent_classes(P)
            assert sorted(rc.classes) == expected
            for i in range(n):
                reachable = nx.descendants(g, i) | {i}
                expected_idx = tuple(
                    k for k, cls in enumerate(rc.classes) if set(cls) <= reachable
                )
                assert rc.reachable_from[i] == expected_idx


class TestStationary:
    def test_example_matches_linear_solve_oracle(self, ex1_pi):
        assert np.max(np.abs(ex1_pi.pi - np.array(EX1_PI))) <= 1e-10

    def test_example_fixed_point_residual(self, ex1_cfg, ex1_pi):
        P = ex1_cfg.selection.to_dense()
        assert np.max(np.abs(ex1_pi.pi @ P - ex1_pi.pi)) <= 1e-10

    def test_zero_mass_on_transient_agents(self, ex1_pi):
        assert np.all(ex1_pi.pi[5:] == 0.0)

    def test_direct_and_power_agree_with_scipy_oracle(self):
        rng = np.random.default_rng(1905)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            net = from_edge_list(n, [(j, i) for i in range(n) for j in range(n) if i != j])
            rows = rng.random((n, n)) + 0.02
            rows /= rows.sum(axis=1, keepdims=True)
            P = custom_selection_matrix(net, rows)

            ns = null_space(P.to_dense().T - np.eye(n))
            assert ns.shape[1] == 1
            oracle = ns[:, 0] / ns[:, 0].sum()

            for method in ("direct", "power"):
                pi = stationary_distribution(P, method=method).pi
                assert np.max(np.abs(pi - oracle)) <= 1e-9

    def test_periodic_two_cycle(self):
        net = from_edge_list(2, [(0, 1), (1, 0)])
        P = uniform_selection_matrix(net)
        for method in ("direct", "power"):
            pi = stationary_distribution(P, method=method).pi
            assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_relabeling_permutes_stationary_vector(self, ex1_cfg, ex1_pi):
        rng = np.random.default_rng(3)
        perm = rng.permutation(8)
        P = ex1_cfg.selection.to_dense()
        permuted_edges = [(perm[j], perm[i]) for j, i in ex1_cfg.network.edges]
        net2 = from_edge_list(8, permuted_edges)
        rows2 = np.zeros((8, 8))
        rows2[np.ix_(perm, perm)] = P
        pi2 = stationary_distribution(custom_selection_matrix(net2, rows2)).pi
        assert np.max(np.abs(pi2[perm] - ex1_pi.pi)) <= 1e-12

    def test_two_disjoint_cycles_is_ambiguous(self):
        net = from_edge_list(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        P = uniform_selection_matrix(net)
        with pytest.raises(MultipleRecurrentClassesError) as exc:
            stationary_distribution(P)
        assert exc.value.classes == ((0, 1), (2, 3))

    def test_unknown_method_rejected(self, ex1_cfg):
        with pytest.raises(ValidationError, match="solver"):
            stationary_distribution(ex1_cfg.selection, method="qr")

    def test_single_agent_chain(self):
        net = from_edge_list(1, [])
        pi = stationary_distribution(uniform_selection_matrix(net)).pi
        assert pi.tolist() == [1.0]


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
    net = from_edge_list(n, [(j, i) for i in range(n) for j in range(n) if i != j])
    P = custom_selection_matrix(net, rows)
    pi = stationary_distribution(P).pi
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(pi @ P.to_dense() - pi)) <= 1e-10
