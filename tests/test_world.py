import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from gossip_learning import example1
from gossip_learning.errors import ValidationError
from gossip_learning.world import (
    DISTINGUISH_TOL,
    Prior,
    StateSpace,
    WorldModel,
    check_global_identifiability,
    kl_divergence,
)

# divergences of the benchmark tables, frozen from an independent
# high-precision evaluation of sum p log(p/q)
KL_AGENT2_STATE1_VS_2 = 0.058891517828191727
KL_AGENT1_STATE1_VS_3 = 0.048727503392693810


def tiny_world(tables, prior=None, true_index=0, labels=None):
    k = len(tables[0])
    labels = tuple(labels) if labels else tuple(range(1, k + 1))
    nu = np.full(k, 1.0 / k) if prior is None else np.asarray(prior, dtype=float)
    counts = [len(t[0]) for t in tables]
    padded = np.zeros((len(tables), k, max(counts)))
    for i, t in enumerate(tables):
        padded[i, :, : counts[i]] = t
    return WorldModel(
        state_space=StateSpace(states=labels, true_state_index=true_index),
        prior=Prior(nu=nu),
        tables=padded,
        signal_counts=counts,
    )


class TestTypes:
    def test_state_space_validation(self):
        with pytest.raises(ValidationError, match="unique"):
            StateSpace(states=(1, 1, 2), true_state_index=0)
        with pytest.raises(ValidationError, match="unique as text: 2 and '2' both read '2'"):
            StateSpace(states=(1, 2, "2"), true_state_index=0)
        with pytest.raises(ValidationError, match="at least one"):
            StateSpace(states=(), true_state_index=0)
        with pytest.raises(ValidationError, match="out of range"):
            StateSpace(states=(1, 2), true_state_index=2)

    def test_prior_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            Prior(nu=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match="sums to"):
            Prior(nu=np.array([0.6, 0.6]))
        p = Prior(nu=np.array([0.25, 0.75]))
        assert np.array_equal(p.log_nu, np.log([0.25, 0.75]))

    def test_likelihood_rows_must_be_distributions(self):
        with pytest.raises(ValidationError, match="sums to"):
            tiny_world([[[0.5, 0.4], [0.5, 0.5]]])
        with pytest.raises(ValidationError) as info:
            tiny_world([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.5, -0.5]]])
        assert str(info.value) == "agent 2: negative likelihood entry -0.5 for state 2, signal 1"

    @pytest.mark.parametrize("nu", [["0.5", "0.5"], [True, 1e-300], np.array([True, False])],
                             ids=["strings", "bool", "bool array"])
    def test_prior_entries_must_be_numbers(self, nu):
        with pytest.raises(ValidationError) as info:
            Prior(nu=nu)
        assert str(info.value) == "prior must be a vector of numbers"

    @pytest.mark.parametrize("entry", [{}, object(), True, None, "0.0"],
                             ids=["dict", "object", "bool", "None", "str"])
    def test_table_entry_that_is_not_a_number_is_named(self, entry):
        space = StateSpace(states=(1, 2), true_state_index=0)
        with pytest.raises(ValidationError) as info:
            WorldModel.from_tables(space, Prior(nu=np.array([0.5, 0.5])), [[[entry, 1.0], [0.5, 0.5]]])
        assert str(info.value) == "agent 1: likelihood table rows must be numbers, all rows of one length"

    @pytest.mark.parametrize("tables", [
        np.array([[[True, False], [False, True]]]), [[[True, 0.0], [0.5, 0.5]]], [[["0.5", "0.5"], [0.5, 0.5]]],
    ], ids=["bool array", "bool", "str"])
    def test_tensor_entries_must_be_numbers(self, tables):
        with pytest.raises(ValidationError) as info:
            WorldModel(
                state_space=StateSpace(states=(1, 2), true_state_index=0),
                prior=Prior(nu=np.array([0.5, 0.5])),
                tables=tables,
                signal_counts=[2],
            )
        assert str(info.value) == "likelihood tables must be numbers"

    @pytest.mark.parametrize("tables, counts, message", [
        ([[0.5, 0.5], [0.5, 0.5]], [2], "likelihood tables must be one (agents, states, signals) array with a "
                                        "signal count per agent, got shapes (2, 2) and (1,)"),
        ([[[0.5, 0.5], [0.5, 0.5]]], [0], "agent 1: likelihood table must be 2-D"),
        ([[[0.5, 0.5], [0.5, 0.5]]], [1], "agent 1: the tensor must hold 1 signals, zero-padded beyond them"),
    ], ids=["2-D tensor", "no signals", "entry past the signals"])
    def test_tensor_shape_faults_are_named(self, tables, counts, message):
        with pytest.raises(ValidationError) as info:
            WorldModel(
                state_space=StateSpace(states=(1, 2), true_state_index=0),
                prior=Prior(nu=np.array([0.5, 0.5])),
                tables=tables,
                signal_counts=counts,
            )
        assert str(info.value) == message

    def test_likelihood_row_error_carries_0_based_indices_and_a_plain_sum(self):
        with pytest.raises(ValidationError) as info:
            tiny_world([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.4]]])
        assert str(info.value) == "agent 2: likelihood row for state 2 sums to 0.9, expected 1 within 1e-12"

    def test_world_cross_dimension_checks(self):
        with pytest.raises(ValidationError, match="prior length"):
            tiny_world([[[0.5, 0.5], [0.5, 0.5]]], prior=[0.2, 0.3, 0.5])
        with pytest.raises(ValidationError, match="rows"):
            WorldModel(
                state_space=StateSpace(states=(1, 2, 3), true_state_index=0),
                prior=Prior(nu=np.full(3, 1 / 3)),
                tables=np.array([[[0.5, 0.5], [0.5, 0.5]]]),
                signal_counts=[2],
            )

    def test_log_tables_cached_and_shared(self, ex1_cfg):
        w = ex1_cfg.world
        assert w.log_columns is w.log_columns
        assert np.array_equal(w.log_columns[1], np.log(w.likelihood(1)).T)

    def test_log_table_zero_entries_become_neg_inf(self):
        w = tiny_world([[[1.0, 0.0], [0.5, 0.5]]])
        assert w.log_columns[0, 1, 0] == -np.inf

    def test_log_columns_stack_every_table_padded_with_neg_inf(self):
        w = tiny_world([[[1.0, 0.0], [0.5, 0.5]], [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]])
        cols = w.log_columns
        assert cols.shape == (2, 3, 2) and not cols.flags.writeable
        assert cols is w.log_columns
        with np.errstate(divide="ignore"):
            for i in range(2):
                for s in range(w.signal_counts[i]):
                    assert np.array_equal(cols[i, s], np.log(w.likelihood(i)[:, s]))
        assert np.all(cols[0, 2] == -np.inf)


class TestKLDivergence:
    def test_benchmark_values(self, ex1_cfg):
        w = ex1_cfg.world
        assert kl_divergence(w.likelihood(1)[0], w.likelihood(1)[1]) == pytest.approx(
            KL_AGENT2_STATE1_VS_2, abs=1e-15
        )
        assert kl_divergence(w.likelihood(0)[0], w.likelihood(0)[2]) == pytest.approx(
            KL_AGENT1_STATE1_VS_3, abs=1e-15
        )

    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert kl_divergence(p, q) == pytest.approx(float(rel_entr(p, q).sum()), rel=1e-12, abs=1e-12)

    def test_identical_distributions_give_exact_zero(self):
        p = np.array([0.3, 0.2, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_zero_q_on_supported_p_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_zero_p_entries_contribute_nothing(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_distributions_rejected(self, shape):
        with pytest.raises(ValidationError) as info:
            kl_divergence(np.zeros(shape), np.zeros(shape))
        assert str(info.value) == f"empty distributions: shape {shape}"

    def test_never_negative_near_equality(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.5 + 1e-16, 0.5 - 1e-16])
        assert kl_divergence(p, q) >= 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(2, 6))
def test_kl_nonnegative_and_zero_only_at_equality(data, k):
    raw_p = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    raw_q = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    p, q = raw_p / raw_p.sum(), raw_q / raw_q.sum()
    d = kl_divergence(p, q)
    assert d >= 0.0
    if np.max(np.abs(p - q)) > 1e-6:
        assert d > 1e-12
    assert kl_divergence(p, p) == 0.0


class TestIdentifiability:
    def test_pairwise_distinguishability_pattern(self, ex1_cfg):
        # the truth is state index 0; column c says whether an agent tells it from c
        separated = ex1_cfg.world.divergences > DISTINGUISH_TOL
        assert separated[:, 1:].tolist() == [[False, True], [True, False]] + [[False, False]] * 6

    def test_a_divergence_of_1e_8_separates(self):
        """Agent 1's signal law under state 2 is moved by e from the truth's,
        a divergence of about 2e^2 = 1e-8: small, but far above
        DISTINGUISH_TOL (1e-12), so the agent is a witness."""
        e = 1e-4 / np.sqrt(2)
        world = tiny_world([[[0.5, 0.5], [0.5 + e, 0.5 - e]]])
        assert 0.99e-8 < world.divergences[0, 1] < 1.01e-8
        report = check_global_identifiability(world, [0])
        assert report.identifiable and report.witnesses == ((1, (0,)),)

    def test_benchmark_witnesses(self, ex1_cfg):
        report = check_global_identifiability(ex1_cfg.world, [0, 1, 2, 3, 4])
        assert report.identifiable
        assert report.witnesses == ((1, (1,)), (2, (0,)))

    def test_uninformative_subset_fails(self, ex1_cfg):
        report = check_global_identifiability(ex1_cfg.world, [2, 3, 4])
        assert not report.identifiable
        assert report.witnesses == ((1, ()), (2, ()))

    def test_verdict_monotone_in_agent_set(self, ex1_cfg):
        base = check_global_identifiability(ex1_cfg.world, [0, 1])
        assert base.identifiable
        for extra in ([2], [3, 4], [5, 6, 7]):
            assert check_global_identifiability(ex1_cfg.world, [0, 1, *extra]).identifiable

    def test_replacing_the_lone_witness_flips_the_verdict(self, ex1_cfg):
        # agent 1 is the only separator of state 3; share agent 3's table instead
        w = ex1_cfg.world
        tables = [np.array(example1.TABLE_AGENT_3)] + [w.likelihood(i) for i in range(1, 8)]
        flipped = tiny_world(tables, labels=(1, 2, 3))
        report = check_global_identifiability(flipped, [0, 1, 2, 3, 4])
        assert not report.identifiable
        assert report.witnesses == ((1, (1,)), (2, ()))

    @pytest.mark.parametrize("agents, message", [
        ([-1], "agent -1 outside 0..7"), ([8], "agent 8 outside 0..7"), ([0.5], "agent must be an integer, got 0.5"),
        ([1, True], "agent must be an integer, got True"), ([[0, 1]], "agent must be an integer, got [0, 1]"),
    ], ids=["-1", "8", "0.5", "bool", "nested"])
    def test_each_agent_is_an_index(self, ex1_cfg, agents, message):
        with pytest.raises(ValidationError) as info:
            check_global_identifiability(ex1_cfg.world, agents)
        assert str(info.value) == message

    @pytest.mark.parametrize("agents", [range(5), (4, 3, 2, 1, 0), np.arange(5, dtype=np.uint8)],
                             ids=["range", "tuple", "uint8 array"])
    def test_any_sequence_of_agents_is_read(self, ex1_cfg, agents):
        assert check_global_identifiability(ex1_cfg.world, agents).witnesses == ((1, (1,)), (2, (0,)))

    def test_agents_are_read_as_a_set(self, ex1_cfg):
        assert check_global_identifiability(ex1_cfg.world, [1, 1, 0]).witnesses == ((1, (1,)), (2, (0,)))

    def test_empty_agent_set_rejected(self, ex1_cfg):
        with pytest.raises(ValidationError, match="nonempty"):
            check_global_identifiability(ex1_cfg.world, [])
