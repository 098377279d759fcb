import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gossip_learning.belief import bayes_log_posterior
from gossip_learning.errors import ImpossibleSignalError
from tests.test_world import tiny_world

UNINFORMATIVE = [[0.25, 0.75], [0.25, 0.75], [0.25, 0.75]]


class TestKernel:
    def test_benchmark_initial_update(self, ex1_cfg):
        # uniform prior, agent 1 sees signal 0: posterior (5/13, 5/13, 3/13)
        w = ex1_cfg.world
        post = bayes_log_posterior(w.prior.log_nu, w.log_columns[0, 0])
        assert np.allclose(np.exp(post), [5 / 13, 5 / 13, 3 / 13], rtol=1e-14, atol=0)

    def test_benchmark_self_update(self, ex1_cfg):
        # agent 2 from a uniform belief on signal 0: (3/10, 4/10, 3/10)
        post = bayes_log_posterior(np.log(np.full(3, 1 / 3)), ex1_cfg.world.log_columns[1, 0])
        assert np.allclose(np.exp(post), [0.3, 0.4, 0.3], rtol=1e-14, atol=0)

    def test_benchmark_gossip_update(self, ex1_cfg):
        # agent 1 refines a neighbor belief (0.2, 0.5, 0.3) with signal 0
        post = bayes_log_posterior(np.log([0.2, 0.5, 0.3]), ex1_cfg.world.log_columns[0, 0])
        assert np.allclose(np.exp(post), [10 / 44, 25 / 44, 9 / 44], rtol=1e-14, atol=0)

    def test_gossip_from_own_belief_equals_self_update(self, ex1_cfg):
        # in a batched round, an agent that consulted herself gets exactly the
        # row a lone self-update gives, whatever the other rows hold
        cols = ex1_cfg.world.log_columns
        own = np.log([0.6, 0.3, 0.1])
        alone = bayes_log_posterior(own, cols[1, 1])
        batch = bayes_log_posterior(np.stack([np.log([0.2, 0.5, 0.3]), own]), cols[[0, 1], [0, 1]])
        assert np.array_equal(batch[1], alone)

    def test_posterior_is_normalized_in_log_space(self, ex1_cfg):
        w = ex1_cfg.world
        post = bayes_log_posterior(w.prior.log_nu, w.log_columns[3, 1])
        assert abs(np.exp(post).sum() - 1.0) <= 1e-10

    def test_impossible_signal_raises(self):
        w = tiny_world([[[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ImpossibleSignalError):
            bayes_log_posterior(w.prior.log_nu, w.log_columns[0, 1])

    def test_zero_likelihood_on_one_state_collapses_it(self):
        w = tiny_world([[[1.0, 0.0], [0.5, 0.5]]])
        post = bayes_log_posterior(w.prior.log_nu, w.log_columns[0, 1])
        assert post[0] == -np.inf
        assert post[1] == 0.0


class TestFixedPoint:
    @pytest.mark.parametrize("prior", [None, [0.5, 0.2, 0.3]])
    def test_identical_rows_hold_belief_constant_exactly(self, prior):
        w = tiny_world([UNINFORMATIVE], prior=prior)
        b = bayes_log_posterior(w.prior.log_nu, w.log_columns[0, 1])
        first = b.copy()
        for t in range(500):
            b = bayes_log_posterior(b, w.log_columns[0, t % 2])
            assert np.array_equal(b, first)

    def test_initial_update_with_identical_rows_keeps_prior(self):
        w = tiny_world([UNINFORMATIVE], prior=[0.5, 0.2, 0.3])
        post = bayes_log_posterior(w.prior.log_nu, w.log_columns[0, 0])
        assert np.allclose(np.exp(post), [0.5, 0.2, 0.3], rtol=1e-14, atol=0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(2, 6))
def test_update_preserves_pairwise_ratios(data, k):
    raw_prior = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    raw_col = np.array(data.draw(st.lists(st.floats(0.001, 1.0), min_size=k, max_size=k)))
    log_prior = np.log(raw_prior / raw_prior.sum())
    log_col = np.log(raw_col)
    out = bayes_log_posterior(log_prior, log_col)
    a, b = data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)))
    got = out[a] - out[b]
    want = (log_prior[a] + log_col[a]) - (log_prior[b] + log_col[b])
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(np.exp(out).sum() - 1.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(2, 5), shift=st.floats(-30.0, 30.0))
def test_kernel_invariant_to_log_prior_normalization(data, k, shift):
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    col = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    assume(col.max() / col.min() > 1.0 + 1e-9)  # constant columns short-circuit
    log_prior = np.log(raw / raw.sum())
    a = bayes_log_posterior(log_prior, np.log(col))
    b = bayes_log_posterior(log_prior + shift, np.log(col))
    assert np.allclose(a, b, atol=1e-12, rtol=0)


def test_constant_column_returns_the_prior_bitwise():
    log_prior = np.log(np.array([0.5, 0.2, 0.3]))
    out = bayes_log_posterior(log_prior, np.log(np.array([0.25, 0.25, 0.25])))
    assert np.array_equal(out, log_prior)
    assert out is not log_prior
