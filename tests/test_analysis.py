import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from gossip_learning.analysis import (
    belief_difference,
    log_ratios,
    occupancy,
    rate_report,
    theoretical_rate,
    window_snapshots,
    write_belief_difference,
    write_csv,
    write_occupancy,
    write_rate_report,
)
from gossip_learning.errors import ValidationError
from gossip_learning.graph import (
    DirectedNetwork,
    StationaryDistribution,
    stationary_distribution,
    uniform_selection_matrix,
)
from gossip_learning.simulator import SimulationConfig, SimulationTrace, backward_walk, run, run_replications
from gossip_learning.world import kl_divergence
from tests.test_simulator import nine_agent_run, small_run
from tests.test_world import tiny_world

# frozen from an independent high-precision evaluation of sum_m pi_m * KL_m
RATE_CHECK_STATE_2 = 0.019630505942730598
RATE_CHECK_STATE_3 = 0.008121250565448948


def synthetic_trace(rate: float, horizon: int = 100) -> SimulationTrace:
    """One agent, two states, belief ratio decaying at exactly `rate`."""
    times = tuple(range(horizon + 1))
    logb = np.empty((horizon + 1, 1, 2))
    for t in times:
        norm = np.log1p(np.exp(-rate * t))
        logb[t, 0] = (-norm, -rate * t - norm)
    return SimulationTrace(
        signals=np.zeros((horizon + 1, 1), dtype=np.int64),
        selections=np.zeros((horizon, 1), dtype=np.int64),
        snapshot_times=times,
        log_beliefs=logb,
    )


TWO_STATE_WORLD = tiny_world([[[0.5, 0.5], [0.5, 0.5]]])
TWO_AGENT_WORLD = tiny_world([[[0.5, 0.5], [0.5, 0.5]]] * 2)


def fitted_rate(trace, world, agent, check_state, window) -> float:
    """rate_report's fitted decay rate of one (state, agent) pair on one
    trace: the negated slope of that trace's log belief ratio."""
    pi = StationaryDistribution(pi=np.full(world.n_agents, 1 / world.n_agents))
    return rate_report([trace], pi, world, [check_state], [agent], window).rows[0].empirical


def polyfit_slope(trace, agent, check_state, window) -> float:
    """Independent oracle: np.polyfit's slope of log mu_t(check_state) -
    log mu_t(1) over the snapshots inside window (state index 0 true)."""
    times = [t for t in trace.snapshot_times if window[0] <= t <= window[1]]
    y = [trace.log_belief_at(t)[agent, check_state] - trace.log_belief_at(t)[agent, 0] for t in times]
    return float(np.polyfit(times, y, 1)[0])


class TestTheoreticalRate:
    def test_benchmark_values(self, ex1_pi, ex1_cfg):
        assert theoretical_rate(ex1_pi, ex1_cfg.world, 1) == pytest.approx(RATE_CHECK_STATE_2, rel=1e-12)
        assert theoretical_rate(ex1_pi, ex1_cfg.world, 2) == pytest.approx(RATE_CHECK_STATE_3, rel=1e-12)

    def test_matches_weighted_divergence_dot_product(self, ex1_pi, ex1_cfg):
        w = ex1_cfg.world
        for check in (1, 2):
            kls = np.array([rel_entr(w.likelihood(m)[0], w.likelihood(m)[check]).sum() for m in range(8)])
            assert theoretical_rate(ex1_pi, w, check) == pytest.approx(float(ex1_pi.pi @ kls), rel=1e-12)

    def test_transient_tables_do_not_matter(self, ex1_pi, ex1_cfg):
        w = ex1_cfg.world
        tables = [w.likelihood(i) for i in range(8)]
        tables[7] = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])  # agent 8 has pi-weight 0
        modified = tiny_world(tables, labels=(1, 2, 3))
        assert theoretical_rate(ex1_pi, modified, 1) == theoretical_rate(ex1_pi, ex1_cfg.world, 1)

    def test_uninformative_world_has_zero_rate(self, ex1_pi):
        flat = tiny_world([[[0.25, 0.75]] * 3] * 8, labels=(1, 2, 3))
        assert theoretical_rate(ex1_pi, flat, 1) == 0.0
        assert theoretical_rate(ex1_pi, flat, 2) == 0.0

    def test_lone_agent_rate_is_her_own_divergence(self):
        w = tiny_world([[[0.3, 0.7], [0.7, 0.3]]])
        pi = StationaryDistribution(pi=np.array([1.0]))
        expected = kl_divergence([0.3, 0.7], [0.7, 0.3])
        assert theoretical_rate(pi, w, 1) == pytest.approx(expected, rel=1e-15)

    def test_dimension_and_range_checks(self, ex1_pi, ex1_cfg):
        with pytest.raises(ValidationError, match="entries"):
            theoretical_rate(StationaryDistribution(pi=np.array([1.0])), ex1_cfg.world, 1)
        with pytest.raises(ValidationError, match="check_state"):
            theoretical_rate(ex1_pi, ex1_cfg.world, 3)


class TestEmpiricalRate:
    def test_recovers_exact_exponential_decay(self):
        tr = synthetic_trace(rate=0.0123, horizon=200)
        assert fitted_rate(tr, TWO_STATE_WORLD, 0, 1, (0, 200)) == pytest.approx(0.0123, rel=1e-9)

    def test_window_subsets_change_nothing_for_exact_decay(self):
        tr = synthetic_trace(rate=0.05, horizon=300)
        r1 = fitted_rate(tr, TWO_STATE_WORLD, 0, 1, (100, 300))
        r2 = fitted_rate(tr, TWO_STATE_WORLD, 0, 1, (10, 150))
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_strided_trace_fits_only_snapshots_inside_the_window(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=200, stride=7)
        rate = fitted_rate(tr, ex1_cfg.world, 1, 1, (30, 200))
        times = [t for t in tr.snapshot_times if 30 <= t <= 200]
        assert times[0] == 35 and times[-1] == 200
        assert -rate == pytest.approx(polyfit_slope(tr, 1, 1, (30, 200)), rel=1e-9)

    def test_window_validation(self):
        tr = synthetic_trace(rate=0.1, horizon=50)
        for bad in [(-1, 50), (10, 10), (40, 60), (1, 2, 3), 5, None]:
            with pytest.raises(ValidationError, match="window"):
                fitted_rate(tr, TWO_STATE_WORLD, 0, 1, bad)

    @pytest.mark.parametrize("window", [(1, 2, 3), (50,), 5, None], ids=["three", "one", "int", "None"])
    def test_a_window_that_is_not_a_pair_is_named(self, window):
        with pytest.raises(ValidationError) as info:
            window_snapshots(tuple(range(51)), window, 50)
        assert str(info.value) == f"need a window of two integers [t_start, t_end], got {window!r}"

    @pytest.mark.parametrize("window", [(-1, 50), (10, 10), (40, 60), (10.5, 50), (True, 50)],
                             ids=["negative start", "empty", "end past the horizon", "float start", "bool start"])
    def test_window_is_two_integers_inside_the_horizon(self, window):
        with pytest.raises(ValidationError) as info:
            window_snapshots(tuple(range(51)), window, 50)
        assert str(info.value) == ("need a window of integers 0 <= t_start < t_end <= horizon (50), "
                                   f"got [{window[0]}, {window[1]}]")

    def test_needs_two_snapshots_inside_window(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=100, stride=90)
        with pytest.raises(ValidationError, match="snapshots"):
            fitted_rate(tr, ex1_cfg.world, 0, 1, (1, 89))

    @staticmethod
    def _two_agent_trace(agent2_log_belief):
        # agent 1 holds (1/2, 1/2) throughout; agent 2 the given log belief
        logb = np.empty((4, 2, 2))
        logb[:, 0] = np.log(0.5)
        logb[:, 1] = agent2_log_belief
        return SimulationTrace(
            signals=np.zeros((4, 2), dtype=np.int64),
            selections=np.zeros((3, 2), dtype=np.int64),
            snapshot_times=(0, 1, 2, 3), log_beliefs=logb,
        )

    def test_zero_belief_on_check_state_rejected(self):
        tr = self._two_agent_trace([0.0, -np.inf])
        with pytest.raises(ValidationError, match="zero belief") as exc:
            fitted_rate(tr, TWO_AGENT_WORLD, 1, 1, (0, 3))
        assert "agent 2 holds exactly zero belief on state 2 " in str(exc.value)

    def test_zero_belief_on_true_state_rejected(self):
        tr = self._two_agent_trace([-np.inf, 0.0])
        with pytest.raises(ValidationError, match="agent 2 has zero belief on the true state at t=0"):
            fitted_rate(tr, TWO_AGENT_WORLD, 1, 1, (0, 3))

    def test_faults_are_named_by_replication_then_truth_then_state_then_agent(self):
        # log beliefs [t, agent, state] at t = 0..3: every state 1/3 except at the faults
        world = tiny_world([[[0.5, 0.5]] * 3] * 2)
        pi = StationaryDistribution(pi=np.array([0.5, 0.5]))
        first, second = np.full((4, 2, 3), np.log(1 / 3)), np.full((4, 2, 3), np.log(1 / 3))
        first[1, 0, 0] = first[[2, 3], 1, 0] = -np.inf  # true state: agent 1 at t=1, agent 2 at t=2 and 3
        first[2, 0, 2] = first[0, 1, 1] = -np.inf  # agent 1 on state 3, agent 2 on state 2
        second[0, 0, 0] = -np.inf  # the second replication: agent 1 on the true state
        expected = [
            "agent 2 has zero belief on the true state at t=2",  # agent 2 is listed first
            "agent 1 has zero belief on the true state at t=1",
            "agent 2 holds exactly zero belief on state 2 ",  # state 2 is listed first
            "agent 1 holds exactly zero belief on state 3 ",
            "agent 1 has zero belief on the true state at t=0",
        ]
        faults = [(slice(2, 4), 1, 0), (1, 0, 0), (0, 1, 1), (2, 0, 2)]
        for message, fault in zip(expected, faults + [None]):
            with pytest.raises(ValidationError) as exc:
                rate_report([log_belief_trace(first), log_belief_trace(second)], pi, world, [1, 2], [1, 0], (0, 3))
            assert message in str(exc.value)
            assert str(exc.value).startswith(f"replication {1 if fault else 2}: ")
            if fault is not None:
                first[fault] = np.log(1 / 3)

    @pytest.mark.parametrize("check_states", [[1], [1, 2], [2, 1]])
    def test_a_zero_true_and_check_belief_at_one_t_names_the_true_state(self, check_states):
        # agent 2's true-state and state-2 beliefs are both zero at t=2, a nan
        # ratio (+inf for state 3); agent 1's state-3 belief is zero at t=1
        world = tiny_world([[[0.5, 0.5]] * 3] * 2)
        logb = np.full((4, 2, 3), np.log(1 / 3))
        logb[2, 1, [0, 1]] = logb[1, 0, 2] = -np.inf
        pi = StationaryDistribution(pi=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError) as exc:
            rate_report([log_belief_trace(logb)], pi, world, check_states, [0, 1], (0, 3))
        assert str(exc.value) == "replication 1: agent 2 has zero belief on the true state at t=2"

    def test_agent_and_state_bounds(self):
        tr = synthetic_trace(rate=0.1, horizon=50)
        with pytest.raises(ValidationError, match="agent"):
            fitted_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 50))
        with pytest.raises(ValidationError, match="check_state"):
            fitted_rate(tr, TWO_STATE_WORLD, 0, 2, (0, 50))

    @pytest.mark.parametrize("agent", [1.7, True, 0.0, np.float64(0.0)], ids=["1.7", "True", "0.0", "numpy 0.0"])
    def test_an_agent_that_is_not_an_integer_is_named(self, agent):
        tr = synthetic_trace(rate=0.1, horizon=50)
        with pytest.raises(ValidationError) as info:
            rate_report([tr], StationaryDistribution(pi=np.array([1.0])), TWO_STATE_WORLD, [1], [0, agent], (0, 50))
        assert str(info.value) == f"agent must be an integer, got {agent!r}"


class TestRateReport:
    def test_aggregates_mean_and_stderr_across_replications(self, ex1_cfg, ex1_pi):
        cfg = SimulationConfig(horizon=400, seed=11, replications=4)
        traces = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg)
        report = rate_report(traces, ex1_pi, ex1_cfg.world, [1], [1, 7], (80, 400))
        slopes = np.array([fitted_rate(tr, ex1_cfg.world, 1, 1, (80, 400)) for tr in traces])
        for tr, rate in zip(traces, slopes):
            assert -rate == pytest.approx(polyfit_slope(tr, 1, 1, (80, 400)), rel=1e-9)
        row = report.rows[0]  # check state 1, agent 1: the first of agents [1, 7]
        assert row.empirical == pytest.approx(float(slopes.mean()), rel=1e-15)
        assert row.stderr == pytest.approx(float(slopes.std(ddof=1) / 2.0), rel=1e-12)
        assert row.theoretical == pytest.approx(RATE_CHECK_STATE_2, rel=1e-12)
        assert report.replications == 4 and len(report.rows) == 2

    def test_single_replication_has_zero_stderr(self):
        tr = synthetic_trace(rate=0.02, horizon=100)
        pi = StationaryDistribution(pi=np.array([1.0]))
        report = rate_report([tr], pi, TWO_STATE_WORLD, [1], [0], (0, 100))
        assert report.rows[0].stderr == 0.0

    def test_within_and_rel_error(self):
        tr = synthetic_trace(rate=0.02, horizon=100)
        pi = StationaryDistribution(pi=np.array([1.0]))
        report = rate_report([tr], pi, TWO_STATE_WORLD, [1], [0], (0, 100))
        # flat likelihoods: theoretical 0 but empirical 0.02, so rel error is
        # inf, and the row is not checked
        assert report.within(0.15)
        assert report.rows[0].rel_error == np.inf

    def test_within_checks_every_row_with_a_positive_rate(self):
        tr = synthetic_trace(rate=0.02, horizon=100)
        pi = StationaryDistribution(pi=np.array([1.0]))
        informative = tiny_world([[[0.5, 0.5], [0.6, 0.4]]])
        report = rate_report([tr], pi, informative, [1], [0], (0, 100))
        theo = kl_divergence([0.5, 0.5], [0.6, 0.4])
        assert report.rows[0].theoretical == pytest.approx(theo, rel=1e-15)
        assert report.rows[0].rel_error == pytest.approx(abs(0.02 - theo) / theo, rel=1e-9)
        assert not report.within(report.rows[0].rel_error * 0.99)
        assert report.within(report.rows[0].rel_error * 1.01)

    def test_a_trace_of_another_world_is_rejected(self, ex1_pi, ex1_cfg):
        nine = nine_agent_run(ex1_cfg)  # example1 plus agent 9
        with pytest.raises(ValidationError) as info:
            rate_report([nine], ex1_pi, ex1_cfg.world, [1, 2], [1, 8], (10, 50))
        assert str(info.value) == "agent 8 outside 0..7"
        with pytest.raises(ValidationError) as info:
            rate_report([small_run(ex1_cfg, horizon=50), nine], ex1_pi, ex1_cfg.world, [1, 2], [1, 7], (10, 50))
        assert str(info.value) == "inconsistent sizes: world_agents=8, trace_agents=9"
        two_states = log_belief_trace(np.full((51, 8, 2), np.log(0.5)))
        with pytest.raises(ValidationError) as info:
            rate_report([two_states], ex1_pi, ex1_cfg.world, [1], [1], (10, 50))
        assert str(info.value) == "inconsistent sizes: world_states=3, trace_states=2"

    def test_empty_trace_list_rejected(self, ex1_pi, ex1_cfg):
        with pytest.raises(ValidationError, match="at least one"):
            rate_report([], ex1_pi, ex1_cfg.world, [1], [0], (0, 10))

    def test_an_empty_check_state_list_is_rejected_before_any_trace_is_read(self, ex1_pi, ex1_cfg):
        # with no check state there is no ratio row to show a zero true-state belief in
        def unread():
            raise AssertionError("a trace was read")
            yield

        with pytest.raises(ValidationError) as info:
            rate_report(unread(), ex1_pi, ex1_cfg.world, [], [0], (0, 10))
        assert str(info.value) == "need at least one check state to fit a rate on"

    def test_any_iterable_of_traces_is_fitted_once_in_order(self, ex1_cfg, ex1_pi):
        cfg = SimulationConfig(horizon=200, seed=3, replications=3)
        traces = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg)
        args = (ex1_pi, ex1_cfg.world, [1, 2], [1, 7], (40, 200))
        assert rate_report(iter(traces), *args) == rate_report(traces, *args)
        with pytest.raises(ValidationError) as info:
            rate_report(iter([]), *args)
        assert str(info.value) == "rate_report needs at least one trace"

    def test_lone_informative_agent_end_to_end(self):
        w = tiny_world([[[0.3, 0.7], [0.7, 0.3]]])
        net = DirectedNetwork(1, [])
        P = uniform_selection_matrix(net)
        pi = stationary_distribution(P)
        cfg = SimulationConfig(horizon=3000, seed=2, replications=3)
        traces = run_replications(net, P, w, cfg)
        report = rate_report(traces, pi, w, [1], [0], (600, 3000))
        assert report.rows[0].theoretical == pytest.approx(kl_divergence([0.3, 0.7], [0.7, 0.3]), rel=1e-15)
        assert report.within(0.15)


def log_belief_trace(log_beliefs: np.ndarray) -> SimulationTrace:
    """A trace holding the given (T+1, n, k) log beliefs, one snapshot a round."""
    horizon, n = log_beliefs.shape[0] - 1, log_beliefs.shape[1]
    return SimulationTrace(
        signals=np.zeros((horizon + 1, n), dtype=np.int64),
        selections=np.zeros((horizon, n), dtype=np.int64),
        snapshot_times=tuple(range(horizon + 1)), log_beliefs=log_beliefs,
    )


def per_pair_fit(traces, world, check_state, agent, window) -> tuple[float, float]:
    """Oracle: each trace's negated least-squares slope of one pair's log
    ratio, fitted on its own 1-D arrays, then the mean and the standard
    error of those slopes."""
    slopes = []
    for tr in traces:
        inside = [m for m, t in enumerate(tr.snapshot_times) if window[0] <= t <= window[1]]
        times = np.array([tr.snapshot_times[m] for m in inside], dtype=float)
        lb = tr.log_beliefs[inside, agent]
        y = lb[:, check_state] - lb[:, world.true_state_index]
        tc = times - times.mean()
        slopes.append(-(float(tc @ (y - y.mean())) / float(tc @ tc)))
    slopes = np.array(slopes)
    stderr = float(slopes.std(ddof=1) / np.sqrt(len(slopes))) if len(slopes) > 1 else 0.0
    return float(slopes.mean()), stderr


def test_log_ratios_are_each_pairs_series_in_one_row():
    rng = np.random.default_rng(5)
    rows = np.log(rng.dirichlet(np.ones(4), size=(2, 6, 3)))  # (R, m, n, k)
    rows[1, 2, 0, 3] = -np.inf
    check_states, agents = [3, 0, 2], [2, 0]
    ratios = log_ratios(rows, 1, check_states, agents)
    assert ratios.shape == (2, 3, 2, 6) and ratios.flags.c_contiguous and ratios.dtype == np.float64
    for r in range(2):
        for c, state in enumerate(check_states):
            for j, agent in enumerate(agents):
                assert np.array_equal(ratios[r, c, j], rows[r, :, agent, state] - rows[r, :, agent, 1])
    assert ratios[1, 0, 1, 2] == -np.inf
    out = np.full((2, 3, 2, 9), np.nan)
    window = out[..., 2:8]
    assert log_ratios(rows, 1, check_states, agents, out=window) is window
    assert np.array_equal(window, ratios) and np.isnan(out[..., [0, 1, 8]]).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    k=st.integers(2, 4),
    # numpy sums fewer than 8 values left to right, up to 128 in eight running sums, and more by halving
    m=st.one_of(st.integers(2, 7), st.integers(8, 128), st.integers(129, 300)),
    replications=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_rate_report_matches_a_per_pair_fit_bit_for_bit(n, k, m, replications, seed, data):
    rng = np.random.default_rng(seed)
    theta = data.draw(st.integers(0, k - 1))
    world = tiny_world([rng.dirichlet(np.ones(3), size=k) for _ in range(n)], true_index=theta)
    pi = StationaryDistribution(pi=rng.dirichlet(np.ones(n)))
    t0 = data.draw(st.integers(0, 5))
    horizon = t0 + m - 1 + data.draw(st.integers(0, 5))
    # drifting log beliefs over several orders of magnitude
    traces = [log_belief_trace(np.cumsum(rng.standard_normal((horizon + 1, n, k)), axis=0)
                               * 10.0 ** rng.uniform(-3, 3)) for _ in range(replications)]
    false_states = [s for s in range(k) if s != theta]
    check_states = data.draw(st.permutations(false_states))[:data.draw(st.integers(1, k - 1))]
    agents = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    window = (t0, t0 + m - 1)

    report = rate_report(traces, pi, world, check_states, agents, window)
    assert [(r.check_state, r.agent) for r in report.rows] == [(cs, a) for cs in check_states for a in agents]
    for r in report.rows:
        assert r.theoretical == theoretical_rate(pi, world, r.check_state)
        assert (r.empirical, r.stderr) == per_pair_fit(traces, world, r.check_state, r.agent, window)


class TestOccupancy:
    def test_counts_match_manual_walk(self, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=50)
        rep = occupancy(tr, 7, 50, ex1_pi)
        walk = backward_walk(tr, 7, 50)
        assert np.array_equal(rep.frequencies, np.bincount(walk[1:], minlength=8) / 50.0)

    def test_time_must_be_positive(self, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError, match="t >= 1"):
            occupancy(tr, 0, 0, ex1_pi)

    @pytest.mark.parametrize("t", ["3", None, 2.5, True, np.float64(3.0)])
    def test_time_must_be_an_integer(self, t, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError) as info:
            occupancy(tr, 0, t, ex1_pi)
        assert str(info.value) == f"time must be an integer, got {t!r}"

    @pytest.mark.parametrize("t", [0, -1, np.int64(0)])
    def test_time_below_one_is_named(self, t, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError) as info:
            occupancy(tr, 0, t, ex1_pi)
        assert str(info.value) == f"occupancy needs t >= 1, got {t}"

    def test_pi_length_checked(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError, match="entries"):
            occupancy(tr, 0, 10, pi=StationaryDistribution(pi=np.array([1.0])))

    def test_single_agent_occupancy_is_degenerate(self):
        w = tiny_world([[[0.3, 0.7], [0.7, 0.3]]])
        net = DirectedNetwork(1, [])
        P = uniform_selection_matrix(net)
        tr = run(net, P, w, SimulationConfig(horizon=30, seed=1))
        rep = occupancy(tr, 0, 30, stationary_distribution(P))
        assert rep.frequencies.tolist() == [1.0]


class TestBeliefDifference:
    def test_matches_direct_computation(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=30)
        times, diffs = belief_difference(tr, 2, 7, 0)
        assert times.tolist() == list(tr.snapshot_times)
        for k, t in enumerate(times):
            snap = tr.log_belief_at(int(t))
            assert diffs[k] == abs(np.exp(snap[2, 0]) - np.exp(snap[7, 0]))

    def test_agent_bounds(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError, match="agent"):
            belief_difference(tr, 0, 8, 0)

    @pytest.mark.parametrize("state", [-1, 3, True, 1.0])
    def test_state_bounds(self, ex1_cfg, state):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError) as info:
            belief_difference(tr, 2, 7, state)
        assert str(info.value) == (f"state {state} outside 0..2" if type(state) is int
                                   else f"state must be an integer, got {state!r}")


class TestCsvWriters:
    def test_rate_report_csv(self, tmp_path, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=120)
        report = rate_report([tr], ex1_pi, ex1_cfg.world, [1, 2], [1, 2, 7], (24, 120))
        path = write_rate_report(report, ex1_cfg.world, tmp_path / "rate_report.csv")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["check_state", "theoretical", "agent", "empirical", "stderr"]
        assert len(rows) == 6
        assert rows[0]["check_state"] == "2" and rows[0]["agent"] == "2"
        assert float(rows[0]["theoretical"]) == pytest.approx(RATE_CHECK_STATE_2, rel=1e-12)

    def test_occupancy_csv(self, tmp_path, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=60)
        rep = occupancy(tr, 7, 60, pi=ex1_pi)
        path = write_occupancy(rep, tmp_path / "occupancy.csv")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["agent_m", "empirical", "stationary"]
        assert len(rows) == 8
        assert [r["agent_m"] for r in rows] == [str(m) for m in range(1, 9)]
        total = sum(float(r["empirical"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert [float(r["stationary"]) for r in rows] == ex1_pi.pi.tolist()

    def test_belief_difference_csv(self, tmp_path, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=25)
        times, diffs = belief_difference(tr, 2, 7, 0)
        path = write_belief_difference(times, diffs, tmp_path / "belief_diff.csv")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["t", "value"]
        assert len(rows) == 26
        assert float(rows[-1]["value"]) == diffs[-1]


# the cells a column of write_csv can hold: ints past int64, every kind of
# float csv.writer writes by repr, strings csv.writer must quote, and state
# labels that mix ints and strings
CSV_INTS = st.one_of(st.integers(), st.sampled_from([-1, 0, 2**63, 2**64 + 1, -(2**63) - 1]))
CSV_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]))
CSV_STRINGS = st.one_of(st.text(), st.sampled_from(["", " ", " x ", "a,b", 'say "hi"', "x\ny", "\r", "a\r\nb",
                                                    "Zürich", "状态"]))
CSV_COLUMNS = [CSV_INTS, CSV_FLOATS, CSV_STRINGS, st.one_of(CSV_INTS, CSV_STRINGS)]


def csv_writer_bytes(path, header, columns) -> bytes:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    return path.read_bytes()


@st.composite
def csv_tables(draw):
    """1-5 equal-length columns of 0-12 rows, each of one kind of CSV_COLUMNS."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(CSV_COLUMNS), min_size=1, max_size=5))
    return [draw(st.lists(kind, min_size=rows, max_size=rows)) for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(columns=csv_tables())
@example(columns=[["x\ny", "a,b", 'say "hi"', ""], [1, 2, 3, 4]])
@example(columns=[["", "x"]])
def test_write_csv_writes_the_bytes_of_csv_writer(columns, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(len(columns))]
    assert write_csv(tmp / "new.csv", header, columns).read_bytes() == csv_writer_bytes(tmp / "ref.csv", header, columns)


def test_write_csv_streams_its_lines(tmp_path):
    """write_csv makes and writes one line at a time: over a 2e5-row
    (int, str, float) file of 5.5 MB, its tracemalloc peak above its input
    columns measured 139 KB on CPython 3.11, the 128 KB record buffer of a
    csv.writer, the file's buffer and one pending chunk of text. A list of
    the file's lines would take 16.8 MB and the joined text 22 MB. The bound
    is 512 KB."""
    n = 200_000
    columns = [list(range(n)), ["a,b", "c", "d"] * (n // 4) + ["e"] * (n - 3 * (n // 4)),
               (np.arange(n) / 7).tolist()]
    header = ["t", "state", "prob"]
    write_csv(tmp_path / "warm.csv", header, [c[:10] for c in columns])
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak
