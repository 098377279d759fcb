import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from gossip_learning.analysis import (
    belief_difference,
    occupancy,
    rate_report,
    theoretical_rate,
    write_belief_difference,
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
from tests.test_simulator import small_run
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
        for bad in [(-1, 50), (10, 10), (40, 60)]:
            with pytest.raises(ValidationError, match="window"):
                fitted_rate(tr, TWO_STATE_WORLD, 0, 1, bad)

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
            fitted_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 3))
        assert "agent 2 holds exactly zero belief on state 2 " in str(exc.value)

    def test_zero_belief_on_true_state_rejected(self):
        tr = self._two_agent_trace([-np.inf, 0.0])
        with pytest.raises(ValidationError, match="agent 2 has zero belief on the true state at t=0"):
            fitted_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 3))

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
            if fault is not None:
                first[fault] = np.log(1 / 3)

    def test_agent_and_state_bounds(self):
        tr = synthetic_trace(rate=0.1, horizon=50)
        with pytest.raises(ValidationError, match="agent"):
            fitted_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 50))
        with pytest.raises(ValidationError, match="check_state"):
            fitted_rate(tr, TWO_STATE_WORLD, 0, 2, (0, 50))


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

    def test_empty_trace_list_rejected(self, ex1_pi, ex1_cfg):
        with pytest.raises(ValidationError, match="at least one"):
            rate_report([], ex1_pi, ex1_cfg.world, [1], [0], (0, 10))

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

    @pytest.mark.parametrize("state", [-1, 3])
    def test_state_bounds(self, ex1_cfg, state):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError) as info:
            belief_difference(tr, 2, 7, state)
        assert str(info.value) == f"state {state} outside 0..2"


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
