import csv

import numpy as np
import pytest
from scipy.special import rel_entr

from gossip_learning.analysis import (
    belief_difference,
    empirical_rate,
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
        slope, stderr = empirical_rate(tr, TWO_STATE_WORLD, 0, 1, (0, 200))
        assert -slope == pytest.approx(0.0123, rel=1e-9)
        assert stderr <= 1e-10

    def test_window_subsets_change_nothing_for_exact_decay(self):
        tr = synthetic_trace(rate=0.05, horizon=300)
        s1, _ = empirical_rate(tr, TWO_STATE_WORLD, 0, 1, (100, 300))
        s2, _ = empirical_rate(tr, TWO_STATE_WORLD, 0, 1, (10, 150))
        assert s1 == pytest.approx(s2, rel=1e-9)

    def test_strided_trace_fits_only_snapshots_inside_the_window(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=200, stride=7)
        slope, _ = empirical_rate(tr, ex1_cfg.world, 1, 1, (30, 200))
        times = [t for t in tr.snapshot_times if 30 <= t <= 200]
        assert times[0] == 35 and times[-1] == 200
        y = [tr.log_belief_at(t)[1, 1] - tr.log_belief_at(t)[1, 0] for t in times]
        assert slope == pytest.approx(np.polyfit(times, y, 1)[0], rel=1e-9)

    def test_window_validation(self):
        tr = synthetic_trace(rate=0.1, horizon=50)
        for bad in [(-1, 50), (10, 10), (40, 60)]:
            with pytest.raises(ValidationError, match="window"):
                empirical_rate(tr, TWO_STATE_WORLD, 0, 1, bad)

    def test_needs_two_snapshots_inside_window(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=100, stride=90)
        with pytest.raises(ValidationError, match="snapshots"):
            empirical_rate(tr, ex1_cfg.world, 0, 1, (1, 89))

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
            empirical_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 3))
        assert "agent 2 holds exactly zero belief on state 2 " in str(exc.value)

    def test_zero_belief_on_true_state_rejected(self):
        tr = self._two_agent_trace([-np.inf, 0.0])
        with pytest.raises(ValidationError, match="agent 2 has zero belief on the true state at t=0"):
            empirical_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 3))

    def test_agent_and_state_bounds(self):
        tr = synthetic_trace(rate=0.1, horizon=50)
        with pytest.raises(ValidationError, match="agent"):
            empirical_rate(tr, TWO_STATE_WORLD, 1, 1, (0, 50))
        with pytest.raises(ValidationError, match="check_state"):
            empirical_rate(tr, TWO_STATE_WORLD, 0, 2, (0, 50))


class TestRateReport:
    def test_aggregates_mean_and_stderr_across_replications(self, ex1_cfg, ex1_pi):
        cfg = SimulationConfig(horizon=400, seed=11, replications=4)
        traces = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg)
        report = rate_report(traces, ex1_pi, ex1_cfg.world, [1], [1, 7], (80, 400))
        slopes = np.array([-empirical_rate(tr, ex1_cfg.world, 1, 1, (80, 400))[0] for tr in traces])
        row = report.row(1, 1)
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
        # flat likelihoods: theoretical 0 but empirical 0.02, so rel error is inf
        assert not report.within(0.15)
        assert report.rows[0].rel_error == np.inf

    def test_missing_row_lookup(self):
        tr = synthetic_trace(rate=0.02, horizon=100)
        pi = StationaryDistribution(pi=np.array([1.0]))
        report = rate_report([tr], pi, TWO_STATE_WORLD, [1], [0], (0, 100))
        with pytest.raises(ValidationError, match="no rate row"):
            report.row(1, 5)

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


class TestOccupancy:
    def test_counts_match_manual_walk(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=50)
        rep = occupancy(tr, 7, 50)
        walk = backward_walk(tr, 7, 50)
        assert np.array_equal(rep.counts, np.bincount(walk[1:], minlength=8))
        assert rep.counts.sum() == 50
        assert np.allclose(rep.frequencies, rep.counts / 50.0)
        assert rep.stationary is None and rep.max_abs_dev is None

    def test_deviation_against_stationary(self, ex1_cfg, ex1_pi):
        tr = small_run(ex1_cfg, horizon=50)
        rep = occupancy(tr, 7, 50, pi=ex1_pi)
        assert rep.max_abs_dev == pytest.approx(float(np.max(np.abs(rep.frequencies - ex1_pi.pi))))

    def test_time_must_be_positive(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError, match="t >= 1"):
            occupancy(tr, 0, 0)

    def test_pi_length_checked(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError, match="entries"):
            occupancy(tr, 0, 10, pi=StationaryDistribution(pi=np.array([1.0])))

    def test_single_agent_occupancy_is_degenerate(self):
        w = tiny_world([[[0.3, 0.7], [0.7, 0.3]]])
        net = DirectedNetwork(1, [])
        tr = run(net, uniform_selection_matrix(net), w, SimulationConfig(horizon=30, seed=1))
        rep = occupancy(tr, 0, 30)
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

    def test_occupancy_csv_without_stationary_column_values(self, tmp_path, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=20)
        path = write_occupancy(occupancy(tr, 0, 20), tmp_path / "occ.csv")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["stationary"] == "" for r in rows)

    def test_belief_difference_csv(self, tmp_path, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=25)
        times, diffs = belief_difference(tr, 2, 7, 0)
        path = write_belief_difference(times, diffs, tmp_path / "belief_diff.csv")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["t", "value"]
        assert len(rows) == 26
        assert float(rows[-1]["value"]) == diffs[-1]
