import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossip_learning import simulator
from gossip_learning.belief import bayes_log_posterior
from gossip_learning.errors import ValidationError
from gossip_learning.graph import DirectedNetwork, custom_selection_matrix, nonzero_csr, uniform_selection_matrix
from gossip_learning.simulator import (
    TRACE_ARRAYS,
    SimulationConfig,
    SimulationTrace,
    _inverse_cdf_draws,
    backward_walk,
    matrix_fingerprint,
    read_trace,
    run,
    run_replications,
    verify_walk_identity,
    world_fingerprint,
    write_trace,
)
from tests.test_world import tiny_world


def small_run(ex1_cfg, horizon=200, seed=7, stride=1, replication=0):
    cfg = SimulationConfig(horizon=horizon, seed=seed, record_beliefs_every=stride)
    return run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg, replication=replication)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError, match="horizon"):
            SimulationConfig(horizon=0, seed=1)
        with pytest.raises(ValidationError, match="seed"):
            SimulationConfig(horizon=1, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            SimulationConfig(horizon=1, seed=2**64)
        with pytest.raises(ValidationError, match="record_beliefs_every"):
            SimulationConfig(horizon=1, seed=1, record_beliefs_every=0)
        with pytest.raises(ValidationError, match="replications"):
            SimulationConfig(horizon=1, seed=1, replications=0)

    @pytest.mark.parametrize("field, value", [
        ("horizon", 2.5), ("seed", 1.5), ("record_beliefs_every", True), ("replications", "2"),
    ])
    def test_run_shape_fields_must_be_integers(self, field, value):
        with pytest.raises(ValidationError) as info:
            SimulationConfig(**{"horizon": 5, "seed": 1, field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = SimulationConfig(horizon=np.int64(5), seed=np.uint64(2**63), record_beliefs_every=np.int32(2),
                               replications=np.int8(3))
        assert cfg == SimulationConfig(horizon=5, seed=2**63, record_beliefs_every=2, replications=3)
        assert [type(v) for v in dataclasses.astuple(cfg)] == [int] * 4

    def test_snapshot_times_include_stride_multiples_and_final_round(self):
        cfg = SimulationConfig(horizon=50, seed=0, record_beliefs_every=7)
        assert cfg.snapshot_times() == (0, 7, 14, 21, 28, 35, 42, 49, 50)

    def test_snapshot_times_stride_one(self):
        cfg = SimulationConfig(horizon=5, seed=0)
        assert cfg.snapshot_times() == (0, 1, 2, 3, 4, 5)


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, ex1_cfg):
        a = small_run(ex1_cfg)
        b = small_run(ex1_cfg)
        assert np.array_equal(a.signals, b.signals)
        assert np.array_equal(a.selections, b.selections)
        assert a.snapshot_times == b.snapshot_times
        assert np.array_equal(a.log_beliefs, b.log_beliefs)

    def test_replications_use_distinct_streams(self, ex1_cfg):
        a = small_run(ex1_cfg, replication=0)
        b = small_run(ex1_cfg, replication=1)
        assert not np.array_equal(a.signals, b.signals)
        assert not np.array_equal(a.selections, b.selections)

    def test_seeds_change_the_draws(self, ex1_cfg):
        a = small_run(ex1_cfg, seed=7)
        b = small_run(ex1_cfg, seed=8)
        assert not np.array_equal(a.signals, b.signals)

    def test_run_replications_matches_single_runs(self, ex1_cfg):
        cfg = SimulationConfig(horizon=60, seed=3, replications=3)
        batch = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg)
        assert len(batch) == 3
        for r in range(3):
            solo = run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg, replication=r)
            assert np.array_equal(batch[r].signals, solo.signals)
            assert np.array_equal(batch[r].selections, solo.selections)
            assert batch[r].snapshot_times == solo.snapshot_times
            assert np.array_equal(batch[r].log_beliefs, solo.log_beliefs)


class TestDraws:
    def test_selections_stay_inside_row_support(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=500)
        P = ex1_cfg.selection
        for i in range(tr.n):
            support = set(P.indices[P.indptr[i]:P.indptr[i + 1]].tolist())
            assert set(np.unique(tr.selections[:, i])) <= support

    def test_selection_frequencies_match_row_weights(self, trace_t100k):
        # agent 2 picks agents 1 and 4 with probability 1/2 each
        picks = trace_t100k.selections[:, 1]
        freq = float(np.mean(picks == 0))
        assert freq == pytest.approx(0.5, abs=0.008)  # 5 sigma at T=1e5

    def test_signal_frequencies_match_true_state_row(self, trace_t100k, ex1_cfg):
        row = ex1_cfg.world.likelihood(0)[ex1_cfg.world.true_state_index]
        freq = float(np.mean(trace_t100k.signals[:, 0] == 0))
        assert freq == pytest.approx(row[0], abs=0.008)

    def test_degenerate_selection_row_always_picks_its_atom(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=100)
        assert np.all(tr.selections[:, 0] == 2)  # agent 1 observes only agent 3

    def test_rounding_cannot_draw_a_zero_probability_signal(self):
        # the CDF of this row tops out at 1 - 2**-53, so a full-row inverse
        # CDF sends the largest uniform Philox can return past every positive
        # entry, onto the trailing zero
        row = np.array([0.1] * 10 + [0.0])
        u = np.array([1 - 2**-53])
        assert np.cumsum(row)[-1] <= u[0]
        assert _inverse_cdf_draws(*nonzero_csr(row[None]), u[:, None])[:, 0].tolist() == [9]

    def test_draws_skip_zero_entries_anywhere_in_the_row(self):
        row = np.array([0.0, 0.25, 0.0, 0.75, 0.0])
        u = np.array([0.0, 0.2499, 0.25, 0.9999, 1 - 2**-53])
        assert _inverse_cdf_draws(*nonzero_csr(row[None]), u[:, None])[:, 0].tolist() == [1, 1, 3, 3, 3]


class TestReplay:
    def test_snapshots_replay_bitwise_through_belief_ops(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=150)
        world = ex1_cfg.world
        cols = world.log_columns
        beliefs = [bayes_log_posterior(world.prior.log_nu, cols[i, tr.signals[0, i]]) for i in range(tr.n)]
        assert np.array_equal(np.stack(beliefs), tr.log_belief_at(0))
        for t in range(1, tr.horizon + 1):
            beliefs = [
                bayes_log_posterior(beliefs[tr.selections[t - 1, i]], cols[i, tr.signals[t, i]])
                for i in range(tr.n)
            ]
            assert np.array_equal(np.stack(beliefs), tr.log_belief_at(t))

    def test_trace_file_round_trip(self, ex1_cfg, tmp_path):
        cfg = SimulationConfig(horizon=40, seed=7, record_beliefs_every=5, replications=2)
        tr = run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg, replication=1)
        digest = write_trace(tr, tmp_path / "rep001.npz")
        back = read_trace(tmp_path / "rep001.npz", digest, ex1_cfg.selection, ex1_cfg.world, cfg)
        assert back == tr
        # a trace is exactly the arrays its file stores, and a read gives back every one
        fields = [f.name for f in dataclasses.fields(SimulationTrace)]
        assert set(fields) == set(TRACE_ARRAYS)
        for name in fields:
            got, want = getattr(back, name), getattr(tr, name)
            if isinstance(want, tuple):
                assert got == want, name
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert (back.n, back.horizon) == (tr.n, tr.horizon) == (8, 40)
        assert back.log_beliefs.shape == (9, 8, 3)


class TestWalk:
    def test_backward_walk_follows_recorded_selections(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=50)
        walk = backward_walk(tr, 7, 50)
        assert len(walk) == 51 and walk[0] == 7
        cur = 7
        for k in range(1, 51):
            cur = tr.selections[50 - k, cur]  # the round 50-k+1 choice
            assert walk[k] == cur

    def test_zero_time_walk_is_the_agent_itself(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        assert backward_walk(tr, 3, 0).tolist() == [3]

    def test_walk_bounds_checked(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError):
            backward_walk(tr, 8, 5)
        with pytest.raises(ValidationError):
            backward_walk(tr, 0, 11)

    def test_identity_residual_is_tiny(self, trace_t2000, ex1_cfg):
        for (i, t, check) in [(0, 1, 1), (1, 500, 2), (7, 2000, 1), (4, 1500, 2), (2, 0, 1)]:
            res = verify_walk_identity(trace_t2000, ex1_cfg.world, i, t, check)
            assert res <= 1e-8

    def test_identity_needs_a_snapshot(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=40, stride=30)
        with pytest.raises(ValidationError, match="snapshot"):
            verify_walk_identity(tr, ex1_cfg.world, 0, 7, 1)

    @pytest.mark.parametrize("check", [-1, 3])
    def test_identity_check_state_is_a_state(self, ex1_cfg, check):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(tr, ex1_cfg.world, 0, 10, check)
        assert str(info.value) == f"check_state {check} outside 0..2"

    def test_identity_with_collapsed_state_on_both_sides(self):
        # signal 0 is impossible under state 2, so one draw of it zeroes that
        # state in the belief and in the telescoped sum alike
        w = tiny_world([[[0.5, 0.5], [0.0, 1.0]]])
        net = DirectedNetwork(1, [])
        P = uniform_selection_matrix(net)
        seed = next(
            s for s in range(50)
            if run(net, P, w, SimulationConfig(horizon=1, seed=s)).signals[0, 0] == 0
        )
        tr = run(net, P, w, SimulationConfig(horizon=20, seed=seed))
        assert verify_walk_identity(tr, w, 0, 10, 1) == 0.0

    def test_identity_detects_mismatched_world(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=30)
        zero_col = [[0.5, 0.5], [0.0, 1.0], [0.5, 0.5]]
        other = tiny_world(
            [zero_col] * 8, labels=(1, 2, 3)
        )
        with pytest.raises(ValidationError, match="-inf|zero likelihood"):
            verify_walk_identity(tr, other, 0, 30, 1)


class TestValidationAndFingerprints:
    def test_size_mismatch_rejected(self, ex1_cfg):
        w = tiny_world([[[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ValidationError, match="inconsistent sizes"):
            run(ex1_cfg.network, ex1_cfg.selection, w, SimulationConfig(horizon=5, seed=0))

    def test_selection_support_cross_checked_against_network(self, ex1_cfg):
        other_net = DirectedNetwork(8, [(i, (i + 1) % 8) for i in range(8)])
        P = uniform_selection_matrix(other_net)
        with pytest.raises(ValidationError, match="neither an in-neighbor"):
            run(ex1_cfg.network, P, ex1_cfg.world, SimulationConfig(horizon=5, seed=0))

    def test_single_agent_network_runs(self):
        w = tiny_world([[[0.3, 0.7], [0.8, 0.2]]])
        net = DirectedNetwork(1, [])
        tr = run(net, uniform_selection_matrix(net), w, SimulationConfig(horizon=100, seed=5))
        assert np.all(tr.selections == 0)
        assert backward_walk(tr, 0, 100).tolist() == [0] * 101

    def test_fingerprints_stable_and_sensitive(self, ex1_cfg):
        from gossip_learning import example1

        assert world_fingerprint(ex1_cfg.world) == world_fingerprint(example1.config().world)
        assert matrix_fingerprint(ex1_cfg.selection) == matrix_fingerprint(example1.config().selection)
        other = example1.config(seed=43)  # seed is not part of the world
        assert world_fingerprint(other.world) == world_fingerprint(ex1_cfg.world)

        w = ex1_cfg.world
        tables = [w.likelihood(i) for i in range(8)]
        tables[3] = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
        perturbed = tiny_world(tables, labels=(1, 2, 3))
        assert world_fingerprint(perturbed) != world_fingerprint(w)

    def test_matrix_fingerprint_hashes_the_csr_form(self, ex1_cfg):
        """Oracle: the same bytes built by scipy's CSR conversion."""
        from scipy.sparse import csr_matrix

        n = 5
        rows = np.zeros((n, n))
        rows[np.arange(n), np.arange(n)] = 0.5
        rows[np.arange(n), (np.arange(n) + 2) % n] = 0.5
        rows[3] = [0.1, 0.2, 0.0, 0.3, 0.4]
        net = DirectedNetwork(n, [(j, i) for i in range(n) for j in range(n) if i != j])
        for P in (ex1_cfg.selection, custom_selection_matrix(net, rows)):
            csr = csr_matrix(P.to_dense())
            data = b"".join([
                np.array([P.n], dtype="<i8").tobytes(),
                csr.indptr.astype("<i8").tobytes(),
                csr.indices.astype("<i8").tobytes(),
                csr.data.astype("<f8").tobytes(),
            ])
            assert matrix_fingerprint(P) == hashlib.sha256(data).hexdigest()

    def test_matrix_fingerprint_sees_one_changed_probability(self, ex1_cfg):
        P = ex1_cfg.selection
        rows = P.to_dense()
        i = int(np.flatnonzero((rows > 0.0).sum(axis=1) >= 2)[0])
        j, k = np.flatnonzero(rows[i] > 0.0)[:2]
        # one ulp moved between two entries of a row: same support, same row sum
        step = np.spacing(rows[i, j])
        rows[i, j] += step
        rows[i, k] -= step
        changed = custom_selection_matrix(ex1_cfg.network, rows)
        assert matrix_fingerprint(changed) != matrix_fingerprint(P)

    def test_trace_accessors(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=20, stride=6)
        assert (tr.n, tr.horizon) == (8, 20)
        assert tr.snapshot_times == (0, 6, 12, 18, 20)
        assert tr.log_beliefs.shape == (5, 8, 3)
        assert np.array_equal(tr.log_belief_at(18), tr.log_beliefs[3])
        for t in (17, -1, 21):
            with pytest.raises(ValidationError, match="record_beliefs_every"):
                tr.log_belief_at(t)

    def test_run_hashes_nothing(self, ex1_cfg, monkeypatch):
        def fail(_):
            raise AssertionError("a run computed a fingerprint")

        monkeypatch.setattr(simulator, "world_fingerprint", fail)
        monkeypatch.setattr(simulator, "matrix_fingerprint", fail)
        small_run(ex1_cfg, horizon=5)

    def test_trace_arrays_are_read_only(self, ex1_cfg):
        tr = small_run(ex1_cfg, horizon=10)
        for arr in (tr.signals, tr.selections, tr.log_beliefs, tr.log_belief_at(10)):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_trace_rejects_snapshots_not_aligned_with_times(self):
        with pytest.raises(ValidationError, match="log_beliefs has shape"):
            SimulationTrace(
                signals=np.zeros((3, 1), dtype=np.int64),
                selections=np.zeros((2, 1), dtype=np.int64),
                snapshot_times=(0, 1, 2), log_beliefs=np.zeros((2, 1, 2)),
            )

    @pytest.mark.parametrize("signals, selections", [
        ((3, 7), (1, 7)),  # one round of choices for two rounds of signals
        ((3, 7), (2, 6)),  # choices of 6 agents beside signals of 7
        ((7,), (6,)),  # no agent axis
    ])
    def test_trace_rejects_selections_not_aligned_with_signals(self, signals, selections):
        with pytest.raises(ValidationError, match="selections has shape"):
            SimulationTrace(
                signals=np.zeros(signals, dtype=np.int64),
                selections=np.zeros(selections, dtype=np.int64),
                snapshot_times=(0,), log_beliefs=np.zeros((1, 7, 2)),
            )


# ---- reference oracle: the batched round kernel against a per-agent loop ----


def _reference_posterior(log_prior, log_col):
    """One agent's update, written out per vector."""
    y = log_prior + log_col
    m = np.max(y)
    assert m != -np.inf and not np.isnan(m)
    if log_col[0] != -np.inf and np.all(log_col == log_col[0]):
        return log_prior.copy()
    d = y - m
    return d - np.log(np.exp(d).sum())


def _reference_draws(probs, u):
    support = np.nonzero(probs > 0.0)[0]
    cdf = np.cumsum(probs[support])
    return support[np.minimum(np.searchsorted(cdf, u, side="right"), len(support) - 1)]


def reference_run(net, P, world, cfg, replication):
    """Signals, selections and {t: snapshot} from one agent-round at a time."""
    T, n = cfg.horizon, net.n
    sig_ss, sel_ss = np.random.SeedSequence(cfg.seed, spawn_key=(replication,)).spawn(2)
    u_sig = np.random.Generator(np.random.Philox(sig_ss)).random((T + 1, n))
    u_sel = np.random.Generator(np.random.Philox(sel_ss)).random((T, n))
    theta = world.true_state_index
    signals = np.stack([_reference_draws(world.likelihood(i)[theta], u_sig[:, i]) for i in range(n)], axis=1)
    dense = P.to_dense()
    selections = np.stack([_reference_draws(dense[i], u_sel[:, i]) for i in range(n)], axis=1)

    with np.errstate(divide="ignore"):
        log_tabs = [np.log(world.likelihood(i)) for i in range(n)]
    belief = [_reference_posterior(world.prior.log_nu, log_tabs[i][:, signals[0, i]]) for i in range(n)]
    snapshots = {0: np.stack(belief)}
    for t in range(1, T + 1):
        belief = [
            _reference_posterior(belief[selections[t - 1, i]], log_tabs[i][:, signals[t, i]])
            for i in range(n)
        ]
        if t % cfg.record_beliefs_every == 0 or t == T:
            snapshots[t] = np.stack(belief)
    return signals, selections, snapshots


@st.composite
def small_worlds(draw):
    """A random world and graph: 1-4 agents, 2-10 states, 1-4 signals per
    agent, likelihood tables with zero entries, and some agents whose rows all
    coincide (every column constant)."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 10))

    def row(size):
        w = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        return [x / sum(w) for x in w]

    tables = []
    for _ in range(n):
        size = draw(st.integers(1, 4))
        if draw(st.booleans()):
            tables.append([row(size)] * k)
        else:
            tables.append([row(size) for _ in range(k)])
    prior = None
    if draw(st.booleans()):
        w = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
        prior = [x / sum(w) for x in w]
    world = tiny_world(tables, prior=prior, true_index=draw(st.integers(0, k - 1)))

    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    net = DirectedNetwork(n, edges)
    if draw(st.booleans()):
        P = uniform_selection_matrix(net)
    else:
        rows = np.zeros((n, n))
        for i in range(n):
            allowed = sorted(set(net.in_indices[net.in_indptr[i]:net.in_indptr[i + 1]].tolist()) | {i})
            w = draw(st.lists(st.integers(0, 3), min_size=len(allowed), max_size=len(allowed)).filter(any))
            rows[i, allowed] = np.array(w) / sum(w)
        P = custom_selection_matrix(net, rows)
    return net, P, world


@settings(max_examples=150, deadline=None)
@given(
    case=small_worlds(),
    horizon=st.integers(1, 25),
    stride=st.integers(1, 5),
    replications=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_batched_run_matches_per_agent_reference(case, horizon, stride, replications, seed):
    net, P, world = case
    cfg = SimulationConfig(horizon=horizon, seed=seed, record_beliefs_every=stride, replications=replications)
    traces = run_replications(net, P, world, cfg)
    assert len(traces) == replications
    for r, tr in enumerate(traces):
        signals, selections, snapshots = reference_run(net, P, world, cfg, r)
        assert np.array_equal(tr.signals, signals)
        assert np.array_equal(tr.selections, selections)
        assert tr.snapshot_times == tuple(snapshots)
        for m, t in enumerate(tr.snapshot_times):
            assert np.array_equal(tr.log_beliefs[m], snapshots[t])


@settings(max_examples=60, deadline=None)
@given(case=small_worlds(), horizon=st.integers(1, 25), seed=st.integers(0, 2**32), data=st.data())
def test_walk_identity_holds_on_random_worlds(case, horizon, seed, data):
    net, P, world = case
    tr = run(net, P, world, SimulationConfig(horizon=horizon, seed=seed))
    i = data.draw(st.integers(0, net.n - 1))
    t = data.draw(st.integers(0, horizon))
    check = data.draw(st.integers(0, world.num_states - 1))
    assert verify_walk_identity(tr, world, i, t, check) <= 1e-8
