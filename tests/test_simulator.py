import dataclasses
import hashlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gossip_learning import example1, simulator
from gossip_learning.belief import bayes_log_posterior
from gossip_learning.errors import ValidationError
from gossip_learning.graph import DirectedNetwork, custom_selection_matrix, nonzero_csr, uniform_selection_matrix
from gossip_learning.simulator import (
    TRACE_ARRAYS,
    SimulationConfig,
    SimulationTrace,
    _inverse_cdf,
    _row_cdfs,
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


def nine_agent_run(ex1_cfg, horizon=50):
    """example1's world and network plus agent 9, who observes agent 8 and
    holds agent 3's table."""
    w = ex1_cfg.world
    world = tiny_world([w.likelihood(i) for i in range(8)] + [example1.TABLE_AGENT_3], labels=(1, 2, 3))
    net = DirectedNetwork(9, [(a - 1, b - 1) for a, b in example1.EDGES] + [(7, 8)])
    return run(net, uniform_selection_matrix(net), world, SimulationConfig(horizon=horizon, seed=3))


def row_draws(row, u):
    """Draws from one dense probability row, one per uniform in u."""
    indptr, indices, probs = nonzero_csr(row[None])
    return _inverse_cdf(indptr, indices, _row_cdfs(indptr, probs), u[:, None])[:, 0].tolist()


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
        assert cfg.snapshot_times().tolist() == [0, 7, 14, 21, 28, 35, 42, 49, 50]

    def test_snapshot_times_stride_one(self):
        cfg = SimulationConfig(horizon=5, seed=0)
        assert cfg.snapshot_times().tolist() == [0, 1, 2, 3, 4, 5]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), horizon=st.integers(1, 10**4))
    def test_snapshot_times_are_the_stride_multiples_and_the_horizon_ascending(self, data, horizon):
        stride = data.draw(st.integers(1, horizon + 5))
        cfg = SimulationConfig(horizon=horizon, seed=0, record_beliefs_every=stride)
        assert cfg.snapshot_times().tolist() == sorted(set(range(0, horizon + 1, stride)) | {horizon})


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, ex1_cfg):
        a = small_run(ex1_cfg)
        b = small_run(ex1_cfg)
        assert np.array_equal(a.signals, b.signals)
        assert np.array_equal(a.selections, b.selections)
        assert np.array_equal(a.snapshot_times, b.snapshot_times)
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
            assert np.array_equal(batch[r].snapshot_times, solo.snapshot_times)
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
        assert row_draws(row, u) == [9]

    def test_draws_skip_zero_entries_anywhere_in_the_row(self):
        row = np.array([0.0, 0.25, 0.0, 0.75, 0.0])
        u = np.array([0.0, 0.2499, 0.25, 0.9999, 1 - 2**-53])
        assert row_draws(row, u) == [1, 1, 3, 3, 3]

    # rows of 1, 2**j and 2**j + 1 entries, each a list of positive weights
    CDF_ROWS = st.lists(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17]).flatmap(
        lambda d: st.lists(st.integers(1, 7), min_size=d, max_size=d)), min_size=1, max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(weights=CDF_ROWS, seed=st.integers(0, 2**32))
    # rows whose CDFs end at 1 - 2**-53
    @example(weights=[[1, 4, 1], [1, 1, 3, 1], [1, 1, 2, 1, 1], [1, 1, 3, 1, 1, 1, 1, 1], [1]], seed=0)
    def test_inverse_cdf_matches_a_per_row_search(self, weights, seed):
        lengths = np.array([len(w) for w in weights])
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        probs = np.concatenate([np.array(w) / sum(w) for w in weights])
        indices = np.arange(len(probs)) * 10 + 3
        cdf = _row_cdfs(indptr, probs)
        rows = [cdf[a:b] for a, b in zip(indptr[:-1], indptr[1:])]
        # per row: every CDF value, the float below each, the float above
        # the last, 0, the largest uniform, and then random uniforms
        special = [np.concatenate([c, np.nextafter(c, 0), [np.nextafter(c[-1], 2), 0.0, 1 - 2**-53]]) for c in rows]
        u = np.random.default_rng(seed).random((max(map(len, special)) + 8, len(rows)))
        for i, s in enumerate(special):
            u[:len(s), i] = s
        expected = np.array([[indices[a + min(int(np.searchsorted(c, x, side="right")), len(c) - 1)]
                              for x, a, c in zip(u_t, indptr, rows)] for u_t in u])
        assert np.array_equal(_inverse_cdf(indptr, indices, cdf, u), expected)
        assert np.array_equal(_inverse_cdf(indptr, indices, cdf, u[None]), expected[None])


# SHA-256 of a trace's bytes as write_trace writes them, and of the same
# trace's np.savez bytes (the .npz layout of earlier versions, see
# savez_bytes), for example1's world at seed 42, one pair per replication.
# The .npz digests were taken from the per-round kernel the blocked loop
# replaced, so a moved seeded bit fails both.
GOLDEN_TRACES = {
    (20_000, 1, 1): [("28b5243f921d60f62b8a96e6e425f3fd970550db44e08d44f7a139d41a0ce579",
                      "e517b7bde626bd789d77624d8e1dbcdec0bbe46a452727b81d0496708e91d028")],
    (3000, 3, 7): [
        ("f0c80cd4afc086683bd9a1d5123b49f14ac564be18a617185449bc4f0392f77a",
         "cc5d14fcba9c30eb7f51925dc0028f1c7aff8d812684aa226030e19af83b352a"),
        ("0504d407f1713a88a161053dd1370a696e255635ca03db884955f2dc3b684fb9",
         "a6c49ba5d1a69fce37efe06fbcdc2ca68bd1aad38201230a5d607558ffb552b8"),
        ("54aa29b6f46ae2c051d3c4e18898f885f5349f11ce65e32f42badf2353542308",
         "fe432e88c6831489d61c6f7da4967e73b9749199cc19d308c4e868a6c913d4b5"),
    ],
}


def savez_bytes(signals, selections, snapshot_times, log_beliefs) -> bytes:
    """The bytes of a trace's .npz file as earlier versions wrote it: np.savez
    of its four arrays, the draws and snapshot times as int64."""
    buf = io.BytesIO()
    np.savez(buf, signals=np.asarray(signals, dtype="<i8"), selections=np.asarray(selections, dtype="<i8"),
             snapshot_times=np.asarray(snapshot_times, dtype="<i8"), log_beliefs=log_beliefs)
    return buf.getvalue()


class TestGoldenTraces:
    @pytest.mark.parametrize("block_rows", [simulator.BLOCK_AGENT_ROWS, 100])
    @pytest.mark.parametrize("horizon, replications, stride", list(GOLDEN_TRACES))
    def test_traces_keep_their_recorded_bytes(self, ex1_cfg, tmp_path, monkeypatch, horizon, replications,
                                              stride, block_rows):
        monkeypatch.setattr(simulator, "BLOCK_AGENT_ROWS", block_rows)
        cfg = SimulationConfig(horizon=horizon, seed=42, record_beliefs_every=stride, replications=replications)
        traces = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg)
        digests = [(write_trace(tr, tmp_path / f"rep{r:03d}.trace"),
                    hashlib.sha256(savez_bytes(tr.signals, tr.selections, tr.snapshot_times,
                                               tr.log_beliefs)).hexdigest())
                   for r, tr in enumerate(traces)]
        assert digests == GOLDEN_TRACES[horizon, replications, stride]


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

    @pytest.mark.parametrize("k", [2, 7, 8, 9, 16, 40])
    def test_snapshots_replay_bitwise_on_both_sides_of_the_pairwise_sum(self, k):
        # numpy sums a row of 8 or more entries pairwise and a shorter one
        # left to right; the kernel and the replay sum the states left to
        # right at every k, so no k on either side takes another path.
        # Agent 1 is uninformative (every column constant), agent 2 has one
        # constant column, and agents 3-5 have zero entries off the true state.
        rng = np.random.default_rng(k)
        flat = np.full((k, 3), 1 / 3)
        one_constant = np.column_stack([np.full(k, 0.25), 0.75 * rng.dirichlet(np.ones(3), size=k)])
        tables = [flat, one_constant]
        for _ in range(3):
            t = rng.random((k, 3)) * (rng.random((k, 3)) > 0.3)
            t[0] += 0.1
            t[np.arange(k), rng.integers(0, 3, k)] += 0.1
            tables.append(t / t.sum(axis=1, keepdims=True))
        world = tiny_world([t.tolist() for t in tables])
        net = DirectedNetwork(5, [(j, (j + 1) % 5) for j in range(5)] + [(0, 2), (3, 1), (2, 0)])
        P = uniform_selection_matrix(net)
        traces = run_replications(net, P, world, SimulationConfig(horizon=300, seed=k, replications=2))
        cols = world.log_columns
        for tr in traces:
            beliefs = [world.prior.log_nu] * tr.n
            for t in range(tr.horizon + 1):
                nbrs = range(tr.n) if t == 0 else tr.selections[t - 1]
                beliefs = [bayes_log_posterior(beliefs[j], cols[i, tr.signals[t, i]]) for i, j in enumerate(nbrs)]
                assert np.array_equal(np.stack(beliefs), tr.log_belief_at(t)), t
            assert np.isneginf(tr.log_beliefs).any()

    def test_trace_file_round_trip(self, ex1_cfg, tmp_path):
        cfg = SimulationConfig(horizon=40, seed=7, record_beliefs_every=5, replications=2)
        tr = run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg, replication=1)
        digest = write_trace(tr, tmp_path / "rep001.trace")
        back = read_trace(tmp_path / "rep001.trace", digest, ex1_cfg.selection, ex1_cfg.world, cfg)
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

    @pytest.mark.parametrize("check", [-1, 3, True, 1.0])
    def test_identity_check_state_is_a_state(self, ex1_cfg, check):
        tr = small_run(ex1_cfg, horizon=10)
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(tr, ex1_cfg.world, 0, 10, check)
        assert str(info.value) == (f"check_state {check} outside 0..2" if type(check) is int
                                   else f"check_state must be an integer, got {check!r}")

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

    def test_identity_rejects_a_trace_of_another_world(self, ex1_cfg):
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(nine_agent_run(ex1_cfg), ex1_cfg.world, 8, 50, 1)
        assert str(info.value) == "inconsistent sizes: world_agents=8, trace_agents=9"
        four_states = tiny_world([[[0.5, 0.5]] * 4] * 8)
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(small_run(ex1_cfg, horizon=10), four_states, 0, 10, 1)
        assert str(info.value) == "inconsistent sizes: world_states=4, trace_states=3"

    def test_identity_faults_name_the_agent_time_and_state(self):
        world = tiny_world([[[1.0, 0.0], [0.5, 0.5]]] * 2)  # signal 1 is impossible under the truth
        logb = np.zeros((4, 2, 2))
        logb[3, 1, 0] = -np.inf
        tr = SimulationTrace(np.zeros((4, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64), (0, 1, 2, 3), logb)
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(tr, world, 1, 3, 1)
        assert str(info.value) == ("agent 2 at t=3, check state 2: belief has zero mass on the true state; "
                                   "ratio undefined")
        tr = dataclasses.replace(tr, signals=np.ones((4, 2), dtype=np.int64))
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(tr, world, 0, 2, 1)
        assert str(info.value) == ("agent 1 at t=2, check state 2: a walk signal has zero likelihood under "
                                   "the true state")

    def test_identity_rejects_a_signal_outside_the_world(self, ex1_cfg):
        # read_trace's signal rule, round and 1-based agent named as it names them
        tr = small_run(ex1_cfg, horizon=20)
        signals = tr.signals.copy()
        signals[10, 0] = 5
        with pytest.raises(ValidationError) as info:
            verify_walk_identity(dataclasses.replace(tr, signals=signals), ex1_cfg.world, 0, 10, 1)
        assert str(info.value) == "t=10, agent 1: signal 5 outside the agent's signals 0..1"

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
        assert tr.snapshot_times.tolist() == [0, 6, 12, 18, 20]
        assert tr.log_beliefs.shape == (5, 8, 3)
        assert np.array_equal(tr.log_belief_at(18), tr.log_beliefs[3])
        for t in (17, -1, 21):
            with pytest.raises(ValidationError, match="record_beliefs_every"):
                tr.log_belief_at(t)

    @pytest.mark.parametrize("t", ["3", 3.0, True, None])
    def test_log_belief_at_takes_an_integer_time(self, ex1_cfg, t):
        tr = small_run(ex1_cfg, horizon=5)
        with pytest.raises(ValidationError) as info:
            tr.log_belief_at(t)
        assert str(info.value) == f"time must be an integer, got {t!r}"
        assert np.array_equal(tr.log_belief_at(np.int64(3)), tr.log_beliefs[3])

    def test_snapshot_times_are_one_shared_read_only_int64_array(self, ex1_cfg):
        cfg = SimulationConfig(horizon=30, seed=3, record_beliefs_every=4, replications=3)
        traces = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, cfg)
        times = traces[0].snapshot_times
        assert isinstance(times, np.ndarray) and times.dtype == np.int64 and not times.flags.writeable
        assert all(tr.snapshot_times is times for tr in traces)
        assert times.tolist() == cfg.snapshot_times().tolist()
        assert not cfg.snapshot_times().flags.writeable

    def test_a_trace_holds_its_snapshot_times_as_a_read_only_int64_array(self):
        draws = {"signals": np.zeros((6, 1), dtype=np.int64), "selections": np.zeros((5, 1), dtype=np.int64)}
        tr = SimulationTrace(**draws, snapshot_times=(0, 3, 5), log_beliefs=np.zeros((3, 1, 2)))
        assert tr.snapshot_times.dtype == np.int64 and not tr.snapshot_times.flags.writeable
        assert tr.snapshot_times.tolist() == [0, 3, 5]
        # a caller's writable array is copied, not frozen under the caller
        mine = np.array([0, 3, 5])
        tr = SimulationTrace(**draws, snapshot_times=mine, log_beliefs=np.zeros((3, 1, 2)))
        assert tr.snapshot_times is not mine and mine.flags.writeable and not tr.snapshot_times.flags.writeable
        # narrower integers are read as int64
        tr = SimulationTrace(**draws, snapshot_times=np.array([0, 3, 5], dtype=np.uint8),
                             log_beliefs=np.zeros((3, 1, 2)))
        assert tr.snapshot_times.dtype == np.int64

    @pytest.mark.parametrize("times, message", [
        ((0, 5, 3), "snapshot_times must ascend strictly inside 0..5; snapshot_times[2] is 3"),
        ((0, 3, 3), "snapshot_times must ascend strictly inside 0..5; snapshot_times[2] is 3"),
        ((0, 9, 40), "snapshot_times must ascend strictly inside 0..5; snapshot_times[1] is 9"),
        ((-3, 1, 2), "snapshot_times must ascend strictly inside 0..5; snapshot_times[0] is -3"),
        ((0.5, 2.7, 4.2), "snapshot_times must be a 1-D sequence of integers, got (0.5, 2.7, 4.2)"),
        ((0, 2.0, 4), "snapshot_times must be a 1-D sequence of integers, got (0, 2.0, 4)"),
        ((0, True, 4), "snapshot_times must be a 1-D sequence of integers, got (0, True, 4)"),
        (((0,), (2,), (4,)), "snapshot_times must be a 1-D sequence of integers, got ((0,), (2,), (4,))"),
    ])
    def test_trace_rejects_snapshot_times_that_are_not_ascending_rounds(self, times, message):
        with pytest.raises(ValidationError) as info:
            SimulationTrace(signals=np.zeros((6, 2), dtype=np.int64), selections=np.zeros((5, 2), dtype=np.int64),
                            snapshot_times=times, log_beliefs=np.zeros((3, 2, 2)))
        assert str(info.value) == message

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

    @pytest.mark.parametrize("field, dtype", [
        ("signals", np.float64), ("selections", np.float64), ("signals", np.bool_), ("selections", object),
    ])
    def test_trace_rejects_draws_that_are_not_integers(self, field, dtype):
        draws = {"signals": np.zeros((4, 2), dtype=np.int64), "selections": np.zeros((3, 2), dtype=np.int64)}
        draws[field] = draws[field].astype(dtype)
        with pytest.raises(ValidationError) as info:
            SimulationTrace(**draws, snapshot_times=(0, 3), log_beliefs=np.zeros((2, 2, 2)))
        assert str(info.value) == f"{field} has dtype {np.dtype(dtype)}, expected integers"

    @pytest.mark.parametrize("chosen", [-1, 8, 9])
    def test_trace_rejects_a_choice_outside_its_agents(self, chosen):
        selections = np.zeros((3, 8), dtype=np.int64)
        selections[1, 5] = chosen
        with pytest.raises(ValidationError) as info:
            SimulationTrace(np.zeros((4, 8), dtype=np.int64), selections, (0, 3), np.zeros((2, 8, 3)))
        assert str(info.value) == f"t=2, agent 6: chosen agent {chosen + 1} outside agents 1..8"

    def test_trace_rejects_a_negative_signal(self):
        signals = np.zeros((4, 2), dtype=np.int8)
        signals[3, 1] = -2
        with pytest.raises(ValidationError) as info:
            SimulationTrace(signals, np.zeros((3, 2), dtype=np.int8), (0, 3), np.zeros((2, 2, 2)))
        assert str(info.value) == "t=3, agent 2: signal -2 is negative"

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float16, object])
    def test_trace_rejects_log_beliefs_that_are_not_float64(self, dtype):
        with pytest.raises(ValidationError) as info:
            SimulationTrace(np.zeros((4, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64), (0, 3),
                            np.zeros((2, 2, 2), dtype=dtype))
        assert str(info.value) == f"log_beliefs has dtype {np.dtype(dtype)}, expected float64"

    def test_trace_rejects_log_beliefs_without_a_state_axis(self):
        with pytest.raises(ValidationError) as info:
            SimulationTrace(np.zeros((4, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64), (0, 3),
                            np.zeros((2, 2)))
        assert str(info.value) == "log_beliefs has shape (2, 2), expected (2, 2, num_states)"

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.uint16])
    def test_trace_takes_draws_of_any_integer_dtype(self, dtype):
        tr = SimulationTrace(signals=np.zeros((4, 2), dtype=dtype), selections=np.ones((3, 2), dtype=dtype),
                             snapshot_times=(0, 3), log_beliefs=np.zeros((2, 2, 2)))
        assert backward_walk(tr, 0, 3).tolist() == [0, 1, 1, 1]


# ---- reference oracle: the batched round kernel against a per-agent loop ----


def _reference_posterior(log_prior, log_col):
    """One agent's update, written out per vector."""
    y = log_prior + log_col
    m = np.max(y)
    assert m != -np.inf and not np.isnan(m)
    if log_col[0] != -np.inf and np.all(log_col == log_col[0]):
        return log_prior.copy()
    d = y - m
    total = 0.0  # the states added left to right
    for x in np.exp(d):
        total += x
    return d - np.log(total)


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


def assert_matches_reference(net, P, world, cfg):
    traces = run_replications(net, P, world, cfg)
    assert len(traces) == cfg.replications
    for r, tr in enumerate(traces):
        signals, selections, snapshots = reference_run(net, P, world, cfg, r)
        assert np.array_equal(tr.signals, signals)
        assert np.array_equal(tr.selections, selections)
        assert tr.snapshot_times.tolist() == list(snapshots)
        for m, t in enumerate(tr.snapshot_times):
            assert np.array_equal(tr.log_beliefs[m], snapshots[t])
        assert np.isfinite(tr.log_beliefs[..., world.true_state_index]).all()


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
    assert_matches_reference(*case, SimulationConfig(horizon, seed, stride, replications))


@pytest.mark.parametrize("k", [9, 16, 40])
def test_a_lone_agent_run_matches_the_reference(k):
    # one agent in one replication makes each state-major buffer (k, 1), whose
    # rows numpy's add.reduce sums pairwise
    rng = np.random.default_rng(k)
    world = tiny_world([rng.dirichlet(np.ones(3), size=k).tolist()])
    net = DirectedNetwork(1, [])
    assert_matches_reference(net, uniform_selection_matrix(net), world, SimulationConfig(horizon=50, seed=k))


@settings(max_examples=100, deadline=None)
@given(
    case=small_worlds(),
    horizon=st.integers(1, 25),
    stride=st.integers(1, 5),
    replications=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    block_rows=st.integers(1, 12),
)
def test_batched_run_matches_per_agent_reference_across_blocks(case, horizon, stride, replications, seed,
                                                               block_rows):
    # blocks of a few agent-rows split runs mid-way, put round 0 in a block
    # with later rounds and put strided snapshots on block edges
    with mock.patch.object(simulator, "BLOCK_AGENT_ROWS", block_rows):
        assert_matches_reference(*case, SimulationConfig(horizon, seed, stride, replications))


@settings(max_examples=100, deadline=None)
@given(
    case=small_worlds(),
    horizon=st.integers(1, 25),
    replications=st.sampled_from([1, 3]),
    rounds=st.integers(2, 6),
    seed=st.integers(0, 2**32),
)
def test_block_draws_equal_one_call_per_stream(case, horizon, replications, rounds, seed):
    # blocks of a few rounds that leave a shorter last block, each drawing its
    # uniforms stream by stream, give every stream's draws from one call
    assume((horizon + 1) % rounds)
    net, P, world = case
    with mock.patch.object(simulator, "BLOCK_AGENT_ROWS", rounds * replications * net.n):
        traces = run_replications(net, P, world, SimulationConfig(horizon, seed, replications=replications))
    sig_ptr, sig_values, sig_probs = nonzero_csr(world.tables[:, world.true_state_index])
    sig_cdf, sel_cdf = _row_cdfs(sig_ptr, sig_probs), _row_cdfs(P.indptr, P.probs)
    for r, tr in enumerate(traces):
        sig_ss, sel_ss = np.random.SeedSequence(seed, spawn_key=(r,)).spawn(2)
        u_sig = np.random.Generator(np.random.Philox(sig_ss)).random((horizon + 1, net.n))
        u_sel = np.random.Generator(np.random.Philox(sel_ss)).random((horizon, net.n))
        assert np.array_equal(tr.signals, _inverse_cdf(sig_ptr, sig_values, sig_cdf, u_sig))
        assert np.array_equal(tr.selections, _inverse_cdf(P.indptr, P.indices, sel_cdf, u_sel))


def test_example1_run_holds_little_beyond_its_traces(ex1_cfg):
    """tracemalloc's peak over example1's run_replications (20 x 5000 rounds
    of 8 agents) stays within 2 MiB of the traces' own arrays at one byte a
    draw: no draw is held wider, and a block's buffers are small."""
    run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, SimulationConfig(horizon=1, seed=0))  # world caches
    tracemalloc.start()
    try:
        traces = run_replications(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, ex1_cfg.simulation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(tr.log_beliefs.nbytes + tr.signals.size + tr.selections.size for tr in traces)
    assert peak <= held + 2 * 2**20, (peak, held)


@settings(max_examples=60, deadline=None)
@given(case=small_worlds(), horizon=st.integers(1, 25), seed=st.integers(0, 2**32), data=st.data())
def test_walk_identity_holds_on_random_worlds(case, horizon, seed, data):
    net, P, world = case
    tr = run(net, P, world, SimulationConfig(horizon=horizon, seed=seed))
    i = data.draw(st.integers(0, net.n - 1))
    t = data.draw(st.integers(0, horizon))
    check = data.draw(st.integers(0, world.num_states - 1))
    assert verify_walk_identity(tr, world, i, t, check) <= 1e-8


SIGNED = [np.int8, np.int16, np.int64]
TRACE_FAULTS = {
    "negative signal": lambda t, i, n: f"t={t}, agent {i + 1}: signal -1 is negative",
    "choice -1": lambda t, i, n: f"t={t}, agent {i + 1}: chosen agent 0 outside agents 1..{n}",
    "choice n": lambda t, i, n: f"t={t}, agent {i + 1}: chosen agent {n + 1} outside agents 1..{n}",
    "int64 log beliefs": lambda t, i, n: "log_beliefs has dtype int64, expected float64",
    "float32 log beliefs": lambda t, i, n: "log_beliefs has dtype float32, expected float64",
}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), horizon=st.integers(1, 8), k=st.integers(1, 3), seed=st.integers(0, 2**32),
       fault=st.sampled_from([None, *TRACE_FAULTS]), data=st.data())
def test_a_trace_names_the_one_fault_in_its_arrays(n, horizon, k, seed, fault, data):
    """A hand-built trace with one injected fault raises a ValidationError
    naming it, with round t and 1-based agent for a draw; without one it is
    accepted, and every walk stays on its agents."""
    negative = fault in ("negative signal", "choice -1")
    dtype = data.draw(st.sampled_from(SIGNED if negative else [*SIGNED, np.uint8, np.uint16]))
    rng = np.random.default_rng(seed)
    signals = rng.integers(0, 4, (horizon + 1, n)).astype(dtype)
    selections = rng.integers(0, n, (horizon, n)).astype(dtype)
    log_beliefs = rng.standard_normal((2, n, k))
    i = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0 if fault == "negative signal" else 1, horizon))
    if fault == "negative signal":
        signals[t, i] = -1
    elif fault in ("choice -1", "choice n"):
        selections[t - 1, i] = -1 if fault == "choice -1" else n
    elif fault is not None:
        log_beliefs = log_beliefs.astype(np.int64 if fault.startswith("int64") else np.float32)
    if fault is None:
        tr = SimulationTrace(signals, selections, (0, horizon), log_beliefs)
        walk = backward_walk(tr, i, t)
        assert 0 <= walk.min() and walk.max() < n
        return
    with pytest.raises(ValidationError) as info:
        SimulationTrace(signals, selections, (0, horizon), log_beliefs)
    assert str(info.value) == TRACE_FAULTS[fault](t, i, n)
