"""Seeded protocol execution with full trace capture.

Each round every agent draws a private signal and one neighbor index from her
selection row, then refines the neighbor's previous-round belief with her own
likelihood (synchronous rounds: all agents read round t-1, all write round t).
Randomness comes from the counter-based Philox generator; per-replication
streams are derived from the master seed with SeedSequence spawn keys, one
stream for signals and one for selections, so traces are reproducible
bit-for-bit across runs and platforms.

All draws are made before the first round, for every agent at once: each
agent's signal distribution (the positive entries of its true-state
likelihood row) and its selection row are CSR rows, and a draw inverts the
running sum of the row's entries at a uniform, by one binary search that
halves every row's range at each step. The rounds then run as one array
update per round over every agent of every replication at once: gather the
chosen neighbors' previous beliefs from an (R, n, k) array, add the agents'
log-likelihood columns for their signals, normalize.

A trace holds what its file stores and nothing else: the signals, the
selections, the snapshot times, and the belief snapshots as one read-only
(m, n, k) array aligned with the m snapshot times. What belongs to the run
rather than to one replication (its seed, the fingerprints of its world and
selection matrix) lives in the run's manifest. A trace is stored as one
.npz file holding those four arrays as np.savez writes them: the log
beliefs themselves, so a read gives back every bit,
-inf and subnormals included. Zip entries carry a fixed 1980 timestamp, so
the same trace always gives the same bytes. A read checks the file's
SHA-256 before it loads it, never unpickles, and checks every array against
the run the caller expects.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .arrays import ArrayValue, read_only, rows_by_length
from .belief import bayes_log_posterior
from .errors import ValidationError, check_index
from .graph import DirectedNetwork, SelectionMatrix, check_selection_support, csr_contains, nonzero_csr
from .world import WorldModel

WALK_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class SimulationConfig:
    """Run shape: rounds, master seed, belief-snapshot stride, replication
    count. Each is an integer (a numpy integer is stored as an int; a bool is
    not an integer)."""

    horizon: int
    seed: int
    record_beliefs_every: int = 1
    replications: int = 1

    def __post_init__(self):
        for name in ("horizon", "seed", "record_beliefs_every", "replications"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must fit in 64 unsigned bits (0 <= seed < 2**64), got {self.seed}")
        if self.record_beliefs_every < 1:
            raise ValidationError("record_beliefs_every must be >= 1")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")

    def snapshot_times(self) -> tuple[int, ...]:
        times = set(range(0, self.horizon + 1, self.record_beliefs_every))
        times.add(self.horizon)
        return tuple(sorted(times))


@dataclass(frozen=True, eq=False)
class SimulationTrace(ArrayValue):
    """One replication's backward random walk and the beliefs built along
    it: exactly the four arrays a trace file stores. The agent count and the
    horizon are read from the arrays' shapes."""

    signals: np.ndarray  # (horizon+1, n); signals[t, i] is agent i's round-t draw
    selections: np.ndarray  # (horizon, n); row t-1 holds the round-t choices
    snapshot_times: tuple[int, ...]  # ascending
    log_beliefs: np.ndarray  # (len(snapshot_times), n, num_states); row m is time snapshot_times[m]

    def __post_init__(self):
        if self.signals.ndim != 2 or self.selections.shape != (self.horizon, self.n):
            raise ValidationError(
                f"selections has shape {self.selections.shape} and signals {self.signals.shape}, "
                "expected (horizon, n) and (horizon + 1, n)"
            )
        if self.log_beliefs.shape[:2] != (len(self.snapshot_times), self.n):
            raise ValidationError(
                f"log_beliefs has shape {self.log_beliefs.shape}, expected "
                f"({len(self.snapshot_times)}, {self.n}, num_states)"
            )

    @property
    def n(self) -> int:
        return self.signals.shape[1]

    @property
    def horizon(self) -> int:
        return self.signals.shape[0] - 1

    def log_belief_at(self, t: int) -> np.ndarray:
        """The (n, num_states) log beliefs at snapshot time t."""
        m = bisect.bisect_left(self.snapshot_times, t)
        if m == len(self.snapshot_times) or self.snapshot_times[m] != t:
            raise ValidationError(
                f"no belief snapshot at t={t}; recorded times follow the "
                "record_beliefs_every stride (plus the final round)"
            )
        return self.log_beliefs[m]


def world_fingerprint(world: WorldModel) -> str:
    """SHA-256 of the state labels, the true state, the prior, and then per
    agent the repr of its table's shape followed by the table, little-endian
    float64, row-major."""
    h = hashlib.sha256()
    h.update(repr([str(s) for s in world.state_space.states]).encode())
    h.update(str(world.true_state_index).encode())
    h.update(world.prior.nu.astype("<f8").tobytes())
    for i in range(world.n_agents):
        table = world.likelihood(i)
        h.update(repr(table.shape).encode())
        h.update(table.astype("<f8").tobytes())
    return h.hexdigest()


def matrix_fingerprint(P: SelectionMatrix) -> str:
    """SHA-256 of P in CSR form: n, indptr, indices and probs, as
    little-endian int64, int64, int64, float64."""
    h = hashlib.sha256(np.array([P.n], dtype="<i8").tobytes())
    h.update(P.indptr.astype("<i8").tobytes())
    h.update(P.indices.astype("<i8").tobytes())
    h.update(P.probs.astype("<f8").tobytes())
    return h.hexdigest()


def _inverse_cdf_draws(indptr: np.ndarray, indices: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column i of the result holds draws from row i of a CSR distribution,
    one per uniform in u[:, i], made by inverting the CDF of the row's stored
    entries, which must all be positive. Every row is searched at once."""
    cdf = np.empty(len(probs))
    for d, rows in rows_by_length(np.diff(indptr)):
        slots = indptr[rows, None] + np.arange(d)
        # a running sum along a row is sequential, so each CDF has the bits
        # of the row's own 1-D cumsum
        cdf[slots] = np.cumsum(probs[slots], axis=1)
    last = indptr[1:] - 1
    # binary search, one halving step for every row at a time: at stands
    # after the row's CDF entries known to be <= u. A probe past the row
    # reads its last entry, so at can pass the row's end only when every
    # entry is <= u.
    at = np.repeat(indptr[None, :-1], len(u), axis=0)
    step = 1 << (int(np.diff(indptr).max()).bit_length() - 1)
    while step:
        probe = at + (step - 1)
        np.minimum(probe, last, out=probe)
        at += step * (cdf[probe] <= u)
        step >>= 1
    # the draw is the entry at that position, or the last entry where every
    # entry is <= u: rounding can leave a CDF's last value below 1, and a u
    # above it draws the last entry, never one that is not stored
    return indices[np.minimum(at, last)]


def _check_consistent(net: DirectedNetwork, P: SelectionMatrix, world: WorldModel) -> None:
    if not (net.n == P.n == world.n_agents):
        raise ValidationError(
            f"inconsistent sizes: network n={net.n}, selection matrix n={P.n}, "
            f"world has {world.n_agents} likelihood tables"
        )
    check_selection_support(net, P)


def _draw(
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
    replication: int,
    signals: np.ndarray,
    selections: np.ndarray,
) -> None:
    """Fill one replication's (T+1, n) signals and (T, n) selections."""
    root = np.random.SeedSequence(cfg.seed, spawn_key=(replication,))
    sig_ss, sel_ss = root.spawn(2)
    rng_sig = np.random.Generator(np.random.Philox(sig_ss))
    rng_sel = np.random.Generator(np.random.Philox(sel_ss))

    # a world's tables are non-negative, so the nonzero entries are the positive ones
    theta = world.true_state_index
    signals[:] = _inverse_cdf_draws(*nonzero_csr(world.tables[:, theta]), rng_sig.random(signals.shape))
    selections[:] = _inverse_cdf_draws(P.indptr, P.indices, P.probs, rng_sel.random(selections.shape))


def _simulate(
    net: DirectedNetwork,
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
    replications: Sequence[int],
) -> list[SimulationTrace]:
    """Execute the given replications together and record their traces."""
    _check_consistent(net, P, world)
    T, n, R = cfg.horizon, net.n, len(replications)

    signals = np.empty((R, T + 1, n), dtype=np.int64)
    selections = np.empty((R, T, n), dtype=np.int64)
    for b, r in enumerate(replications):
        _draw(P, world, cfg, r, signals[b], selections[b])

    cols = world.log_columns  # (n, S_max, k)
    agents = np.arange(n)
    reps = np.arange(R)[:, None]
    times = cfg.snapshot_times()  # starts at 0, ends at T
    snapshots = np.empty((R, len(times), n, world.num_states))

    current = bayes_log_posterior(world.prior.log_nu, cols[agents, signals[:, 0]])
    snapshots[:, 0] = current
    slot = 1
    for t in range(1, T + 1):
        neighbor = current[reps, selections[:, t - 1]]
        current = bayes_log_posterior(neighbor, cols[agents, signals[:, t]])
        if t == times[slot]:
            snapshots[:, slot] = current
            slot += 1

    for arr in (signals, selections, snapshots):
        read_only(arr)
    return [SimulationTrace(signals[b], selections[b], times, snapshots[b]) for b in range(R)]


def run(
    net: DirectedNetwork,
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
    replication: int = 0,
) -> SimulationTrace:
    """Execute one seeded replication and record its trace."""
    return _simulate(net, P, world, cfg, [replication])[0]


def run_replications(
    net: DirectedNetwork,
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
) -> list[SimulationTrace]:
    """All replications of a config, each on an independently derived stream,
    simulated together."""
    return _simulate(net, P, world, cfg, range(cfg.replications))


def backward_walk(trace: SimulationTrace, i: int, t: int) -> np.ndarray:
    """Unroll neighbor choices from (i, t) back to round 1: the node sequence
    whose signals the agent's belief is built from."""
    check_index("agent", i, trace.n)
    check_index("time", t, trace.horizon + 1)
    walk = np.empty(t + 1, dtype=np.int64)
    walk[0] = i
    cur = i
    sel = trace.selections
    for k in range(1, t + 1):
        cur = sel[t - k, cur]  # round t-k+1 choice of the walk's current node
        walk[k] = cur
    return walk


def verify_walk_identity(
    trace: SimulationTrace,
    world: WorldModel,
    i: int,
    t: int,
    check_state: int,
) -> float:
    """|stored log belief ratio - telescoped signal log-likelihood ratios|.

    The ratio of an agent's time-t belief between a false state and the truth
    telescopes into her own round-t signal term, the prior ratio, and one
    signal term per backward-walk step. Returns the absolute residual;
    exact -inf on both sides counts as a match (residual 0).
    """
    check_index("check_state", check_state, world.num_states)
    theta = world.true_state_index
    snap = trace.log_belief_at(t)
    if snap[i, theta] == -np.inf:
        raise ValidationError("belief has zero mass on the true state; ratio undefined")
    lhs = snap[i, check_state] - snap[i, theta]

    # one signal term per walk node, own round-t term first, summed left to
    # right after the prior ratio
    walk = backward_walk(trace, i, t)
    sigs = trace.signals[t - np.arange(t + 1), walk]
    cols = world.log_columns
    terms = cols[walk, sigs, check_state] - cols[walk, sigs, theta]
    prior_ratio = world.prior.log_nu[check_state] - world.prior.log_nu[theta]
    rhs = float(np.cumsum(np.concatenate(([prior_ratio], terms)))[-1])

    if np.isnan(rhs) or rhs == np.inf:
        raise ValidationError("a walk signal has zero likelihood under the true state")
    if lhs == -np.inf or rhs == -np.inf:
        if lhs == rhs:
            return 0.0
        raise ValidationError(
            f"one side is -inf and the other is not: stored {lhs!r}, telescoped {rhs!r}"
        )
    return float(abs(lhs - rhs))


# the arrays of a trace file, each as a trace holds it
TRACE_ARRAYS = ("signals", "selections", "snapshot_times", "log_beliefs")


def write_trace(trace: SimulationTrace, path: str | Path) -> str:
    """Write the trace's arrays to one .npz file with np.savez and return
    the SHA-256 of the bytes written."""
    with Path(path).open("w+b") as fh:
        np.savez(fh, signals=trace.signals, selections=trace.selections,
                 snapshot_times=np.array(trace.snapshot_times, dtype=np.int64), log_beliefs=trace.log_beliefs)
        fh.seek(0)
        h = hashlib.sha256()
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def read_trace(
    path: str | Path,
    sha256: str,
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
) -> SimulationTrace:
    """Load a trace that write_trace wrote for this selection matrix, world
    and run config.

    The file's bytes must have the given SHA-256, and it must hold exactly
    the four trace arrays, with no pickled objects. Each array must have
    the dtype and shape the config implies, the snapshot times must be the
    config's, every signal must lie in its agent's signal space and every
    choice in the support of its agent's selection row. Anything else
    raises ValidationError naming the file, and the round t and 1-based
    agent where they apply.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such trace file") from None
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        raise ValidationError(f"{path}: SHA-256 is {digest}, but {sha256} was recorded for it")
    try:
        npz = np.load(io.BytesIO(data), allow_pickle=False)
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a readable .npz file: {exc}") from None
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path}: not an .npz archive")
    if sorted(npz.files) != sorted(TRACE_ARRAYS):
        raise ValidationError(f"{path}: holds arrays {sorted(npz.files)}, expected {sorted(TRACE_ARRAYS)}")
    arrays = {}
    for name in TRACE_ARRAYS:
        try:
            arrays[name] = npz[name]
        except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"{path}: {name}: {exc}") from None

    n, k, T = world.n_agents, world.num_states, cfg.horizon
    times = cfg.snapshot_times()
    m = len(times)
    expected = {
        "signals": ("<i8", (T + 1, n), f"rounds 0..{T} of {n} agents"),
        "selections": ("<i8", (T, n), f"rounds 1..{T} of {n} agents"),
        "snapshot_times": ("<i8", (m,), f"{m} snapshot times"),
        "log_beliefs": ("<f8", (m, n, k), f"{m} snapshots of {n} agents over {k} states"),
    }
    for name, (dtype, _, _) in expected.items():
        if arrays[name].dtype != dtype:
            raise ValidationError(f"{path}: {name} has dtype {arrays[name].dtype}, expected {np.dtype(dtype)}")

    def check_shape(name: str) -> None:
        _, shape, what = expected[name]
        if arrays[name].shape != shape:
            raise ValidationError(f"{path}: {name} has shape {arrays[name].shape}, expected {shape}: {what}")

    check_shape("signals")
    check_shape("selections")
    stored = arrays["snapshot_times"].ravel().tolist()
    if stored != list(times):
        diff = set(times) ^ set(stored)
        if not diff:
            raise ValidationError(f"{path}: snapshot_times are not the config's times in ascending order, each once")
        t = min(diff)
        what = "has no snapshot" if t in times else "has a snapshot the config does not record"
        raise ValidationError(f"{path}: snapshot_times {what} at t={t}")
    check_shape("snapshot_times")
    check_shape("log_beliefs")

    signals = arrays["signals"]
    sizes = world.signal_counts
    bad = (signals < 0) | (signals >= sizes)
    if bad.any():
        t, i = divmod(int(np.argmax(bad)), n)
        raise ValidationError(
            f"{path}: t={t}, agent {i + 1}: signal {signals[t, i]} outside the agent's signals 0..{sizes[i] - 1}"
        )
    selections = arrays["selections"]
    chosen = np.clip(selections, 0, n - 1)
    bad = (selections != chosen) | ~csr_contains(P.indptr, P.indices, np.arange(n), chosen)
    if bad.any():
        r, i = divmod(int(np.argmax(bad)), n)
        raise ValidationError(
            f"{path}: t={r + 1}, agent {i + 1}: chosen agent {selections[r, i] + 1} is outside "
            "the support of the agent's selection row"
        )

    return SimulationTrace(read_only(signals), read_only(selections), times, read_only(arrays["log_beliefs"]))


