"""Seeded protocol execution with full trace capture.

Each round every agent draws a private signal and one neighbor index from her
selection row, then refines the neighbor's previous-round belief with her own
likelihood (synchronous rounds: all agents read round t-1, all write round t).
Randomness comes from the counter-based Philox generator; per-replication
streams are derived from the master seed with SeedSequence spawn keys, one
stream for signals and one for selections, so the draws are the same on
every machine. The belief bits are the same on one machine, not across CPUs:
numpy's SIMD exp and log, and the OpenBLAS kernel of the stationary solve
and the rate fit's dot product, round some inputs differently on another.

A simulation makes two passes, over chunks and then blocks of rounds of at
most BLOCK_AGENT_ROWS agent-rows, so its arrays stay small at any horizon.
The first draws every signal and selection: each replication's signal
stream, then its selection stream, in chunks of rounds of that replication,
each chunk's uniforms by one call into one float64 buffer reused by every
chunk and stream (consecutive calls continue a Philox stream, so each
uniform is the one a single call over all rounds would give), and turned
into draws by one inversion. Each agent's signal distribution (the positive
entries of its true-state likelihood row) and its selection row are CSR
rows whose CDFs are built once per run, and a draw inverts a row's CDF at a
uniform, by one binary search over the row's first d - 1 entries (the last
is drawn when every other is at or below the uniform) that halves every
row's range at each step.

The second pass runs the rounds and hands each block's belief snapshots to
its consumer as they are made, so a run need not hold every snapshot at
once: simulate returns the draws with that pass yet to run, run_replications
keeps every snapshot, and the command line writes each block to the trace
files and keeps only what it fits. Each round is one update over every agent
of every replication at once, in preallocated state-major (k, R * n)
buffers: row s holds state s of every agent-row, so each step over the
states is k - 1 elementwise operations on rows of R * n values. A round
gathers the chosen neighbors' previous beliefs, adds the agents'
log-likelihood columns for their signals, normalizes, and keeps the
neighbor's belief where the column is constant, through a keep mask made
once a block. These are belief.bayes_log_posterior's operations in its
order, so a replay one vector at a time gives the same bits: a maximum is
exact in any order, and the state rows add in order, as
arrays.sum_left_to_right sums a belief.

A trace holds the values its file stores and nothing else: the signals, the
selections, the snapshot times as one read-only int64 array (the config's
one schedule, which a run's traces share), and the belief snapshots as one
read-only (m, n, k) array aligned with them. It holds the signals and
selections in the narrowest unsigned dtype that holds every signal or agent
index of its world (uint8 up to 256 signals or agents), and the file stores
them in that dtype. What belongs to the run rather than to one replication
(its seed, the fingerprints of its world and selection matrix) lives in the
run's manifest. A trace is stored as one .trace file, written by the one
TraceWriter: its four arrays back to back, each an NPY 1.0 header and its
values in C order (the bytes np.save writes for each), the log beliefs
themselves, so a read gives back every bit, -inf and subnormals included.
The file holds no timestamp, so the same trace always gives the same bytes.
The writer hashes each byte as it goes out, and a read hashes each byte as
it comes in, in one pass over the file: it checks each array's header
before it makes the array, reads the array's bytes straight into it, and
names a SHA-256 mismatch before any other fault. It never unpickles.
"""

from __future__ import annotations

import hashlib
import tokenize
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .arrays import ArrayValue, int_array, read_only, rows_by_length, sum_left_to_right
from .belief import constant_columns
from .errors import ValidationError, check_index, check_integer, check_sizes
from .graph import DirectedNetwork, SelectionMatrix, check_selection_support, csr_contains, nonzero_csr
from .world import WorldModel

# a draw chunk holds this many agent-rows of one replication, and a block of
# the round loop this many of all (replications x agents x rounds), or one
# round where a round holds more. A block's index arrays then stay at 64 KB,
# below glibc's 128 KB mmap threshold, and its keep mask at k bytes an
# agent-row: at 2**16 rows, example1's peak RSS rose by 2.4 MB after one run
# and 4.4 MB after two, and 2**13 rows run it within 5% of that speed
BLOCK_AGENT_ROWS = 1 << 13

# the most rounds a run may have: its snapshot times, up to horizon + 1
# int64 values, fit in one numpy array
MAX_HORIZON = np.iinfo(np.intp).max // 8 - 1


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
            check_integer(name, getattr(self, name))
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if self.horizon > MAX_HORIZON:
            raise ValidationError(f"horizon must be <= {MAX_HORIZON}, so that one int64 array holds its snapshot "
                                  f"times, got {self.horizon}")
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must fit in 64 unsigned bits (0 <= seed < 2**64), got {self.seed}")
        if self.record_beliefs_every < 1:
            raise ValidationError("record_beliefs_every must be >= 1")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")

    def snapshot_times(self) -> np.ndarray:
        """The snapshot times as a read-only int64 array: every
        record_beliefs_every-th round from 0, and the horizon, ascending."""
        return read_only(np.append(np.arange(0, self.horizon, self.record_beliefs_every, dtype=np.int64),
                                   self.horizon))


@dataclass(frozen=True, eq=False)
class SimulationTrace(ArrayValue):
    """One replication's backward random walk and the beliefs built along
    it: the values of exactly the four arrays a trace file stores. The draws
    may be of any integer dtype, each a valid index (a signal >= 0, a choice
    in 0..n-1); a run, a file and a read hold them in draw_dtypes. The
    snapshot times ascend strictly inside 0..horizon, held as a read-only
    int64 array (shared where given as one). The log beliefs are float64.
    The agent count and the horizon are read from the arrays' shapes."""

    signals: np.ndarray  # (horizon+1, n); signals[t, i] is agent i's round-t draw
    selections: np.ndarray  # (horizon, n); row t-1 holds the round-t choices
    snapshot_times: np.ndarray  # (m,) int64, read-only
    log_beliefs: np.ndarray  # (len(snapshot_times), n, num_states); row m is time snapshot_times[m]

    def __post_init__(self):
        for name, draws in (("signals", self.signals), ("selections", self.selections)):
            if draws.dtype.kind not in "iu":
                raise ValidationError(f"{name} has dtype {draws.dtype}, expected integers")
        if self.signals.ndim != 2 or self.selections.shape != (self.horizon, self.n):
            raise ValidationError(
                f"selections has shape {self.selections.shape} and signals {self.signals.shape}, "
                "expected (horizon, n) and (horizon + 1, n)"
            )
        times = int_array(self.snapshot_times)
        if times is None or times.ndim != 1:
            raise ValidationError(f"snapshot_times must be a 1-D sequence of integers, got {self.snapshot_times!r}")
        bad = np.append(times[:1] < 0, times[1:] <= times[:-1]) | (times > self.horizon)  # bools: no int64 temporary
        if bad.any():
            m = int(np.argmax(bad))
            raise ValidationError(f"snapshot_times must ascend strictly inside 0..{self.horizon}; "
                                  f"snapshot_times[{m}] is {times[m]}")
        object.__setattr__(self, "snapshot_times", read_only(times.copy() if times.flags.writeable else times))
        if self.log_beliefs.dtype != np.float64:
            raise ValidationError(f"log_beliefs has dtype {self.log_beliefs.dtype}, expected float64")
        if self.log_beliefs.ndim != 3 or self.log_beliefs.shape[:2] != (len(self.snapshot_times), self.n):
            raise ValidationError(
                f"log_beliefs has shape {self.log_beliefs.shape}, expected "
                f"({len(self.snapshot_times)}, {self.n}, num_states)"
            )
        sig, sel, n = self.signals, self.selections, self.n
        if sig.dtype.kind == "i" and sig.min(initial=0) < 0:
            t, i = divmod(int(np.argmax(sig < 0)), n)
            raise ValidationError(f"t={t}, agent {i + 1}: signal {sig[t, i]} is negative")
        if sel.max(initial=0) >= n or (sel.dtype.kind == "i" and sel.min(initial=0) < 0):
            r, i = divmod(int(np.argmax((sel < 0) | (sel >= n))), n)
            raise ValidationError(f"t={r + 1}, agent {i + 1}: chosen agent {int(sel[r, i]) + 1} outside agents 1..{n}")

    @property
    def n(self) -> int:
        return self.signals.shape[1]

    @property
    def horizon(self) -> int:
        return self.signals.shape[0] - 1

    def log_belief_at(self, t: int) -> np.ndarray:
        """The (n, num_states) log beliefs at snapshot time t."""
        check_integer("time", t)
        m = np.searchsorted(self.snapshot_times, t)
        if m == len(self.snapshot_times) or self.snapshot_times[m] != t:
            raise ValidationError(f"no belief snapshot at t={t}; recorded times follow the "
                                  "record_beliefs_every stride (plus the final round)")
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


def _row_cdfs(indptr: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The running sum of each row of a CSR distribution, at its entries'
    positions."""
    cdf = np.empty(len(probs))
    for d, rows in rows_by_length(np.diff(indptr)):
        slots = indptr[rows, None] + np.arange(d)
        # a running sum along a row is sequential, so each CDF has the bits
        # of the row's own 1-D cumsum
        cdf[slots] = np.cumsum(probs[slots], axis=1)
    return cdf


def _inverse_cdf(indptr: np.ndarray, indices: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draws from the rows of a CSR distribution whose stored entries are all
    positive, given the rows' CDFs: entry [..., i] of the result is drawn
    from row i at the uniform u[..., i]. Every row is searched at once."""
    start, last = indptr[:-1], indptr[1:] - 1
    # binary search over a row's first d - 1 CDF entries, one halving step
    # for every row at a time: at stands after the entries known to be <= u.
    # A probe past them reads the row's last entry, so at can pass them only
    # when every entry is <= u.
    step = (1 << (int(np.diff(indptr).max()) - 1).bit_length()) >> 1
    if not step:  # every row has one entry
        return indices[np.broadcast_to(start, u.shape)]
    # every draw from a row probes the same entry first
    at = start + step * (cdf[np.minimum(start + (step - 1), last)] <= u)
    step >>= 1
    while step:
        probe = at + (step - 1)
        np.minimum(probe, last, out=probe)
        at += step * (cdf[probe] <= u)
        step >>= 1
    # the draw is the entry at that position, or the last entry where every
    # entry is <= u: rounding can leave a CDF's last value below 1, and a u
    # above it draws the last entry, never one that is not stored
    return indices[np.minimum(at, last)]


def draw_dtypes(world: WorldModel) -> tuple[np.dtype, np.dtype]:
    """The dtypes a trace holds its signals and selections in: the narrowest
    unsigned dtype holding every value the array can take, below the largest
    signal count or below the agent count. A value of such a dtype wraps
    (np.uint8(255) + 1 is 0), so arithmetic on one takes int() first."""
    return np.min_scalar_type(int(world.signal_counts.max()) - 1), np.min_scalar_type(world.n_agents - 1)


# how simulate derives each replication's two streams, as the manifest records it
SEED_DERIVATION = "SeedSequence(master_seed, spawn_key=(replication,)).spawn(2) -> Philox(signals), Philox(selections)"


def simulate(
    net: DirectedNetwork,
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
    replications: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """Draw every signal and selection of the given replications, and return
    them with the round loop that has yet to run over them.

    Returns (signals, selections, blocks): the draws of replication b are
    signals[b], of shape (horizon+1, n), and selections[b], of shape
    (horizon, n). Iterating blocks runs the rounds one block at a time and
    yields (slot, rows) for each block that holds a snapshot time: rows[b, j]
    is replication b's (n, num_states) log beliefs at
    snapshot_times[slot + j]. rows is a buffer the next block reuses, so a
    consumer copies what it keeps.

    Signals are drawn where the true state's likelihood is positive and the
    prior is positive, so the true state's log belief is always finite, and
    with it each round's maximum over the states."""
    check_sizes(network_agents=net.n, matrix_agents=P.n, world_agents=world.n_agents)
    check_selection_support(net, P)
    T, n, R = cfg.horizon, net.n, len(replications)
    sig_dtype, sel_dtype = draw_dtypes(world)
    signals = np.empty((R, T + 1, n), dtype=sig_dtype)
    selections = np.empty((R, T, n), dtype=sel_dtype)

    # a world's tables are non-negative, so the nonzero entries are the positive ones
    sig_ptr, sig_values, sig_probs = nonzero_csr(world.tables[:, world.true_state_index])
    dists = ((sig_ptr, sig_values, _row_cdfs(sig_ptr, sig_probs)), (P.indptr, P.indices, _row_cdfs(P.indptr, P.probs)))
    # one chunk's uniforms of one stream: each call continues its stream
    # where the chunk before left it
    chunk = min(max(1, BLOCK_AGENT_ROWS // n), T + 1)
    uniforms = np.empty((chunk, n))
    for b, r in enumerate(replications):
        streams = np.random.SeedSequence(cfg.seed, spawn_key=(r,)).spawn(2)
        for arr, seq, dist in zip((signals, selections), streams, dists):
            rng, draws = np.random.Generator(np.random.Philox(seq)), arr[b]
            for t0 in range(0, len(draws), chunk):
                u = uniforms[: min(chunk, len(draws) - t0)]
                rng.random(out=u)
                draws[t0 : t0 + chunk] = _inverse_cdf(*dist, u)
    for arr in (signals, selections):
        read_only(arr)
    rounds = min(max(1, BLOCK_AGENT_ROWS // (R * n)), T + 1)
    return signals, selections, _rounds(world, cfg, signals, selections, rounds)


def _rounds(
    world: WorldModel,
    cfg: SimulationConfig,
    signals: np.ndarray,
    selections: np.ndarray,
    rounds: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """The round loop of simulate, rounds rounds a block."""
    R, T1, n = signals.shape
    snapshot = np.zeros(T1, dtype=bool)  # whether each round is a snapshot time
    snapshot[cfg.snapshot_times()] = True
    N, k, S = R * n, world.num_states, world.log_columns.shape[1]
    # column b * n + i of a state-major (k, N) buffer is agent i of
    # replication b, and row s holds state s; column i * S + x of cols is
    # agent i's log-likelihood column for signal x
    flat = world.log_columns.reshape(n * S, k)
    cols = np.ascontiguousarray(flat.T)
    constant = constant_columns(flat)[:, 0]
    col_base = np.arange(n) * S
    rep_base = np.arange(R)[:, None, None] * n
    # round 0 updates the prior, which every column of the first belief holds
    cur = np.repeat(world.prior.log_nu[:, None], N, axis=1)
    nxt, gathered, col, y = (np.empty((k, N)) for _ in range(4))
    peak = np.empty(N)
    # the states add into col's first row in order (a reduce sums them pairwise where N is 1)
    total, later_states = col[0], list(col[1:])
    # a block of rounds holds at most one snapshot a round
    rows = np.empty((R, min(rounds, np.count_nonzero(snapshot)), n, k))
    slot = 0
    for t0 in range(0, T1, rounds):
        t1 = min(t0 + rounds, T1)
        s0 = max(t0, 1)
        sig_idx = (signals[:, t0:t1] + col_base).transpose(1, 0, 2).reshape(t1 - t0, N)
        nbr_idx = (selections[:, s0 - 1 : t1 - 1] + rep_base).transpose(1, 0, 2).reshape(t1 - s0, N)
        if t0 == 0:
            nbr_idx = np.vstack([np.arange(N), nbr_idx])
        # where the column is constant, every state keeps the neighbor's belief
        keep = np.repeat(constant[sig_idx][:, None], k, axis=1)
        first = slot
        # every index is in range; mode="clip" spares take a buffered copy for out=
        for nbr_t, sig_t, keep_t, snap in zip(nbr_idx, sig_idx, keep, snapshot[t0:t1].tolist()):
            cur.take(nbr_t, axis=1, out=gathered, mode="clip")
            cols.take(sig_t, axis=1, out=col, mode="clip")
            np.add(gathered, col, out=y)
            np.maximum.reduce(y, axis=0, out=peak)
            np.subtract(y, peak, out=y)
            np.exp(y, out=col)
            for row in later_states:
                np.add(total, row, out=total)
            np.log(total, out=total)
            np.subtract(y, total, out=nxt)
            np.putmask(nxt, keep_t, gathered)
            cur, nxt = nxt, cur
            if snap:
                rows[:, slot - first] = cur.T.reshape(R, n, k)
                slot += 1
        if slot > first:
            yield first, rows[:, : slot - first]


def _simulate(
    net: DirectedNetwork,
    P: SelectionMatrix,
    world: WorldModel,
    cfg: SimulationConfig,
    replications: Sequence[int],
) -> list[SimulationTrace]:
    """Execute the given replications together and record their traces."""
    signals, selections, blocks = simulate(net, P, world, cfg, replications)
    times = cfg.snapshot_times()  # starts at 0, ends at T
    snapshots = np.empty((len(replications), len(times), net.n, world.num_states))
    for slot, rows in blocks:
        snapshots[:, slot : slot + rows.shape[1]] = rows
    read_only(snapshots)
    return [SimulationTrace(signals[b], selections[b], times, snapshots[b]) for b in range(len(replications))]


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
        cur = sel.item(t - k, cur)  # round t-k+1 choice of the walk's current node, a Python int
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
    check_sizes(world_agents=world.n_agents, trace_agents=trace.n)
    check_sizes(world_states=world.num_states, trace_states=trace.log_beliefs.shape[2])
    check_index("check_state", check_state, world.num_states)
    walk = backward_walk(trace, i, t)  # checks the agent and t
    theta = world.true_state_index
    snap = trace.log_belief_at(t)
    where = f"agent {i + 1} at t={t}, check state {world.state_space.states[check_state]}"
    if snap[i, theta] == -np.inf:
        raise ValidationError(f"{where}: belief has zero mass on the true state; ratio undefined")
    lhs = snap[i, check_state] - snap[i, theta]

    # one signal term per walk node, own round-t term first, summed left to
    # right after the prior ratio
    rounds = t - np.arange(t + 1)
    sigs = trace.signals[rounds, walk]
    _check_signals(world, sigs, rounds, walk)
    cols = world.log_columns
    terms = cols[walk, sigs, check_state] - cols[walk, sigs, theta]
    prior_ratio = world.prior.log_nu[check_state] - world.prior.log_nu[theta]
    rhs = float(sum_left_to_right(np.concatenate(([prior_ratio], terms))))

    if np.isnan(rhs) or rhs == np.inf:
        raise ValidationError(f"{where}: a walk signal has zero likelihood under the true state")
    if lhs == -np.inf or rhs == -np.inf:
        if lhs == rhs:
            return 0.0
        raise ValidationError(f"{where}: one side is -inf and the other is not: stored {lhs!r}, telescoped {rhs!r}")
    return float(abs(lhs - rhs))


def _check_signals(world: WorldModel, signals: np.ndarray, rounds: np.ndarray, agents: np.ndarray) -> None:
    """Raise unless each signal lies in its agent's signal space of the
    world, naming the first that does not by its round t and 1-based agent.
    signals, rounds and agents broadcast together: each signal is the draw of
    the agent at its place in agents in the round at its place in rounds."""
    # each agent's signal count is looked up before broadcasting, so a
    # broadcast axis copies nothing
    signals, rounds, agents, sizes = np.broadcast_arrays(signals, rounds, agents, world.signal_counts[agents])
    bad = (signals < 0) | (signals >= sizes)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValidationError(f"t={rounds[at]}, agent {agents[at] + 1}: signal {signals[at]} outside the agent's "
                              f"signals 0..{sizes[at] - 1}")


# the arrays of a trace file, in file order, each named as the trace field
# whose values it stores
TRACE_ARRAYS = ("signals", "selections", "snapshot_times", "log_beliefs")


class _Hashed:
    """A binary file whose every byte written or read is added to one
    SHA-256, as it goes out or comes in."""

    def __init__(self, file):
        self.file, self.sha = file, hashlib.sha256()

    def write(self, data) -> None:
        self.sha.update(data)
        self.file.write(data)

    def read(self, size: int = -1) -> bytes:
        data = self.file.read(size)
        self.sha.update(data)
        return data

    def readinto(self, buf: np.ndarray) -> int:
        """Fill the flat uint8 array buf from the file, as far as the file
        goes, and return the count of bytes read."""
        count = self.file.readinto(buf)
        self.sha.update(buf[:count])
        return count


def _c_bytes(arr, dtype: str) -> np.ndarray:
    """arr's values as dtype in C order, as a flat uint8 array of their
    bytes (a view where arr is already that)."""
    return np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8)


class TraceWriter:
    """One trace file, written as its log beliefs arrive: the four arrays of
    TRACE_ARRAYS back to back, each an NPY 1.0 header and then its values in
    C order, the bytes np.save writes for each C-ordered array in turn. The
    draws are stored little-endian in their own dtype, the snapshot times as
    <i8 and the log beliefs as <f8. Opening writes the draws and the
    snapshot times, write appends log-belief rows in snapshot order, and
    close returns the SHA-256 of every byte written, hashed as it went out;
    the rows written must make up the (len(snapshot_times), n, num_states)
    array. Used as a context manager, it closes its file on the way out, cut
    short if it was not closed."""

    def __init__(self, path: str | Path, signals: np.ndarray, selections: np.ndarray,
                 snapshot_times: np.ndarray, num_states: int):
        # a block's rows of one replication can be a few KB: a 64 KB buffer
        # writes several blocks a call
        self._out = _Hashed(Path(path).open("wb", buffering=1 << 16))
        try:
            for values in (signals, selections, np.asarray(snapshot_times, dtype="<i8")):
                descr = values.dtype.newbyteorder("<").str
                self._header(values.shape, descr)
                self._out.write(_c_bytes(values, descr))
            self._header((len(snapshot_times), signals.shape[1], int(num_states)), "<f8")
        except BaseException:
            self._out.file.close()
            raise

    def _header(self, shape: tuple[int, ...], descr: str) -> None:
        np.lib.format.write_array_header_1_0(self._out, {"descr": descr, "fortran_order": False, "shape": shape})

    def write(self, rows: np.ndarray) -> None:
        """Append float64 log-belief rows of shape (j, n, num_states)."""
        self._out.write(_c_bytes(rows, "<f8"))

    def close(self) -> str:
        """Finish the file and return the SHA-256 of its bytes."""
        self._out.file.close()
        return self._out.sha.hexdigest()

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self._out.file.close()  # a no-op once closed


def write_trace(trace: SimulationTrace, path: str | Path) -> str:
    """Write the trace to one trace file with a TraceWriter and return the
    SHA-256 of the bytes written."""
    with TraceWriter(path, trace.signals, trace.selections, trace.snapshot_times,
                     trace.log_beliefs.shape[2]) as writer:
        writer.write(trace.log_beliefs)
        return writer.close()


def _read_array(src: _Hashed, name: str, dtype: np.dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The next array of a trace file, read from src into a new C-ordered
    array once its header gives the dtype and shape expected.

    The NPY header is parsed by numpy.lib.format's public readers, so
    numpy's header rules and messages hold, and whatever the parser raises
    or warns of is a fault of the file (changed header bytes make it raise
    ValueError, TypeError, SyntaxError or tokenize.TokenError, or warn of a
    header only Python 2 wrote or of a deprecated dtype). Raises
    ValidationError naming the array for a bad header, an object dtype
    (never unpickled), a dtype or shape other than the one expected, or
    fewer data bytes than the shape needs."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            version = np.lib.format.read_magic(src)
            if version != (1, 0):
                raise ValueError(f"NPY format version {version}, expected (1, 0)")
            stored, fortran_order, stored_dtype = np.lib.format.read_array_header_1_0(src)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError, Warning) as exc:
        raise ValidationError(f"{name}: {exc}") from None
    if stored_dtype.hasobject:
        raise ValidationError(f"{name}: Object arrays cannot be loaded when allow_pickle=False")
    if stored_dtype != dtype:
        raise ValidationError(f"{name} has dtype {stored_dtype}, expected {dtype}")
    if stored != shape:
        raise ValidationError(f"{name} has shape {stored}, expected {shape}: {what}")
    values = np.empty(shape[::-1] if fortran_order else shape, dtype)
    buf = values.reshape(-1).view(np.uint8)
    count = src.readinto(buf)
    if count < buf.size:
        raise ValidationError(f"{name}: truncated: {count} bytes of array data, expected {buf.size}")
    return np.ascontiguousarray(values.T) if fortran_order else values


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
    the four trace arrays in the order of TRACE_ARRAYS, with no pickled
    objects. Each array must have the dtype and shape the config implies
    (the draws in draw_dtypes), the snapshot times must be the config's,
    every signal must lie in its agent's signal space and every choice in the
    support of its agent's selection row. Anything else raises
    ValidationError naming the file, and the array or the round t and
    1-based agent where they apply; a digest mismatch is named before any
    other fault. The file is read once, in order: each array's header is
    checked before its array is made, and its bytes are read straight into
    it, so the trace holds aligned C-ordered arrays of its own and no other
    copy of the file's bytes.
    """
    path = Path(path)
    n, k, T = world.n_agents, world.num_states, cfg.horizon
    times = cfg.snapshot_times()
    m = len(times)
    sig_dtype, sel_dtype = draw_dtypes(world)
    try:
        file = path.open("rb")
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such trace file") from None
    with file:
        src, fault = _Hashed(file), None
        # a fault stops the checks, and the rest of the file is hashed before it is named
        try:
            if file.peek(4)[:4] == b"PK\x03\x04":
                raise ValidationError("a zip archive, a trace layout of earlier versions; "
                                      "regenerate the traces with the run command")
            signals = _read_array(src, "signals", sig_dtype, (T + 1, n), f"rounds 0..{T} of {n} agents")
            _check_signals(world, signals, np.arange(T + 1)[:, None], np.arange(n))
            selections = _read_array(src, "selections", sel_dtype, (T, n), f"rounds 1..{T} of {n} agents")
            # a choice past n - 1 is flagged whatever csr_contains makes of it
            bad = (selections >= n) | ~csr_contains(P.indptr, P.indices, np.arange(n), selections)
            if bad.any():
                r, i = divmod(int(np.argmax(bad)), n)
                raise ValidationError(f"t={r + 1}, agent {i + 1}: chosen agent {int(selections[r, i]) + 1} is "
                                      "outside the support of the agent's selection row")
            del bad  # dropped before the log beliefs are made
            stored = _read_array(src, "snapshot_times", np.dtype(np.int64), (m,), f"{m} snapshot times")
            if not np.array_equal(stored, times):
                # the lists and sets are built only to name the fault
                want, have = times.tolist(), stored.tolist()
                diff = set(want) ^ set(have)
                if not diff:
                    raise ValidationError("snapshot_times are not the config's times in ascending order, each once")
                t = min(diff)
                which = "has no snapshot" if t in want else "has a snapshot the config does not record"
                raise ValidationError(f"snapshot_times {which} at t={t}")
            del stored  # the trace holds the config's times, so the file's are dropped before the log beliefs are made
            log_beliefs = _read_array(src, "log_beliefs", np.dtype(np.float64), (m, n, k),
                                      f"{m} snapshots of {n} agents over {k} states")
        except ValidationError as exc:
            fault = exc
        trailing = sum(len(chunk) for chunk in iter(lambda: src.read(1 << 16), b""))
    digest = src.sha.hexdigest()
    if digest != sha256:
        raise ValidationError(f"{path}: SHA-256 is {digest}, but {sha256} was recorded for it")
    if fault is None and trailing:
        fault = ValidationError(f"{trailing} trailing bytes after the four trace arrays")
    if fault is not None:
        raise ValidationError(f"{path}: {fault}")
    return SimulationTrace(read_only(signals), read_only(selections), times, read_only(log_beliefs))
