"""Seeded protocol execution with full trace capture.

Each round every agent draws a private signal and one neighbor index from her
selection row, then refines the neighbor's previous-round belief with her own
likelihood (synchronous rounds: all agents read round t-1, all write round t).
Randomness comes from the counter-based Philox generator; per-replication
streams are derived from the master seed with SeedSequence spawn keys, one
stream for signals and one for selections, so traces are reproducible
bit-for-bit across runs and platforms.

All draws are made before the first round. The rounds then run as one array
update per round over every agent of every replication at once: gather the
chosen neighbors' previous beliefs from an (R, n, k) array, add the agents'
log-likelihood columns for their signals, normalize. A trace stores its
belief snapshots as one read-only (m, n, k) array aligned with its m
snapshot times.

Trace CSVs are written and read a column at a time: cells are formatted
from whole arrays (one repr per distinct float), rows are joined in fixed
blocks, and a file is parsed by one numpy call, then checked for
completeness before its values are scattered into the trace arrays. The
bytes are those of csv.writer with floats written as repr.
"""

from __future__ import annotations

import bisect
import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .belief import bayes_log_posterior
from .errors import ValidationError
from .graph import DirectedNetwork, SelectionMatrix, check_selection_support
from .world import WorldModel

WALK_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class SimulationConfig:
    """Run shape: rounds, master seed, belief-snapshot stride, replication count."""

    horizon: int
    seed: int
    record_beliefs_every: int = 1
    replications: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must fit in 64 unsigned bits")
        if self.record_beliefs_every < 1:
            raise ValidationError("record_beliefs_every must be >= 1")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")

    def snapshot_times(self) -> tuple[int, ...]:
        times = set(range(0, self.horizon + 1, self.record_beliefs_every))
        times.add(self.horizon)
        return tuple(sorted(times))


@dataclass(frozen=True)
class SimulationTrace:
    """Everything needed to replay a run: draws, choices, belief snapshots."""

    n: int
    horizon: int
    replication: int
    master_seed: int
    signals: np.ndarray  # (horizon+1, n); signals[t, i] is agent i's round-t draw
    selections: np.ndarray  # (horizon, n); row t-1 holds the round-t choices
    snapshot_times: tuple[int, ...]  # ascending
    log_beliefs: np.ndarray  # (len(snapshot_times), n, num_states); row m is time snapshot_times[m]
    world_fingerprint: str
    matrix_fingerprint: str

    def __post_init__(self):
        if self.log_beliefs.shape[:2] != (len(self.snapshot_times), self.n):
            raise ValidationError(
                f"log_beliefs has shape {self.log_beliefs.shape}, expected "
                f"({len(self.snapshot_times)}, {self.n}, num_states)"
            )

    def selection(self, t: int, i: int) -> int:
        """The neighbor agent i consulted in round t (1 <= t <= horizon)."""
        if not (1 <= t <= self.horizon):
            raise ValidationError(f"round {t} outside 1..{self.horizon}")
        return int(self.selections[t - 1, i])

    def _slot(self, t: int) -> int | None:
        m = bisect.bisect_left(self.snapshot_times, t)
        if m < len(self.snapshot_times) and self.snapshot_times[m] == t:
            return m
        return None

    def has_snapshot(self, t: int) -> bool:
        return self._slot(t) is not None

    def log_belief_at(self, t: int) -> np.ndarray:
        """The (n, num_states) log beliefs at snapshot time t."""
        m = self._slot(t)
        if m is None:
            raise ValidationError(
                f"no belief snapshot at t={t}; recorded times follow the "
                "record_beliefs_every stride (plus the final round)"
            )
        return self.log_beliefs[m]


def world_fingerprint(world: WorldModel) -> str:
    h = hashlib.sha256()
    h.update(repr([str(s) for s in world.state_space.states]).encode())
    h.update(str(world.true_state_index).encode())
    h.update(world.prior.nu.astype("<f8").tobytes())
    for lt in world.likelihoods:
        h.update(repr(lt.table.shape).encode())
        h.update(lt.table.astype("<f8").tobytes())
    return h.hexdigest()


def matrix_fingerprint(P: SelectionMatrix) -> str:
    h = hashlib.sha256()
    h.update(str(P.n).encode())
    h.update(P.probs.astype("<f8").tobytes())
    return h.hexdigest()


def _inverse_cdf_draws(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn from probs by inverting its CDF at u, over the support
    only: rounding can leave the CDF's last value below 1, and a u above it
    must not land on a zero-probability entry."""
    support = np.flatnonzero(probs > 0.0)
    cdf = np.cumsum(probs[support])
    return support[np.minimum(np.searchsorted(cdf, u, side="right"), len(support) - 1)]


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

    theta = world.true_state_index
    u_sig = rng_sig.random(signals.shape)
    for i in range(signals.shape[1]):
        signals[:, i] = _inverse_cdf_draws(world.likelihood(i)[theta], u_sig[:, i])

    u_sel = rng_sel.random(selections.shape)
    for i in range(selections.shape[1]):
        selections[:, i] = _inverse_cdf_draws(P.probs[i], u_sel[:, i])


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
        arr.flags.writeable = False
    wfp, mfp = world_fingerprint(world), matrix_fingerprint(P)
    return [
        SimulationTrace(
            n=n,
            horizon=T,
            replication=r,
            master_seed=cfg.seed,
            signals=signals[b],
            selections=selections[b],
            snapshot_times=times,
            log_beliefs=snapshots[b],
            world_fingerprint=wfp,
            matrix_fingerprint=mfp,
        )
        for b, r in enumerate(replications)
    ]


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
    if not (0 <= i < trace.n):
        raise ValidationError(f"agent {i} outside 0..{trace.n - 1}")
    if not (0 <= t <= trace.horizon):
        raise ValidationError(f"time {t} outside 0..{trace.horizon}")
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


# rows per block that row_blocks formats and write_csv joins in one go: bounds
# the cell text held in memory whatever the trace size
BLOCK_ROWS = 4096

BELIEFS_HEADER = ("t", "agent", "state", "prob")
SELECTIONS_HEADER = ("t", "agent", "chosen")
SIGNALS_HEADER = ("t", "agent", "signal")


def csv_text(cell: str) -> str:
    """A text cell as csv.writer's minimal quoting writes it."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def state_cells(world: WorldModel) -> np.ndarray:
    """Each state's label as CSV cell text, in state order."""
    return np.array([csv_text(str(s)) for s in world.state_space.states], dtype=object)


def int_cells(values) -> list[str]:
    """The decimal text of every integer in an array, from one repr."""
    values = np.asarray(values).ravel()
    return repr(values.tolist())[1:-1].split(", ") if values.size else []


def float_cells(values) -> np.ndarray:
    """repr of every float in an array (the text csv.writer writes for a
    float), called once per distinct bit pattern."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).ravel().view(np.uint64), return_inverse=True)
    return np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)[inverse]


def write_csv(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence[Sequence[str]]]) -> Path:
    """Write one header line and then each block of rows, creating the
    parent directory. A block is a list of equal-length columns of cell
    text: numbers already formatted (int_cells, float_cells) and text
    quoted with csv_text. The bytes are those csv.writer writes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(map(csv_text, header)) + "\r\n")
        for columns in blocks:
            if len(columns[0]):
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
    return path


def row_blocks(times: Sequence[int], keys: list[np.ndarray], values, cells) -> Iterable[list]:
    """write_csv blocks of rows (t, *keys, value) for every time in turn:
    the key columns (cell text) repeat at each time, values(a, b) gives the
    values of times[a:b] and cells formats them."""
    width = len(keys[0])
    step = max(1, BLOCK_ROWS // width)
    time_cells = np.array(int_cells(times), dtype=object)
    for a in range(0, len(times), step):
        b = min(a + step, len(times))
        yield [np.repeat(time_cells[a:b], width), *(np.tile(key, b - a) for key in keys), cells(values(a, b))]


def write_trace_csvs(trace: SimulationTrace, world: WorldModel, directory: str | Path) -> list[Path]:
    """Emit beliefs.csv, selections.csv, signals.csv (1-based agent ids)."""
    directory = Path(directory)
    k = trace.log_beliefs.shape[2]
    agents = np.array(int_cells(np.arange(1, trace.n + 1)), dtype=object)
    return [
        write_csv(directory / "beliefs.csv", BELIEFS_HEADER, row_blocks(
            trace.snapshot_times, [np.repeat(agents, k), np.tile(state_cells(world), trace.n)],
            lambda a, b: np.exp(trace.log_beliefs[a:b]), float_cells,
        )),
        write_csv(directory / "selections.csv", SELECTIONS_HEADER, row_blocks(
            range(1, trace.horizon + 1), [agents], lambda a, b: trace.selections[a:b] + 1, int_cells,
        )),
        write_csv(directory / "signals.csv", SIGNALS_HEADER, row_blocks(
            range(trace.horizon + 1), [agents], lambda a, b: trace.signals[a:b], int_cells,
        )),
    ]


def _read_rows(path: Path, header: Sequence[str], types: Sequence) -> np.ndarray:
    """The rows of a CSV written by write_csv, parsed in one pass into a
    structured array with one field per header name."""
    # the file's own handle keeps a \r inside a quoted label as it is
    with path.open(newline="") as fh:
        first = fh.readline().rstrip("\r\n")
        if first != ",".join(header):
            raise ValidationError(f"{path}: header is {first!r}, expected {','.join(header)!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file has no rows
            try:
                return np.loadtxt(fh, dtype=list(zip(header, types)), delimiter=",", quotechar='"',
                                  comments=None, ndmin=1)
            except ValueError as exc:
                raise ValidationError(f"{path}: {exc}") from None


def _reject(path: Path, rows: np.ndarray, bad: np.ndarray, what) -> None:
    """Raise for the first row flagged in bad, naming its t and agent;
    what(r) describes what is wrong with row r."""
    if bad.any():
        r = int(np.argmax(bad))
        raise ValidationError(f"{path}, row {r + 1} (t={rows['t'][r]}, agent {rows['agent'][r]}): {what(r)}")


def _place(path: Path, rows: np.ndarray, times: np.ndarray, n: int,
           states: np.ndarray | None = None, labels: Sequence[str] = ("",)) -> np.ndarray:
    """Each row's flat index into a (len(times), n, len(labels)) array, after
    checking that the rows name each (t, agent[, state]) exactly once.
    states holds each row's label index; a file without a state column
    passes neither it nor labels."""
    t, agent = rows["t"], rows["agent"]
    _reject(path, rows, (agent < 1) | (agent > n), lambda r: f"agent id outside 1..{n}")
    slot = np.minimum(np.searchsorted(times, t), len(times) - 1)
    _reject(path, rows, times[slot] != t, lambda r: f"t outside {times[0]}..{times[-1]}")
    k = len(labels)
    flat = (slot * n + agent - 1) * k
    if states is not None:
        flat += states
    counts = np.bincount(flat, minlength=len(times) * n * k)
    for seen, what in ((counts > 1, "appears more than once"), (counts == 0, "is missing")):
        if seen.any():
            m, rest = divmod(int(np.argmax(seen)), n * k)
            i, s = divmod(rest, k)
            state = f", state {labels[s]}" if states is not None else ""
            raise ValidationError(f"{path}: the row for t={times[m]}, agent {i + 1}{state} {what}")
    return flat


def read_trace_csvs(
    directory: str | Path,
    world: WorldModel,
    replication: int = 0,
    master_seed: int = 0,
    world_fp: str = "",
    matrix_fp: str = "",
) -> SimulationTrace:
    """Rebuild a trace from the CSV set written by write_trace_csvs.

    The world gives n, the state labels and each agent's signal count; the
    horizon is the last round in signals.csv and the snapshot times are the
    times in beliefs.csv. Every (t, agent[, state]) row must be present
    exactly once, with ids, labels, choices and signals in range; anything
    else raises ValidationError. Belief log values are recovered from the
    stored probabilities; replay metadata (seed, fingerprints) comes from
    the caller, typically a manifest.
    """
    directory = Path(directory)
    n = world.n_agents
    labels = [str(s) for s in world.state_space.states]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"state labels {labels} are not distinct as text, so beliefs.csv cannot tell them apart")

    path = directory / "signals.csv"
    rows = _read_rows(path, SIGNALS_HEADER, (np.int64, np.int64, np.int64))
    if rows.size == 0:
        raise ValidationError(f"{path} has no rows")
    horizon = int(rows["t"].max())
    if horizon < 1:
        raise ValidationError(f"{path}: rounds end at t={horizon}, but a trace has at least one round")
    flat = _place(path, rows, np.arange(horizon + 1), n)
    sizes = np.array([lt.signal_space_size for lt in world.likelihoods])[rows["agent"] - 1]
    _reject(path, rows, (rows["signal"] < 0) | (rows["signal"] >= sizes),
            lambda r: f"signal {rows['signal'][r]} outside the agent's signals 0..{sizes[r] - 1}")
    signals = np.empty((horizon + 1, n), dtype=np.int64)
    signals.ravel()[flat] = rows["signal"]

    path = directory / "selections.csv"
    rows = _read_rows(path, SELECTIONS_HEADER, (np.int64, np.int64, np.int64))
    flat = _place(path, rows, np.arange(1, horizon + 1), n)
    _reject(path, rows, (rows["chosen"] < 1) | (rows["chosen"] > n),
            lambda r: f"chosen agent {rows['chosen'][r]} outside 1..{n}")
    selections = np.empty((horizon, n), dtype=np.int64)
    selections.ravel()[flat] = rows["chosen"] - 1

    # one character wider than any label, so a longer label in the file is
    # not cut down to a known one
    width = max(map(len, labels)) + 1
    path = directory / "beliefs.csv"
    rows = _read_rows(path, BELIEFS_HEADER, (np.int64, np.int64, f"U{width}", np.float64))
    if rows.size == 0:
        raise ValidationError(f"{path} has no rows")
    _reject(path, rows, (rows["t"] < 0) | (rows["t"] > horizon), lambda r: f"t outside 0..{horizon}")
    times = np.unique(rows["t"])
    known = np.array(labels, dtype=f"U{width}")
    order = np.argsort(known)
    pos = np.minimum(np.searchsorted(known[order], rows["state"]), len(labels) - 1)
    _reject(path, rows, known[order][pos] != rows["state"],
            lambda r: f"unknown state label {str(rows['state'][r])!r}")
    flat = _place(path, rows, times, n, order[pos], labels)
    probs = np.empty((len(times), n, len(labels)))
    probs.ravel()[flat] = rows["prob"]
    with np.errstate(divide="ignore"):
        log_beliefs = np.log(probs)
    log_beliefs.flags.writeable = False

    return SimulationTrace(
        n=n,
        horizon=horizon,
        replication=replication,
        master_seed=master_seed,
        signals=signals,
        selections=selections,
        snapshot_times=tuple(times.tolist()),
        log_beliefs=log_beliefs,
        world_fingerprint=world_fp,
        matrix_fingerprint=matrix_fp,
    )
