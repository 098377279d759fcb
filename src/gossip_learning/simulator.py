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
"""

from __future__ import annotations

import bisect
import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .belief import bayes_log_posterior
from .errors import ValidationError
from .graph import DirectedNetwork, SelectionMatrix
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
    for i in range(net.n):
        allowed = set(net.in_neighbors(i)) | {i}
        if any(int(j) not in allowed for j in P.support(i)):
            raise ValidationError(f"selection row {i} has support outside the network's neighborhoods")


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


def write_trace_csvs(trace: SimulationTrace, world: WorldModel, directory: str | Path) -> list[Path]:
    """Emit beliefs.csv, selections.csv, signals.csv (1-based agent ids)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels = [str(s) for s in world.state_space.states]

    beliefs_path = directory / "beliefs.csv"
    with beliefs_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent", "state", "prob"])
        for t, probs in zip(trace.snapshot_times, np.exp(trace.log_beliefs).tolist()):
            for i, row in enumerate(probs):
                for label, p in zip(labels, row):
                    w.writerow([t, i + 1, label, repr(p)])

    selections_path = directory / "selections.csv"
    with selections_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent", "chosen"])
        for t in range(1, trace.horizon + 1):
            for i in range(trace.n):
                w.writerow([t, i + 1, int(trace.selections[t - 1, i]) + 1])

    signals_path = directory / "signals.csv"
    with signals_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent", "signal"])
        for t in range(trace.horizon + 1):
            for i in range(trace.n):
                w.writerow([t, i + 1, int(trace.signals[t, i])])

    return [beliefs_path, selections_path, signals_path]


def read_trace_csvs(
    directory: str | Path,
    replication: int = 0,
    master_seed: int = 0,
    world_fp: str = "",
    matrix_fp: str = "",
) -> SimulationTrace:
    """Rebuild a trace from the CSV set written by write_trace_csvs.

    Belief log values are recovered from the stored probabilities; replay
    metadata (seed, fingerprints) comes from the caller, typically a manifest.
    """
    directory = Path(directory)

    with (directory / "signals.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValidationError(f"{directory}/signals.csv is empty")
    n = max(int(r["agent"]) for r in rows)
    horizon = max(int(r["t"]) for r in rows)
    signals = np.zeros((horizon + 1, n), dtype=np.int64)
    for r in rows:
        signals[int(r["t"]), int(r["agent"]) - 1] = int(r["signal"])

    with (directory / "selections.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    selections = np.zeros((horizon, n), dtype=np.int64)
    for r in rows:
        selections[int(r["t"]) - 1, int(r["agent"]) - 1] = int(r["chosen"]) - 1

    with (directory / "beliefs.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels: list[str] = []
    for r in rows:
        if r["state"] not in labels:
            labels.append(r["state"])
    times = sorted({int(r["t"]) for r in rows})
    slot = {t: m for m, t in enumerate(times)}
    probs = np.zeros((len(times), n, len(labels)))
    for r in rows:
        probs[slot[int(r["t"])], int(r["agent"]) - 1, labels.index(r["state"])] = float(r["prob"])
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
        snapshot_times=tuple(times),
        log_beliefs=log_beliefs,
        world_fingerprint=world_fp,
        matrix_fingerprint=matrix_fp,
    )
