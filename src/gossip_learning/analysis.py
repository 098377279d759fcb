"""Learning-rate and trajectory diagnostics computed from traces.

The headline quantity is the exponential rate at which belief on a false
state decays: theoretically a stationary-weighted sum of per-agent signal
divergences, empirically the slope of the log belief ratio over time. The
two are computed by disjoint code paths on purpose, so one can be checked
against the other.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .arrays import ArrayValue
from .errors import ValidationError, check_index
from .graph import StationaryDistribution
from .simulator import SimulationTrace, backward_walk
from .world import WorldModel


def theoretical_rate(pi: StationaryDistribution, world: WorldModel, check_state: int) -> float:
    """Predicted decay rate of belief on check_state: sum over agents of the
    stationary weight times the signal divergence between truth and check_state."""
    if pi.pi.shape[0] != world.n_agents:
        raise ValidationError(
            f"stationary vector has {pi.pi.shape[0]} entries, world has {world.n_agents} agents"
        )
    check_index("check_state", check_state, world.num_states)
    weights = pi.pi
    recurrent = weights > 0.0
    terms = np.zeros(len(weights) + 1)
    # transient agents add nothing, not even an infinite divergence
    terms[1:][recurrent] = weights[recurrent] * world.divergences[recurrent, check_state]
    # a running sum from 0.0, added in agent order
    return float(np.cumsum(terms)[-1])


def _log_ratio_series(
    trace: SimulationTrace,
    world: WorldModel,
    agent: int,
    check_state: int,
    inside: np.ndarray,
) -> np.ndarray:
    """log mu_t(check_state) - log mu_t(true) at the snapshots selected by the
    boolean mask `inside`."""
    theta = world.true_state_index
    snaps = trace.log_beliefs[inside, agent]
    zero_truth = np.flatnonzero(snaps[:, theta] == -np.inf)
    if zero_truth.size:
        t = np.asarray(trace.snapshot_times)[inside][zero_truth[0]]
        raise ValidationError(f"agent {agent + 1} has zero belief on the true state at t={int(t)}")
    y = snaps[:, check_state] - snaps[:, theta]
    if np.any(np.isneginf(y)):
        raise ValidationError(
            f"agent {agent + 1} holds exactly zero belief on state "
            f"{world.state_space.states[check_state]} inside the window; "
            "the log-ratio regression is undefined"
        )
    return y


def empirical_rate(
    trace: SimulationTrace,
    world: WorldModel,
    agent: int,
    check_state: int,
    window: tuple[int, int],
) -> tuple[float, float]:
    """Least-squares slope (and its standard error) of the log belief ratio
    log mu_t(check_state) - log mu_t(true) over snapshot times in [t0, t1].

    The decay rate estimate is the negated slope. Requires at least two
    snapshots inside the window.
    """
    t0, t1 = window
    if t0 < 0 or t1 > trace.horizon or t0 >= t1:
        raise ValidationError(f"window {window} must satisfy 0 <= t0 < t1 <= horizon={trace.horizon}")
    check_index("agent", agent, trace.n)
    check_index("check_state", check_state, world.num_states)
    all_times = np.asarray(trace.snapshot_times)
    inside = (all_times >= t0) & (all_times <= t1)
    times = all_times[inside].astype(float)
    if len(times) < 2:
        raise ValidationError(
            f"need at least 2 belief snapshots inside {window}; horizon={trace.horizon}, "
            f"{len(trace.snapshot_times)} snapshots recorded"
        )
    y = _log_ratio_series(trace, world, agent, check_state, inside)

    tc = times - times.mean()
    sxx = float(tc @ tc)
    slope = float(tc @ (y - y.mean())) / sxx
    if len(times) > 2:
        resid = (y - y.mean()) - slope * tc
        stderr = float(np.sqrt((resid @ resid) / (len(times) - 2) / sxx))
    else:
        stderr = 0.0
    return slope, stderr


@dataclass(frozen=True)
class RateRow:
    """One (false state, agent) comparison of predicted vs fitted decay rate."""

    check_state: int
    agent: int
    theoretical: float
    empirical: float
    stderr: float

    @property
    def rel_error(self) -> float:
        if self.theoretical == 0.0:
            return np.inf if self.empirical != 0.0 else 0.0
        return abs(self.empirical - self.theoretical) / self.theoretical


@dataclass(frozen=True)
class RateReport:
    window: tuple[int, int]
    replications: int
    rows: tuple[RateRow, ...]

    def within(self, rel_tolerance: float) -> bool:
        return all(r.rel_error <= rel_tolerance for r in self.rows)

    def row(self, check_state: int, agent: int) -> RateRow:
        for r in self.rows:
            if r.check_state == check_state and r.agent == agent:
                return r
        raise ValidationError(f"no rate row for check_state={check_state}, agent={agent}")


def rate_report(
    traces: list[SimulationTrace],
    pi: StationaryDistribution,
    world: WorldModel,
    check_states: list[int],
    agents: list[int],
    window: tuple[int, int],
) -> RateReport:
    """Fit the decay rate for each (false state, agent) pair on every trace.

    empirical = mean of the negated per-replication slopes; stderr = sample
    standard deviation across replications divided by sqrt(R) (0.0 when R=1).
    """
    if not traces:
        raise ValidationError("rate_report needs at least one trace")
    rows = []
    for cs in check_states:
        theo = theoretical_rate(pi, world, cs)
        for a in agents:
            slopes = np.array([-empirical_rate(tr, world, a, cs, window)[0] for tr in traces])
            emp = float(slopes.mean())
            stderr = float(slopes.std(ddof=1) / np.sqrt(len(slopes))) if len(slopes) > 1 else 0.0
            rows.append(RateRow(check_state=cs, agent=a, theoretical=theo, empirical=emp, stderr=stderr))
    return RateReport(window=window, replications=len(traces), rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class OccupancyReport(ArrayValue):
    """Backward-walk visit frequencies for one (agent, t), next to the
    stationary weights they should approach."""

    agent: int
    t: int
    counts: np.ndarray  # per-agent visit counts over walk steps 1..t
    frequencies: np.ndarray
    stationary: np.ndarray | None
    max_abs_dev: float | None


def occupancy(
    trace: SimulationTrace,
    agent: int,
    t: int,
    pi: StationaryDistribution | None = None,
) -> OccupancyReport:
    """Frequency of each agent along the backward walk from (agent, t),
    excluding the starting node itself (steps 1..t)."""
    if t < 1:
        raise ValidationError(f"occupancy needs t >= 1, got {t}")
    walk = backward_walk(trace, agent, t)
    counts = np.bincount(walk[1:], minlength=trace.n).astype(np.int64)
    freqs = counts / float(t)
    stationary = None
    max_dev = None
    if pi is not None:
        if pi.pi.shape[0] != trace.n:
            raise ValidationError(
                f"stationary vector has {pi.pi.shape[0]} entries, trace has {trace.n} agents"
            )
        stationary = pi.pi
        max_dev = float(np.max(np.abs(freqs - pi.pi)))
    return OccupancyReport(
        agent=agent, t=t, counts=counts, frequencies=freqs, stationary=stationary, max_abs_dev=max_dev
    )


def belief_difference(
    trace: SimulationTrace,
    agent_a: int,
    agent_b: int,
    state: int,
) -> tuple[np.ndarray, np.ndarray]:
    """|belief_a(state) - belief_b(state)| at every snapshot time."""
    for a in (agent_a, agent_b):
        check_index("agent", a, trace.n)
    check_index("state", state, trace.log_beliefs.shape[2])
    times = np.array(trace.snapshot_times, dtype=np.int64)
    mass = np.exp(trace.log_beliefs[:, [agent_a, agent_b], state])
    return times, np.abs(mass[:, 0] - mass[:, 1])


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a header line and then the rows with csv.writer, creating the
    parent directory. Cells are Python values (numpy arrays go in through
    .tolist()): a float is written as its repr, anything else as its str."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_rate_report(report: RateReport, world: WorldModel, path: str | Path) -> Path:
    """rate_report.csv: check_state,theoretical,agent,empirical,stderr."""
    labels = world.state_space.states
    return write_csv(path, ["check_state", "theoretical", "agent", "empirical", "stderr"], (
        (labels[r.check_state], r.theoretical, r.agent + 1, r.empirical, r.stderr) for r in report.rows
    ))


def write_occupancy(report: OccupancyReport, path: str | Path) -> Path:
    """occupancy.csv: agent_m,empirical,stationary (stationary blank if not given)."""
    n = len(report.frequencies)
    stationary = report.stationary.tolist() if report.stationary is not None else [""] * n
    return write_csv(path, ["agent_m", "empirical", "stationary"],
                     zip(range(1, n + 1), report.frequencies.tolist(), stationary))


def write_belief_difference(times: np.ndarray, diffs: np.ndarray, path: str | Path) -> Path:
    """belief_diff.csv: t,value."""
    return write_csv(path, ["t", "value"], zip(times.tolist(), diffs.tolist()))
