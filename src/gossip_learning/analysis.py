"""Learning-rate and trajectory diagnostics computed from traces.

The headline quantity is the exponential rate at which belief on a false
state decays: theoretically a stationary-weighted sum of per-agent signal
divergences, empirically the slope of the log belief ratio over time. The
two are computed by disjoint code paths on purpose, so one can be checked
against the other.
"""

from __future__ import annotations

import bisect
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

    def _verdict(self, rel_tolerance: float) -> bool | None:
        """The rate check: None for a row whose theoretical rate is 0, which
        is not checked (the truth is not identifiable from the weighted
        signals, so no decay is predicted), else whether rel_error is at
        most rel_tolerance."""
        if self.theoretical == 0.0:
            return None
        return self.rel_error <= rel_tolerance


@dataclass(frozen=True)
class RateReport:
    window: tuple[int, int]
    replications: int
    rows: tuple[RateRow, ...]

    def within(self, rel_tolerance: float) -> bool:
        """Whether every checked row is within rel_tolerance; a row whose
        theoretical rate is 0 is not checked."""
        return all(r._verdict(rel_tolerance) is not False for r in self.rows)


def rate_report(
    traces: list[SimulationTrace],
    pi: StationaryDistribution,
    world: WorldModel,
    check_states: list[int],
    agents: list[int],
    window: tuple[int, int],
) -> RateReport:
    """Fit the decay rate for each (false state, agent) pair on every trace.

    The rows run by check state, then agent, each in the order given: the
    row for check_states[k] and agents[j] is rows[k * len(agents) + j].
    empirical = mean of the negated per-replication slopes; stderr = sample
    standard deviation across replications divided by sqrt(R) (0.0 when R=1).
    Each trace fits all its pairs at once, with the bits of a lone pair's fit.
    The first faulty trace names a zero true-state belief (first agent, then
    earliest t), else a zero check-state belief (first state, then agent).
    """
    if not traces:
        raise ValidationError("rate_report needs at least one trace")
    theoretical = [theoretical_rate(pi, world, cs) for cs in check_states]
    theta = world.true_state_index
    picked = np.array(agents, dtype=np.intp)
    t0, t1 = window
    slopes = np.empty((len(check_states), len(agents), len(traces)))
    for r, tr in enumerate(traces):
        if t0 < 0 or t1 > tr.horizon or t0 >= t1:
            raise ValidationError(f"window {window} must satisfy 0 <= t0 < t1 <= horizon={tr.horizon}")
        # the snapshot times ascend, so the window is one slice
        inside = slice(bisect.bisect_left(tr.snapshot_times, t0), bisect.bisect_right(tr.snapshot_times, t1))
        times = np.array(tr.snapshot_times[inside], dtype=float)
        if len(times) < 2:
            raise ValidationError(f"need at least 2 belief snapshots inside {window}; horizon={tr.horizon}, "
                                  f"{len(tr.snapshot_times)} snapshots recorded")
        outside = (picked < 0) | (picked >= tr.n)
        if outside.any():
            check_index("agent", agents[int(np.argmax(outside))], tr.n)
        view = tr.log_beliefs[inside].transpose(2, 1, 0)  # (states, agents, m)
        truth = np.ascontiguousarray(view[theta, picked])
        zero_truth = np.isneginf(truth)
        if zero_truth.any():
            j = int(np.argmax(zero_truth.any(axis=1)))
            t = times[np.argmax(zero_truth[j])]
            raise ValidationError(f"agent {agents[j] + 1} has zero belief on the true state at t={int(t)}")
        y = np.ascontiguousarray(view[np.ix_(check_states, picked)])  # a pair's series is one row
        y -= truth
        zero_check = np.isneginf(y).any(axis=-1)
        if zero_check.any():
            k, j = np.unravel_index(np.argmax(zero_check), zero_check.shape)
            raise ValidationError(f"agent {agents[j] + 1} holds exactly zero belief on state "
                                  f"{world.state_space.states[check_states[k]]} inside the window; "
                                  "the log-ratio regression is undefined")
        # least-squares slopes: each mean runs along one contiguous row, as it
        # would on that row alone, and the stacked matmul is one BLAS dot a row
        tc = times - times.mean()
        y -= y.mean(axis=-1, keepdims=True)
        slopes[:, :, r] = -(np.matmul(y[..., None, :], tc[:, None])[..., 0, 0] / (tc @ tc))
    empirical, stderr = slopes.mean(axis=-1), np.zeros(slopes.shape[:2])
    if len(traces) > 1:
        stderr = slopes.std(ddof=1, axis=-1) / np.sqrt(len(traces))
    rows = tuple(RateRow(check_state=cs, agent=a, theoretical=theo, empirical=emp, stderr=err)
                 for cs, theo, emps, errs in zip(check_states, theoretical, empirical.tolist(), stderr.tolist())
                 for a, emp, err in zip(agents, emps, errs))
    return RateReport(window=window, replications=len(traces), rows=rows)


@dataclass(frozen=True, eq=False)
class OccupancyReport(ArrayValue):
    """Backward-walk visit frequencies for one (agent, t), next to the
    stationary weights they should approach."""

    agent: int
    t: int
    frequencies: np.ndarray
    stationary: np.ndarray


def occupancy(trace: SimulationTrace, agent: int, t: int, pi: StationaryDistribution) -> OccupancyReport:
    """Frequency of each agent along the backward walk from (agent, t),
    excluding the starting node itself (steps 1..t), against pi."""
    if t < 1:
        raise ValidationError(f"occupancy needs t >= 1, got {t}")
    if pi.pi.shape[0] != trace.n:
        raise ValidationError(f"stationary vector has {pi.pi.shape[0]} entries, trace has {trace.n} agents")
    walk = backward_walk(trace, agent, t)
    freqs = np.bincount(walk[1:], minlength=trace.n) / float(t)
    return OccupancyReport(agent=agent, t=t, frequencies=freqs, stationary=pi.pi)


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
    """occupancy.csv: agent_m,empirical,stationary."""
    n = len(report.frequencies)
    return write_csv(path, ["agent_m", "empirical", "stationary"],
                     zip(range(1, n + 1), report.frequencies.tolist(), report.stationary.tolist()))


def write_belief_difference(times: np.ndarray, diffs: np.ndarray, path: str | Path) -> Path:
    """belief_diff.csv: t,value."""
    return write_csv(path, ["t", "value"], zip(times.tolist(), diffs.tolist()))
