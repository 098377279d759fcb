"""Learning-rate and trajectory diagnostics computed from traces.

The headline quantity is the exponential rate at which belief on a false
state decays: theoretically a stationary-weighted sum of per-agent signal
divergences, empirically the slope of the log belief ratio over time. The
two are computed by disjoint code paths on purpose, so one can be checked
against the other.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .arrays import ArrayValue, is_integer, sum_left_to_right
from .errors import ValidationError, check_index, check_indices, check_integer, check_sizes
from .graph import StationaryDistribution
from .simulator import SimulationTrace, backward_walk
from .world import WorldModel


def theoretical_rate(pi: StationaryDistribution, world: WorldModel, check_state: int) -> float:
    """Predicted decay rate of belief on check_state: sum over agents of the
    stationary weight times the signal divergence between truth and check_state."""
    check_sizes(stationary_entries=len(pi.pi), world_agents=world.n_agents)
    check_index("check_state", check_state, world.num_states)
    weights = pi.pi
    recurrent = weights > 0.0
    terms = np.zeros(len(weights) + 1)
    # transient agents add nothing, not even an infinite divergence
    terms[1:][recurrent] = weights[recurrent] * world.divergences[recurrent, check_state]
    return float(sum_left_to_right(terms))  # from 0.0, in agent order


def window_snapshots(snapshot_times: np.ndarray, window: tuple[int, int], horizon: int) -> slice:
    """The slice of the ascending snapshot_times inside window, ends included:
    a window is two integers 0 <= t0 < t1 <= horizon holding at least 2 of them."""
    try:
        t0, t1 = window
    except (TypeError, ValueError):
        raise ValidationError(f"need a window of two integers [t_start, t_end], got {window!r}") from None
    if not (is_integer(t0) and is_integer(t1) and 0 <= t0 < t1 <= horizon):
        raise ValidationError(
            f"need a window of integers 0 <= t_start < t_end <= horizon ({horizon}), got [{t0!r}, {t1!r}]")
    inside = slice(*np.searchsorted(snapshot_times, [t0, t1 + 1]).tolist())  # t <= t1 is t < t1 + 1
    if inside.stop - inside.start < 2:
        raise ValidationError(f"need at least 2 belief snapshots inside [{t0}, {t1}], got {inside.stop - inside.start}")
    return inside


@dataclass(frozen=True)
class RateRow:
    """One (false state, agent) comparison of predicted vs fitted decay rate."""

    check_state: int
    agent: int
    theoretical: float
    empirical: float
    stderr: float
    separated: bool  # some agent of positive stationary weight separates check_state from the truth

    @property
    def rel_error(self) -> float:
        if self.theoretical == 0.0:
            return np.inf if self.empirical != 0.0 else 0.0
        return abs(self.empirical - self.theoretical) / self.theoretical

    def _verdict(self, rel_tolerance: float) -> bool | None:
        """The rate check: None for a row that is not separated, else rel_error <= rel_tolerance."""
        if not self.separated:
            return None
        return self.rel_error <= rel_tolerance


@dataclass(frozen=True)
class RateReport:
    replications: int
    rows: tuple[RateRow, ...]

    def within(self, rel_tolerance: float) -> bool:
        """Whether every separated row is within rel_tolerance; no other row is checked."""
        return all(r._verdict(rel_tolerance) is not False for r in self.rows)


def log_ratios(rows: np.ndarray, true_state: int, check_states: Sequence[int], agents: Sequence[int],
               out: np.ndarray | None = None) -> np.ndarray:
    """The log belief ratios log mu(c) - log mu(theta) of snapshot rows
    (..., m, n, k), written into out, or into a new C-ordered array, of shape
    (..., len(check_states), len(agents), m): entry [..., c, j, t] is
    agents[j]'s ratio of check_states[c] to true_state at row t, so a pair's
    series is one row. A zero true-state belief makes a ratio +inf, or nan
    where the check state's is zero too; a zero check-state belief beside a
    nonzero true one makes it -inf."""
    by_state = np.moveaxis(rows, (-3, -1), (-1, -3))  # (..., k, n, m), a view
    if out is None:
        out = np.empty(by_state.shape[:-3] + (len(check_states), len(agents), by_state.shape[-1]))
    truth = by_state[..., true_state, agents, :]
    with np.errstate(invalid="ignore"):  # -inf - -inf is nan
        for c, state in enumerate(check_states):
            np.subtract(by_state[..., state, agents, :], truth, out=out[..., c, :, :])
    return out


def fit_rates(
    windows: Iterable[tuple[np.ndarray, np.ndarray]],
    pi: StationaryDistribution,
    world: WorldModel,
    check_states: Sequence[int],
    agents: Sequence[int],
) -> RateReport:
    """Fit the decay rate for each (false state, agent) pair on every
    replication's window.

    windows yields one (snapshot times, log ratios) pair a replication: the
    ascending int64 times inside the fit window and the C-ordered
    (states, agents, m) log_ratios of check_states and agents at them. Each
    window's ratios are fitted in place and dropped before the next window
    is asked for, so a lazy iterable of windows is held one replication at a
    time. Rows and faults are as rate_report states them.
    """
    if not check_states:
        raise ValidationError("need at least one check state to fit a rate on")
    theoretical = [theoretical_rate(pi, world, cs) for cs in check_states]
    separated = [bool(world.separates[pi.pi > 0.0, cs].any()) for cs in check_states]
    picked = check_indices("agent", agents, world.n_agents)
    slopes = []
    for times, ratios in windows:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past the float range
            means = ratios.mean(axis=-1, keepdims=True)
        # a row's mean is finite unless it holds an inf or a nan (or its sum overflows)
        if not np.isfinite(means).all():
            # a zero true-state belief is exactly a ratio of +inf or nan in every check row
            zero_truth = ~(ratios < np.inf).any(axis=0)
            if zero_truth.any():
                j = int(np.argmax(zero_truth.any(axis=1)))
                raise ValidationError(f"replication {len(slopes) + 1}: agent {picked[j] + 1} has zero belief on "
                                      f"the true state at t={times[np.argmax(zero_truth[j])]}")
            zero_check = np.isneginf(ratios).any(axis=-1)
            if zero_check.any():
                k, j = np.unravel_index(np.argmax(zero_check), zero_check.shape)
                raise ValidationError(f"replication {len(slopes) + 1}: agent {picked[j] + 1} holds exactly zero "
                                      f"belief on state {world.state_space.states[check_states[k]]} inside the "
                                      "window; the log-ratio regression is undefined")
        # least-squares slopes: each mean runs along one contiguous row, as it
        # would on that row alone, and the stacked matmul is one BLAS dot a row.
        # The int64 times sum exactly in float64, so tc has the bits float times give
        tc = times - times.mean()
        ratios -= means
        slopes.append(-(np.matmul(ratios[..., None, :], tc[:, None])[..., 0, 0] / (tc @ tc)))
        del times, ratios  # dropped before the next window is taken
    slopes = np.stack(slopes, axis=-1)  # (states, agents, replications)
    empirical, stderr = slopes.mean(axis=-1), np.zeros(slopes.shape[:2])
    if slopes.shape[-1] > 1:
        stderr = slopes.std(ddof=1, axis=-1) / np.sqrt(slopes.shape[-1])
    rows = tuple(RateRow(check_state=cs, agent=a, theoretical=theo, empirical=emp, stderr=err, separated=sep)
                 for cs, theo, sep, emps, errs in zip(check_states, theoretical, separated, empirical.tolist(),
                                                      stderr.tolist())
                 for a, emp, err in zip(agents, emps, errs))
    return RateReport(replications=slopes.shape[-1], rows=rows)


def rate_report(
    traces: Iterable[SimulationTrace],
    pi: StationaryDistribution,
    world: WorldModel,
    check_states: Sequence[int],
    agents: Sequence[int],
    window: tuple[int, int],
) -> RateReport:
    """Fit the decay rate for each (false state, agent) pair on every trace.

    traces is any iterable of traces, at least one, taken once in order: a
    lazy one (as rate --traces reads its files) is read, checked and fitted
    one trace at a time, with no trace held once its fit is done, so a fault
    of replication r is raised before replication r + 1 is read.
    The rows run by check state, then agent, each in the order given: the
    row for check_states[k] and agents[j] is rows[k * len(agents) + j].
    empirical = mean of the negated per-replication slopes; stderr = sample
    standard deviation across replications divided by sqrt(R) (0.0 when R=1).
    Each trace fits all its pairs at once, with the bits of a lone pair's fit.
    The first faulty trace (1-based replication) names a zero true-state
    belief (first agent, then earliest t), else a zero check-state belief
    (first state, then agent). pi and every trace must fit the world, and at
    least one check state is given: with none, no ratio would show a zero
    true-state belief. Each trace's window goes to fit_rates as its
    log_ratios.
    """

    def windows():
        empty = True
        for tr in traces:
            empty = False
            check_sizes(world_agents=world.n_agents, trace_agents=tr.n)
            check_sizes(world_states=world.num_states, trace_states=tr.log_beliefs.shape[2])
            inside = window_snapshots(tr.snapshot_times, window, tr.horizon)
            yield tr.snapshot_times[inside], log_ratios(tr.log_beliefs[inside], world.true_state_index,
                                                        check_states, agents)
            del tr  # dropped before the next trace is taken
        if empty:
            raise ValidationError("rate_report needs at least one trace")

    return fit_rates(windows(), pi, world, check_states, agents)


@dataclass(frozen=True, eq=False)
class OccupancyReport(ArrayValue):
    """Backward-walk visit frequencies for one (agent, t), next to the
    stationary weights they should approach."""

    frequencies: np.ndarray
    stationary: np.ndarray


def occupancy(trace: SimulationTrace, agent: int, t: int, pi: StationaryDistribution) -> OccupancyReport:
    """Frequency of each agent along the backward walk from (agent, t),
    excluding the starting node itself (steps 1..t), against pi."""
    check_integer("time", t)
    if t < 1:
        raise ValidationError(f"occupancy needs t >= 1, got {t}")
    check_sizes(stationary_entries=len(pi.pi), trace_agents=trace.n)
    walk = backward_walk(trace, agent, t)
    freqs = np.bincount(walk[1:], minlength=trace.n) / float(t)
    return OccupancyReport(frequencies=freqs, stationary=pi.pi)


def belief_difference(
    trace: SimulationTrace,
    agent_a: int,
    agent_b: int,
    state: int,
) -> tuple[np.ndarray, np.ndarray]:
    """|belief_a(state) - belief_b(state)| at every snapshot time."""
    check_indices("agent", [agent_a, agent_b], trace.n)
    check_index("state", state, trace.log_beliefs.shape[2])
    mass = np.exp(trace.log_beliefs[:, [agent_a, agent_b], state])
    return trace.snapshot_times, np.abs(mass[:, 0] - mass[:, 1])


def _csv_cells(column: Sequence, width: int) -> Iterable:
    """column's cells for str.format in a row of width fields: each str as
    csv.writer writes it there (rendered once per distinct string, so its
    quoting is csv's), anything else as it is."""
    if not any(issubclass(t, str) for t in set(map(type, column))):
        return column
    pad, cut = [""] * (width - 1), width + 1  # the pad's commas and the \r\n

    def quoted(s: str) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow([s, *pad])
        return buf.getvalue()[:-cut]

    strings = {s: quoted(s) for s in {v for v in column if isinstance(v, str)}}
    return (strings[v] if isinstance(v, str) else v for v in column)


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence]) -> Path:
    """Write the bytes csv.writer writes for a header line and then the rows
    of equal-length columns, creating the parent directory. Cells are Python
    ints, floats and strings (numpy arrays go in through .tolist()): a float
    is written as its repr, an int as its str, a string quoted as csv.writer
    quotes it. The lines are made and written one at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    template = ",".join(["{}"] * len(header)) + "\r\n"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map(template.format, *(_csv_cells(c, len(header)) for c in columns)))
    return path


def write_rate_report(report: RateReport, world: WorldModel, path: str | Path) -> Path:
    """rate_report.csv: check_state,theoretical,agent,empirical,stderr."""
    labels, rows = world.state_space.states, report.rows
    return write_csv(path, ["check_state", "theoretical", "agent", "empirical", "stderr"], [
        [labels[r.check_state] for r in rows], [r.theoretical for r in rows], [r.agent + 1 for r in rows],
        [r.empirical for r in rows], [r.stderr for r in rows],
    ])


def write_occupancy(report: OccupancyReport, path: str | Path) -> Path:
    """occupancy.csv: agent_m,empirical,stationary."""
    n = len(report.frequencies)
    return write_csv(path, ["agent_m", "empirical", "stationary"],
                     [range(1, n + 1), report.frequencies.tolist(), report.stationary.tolist()])


def write_belief_difference(times: np.ndarray, diffs: np.ndarray, path: str | Path) -> Path:
    """belief_diff.csv: t,value."""
    return write_csv(path, ["t", "value"], [times.tolist(), diffs.tolist()])
