"""State space, common prior, per-agent signal structures, and identifiability.

All divergences are natural-log (nats). Agent and state indices are 0-based;
state labels carry the user-facing names.

Every agent's likelihood table lives in one zero-padded tensor of shape
(n_agents, num_states, max signals): ``tables[i, s, x]`` is l_i(x | s), and
entries past agent i's ``signal_counts[i]`` signals are 0. Validation,
log-likelihood columns and the per-agent divergence table are each one array
pass over that tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .arrays import PROB_SUM_TOL, ArrayValue, float_array, int_array, read_only, rows_by_length, sum_left_to_right
from .errors import ValidationError, check_indices

# KL divergence below this is treated as "states look identical to the agent".
DISTINGUISH_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Ordered candidate states plus the realized one. Labels must differ
    as text, since every file and report writes them as text."""

    states: tuple[Hashable, ...]
    true_state_index: int

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("state space must contain at least one state")
        seen: dict[str, Hashable] = {}
        for label in self.states:
            if str(label) in seen:
                raise ValidationError(
                    f"state labels must be unique as text: {seen[str(label)]!r} and {label!r} both read {str(label)!r}"
                )
            seen[str(label)] = label
        if not (0 <= self.true_state_index < len(self.states)):
            raise ValidationError(f"true_state_index {self.true_state_index} out of range")

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class Prior(ArrayValue):
    """Strictly positive common prior over the state space."""

    nu: np.ndarray

    def __post_init__(self):
        nu = float_array(self.nu)
        if nu is None or nu.ndim != 1:
            raise ValidationError("prior must be a vector of numbers")
        bad = ~(nu > 0.0)  # NaN is not positive either
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(
                f"prior must be strictly positive on every state; entry {k + 1} is {float(nu[k])!r}"
            )
        if abs(nu.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"prior sums to {float(nu.sum())!r}, expected 1 within {PROB_SUM_TOL}")
        self._store(nu=nu)

    def check_states(self, space: StateSpace) -> None:
        """Raise unless the prior holds one entry per state of space."""
        if len(self.nu) != space.size:
            raise ValidationError(f"prior length {len(self.nu)} != {space.size} states")

    @cached_property
    def log_nu(self) -> np.ndarray:
        return read_only(np.log(self.nu))


def _check_tables(tables: np.ndarray, counts: np.ndarray, labels: Sequence, first_agent: int = 0) -> None:
    """Raise for the first agent (numbered from first_agent) whose table has a
    negative entry or a row that does not sum to 1; within one agent a
    negative entry is reported before a row sum. Only the rows that stand
    for the states ``labels`` names are read, and a state is named by its
    label. Each row is summed over its agent's own signals as one
    contiguous row, so the sum has the bits numpy gives that agent's table
    alone."""
    tables = tables[:, : len(labels)]
    negative = tables < 0.0
    n = len(tables)
    neg_agent = int(np.argmax(negative.any(axis=(1, 2)))) if negative.any() else n
    sums = np.empty(tables.shape[:2])
    for c, group in rows_by_length(counts):
        sums[group] = tables[group, :, :c].sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= PROB_SUM_TOL)  # a row holding NaN sums to NaN
    sum_agent = int(np.argmax(bad.any(axis=1))) if bad.any() else n
    if neg_agent < n and neg_agent <= sum_agent:
        state, signal = (int(x) for x in np.argwhere(negative[neg_agent])[0])
        raise ValidationError(
            f"agent {first_agent + neg_agent + 1}: negative likelihood entry "
            f"{float(tables[neg_agent, state, signal])!r} for state {labels[state]}, signal {signal}"
        )
    if sum_agent < n:
        state = int(np.argmax(bad[sum_agent]))
        raise ValidationError(
            f"agent {first_agent + sum_agent + 1}: likelihood row for state {labels[state]} sums to "
            f"{float(sums[sum_agent, state])!r}, expected 1 within {PROB_SUM_TOL}"
        )


@dataclass(frozen=True, eq=False)
class WorldModel(ArrayValue):
    """The state space, the common prior, and every agent's likelihood table.

    ``tables`` is the read-only (n_agents, num_states, max signals) tensor,
    zero past each agent's ``signal_counts`` signals (integers by the rule
    of ``arrays.int_array``); each row of an agent's table is a distribution
    over its signals. Worlds compare by value.
    """

    state_space: StateSpace
    prior: Prior
    tables: np.ndarray
    signal_counts: np.ndarray

    def __post_init__(self):
        t = float_array(self.tables)
        if t is None:
            raise ValidationError("likelihood tables must be numbers")
        counts = int_array(self.signal_counts)
        if counts is None:
            raise ValidationError("signal counts must be integers")
        if t.ndim != 3 or counts.shape != t.shape[:1]:
            raise ValidationError(
                f"likelihood tables must be one (agents, states, signals) array with a signal "
                f"count per agent, got shapes {t.shape} and {counts.shape}"
            )
        flat = counts < 1
        if flat.any():
            raise ValidationError(f"agent {int(np.argmax(flat)) + 1}: likelihood table must be 2-D")
        past = np.arange(t.shape[2]) >= counts[:, None, None]
        spill = (counts > t.shape[2]) | np.any(past & (t != 0.0), axis=(1, 2))
        if spill.any():
            i = int(np.argmax(spill))
            raise ValidationError(
                f"agent {i + 1}: the tensor must hold {counts[i]} signals, zero-padded beyond them"
            )
        _check_tables(t, counts, self.state_space.states)
        k = self.state_space.size
        self.prior.check_states(self.state_space)
        if t.shape[1] != k:
            raise ValidationError(f"likelihood tables have {t.shape[1]} rows, expected one per state ({k})")
        self._store(tables=t, signal_counts=counts)

    @classmethod
    def from_tables(cls, state_space: StateSpace, prior: Prior, tables: Sequence) -> WorldModel:
        """A world from one (num_states, signals) table per agent, padded into
        the tensor. Tables that form one (agents, states, signals) array of
        numbers are read as that array; otherwise they are read one agent at
        a time. The first faulty agent is reported, and within it a table
        that is not a 2-D array of numbers first, then a negative entry, then
        a row sum, then a row count other than one per state. Entries are
        read only in the rows that stand for states."""
        k = state_space.size
        whole = float_array(tables)
        if whole is not None and whole.ndim == 3 and whole.shape[1] == k and whole.shape[2] >= 1:
            return cls(state_space, prior, whole, np.full(len(whole), whole.shape[2]))
        arrays = [float_array(t) for t in tables]
        fits = [a is not None and a.ndim == 2 and a.shape[1] >= 1 and a.shape[0] == k for a in arrays]
        first = fits.index(False) if False in fits else len(arrays)
        counts = np.array([a.shape[1] for a in arrays[:first]], dtype=np.int64)
        padded = np.zeros((first, k, counts.max(initial=1)))
        for i, a in enumerate(arrays[:first]):
            padded[i, :, : a.shape[1]] = a
        if first == len(arrays):
            return cls(state_space, prior, padded, counts)
        _check_tables(padded, counts, state_space.states)
        a = arrays[first]
        if a is None:
            raise ValidationError(f"agent {first + 1}: likelihood table rows must be numbers, all rows of one length")
        if a.ndim != 2 or a.shape[1] < 1:
            raise ValidationError(f"agent {first + 1}: likelihood table must be 2-D")
        _check_tables(a[None], np.array([a.shape[1]]), state_space.states, first_agent=first)
        raise ValidationError(f"agent {first + 1}: table has {a.shape[0]} rows but there are {k} states")

    @property
    def n_agents(self) -> int:
        return len(self.tables)

    @property
    def num_states(self) -> int:
        return self.state_space.size

    @property
    def true_state_index(self) -> int:
        return self.state_space.true_state_index

    def likelihood(self, agent: int) -> np.ndarray:
        """Agent's (num_states, signals) table, a read-only view."""
        return self.tables[agent, :, : self.signal_counts[agent]]

    @cached_property
    def log_columns(self) -> np.ndarray:
        """Every agent's log-likelihood columns in one (n_agents, max signals,
        num_states) array: [i, s] is log l_i(s | .), and signals past agent
        i's signal space are -inf. Computed once, so the simulator and every
        replay read the exact same floats (log of a zero entry is -inf by
        design)."""
        with np.errstate(divide="ignore"):
            return read_only(np.ascontiguousarray(np.log(self.tables).transpose(0, 2, 1)))

    @cached_property
    def divergences(self) -> np.ndarray:
        """(n_agents, num_states) array: [i, c] is D(l_i(.|theta) || l_i(.|c)),
        what agent i's signals tell the truth theta from state c (0 at c =
        theta, +inf where the truth has a signal c cannot produce)."""
        theta = self.true_state_index
        return read_only(kl_divergence(self.tables[:, theta : theta + 1], self.tables))

    @cached_property
    def separates(self) -> np.ndarray:
        """(n_agents, num_states) bool array: [i, c] when agent i tells the truth
        from state c, a divergence above DISTINGUISH_TOL. check and rate both read it."""
        return read_only(self.divergences > DISTINGUISH_TOL)


def kl_divergence(p, q):
    """D(p || q) in nats along the last axis, with 0 log 0 = 0 and +inf on
    support mismatch; leading axes broadcast. Two 1-D inputs give a float.

    Each pair's terms, 0 where p is, are summed left to right, so a stacked
    call gives every pair the bits it gets alone."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    try:
        if p.shape[-1:] != q.shape[-1:]:
            raise ValueError
        p, q = np.broadcast_arrays(p, q)
    except ValueError:
        raise ValidationError(f"length mismatch: {p.shape} vs {q.shape}") from None
    if p.shape[-1:] == (0,):
        raise ValidationError(f"empty distributions: shape {p.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    # Rounding can push near-equal inputs a hair below zero.
    out = np.maximum(sum_left_to_right(terms), 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Which agents in a node set separate each false state from the truth."""

    witnesses: tuple[tuple[int, tuple[int, ...]], ...]  # (false state, witnesses)
    identifiable: bool


def check_global_identifiability(world: WorldModel, agents: Sequence[int]) -> IdentifiabilityReport:
    """Verdict: every false state is distinguished from the truth by some agent
    in the given set (pass the recurrent class of the selection chain), read
    as a set. Each state's witnesses ascend, each agent once."""
    # a mask over the agents gives them ascending, each once, as np.unique
    # would without its first call importing numpy.ma
    chosen = np.zeros(world.n_agents, dtype=bool)
    chosen[check_indices("agent", agents, world.n_agents)] = True
    members = np.flatnonzero(chosen)
    if not members.size:
        raise ValidationError("agent set must be nonempty")
    theta = world.true_state_index
    separated = world.separates[members]
    witnesses = tuple(
        (check, tuple(members[separated[:, check]].tolist()))
        for check in range(world.num_states)
        if check != theta
    )
    return IdentifiabilityReport(witnesses=witnesses, identifiable=all(found for _, found in witnesses))
