"""State space, common prior, per-agent signal structures, and identifiability.

All divergences are natural-log (nats). Agent and state indices are 0-based;
state labels carry the user-facing names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .errors import ValidationError

PROB_SUM_TOL = 1e-12

# KL divergence below this is treated as "states look identical to the agent".
DISTINGUISH_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Ordered, uniquely-labeled candidate states plus the realized one."""

    states: tuple[Hashable, ...]
    true_state_index: int

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("state space must contain at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValidationError("state labels must be unique")
        if not (0 <= self.true_state_index < len(self.states)):
            raise ValidationError(f"true_state_index {self.true_state_index} out of range")

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, label: Hashable) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ValidationError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class Prior:
    """Strictly positive common prior over the state space."""

    nu: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        if nu.ndim != 1:
            raise ValidationError("prior must be a vector")
        if np.any(nu <= 0.0):
            raise ValidationError("prior must be strictly positive on every state")
        if abs(nu.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"prior sums to {nu.sum()!r}, expected 1 within {PROB_SUM_TOL}")
        nu = nu.copy()
        nu.flags.writeable = False
        object.__setattr__(self, "nu", nu)

    @cached_property
    def log_nu(self) -> np.ndarray:
        out = np.log(self.nu)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class LikelihoodTable:
    """Signal distribution per candidate state: rows are states, columns signals."""

    agent: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2 or t.shape[1] < 1:
            raise ValidationError(f"agent {self.agent}: likelihood table must be 2-D")
        if np.any(t < 0.0):
            raise ValidationError(f"agent {self.agent}: negative likelihood entry")
        bad = np.nonzero(np.abs(t.sum(axis=1) - 1.0) > PROB_SUM_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"agent {self.agent}: likelihood row for state index {int(bad[0])} "
                f"sums to {t.sum(axis=1)[int(bad[0])]!r}"
            )
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def signal_space_size(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class WorldModel:
    """The tuple (state space, common prior, one likelihood table per agent)."""

    state_space: StateSpace
    prior: Prior
    likelihoods: tuple[LikelihoodTable, ...]

    def __post_init__(self):
        k = self.state_space.size
        if len(self.prior.nu) != k:
            raise ValidationError(f"prior length {len(self.prior.nu)} != {k} states")
        for lt in self.likelihoods:
            if lt.table.shape[0] != k:
                raise ValidationError(
                    f"agent {lt.agent}: likelihood table has {lt.table.shape[0]} rows, "
                    f"expected one per state ({k})"
                )

    @property
    def n_agents(self) -> int:
        return len(self.likelihoods)

    @property
    def num_states(self) -> int:
        return self.state_space.size

    @property
    def true_state_index(self) -> int:
        return self.state_space.true_state_index

    def likelihood(self, agent: int) -> np.ndarray:
        return self.likelihoods[agent].table

    @cached_property
    def log_columns(self) -> np.ndarray:
        """Every agent's log-likelihood columns in one (n_agents, max signals,
        num_states) array: [i, s] is log l_i(s | .), and signals past agent
        i's signal space are padded with -inf. Computed once, so the simulator
        and every replay read the exact same floats (log of a zero entry is
        -inf by design)."""
        s_max = max((lt.signal_space_size for lt in self.likelihoods), default=0)
        out = np.full((self.n_agents, s_max, self.num_states), -np.inf)
        with np.errstate(divide="ignore"):
            for i, lt in enumerate(self.likelihoods):
                out[i, : lt.signal_space_size] = np.log(lt.table).T
        out.flags.writeable = False
        return out


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """D(p || q) in nats, with 0 log 0 = 0 and +inf on support mismatch."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"length mismatch: {p.shape} vs {q.shape}")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    val = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
    # Rounding can push near-equal inputs a hair below zero.
    return max(val, 0.0)


def distinguishable(world: WorldModel, agent: int, a: int, b: int) -> bool:
    """Whether the agent's signal distributions under states a and b differ."""
    table = world.likelihood(agent)
    return kl_divergence(table[a], table[b]) > DISTINGUISH_TOL


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Which agents in a node set separate each false state from the truth."""

    true_state_index: int
    agents_checked: tuple[int, ...]
    witnesses: tuple[tuple[int, tuple[int, ...]], ...]  # (false state, witnesses)
    identifiable: bool

    def witnesses_for(self, check_state: int) -> tuple[int, ...]:
        for state, agents in self.witnesses:
            if state == check_state:
                return agents
        raise ValidationError(f"state index {check_state} is not a false state in this report")


def check_global_identifiability(world: WorldModel, agents: Sequence[int]) -> IdentifiabilityReport:
    """Verdict: every false state is distinguished from the truth by some agent
    in the given set (pass the recurrent class of the selection chain)."""
    agents = tuple(sorted(int(a) for a in agents))
    if not agents:
        raise ValidationError("agent set must be nonempty")
    theta = world.true_state_index
    witnesses = []
    ok = True
    for check in range(world.num_states):
        if check == theta:
            continue
        found = tuple(a for a in agents if distinguishable(world, a, theta, check))
        witnesses.append((check, found))
        if not found:
            ok = False
    return IdentifiabilityReport(
        true_state_index=theta,
        agents_checked=agents,
        witnesses=tuple(witnesses),
        identifiable=ok,
    )
