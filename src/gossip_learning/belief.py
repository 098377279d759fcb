"""Log-space beliefs and the without-recall Bayes update rules.

Beliefs are kept as log-probability vectors normalized by a max-shifted
log-sum-exp, computed by one array kernel along the last axis: the simulator
updates every agent of every replication in one call per round, and the
vector operations below call the same kernel on a single belief. The shift
makes the largest entry's contribution exact, which keeps an uninformative
agent's belief bit-for-bit constant under self-updates, and it defers
underflow: false-state mass decays exponentially and would leave
linear-space floats within a few thousand rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleSignalError, ValidationError
from .world import WorldModel

NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class BeliefState:
    """One agent's opinion at one time: normalized log probabilities over states."""

    agent: int
    time: int
    log_probs: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=float)
        if lp.ndim != 1:
            raise ValidationError("belief must be a vector of log probabilities")
        total = np.exp(lp).sum()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValidationError(f"belief mass is {total!r}, expected 1 within {NORMALIZATION_TOL}")
        lp = lp.copy()
        lp.flags.writeable = False
        object.__setattr__(self, "log_probs", lp)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


def bayes_log_posterior(log_prior: np.ndarray, log_lik_col: np.ndarray) -> np.ndarray:
    """Normalized log posteriors from normalized log priors plus log-likelihood
    columns, along the last axis.

    One call updates one belief vector or a whole round of them: the simulator
    passes every replication's gathered neighbor beliefs as an (R, n, k)
    array with the matching (R, n, k) columns, and each row comes out exactly
    as it would alone, so replaying a trace one vector at a time reproduces
    the simulated beliefs bit for bit. -inf entries (zero prior or zero
    likelihood) stay -inf in the posterior.
    """
    y = log_prior + log_lik_col
    m = np.max(y, axis=-1, keepdims=True)
    if np.any(m == -np.inf) or np.any(np.isnan(m)):
        raise ImpossibleSignalError("signal has zero likelihood under every state with mass")
    # a constant column carries no evidence; returning the prior untouched
    # keeps uninformative updates exact in log space, not just up to ulps
    first = log_lik_col[..., :1]
    constant = (first != -np.inf) & np.all(log_lik_col == first, axis=-1, keepdims=True)
    d = y - m
    return np.where(constant, log_prior, d - np.log(np.exp(d).sum(axis=-1, keepdims=True)))


def _check_signal(world: WorldModel, agent: int, s: int) -> int:
    s = int(s)
    if not (0 <= s < world.likelihoods[agent].signal_space_size):
        raise ValidationError(
            f"signal {s} outside agent {agent}'s signal space "
            f"0..{world.likelihoods[agent].signal_space_size - 1}"
        )
    return s


def initial_belief(world: WorldModel, agent: int, s0: int) -> BeliefState:
    """Time-0 Bayes update of the common prior on the first private signal."""
    s0 = _check_signal(world, agent, s0)
    post = bayes_log_posterior(world.prior.log_nu, world.log_likelihood(agent)[:, s0])
    return BeliefState(agent=agent, time=0, log_probs=post)


def self_update(world: WorldModel, belief: BeliefState, s: int) -> BeliefState:
    """Bayes update of an agent's own belief on her new signal (no neighbor)."""
    s = _check_signal(world, belief.agent, s)
    post = bayes_log_posterior(belief.log_probs, world.log_likelihood(belief.agent)[:, s])
    return BeliefState(agent=belief.agent, time=belief.time + 1, log_probs=post)


def gossip_update(world: WorldModel, neighbor_belief: BeliefState, agent: int, s: int) -> BeliefState:
    """Bayes update taking the chosen neighbor's belief as the prior and the
    updating agent's own likelihood for her new signal."""
    s = _check_signal(world, agent, s)
    if len(neighbor_belief.log_probs) != world.num_states:
        raise ValidationError("neighbor belief is over a different state space")
    post = bayes_log_posterior(neighbor_belief.log_probs, world.log_likelihood(agent)[:, s])
    return BeliefState(agent=agent, time=neighbor_belief.time + 1, log_probs=post)


def log_ratio(belief: BeliefState, check_state: int, true_state: int) -> float:
    """log of belief(check_state) / belief(true_state); -inf if the check
    state has zero mass."""
    k = len(belief.log_probs)
    if not (0 <= check_state < k and 0 <= true_state < k):
        raise ValidationError(f"state index out of range for {k} states")
    denom = belief.log_probs[true_state]
    if denom == -np.inf:
        raise ValidationError(
            f"belief has zero mass on the true state {true_state}; ratio undefined"
        )
    return float(belief.log_probs[check_state] - denom)
