"""The log-space Bayes kernel of the without-recall update rule.

Beliefs are log-probability vectors normalized by a max-shifted log-sum-exp
along the last axis, so one call updates a single belief or a stack of them.
The shift makes the largest entry's contribution exact, which keeps an
uninformative agent's belief bit-for-bit constant, and it defers underflow:
false-state mass decays exponentially and would leave linear-space floats
within a few thousand rounds.
"""

from __future__ import annotations

import numpy as np

from .arrays import sum_left_to_right
from .errors import ImpossibleSignalError


def constant_columns(log_lik_col: np.ndarray) -> np.ndarray:
    """Whether each log-likelihood column, along the last axis (kept as a
    length-1 axis), is constant: every entry equal to a first entry that is
    not -inf. A constant column carries no evidence, so an update with it
    returns the prior untouched, which keeps uninformative updates exact in
    log space, not just up to ulps."""
    first = log_lik_col[..., :1]
    return (first != -np.inf) & np.all(log_lik_col == first, axis=-1, keepdims=True)


def bayes_log_posterior(log_prior: np.ndarray, log_lik_col: np.ndarray) -> np.ndarray:
    """Normalized log posteriors from normalized log priors plus log-likelihood
    columns, along the last axis.

    The states are summed left to right, so each row of a stacked call comes
    out exactly as it would alone. The simulator's round loop makes the same
    operations in the same order on state-major buffers, and reads the same
    constant-column rule, so replaying a trace one vector at a time gives
    the simulated beliefs bit for bit. -inf entries stay -inf.
    """
    y = log_prior + log_lik_col
    m = np.max(y, axis=-1, keepdims=True)
    if np.any(m == -np.inf) or np.any(np.isnan(m)):
        raise ImpossibleSignalError("signal has zero likelihood under every state with mass")
    d = y - m
    return np.where(constant_columns(log_lik_col), log_prior, d - np.log(sum_left_to_right(np.exp(d))[..., None]))
