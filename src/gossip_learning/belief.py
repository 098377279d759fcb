"""The log-space Bayes kernel of the without-recall update rule.

Beliefs are log-probability vectors normalized by a max-shifted log-sum-exp
along the last axis, so one call updates a single belief or every agent of
every replication in a round. The shift makes the largest entry's
contribution exact, which keeps an uninformative agent's belief bit-for-bit
constant, and it defers underflow: false-state mass decays exponentially and
would leave linear-space floats within a few thousand rounds.
"""

from __future__ import annotations

import numpy as np

from .errors import ImpossibleSignalError


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
