"""Directed agent network, neighbor-selection matrices, and chain structure.

Nodes are indexed 0..n-1 internally; the CLI converts to the 1-based ids used
in configs and reports. An edge (j, i) means "agent i observes agent j", so
the in-neighborhood of i is the set of agents whose beliefs i can read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    MultipleRecurrentClassesError,
    SelectionSupportError,
    StationarySolveError,
    ValidationError,
)

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10

# Above this size the dense linear solve is replaced by power iteration.
DIRECT_SOLVE_LIMIT = 2000


@dataclass(frozen=True)
class DirectedNetwork:
    """Directed graph on agents 0..n-1 with edge (j, i) = "i observes j"."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _inbound: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"agent count must be >= 1, got {self.n}")
        inbound = [[] for _ in range(self.n)]
        for j, i in self.edges:
            if not (0 <= j < self.n and 0 <= i < self.n):
                raise ValidationError(f"edge ({j}, {i}) has an endpoint outside 0..{self.n - 1}")
            if j == i:
                raise ValidationError(
                    f"self-loop ({j}, {i}) not allowed; use a selection matrix "
                    "with self-weight instead"
                )
            inbound[i].append(j)
        object.__setattr__(self, "_inbound", tuple(tuple(sorted(js)) for js in inbound))

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents whose beliefs agent i observes, ascending."""
        return self._inbound[i]

    def degree(self, i: int) -> int:
        return len(self._inbound[i])

    def successors(self) -> list[list[int]]:
        """Adjacency in the edge direction: adj[j] lists i with (j, i) an edge."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for j, i in self.edges:
            adj[j].append(i)
        return [sorted(out) for out in adj]


def from_edge_list(n: int, edges: Sequence[tuple[int, int]]) -> DirectedNetwork:
    """Build a network from (source, target) pairs, rejecting duplicates."""
    seen = set()
    for e in edges:
        pair = (int(e[0]), int(e[1]))
        if pair in seen:
            raise ValidationError(f"duplicate edge {pair}")
        seen.add(pair)
    return DirectedNetwork(n=n, edges=tuple((int(a), int(b)) for a, b in edges))


@dataclass(frozen=True)
class SelectionMatrix:
    """Row-stochastic matrix of neighbor-choice probabilities.

    Row i gives the probability of agent i consulting agent j in a round;
    support is restricted to in-neighbors plus self (enforced by the
    factories, which know the network).
    """

    n: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.n, self.n):
            raise ValidationError(f"selection matrix must be {self.n}x{self.n}, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("selection matrix entries must be finite")
        if np.any(p < 0.0):
            i, j = np.argwhere(p < 0.0)[0]
            raise ValidationError(
                f"agent {i + 1} has negative probability {float(p[i, j])!r} of choosing agent {j + 1}"
            )
        sums = p.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            i = int(bad[0])
            if sums[i] == 0.0:
                raise ValidationError(f"the row of agent {i + 1} has zero mass on every entry")
            raise ValidationError(
                f"the row of agent {i + 1} sums to {float(sums[i])!r}, expected 1 within {ROW_SUM_TOL}"
            )
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def row(self, i: int) -> np.ndarray:
        return self.probs[i]

    def support(self, i: int) -> np.ndarray:
        """Indices j with positive probability in row i, ascending."""
        return np.nonzero(self.probs[i] > 0.0)[0]


def uniform_selection_matrix(net: DirectedNetwork) -> SelectionMatrix:
    """Equal weight on each in-neighbor; agents with no neighbors self-select."""
    p = np.zeros((net.n, net.n))
    for i in range(net.n):
        nbrs = net.in_neighbors(i)
        if nbrs:
            p[i, list(nbrs)] = 1.0 / len(nbrs)
        else:
            p[i, i] = 1.0
    return SelectionMatrix(n=net.n, probs=p)


def check_selection_support(net: DirectedNetwork, P: SelectionMatrix) -> None:
    """Reject a row of P with mass outside its agent's in-neighbors plus self."""
    for i in range(net.n):
        allowed = set(net.in_neighbors(i)) | {i}
        for j in P.support(i):
            if int(j) not in allowed:
                raise SelectionSupportError(i, int(j))


def custom_selection_matrix(net: DirectedNetwork, rows: Sequence[Sequence[float]]) -> SelectionMatrix:
    """Validate explicit selection rows against the network's neighborhoods."""
    mat = SelectionMatrix(n=net.n, probs=np.asarray(rows, dtype=float))
    check_selection_support(net, mat)
    return mat


def _tarjan_sccs(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan. Returns SCCs in reverse topological order
    (every SCC is emitted after all SCCs it can reach)."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u, _ = work[-1]
                lowlink[u] = min(lowlink[u], lowlink[v])
    return sccs


def is_strongly_connected(net: DirectedNetwork) -> bool:
    """True iff every node reaches every other along directed edges."""
    return len(_tarjan_sccs(net.successors())) == 1


@dataclass(frozen=True)
class RecurrentClasses:
    """Closed communicating classes of a selection chain.

    ``classes`` are the recurrent classes, each ascending, ordered by their
    smallest member. ``reachable_from[i]`` lists the indices (into
    ``classes``) of the recurrent classes the chain can reach from node i.
    """

    classes: tuple[tuple[int, ...], ...]
    reachable_from: tuple[tuple[int, ...], ...]

    @property
    def transient(self) -> tuple[int, ...]:
        rec = {m for c in self.classes for m in c}
        return tuple(i for i in range(len(self.reachable_from)) if i not in rec)


def recurrent_classes(P: SelectionMatrix) -> RecurrentClasses:
    """Partition the chain's states into recurrent classes and map reachability.

    Works on the support graph of P (edge i -> j iff p_ij > 0). A class is
    recurrent iff it is closed: no positive-probability transition leaves it.
    """
    n = P.n
    adj = [[int(j) for j in P.support(i)] for i in range(n)]
    sccs = _tarjan_sccs(adj)
    scc_id = [0] * n
    for k, comp in enumerate(sccs):
        for v in comp:
            scc_id[v] = k

    closed = []
    for k, comp in enumerate(sccs):
        members = set(comp)
        closed.append(all(w in members for v in comp for w in adj[v]))

    # Reverse topological emission order lets reachability fold left to right.
    reach: list[set[int]] = [set() for _ in sccs]
    for k, comp in enumerate(sccs):
        if closed[k]:
            reach[k].add(k)
        for v in comp:
            for w in adj[v]:
                if scc_id[w] != k:
                    reach[k] |= reach[scc_id[w]]

    order = sorted((k for k in range(len(sccs)) if closed[k]), key=lambda k: sccs[k][0])
    renumber = {k: pos for pos, k in enumerate(order)}
    classes = tuple(tuple(sccs[k]) for k in order)
    reachable = tuple(
        tuple(sorted(renumber[k] for k in reach[scc_id[v]])) for v in range(n)
    )
    return RecurrentClasses(classes=classes, reachable_from=reachable)


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector fixed by the selection chain, zero on transient states."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1:
            raise ValidationError("stationary distribution must be a vector")
        if np.any(pi < 0.0):
            raise ValidationError("stationary distribution has a negative entry")
        if abs(pi.sum() - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"stationary distribution sums to {pi.sum()!r}")
        pi = pi.copy()
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


def _direct_stationary(sub: np.ndarray) -> np.ndarray:
    # Replace one balance equation with the normalization constraint; for a
    # single closed communicating class the resulting system is nonsingular.
    m = sub.shape[0]
    a = sub.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _power_stationary(sub: np.ndarray, tol: float = 1e-13, max_iter: int = 1_000_000) -> np.ndarray:
    # Iterate the lazy chain (I + P)/2: same fixed point, and aperiodic, so
    # plain power iteration converges geometrically even for periodic P.
    m = sub.shape[0]
    x = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        nxt = 0.5 * (x + x @ sub)
        if np.max(np.abs(nxt - x)) <= tol:
            x = nxt
            break
        x = nxt
    return x


def stationary_distribution(P: SelectionMatrix, method: str = "auto") -> StationaryDistribution:
    """Solve pi P = pi for a chain with a single recurrent class.

    Raises MultipleRecurrentClassesError when the fixed vector is not unique.
    The result is re-checked against the defining equation independently of
    the solver used, and StationarySolveError is raised when it fails.
    """
    structure = recurrent_classes(P)
    if len(structure.classes) != 1:
        raise MultipleRecurrentClassesError(structure.classes)
    members = list(structure.classes[0])
    sub = P.probs[np.ix_(members, members)]

    if method == "auto":
        method = "direct" if len(members) <= DIRECT_SOLVE_LIMIT else "power"
    if method == "direct":
        x = _direct_stationary(sub)
    elif method == "power":
        x = _power_stationary(sub)
    else:
        raise ValidationError(f"unknown stationary solver {method!r}")

    x = np.clip(x, 0.0, None)
    x /= x.sum()
    pi = np.zeros(P.n)
    pi[members] = x

    residual = float(np.max(np.abs(pi @ P.probs - pi)))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise StationarySolveError(f"stationary solve residual {residual!r} exceeds {STATIONARY_RESIDUAL_TOL}")
    return StationaryDistribution(pi=pi)
