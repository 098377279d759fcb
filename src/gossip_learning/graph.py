"""Directed agent network, neighbor-selection matrices, and chain structure.

Nodes are indexed 0..n-1 internally; the CLI converts to the 1-based ids used
in configs and reports. An edge (j, i) means "agent i observes agent j", so
the in-neighborhood of i is the set of agents whose beliefs i can read.

Both the network and the selection chain are held in compressed sparse row
(CSR) form: row i's entries are ``indices[indptr[i]:indptr[i + 1]]``,
ascending. For the network a row lists an agent's in-neighbors; for a
selection matrix it lists the agents the row's agent consults with positive
probability, next to those probabilities in ``probs``. Storage and every
pass over a chain are O(n + nnz), never O(n^2): a dense matrix is built only
for a recurrent class small enough for the direct solve, or on request
(``SelectionMatrix.to_dense``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import MultipleRecurrentClassesError, StationarySolveError, ValidationError

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10

# Above this size the dense linear solve is replaced by power iteration.
DIRECT_SOLVE_LIMIT = 2000


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR structure."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def rows_by_length(indptr: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of a CSR structure, grouped by length d, as (rows, slots):
    slots[j] holds the d entry positions of row rows[j]."""
    lengths = np.diff(indptr)
    for d in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == d)
        yield rows, indptr[rows, None] + np.arange(d)


def csr_contains(indptr: np.ndarray, indices: np.ndarray, rows, cols) -> np.ndarray:
    """Whether each (rows, cols) pair, broadcast together, is a stored entry
    of a square CSR structure whose rows' indices ascend; cols must lie in
    0..n-1. Each entry is searched as the key row * n + column, and the
    structure's keys ascend."""
    n = len(indptr) - 1
    # a last key past every entry closes the structure's keys
    stored = np.append(_csr_rows(indptr) * n + indices, n * n)
    keys = np.asarray(rows) * n + np.asarray(cols)
    return stored[np.searchsorted(stored, keys)] == keys


def _is_integer_pair(pair) -> bool:
    return (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
            and all(isinstance(x, (int, np.integer)) for x in pair))


def _integer_pairs(edges, n: int) -> tuple[np.ndarray, int]:
    """The leading edges that are pairs of integers, as an (m, 2) int64
    array, and m. An endpoint beyond int64 is clipped to -1 or n: outside
    0..n-1 either way."""
    try:
        e = np.asarray(edges)
    except ValueError:  # pairs of different lengths
        e = None
    if e is not None and e.dtype.kind in "iu" and e.shape == (len(edges), 2):
        return e.astype(np.int64, copy=False), len(edges)
    typed = next((k for k, pair in enumerate(edges) if not _is_integer_pair(pair)), len(edges))
    clipped = [[min(max(x, -1), n) for x in pair] for pair in edges[:typed]]
    return np.array(clipped, dtype=np.int64).reshape(-1, 2), typed


@dataclass(frozen=True)
class DirectedNetwork:
    """Directed graph on agents 0..n-1 with edge (j, i) = "i observes j".

    The edge rules are checked here, and only here: each edge a pair of
    integers, no endpoint outside 0..n-1, no self-loop, no edge twice. The
    first faulty edge is named by its position and its 1-based endpoints.
    ``in_indptr`` and ``in_indices`` are the in-neighbor lists in CSR form,
    each list ascending.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    in_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    in_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValidationError(f"agent count must be >= 1, got {n}")
        e, typed = _integer_pairs(self.edges, n)
        outside = np.any((e < 0) | (e >= n), axis=1)
        loop = e[:, 0] == e[:, 1]
        order = np.lexsort((e[:, 0], e[:, 1]))  # by target, then source; stable
        ordered = e[order]
        repeated = np.zeros(len(e), dtype=bool)  # equal to an earlier edge
        repeated[order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]] = True
        bad = outside | loop | repeated
        if bad.any():
            k = int(np.argmax(bad))
            j, i = (int(x) + 1 for x in self.edges[k])
            if outside[k]:
                raise ValidationError(f"edges[{k}]: [{j}, {i}] has an endpoint outside 1..{n}")
            if loop[k]:
                raise ValidationError(f"edges[{k}]: self-loop [{j}, {i}] not allowed")
            raise ValidationError(f"edges[{k}]: duplicate edge [{j}, {i}]")
        if typed < len(self.edges):
            raise ValidationError(f"edges[{typed}]: expected a pair of integers, got {self.edges[typed]!r}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(e[:, 1], minlength=n), out=indptr[1:])
        for name, arr in (("in_indptr", indptr), ("in_indices", e[order, 0])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents whose beliefs agent i observes, ascending."""
        return tuple(self.in_indices[self.in_indptr[i]:self.in_indptr[i + 1]].tolist())

    def degree(self, i: int) -> int:
        return int(self.in_indptr[i + 1] - self.in_indptr[i])


def from_edge_list(n: int, edges: Sequence[tuple[int, int]]) -> DirectedNetwork:
    """Build a network from (source, target) pairs, stored as a tuple of
    pairs of Python ints."""
    return DirectedNetwork(n=n, edges=tuple(map(tuple, np.asarray(edges).tolist())))


@dataclass(frozen=True)
class SelectionMatrix:
    """Row-stochastic matrix of neighbor-choice probabilities, in CSR form.

    Row i gives the probability of agent i consulting agent j in a round.
    Only positive entries are stored: ``indices[indptr[i]:indptr[i + 1]]``
    are the agents row i can choose, ascending, and ``probs`` holds their
    probabilities at the same positions. Support is restricted to
    in-neighbors plus self (enforced by the factories, which know the
    network).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # the row of every entry

    def __post_init__(self):
        n = self.n
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        p = np.asarray(self.probs, dtype=float)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValidationError(f"selection matrix indptr must rise from 0 in {n + 1} entries")
        if indices.shape != (indptr[-1],) or p.shape != indices.shape:
            raise ValidationError(
                f"selection matrix stores {indptr[-1]} entries, got {indices.size} indices and {p.size} probabilities"
            )
        rows = _csr_rows(indptr)
        if np.any((indices < 0) | (indices >= n)):
            raise ValidationError(f"selection matrix column index outside 0..{n - 1}")
        if np.any((rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])):
            raise ValidationError("selection matrix columns must ascend within each row")
        if not np.all(np.isfinite(p)):
            raise ValidationError("selection matrix entries must be finite")
        # every check below reports the first offender in row-major order
        if np.any(p <= 0.0):
            k = int(np.argmax(p <= 0.0))
            i, j = int(rows[k]), int(indices[k])
            if p[k] == 0.0:
                raise ValidationError(f"agent {i + 1} stores a zero probability of choosing agent {j + 1}")
            raise ValidationError(f"agent {i + 1} has negative probability {float(p[k])!r} of choosing agent {j + 1}")
        sums = np.bincount(rows, weights=p, minlength=n)
        # The message reports a row's sum as numpy sums the dense row; that
        # sum and the one above group the same terms differently, so any row
        # whose sum could fail either way is summed again, densely.
        slack = 4 * np.finfo(float).eps * np.diff(indptr) * sums
        for i in np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL - slack).tolist():
            dense = np.zeros(n)
            dense[indices[indptr[i]:indptr[i + 1]]] = p[indptr[i]:indptr[i + 1]]
            total = dense.sum()
            if total == 0.0:
                raise ValidationError(f"the row of agent {i + 1} has zero mass on every entry")
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValidationError(
                    f"the row of agent {i + 1} sums to {float(total)!r}, expected 1 within {ROW_SUM_TOL}"
                )
        for name, arr in (("indptr", indptr), ("indices", indices), ("probs", p), ("rows", rows)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_dense(cls, probs) -> SelectionMatrix:
        """The CSR form of a square matrix of row probabilities: n rows, each
        n numbers. The first row of another length is named by its 1-based
        agent. Every nonzero entry is stored, so a negative or non-finite
        one is reported."""
        p = _square_rows(probs)
        n = len(p)
        rows, cols = np.nonzero(p)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=cols, probs=p[rows, cols])

    def to_dense(self) -> np.ndarray:
        """The n x n matrix; O(n^2) memory."""
        out = np.zeros((self.n, self.n))
        out[self.rows, self.indices] = self.probs
        return out

    def support(self, i: int) -> np.ndarray:
        """Indices j with positive probability in row i, ascending."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """The row vector x P, in O(nnz): each entry adds its share of x to
        its column, in storage order."""
        return np.bincount(self.indices, weights=x[self.rows] * self.probs, minlength=self.n)


def _float_array(x) -> np.ndarray | None:
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):  # rows of different lengths, or entries that are not numbers
        return None


def _square_rows(rows) -> np.ndarray:
    """rows as an n x n float array, n the number of rows."""
    p = _float_array(rows)
    if p is not None and p.ndim == 2 and p.shape[0] == p.shape[1]:
        return p
    if p is None or p.ndim >= 2:
        n = len(rows)
        for i, row in enumerate(rows):
            r = _float_array(row)
            if r is None or r.ndim != 1:
                raise ValidationError(f"the row of agent {i + 1} is not a list of numbers")
            if len(r) != n:
                raise ValidationError(f"the row of agent {i + 1} must hold {n} numbers, one per agent, got {len(r)}")
    raise ValidationError("selection matrix must be a list of rows, each a list of numbers")


def uniform_selection_matrix(net: DirectedNetwork) -> SelectionMatrix:
    """Equal weight on each in-neighbor; agents with no neighbors self-select."""
    degree = np.diff(net.in_indptr)
    length = np.maximum(degree, 1)
    indptr = np.zeros(net.n + 1, dtype=np.int64)
    np.cumsum(length, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    has = np.repeat(degree > 0, length)
    indices[has] = net.in_indices
    indices[~has] = np.flatnonzero(degree == 0)
    return SelectionMatrix(n=net.n, indptr=indptr, indices=indices, probs=np.repeat(1.0 / length, length))


def check_selection_support(net: DirectedNetwork, P: SelectionMatrix) -> None:
    """Reject a row of P with mass outside its agent's in-neighbors plus self."""
    outside = (P.rows != P.indices) & ~csr_contains(net.in_indptr, net.in_indices, P.rows, P.indices)
    if outside.any():
        k = int(np.argmax(outside))
        i, j = int(P.rows[k]) + 1, int(P.indices[k]) + 1
        raise ValidationError(
            f"agent {i} puts positive mass on agent {j}, which is neither an in-neighbor of {i} nor {i} itself"
        )


def custom_selection_matrix(net: DirectedNetwork, rows: Sequence[Sequence[float]]) -> SelectionMatrix:
    """Validate explicit selection rows, one per agent, against the network's
    neighborhoods."""
    if len(rows) != net.n:
        raise ValidationError(f"expected {net.n} rows, one per agent, got {len(rows)}")
    mat = SelectionMatrix.from_dense(rows)
    check_selection_support(net, mat)
    return mat


def _tarjan_sccs(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Iterative Tarjan over the CSR adjacency (row v lists v's successors).
    Returns SCCs in reverse topological order (every SCC is emitted after all
    SCCs it can reach)."""
    ptr = indptr.tolist()
    adj = indices.tolist()
    n = len(ptr) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, ptr[root])]
        while work:
            v, pos = work[-1]
            if pos == ptr[v]:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            end = ptr[v + 1]
            while pos < end:
                w = adj[pos]
                pos += 1
                if index[w] == -1:
                    work[-1] = (v, pos)
                    work.append((w, ptr[w]))
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
    """True iff every node reaches every other along directed edges (checked
    on the in-neighbor lists: reversing every edge keeps the components)."""
    return len(_tarjan_sccs(net.in_indptr, net.in_indices)) == 1


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
    sccs = _tarjan_sccs(P.indptr, P.indices)
    scc_id = np.empty(P.n, dtype=np.int64)
    scc_id[np.concatenate(sccs)] = np.repeat(np.arange(len(sccs)), [len(c) for c in sccs])
    src, dst = scc_id[P.rows], scc_id[P.indices]
    cross = src != dst
    closed = np.ones(len(sccs), dtype=bool)
    closed[src[cross]] = False

    # Reverse topological emission order lets reachability fold left to right.
    targets: list[set[int]] = [set() for _ in sccs]
    for a, b in zip(src[cross].tolist(), dst[cross].tolist()):
        targets[a].add(b)
    reach: list[set[int]] = []
    for k in range(len(sccs)):
        reach.append({k} if closed[k] else set())
        for b in targets[k]:
            reach[k] |= reach[b]

    order = sorted(np.flatnonzero(closed).tolist(), key=lambda k: sccs[k][0])
    renumber = {k: pos for pos, k in enumerate(order)}
    classes = tuple(tuple(sccs[k]) for k in order)
    per_scc = [tuple(sorted(renumber[c] for c in r)) for r in reach]
    return RecurrentClasses(classes=classes, reachable_from=tuple(per_scc[k] for k in scc_id.tolist()))


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


def _power_stationary(P: SelectionMatrix, members: np.ndarray, tol: float = 1e-13,
                      max_iter: int = 1_000_000) -> np.ndarray:
    # Iterate the lazy chain (I + P)/2: same fixed point, and aperiodic, so
    # plain power iteration converges geometrically even for periodic P.
    # Mass starts on the closed class and never leaves it.
    x = np.zeros(P.n)
    x[members] = 1.0 / len(members)
    for _ in range(max_iter):
        nxt = 0.5 * (x + P.vecmat(x))
        if np.max(np.abs(nxt - x)) <= tol:
            x = nxt
            break
        x = nxt
    return x[members]


def stationary_distribution(P: SelectionMatrix, method: str = "auto") -> StationaryDistribution:
    """Solve pi P = pi for a chain with a single recurrent class.

    Raises MultipleRecurrentClassesError when the fixed vector is not unique.
    The result is re-checked against the defining equation independently of
    the solver used, and StationarySolveError is raised when it fails.
    """
    structure = recurrent_classes(P)
    if len(structure.classes) != 1:
        raise MultipleRecurrentClassesError(structure.classes)
    members = np.array(structure.classes[0], dtype=np.int64)
    m = len(members)

    if method == "auto":
        method = "direct" if m <= DIRECT_SOLVE_LIMIT else "power"
    if method == "direct":
        # the class is closed, so its rows' entries all fall inside it
        local = np.full(P.n, -1)
        local[members] = np.arange(m)
        inside = local[P.rows] >= 0
        sub = np.zeros((m, m))
        sub[local[P.rows[inside]], local[P.indices[inside]]] = P.probs[inside]
        x = _direct_stationary(sub)
    elif method == "power":
        x = _power_stationary(P, members)
    else:
        raise ValidationError(f"unknown stationary solver {method!r}")

    x = np.clip(x, 0.0, None)
    x /= x.sum()
    pi = np.zeros(P.n)
    pi[members] = x

    residual = float(np.max(np.abs(P.vecmat(pi) - pi)))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise StationarySolveError(f"stationary solve residual {residual!r} exceeds {STATIONARY_RESIDUAL_TOL}")
    return StationaryDistribution(pi=pi)
