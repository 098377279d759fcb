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
from functools import cached_property
from typing import Sequence

import numpy as np

from .arrays import PROB_SUM_TOL, ArrayValue, float_array, int_array, is_integer
from .errors import MultipleRecurrentClassesError, StationarySolveError, ValidationError, check_index, check_integer

STATIONARY_RESIDUAL_TOL = 1e-10

# Above this size the dense linear solve is replaced by power iteration,
# which stops once no entry moves by more than POWER_STEP_TOL in a step, or
# after POWER_MAX_ITER steps.
DIRECT_SOLVE_LIMIT = 2000
POWER_STEP_TOL = 1e-13
POWER_MAX_ITER = 1_000_000

# The most agents a network may have: its edge keys, below (n + 2)^2, fit
# int64, as csr_contains's keys do (isqrt(2**63 - 1) - 2).
MAX_AGENTS = 3_037_000_497

# A chain is proven one recurrent class, with no Tarjan pass, when agent 0
# reaches every agent and every agent reaches agent 0 within this many steps.
SWEEP_LEVEL_CAP = 32


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR structure."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def nonzero_csr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of each row of a 2-D array, as CSR arrays
    (indptr, indices, values)."""
    rows, cols = np.nonzero(a)
    indptr = np.zeros(len(a) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(a)), out=indptr[1:])
    return indptr, cols, a[rows, cols]


def csr_contains(indptr: np.ndarray, indices: np.ndarray, rows, cols) -> np.ndarray:
    """Whether each (rows, cols) pair, broadcast together, is a stored entry
    of a square CSR structure whose rows' indices ascend. Each entry is
    searched as the key row * n + column, and the structure's keys ascend,
    so a column past n - 1 can match another row's entry: a caller flags
    those itself."""
    n = len(indptr) - 1
    # a last key past every key closes the structure's keys
    stored = np.append(_csr_rows(indptr) * n + indices, np.iinfo(np.int64).max)
    keys = np.asarray(rows) * n + np.asarray(cols)
    return stored[np.searchsorted(stored, keys)] == keys


def _integer_pairs(edges, n: int) -> tuple[np.ndarray, ValidationError | None]:
    """The leading edges that are pairs of integers, as an (m, 2) int64
    array, and the error naming the first edge that is not, or None. An
    endpoint beyond int64 is clipped to -1 or n: outside 0..n-1 either way."""
    if not isinstance(edges, (tuple, list, np.ndarray)) or getattr(edges, "ndim", 1) == 0:
        raise ValidationError(f"edges: expected a sequence of [source, target] pairs, got {type(edges).__name__}")
    e = int_array(edges)
    if e is not None and e.shape == (len(edges), 2):
        return e, None
    clipped, fault = [], None
    for k, pair in enumerate(edges):
        if not isinstance(pair, (tuple, list, np.ndarray)) or getattr(pair, "ndim", 1) != 1 or len(pair) != 2:
            fault = ValidationError(f"edges[{k}]: expected a [source, target] pair")
            break
        p = next((p for p in (0, 1) if not is_integer(pair[p])), None)
        if p is not None:
            fault = ValidationError(f"edges[{k}][{p}]: expected an integer, got {pair[p]!r}")
            break
        clipped.append([min(max(x, -1), n) for x in pair])
    return np.array(clipped, dtype=np.int64).reshape(-1, 2), fault


@dataclass(frozen=True, eq=False)
class DirectedNetwork(ArrayValue):
    """Directed graph on agents 0..n-1 with edge (j, i) = "i observes j".

    ``n`` is an integer >= 1 (a numpy integer is stored as an int; a bool
    is not an integer). The edge rules are checked here, and only here: each
    edge a pair of integers (not bools), no endpoint outside 0..n-1, no
    self-loop, no edge twice. The first faulty edge is named by its position
    and its 1-based endpoints. ``edges`` is stored as one read-only (m, 2) int64 array, in
    the order given, whatever sequence or array it was passed as, so
    networks compare and hash by n and their edges. ``in_indptr`` and
    ``in_indices`` are the in-neighbor lists in CSR form, each list
    ascending.
    """

    n: int
    edges: np.ndarray
    in_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    in_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_integer("n: agent count", self.n)
        n = int(self.n)
        if n < 1:
            raise ValidationError(f"n: agent count must be >= 1, got {n}")
        if n > MAX_AGENTS:
            raise ValidationError(f"n: agent count must be <= {MAX_AGENTS}, so that int64 edge keys hold it, got {n}")
        object.__setattr__(self, "n", n)
        e, fault = _integer_pairs(self.edges, n)
        outside = np.any((e < 0) | (e >= n), axis=1)
        loop = e[:, 0] == e[:, 1]
        # one key per edge, by target then source, on endpoints clipped to
        # -1..n: an edge outside is named as such whatever it equals
        c = np.clip(e, -1, n)
        key = c[:, 1] * (n + 2) + c[:, 0]
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        repeated = np.zeros(len(e), dtype=bool)  # equal to an earlier edge
        repeated[order[1:][ordered[1:] == ordered[:-1]]] = True
        bad = outside | loop | repeated
        if bad.any():
            k = int(np.argmax(bad))
            j, i = (int(x) + 1 for x in self.edges[k])
            if outside[k]:
                raise ValidationError(f"edges[{k}]: [{j}, {i}] has an endpoint outside 1..{n}")
            if loop[k]:
                raise ValidationError(f"edges[{k}]: self-loop [{j}, {i}] not allowed")
            raise ValidationError(f"edges[{k}]: duplicate edge [{j}, {i}]")
        if fault is not None:
            raise fault
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(e[:, 1], minlength=n), out=indptr[1:])
        self._store(edges=e, in_indptr=indptr, in_indices=e[order, 0])

    def degree(self, i: int) -> int:
        check_index("agent", i, self.n)
        return int(self.in_indptr[i + 1] - self.in_indptr[i])

    @cached_property
    def _uniform_selection(self) -> SelectionMatrix:
        degree = np.diff(self.in_indptr)
        length = np.maximum(degree, 1)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(length, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int64)
        has = np.repeat(degree > 0, length)
        indices[has] = self.in_indices
        indices[~has] = np.flatnonzero(degree == 0)
        return SelectionMatrix(n=self.n, indptr=indptr, indices=indices, probs=np.repeat(1.0 / length, length))


@dataclass(frozen=True, eq=False)
class SelectionMatrix(ArrayValue):
    """Row-stochastic matrix of neighbor-choice probabilities, in CSR form.

    Row i gives the probability of agent i consulting agent j in a round.
    Only positive entries are stored: ``indices[indptr[i]:indptr[i + 1]]``
    are the agents row i can choose, ascending, and ``probs`` holds their
    probabilities at the same positions. Support is restricted to
    in-neighbors plus self (enforced by the factories, which know the
    network). ``n``, ``indptr`` and ``indices`` are integers by the rule of
    ``arrays.int_array``: a bool or a float is not one.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # the row of every entry

    def __post_init__(self):
        check_integer("n: agent count", self.n)
        n = int(self.n)
        object.__setattr__(self, "n", n)
        indptr = int_array(self.indptr)
        indices = int_array(self.indices)
        if indptr is None or indices is None:
            raise ValidationError("selection matrix indptr and indices must be integers")
        p = float_array(self.probs)
        if p is None:
            raise ValidationError("selection matrix probabilities must be numbers")
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
        for i in np.flatnonzero(np.abs(sums - 1.0) > PROB_SUM_TOL - slack).tolist():
            dense = np.zeros(n)
            dense[indices[indptr[i]:indptr[i + 1]]] = p[indptr[i]:indptr[i + 1]]
            total = dense.sum()
            if total == 0.0:
                raise ValidationError(f"the row of agent {i + 1} has zero mass on every entry")
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ValidationError(
                    f"the row of agent {i + 1} sums to {float(total)!r}, expected 1 within {PROB_SUM_TOL}"
                )
        self._store(indptr=indptr, indices=indices, probs=p, rows=rows)

    @classmethod
    def from_dense(cls, probs) -> SelectionMatrix:
        """The CSR form of a square matrix of row probabilities: n rows, each
        n numbers. The first row of another length is named by its 1-based
        agent. Every nonzero entry is stored, so a negative or non-finite
        one is reported."""
        p = _square_rows(probs)
        return cls(len(p), *nonzero_csr(p))

    def to_dense(self) -> np.ndarray:
        """The n x n matrix; O(n^2) memory."""
        out = np.zeros((self.n, self.n))
        out[self.rows, self.indices] = self.probs
        return out

    @cached_property
    def _recurrent_classes(self) -> RecurrentClasses:
        if _reaches_all(self.n, self.rows, self.indices) and _reaches_all(self.n, self.indices, self.rows):
            return RecurrentClasses(classes=(tuple(range(self.n)),), transient=())
        sccs = _tarjan_sccs(self.indptr, self.indices)
        scc_id = np.empty(self.n, dtype=np.int64)
        scc_id[np.concatenate(sccs)] = np.repeat(np.arange(len(sccs)), [len(c) for c in sccs])
        src, dst = scc_id[self.rows], scc_id[self.indices]
        cross = src != dst
        closed = np.ones(len(sccs), dtype=bool)
        closed[src[cross]] = False
        order = sorted(np.flatnonzero(closed).tolist(), key=lambda k: sccs[k][0])
        return RecurrentClasses(
            classes=tuple(tuple(sccs[k]) for k in order),
            transient=tuple(np.flatnonzero(~closed[scc_id]).tolist()),
        )

    def vecmat(self, x: np.ndarray) -> np.ndarray:
        """The row vector x P, in O(nnz): each entry adds its share of x to
        its column, in storage order."""
        return np.bincount(self.indices, weights=x[self.rows] * self.probs, minlength=self.n)


def _square_rows(rows) -> np.ndarray:
    """rows as an n x n float array, n the number of rows."""
    p = float_array(rows)
    if p is not None and p.ndim == 2 and p.shape[0] == p.shape[1]:
        return p
    if p is None or p.ndim >= 2:
        n = len(rows)
        for i, row in enumerate(rows):
            r = float_array(row)
            if r is None or r.ndim != 1:
                raise ValidationError(f"the row of agent {i + 1} is not a list of numbers")
            if len(r) != n:
                raise ValidationError(f"the row of agent {i + 1} must hold {n} numbers, one per agent, got {len(r)}")
    raise ValidationError("selection matrix must be a list of rows, each a list of numbers")


def uniform_selection_matrix(net: DirectedNetwork) -> SelectionMatrix:
    """Equal weight on each in-neighbor; agents with no neighbors self-select.
    Built once per network and kept on it, so every caller, the config
    loader and is_strongly_connected included, holds the same matrix and
    its recurrent classes are found once."""
    return net._uniform_selection


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


def _reaches_all(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether agent 0 reaches all n agents along the steps src[k] -> dst[k]
    within SWEEP_LEVEL_CAP levels; a level is one gather over every step."""
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    for _ in range(SWEEP_LEVEL_CAP):
        reached[dst[reached[src]]] = True
        count, before = int(np.count_nonzero(reached)), count
        if count == n or count == before:
            break
    return count == n


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
    """True iff every node reaches every other along directed edges: iff the
    uniform selection chain, which steps from each agent to its in-neighbors
    (reversing every edge keeps the components), is one recurrent class with
    no transient agent. An agent with no in-neighbor selects only itself, so
    it is a class of its own, and a lone agent is one class."""
    rc = recurrent_classes(uniform_selection_matrix(net))
    return len(rc.classes) == 1 and not rc.transient


@dataclass(frozen=True)
class RecurrentClasses:
    """Closed communicating classes of a selection chain.

    ``classes`` are the recurrent classes, each ascending, ordered by their
    smallest member. ``transient`` lists, ascending, the nodes in no
    recurrent class.
    """

    classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]


def recurrent_classes(P: SelectionMatrix) -> RecurrentClasses:
    """Partition the chain's states into recurrent classes and transient states.

    Works on the support graph of P (edge i -> j iff p_ij > 0). A class is
    recurrent iff it is closed: no positive-probability transition leaves it.
    When a forward and a backward sweep from agent 0 each reach every agent
    within SWEEP_LEVEL_CAP levels (the first step of Fleischer, Hendrickson
    & Pinar's forward-backward SCC method), all states form one class;
    otherwise Tarjan's pass finds the same partition. It is found once per
    matrix and kept on it, so a check and a stationary solve share it.
    """
    return P._recurrent_classes


@dataclass(frozen=True, eq=False)
class StationaryDistribution(ArrayValue):
    """Probability vector fixed by the selection chain, zero on transient states."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1:
            raise ValidationError("stationary distribution must be a vector")
        if np.any(~(pi >= 0.0)):
            raise ValidationError("stationary distribution has a negative or NaN entry")
        if not (abs(pi.sum() - 1.0) <= PROB_SUM_TOL):
            raise ValidationError(f"stationary distribution sums to {float(pi.sum())!r}")
        self._store(pi=pi)


def _direct_stationary(sub: np.ndarray) -> np.ndarray:
    # Replace one balance equation with the normalization constraint; for a
    # single closed communicating class the resulting system is nonsingular.
    m = sub.shape[0]
    a = sub.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _power_stationary(P: SelectionMatrix, members: np.ndarray) -> np.ndarray:
    # Iterate the lazy chain (I + P)/2: same fixed point, and aperiodic, so
    # plain power iteration converges geometrically even for periodic P.
    # Mass starts on the closed class and never leaves it.
    x = np.zeros(P.n)
    x[members] = 1.0 / len(members)
    for _ in range(POWER_MAX_ITER):
        nxt = 0.5 * (x + P.vecmat(x))
        if np.max(np.abs(nxt - x)) <= POWER_STEP_TOL:
            x = nxt
            break
        x = nxt
    return x[members]


def stationary_distribution(P: SelectionMatrix) -> StationaryDistribution:
    """Solve pi P = pi for a chain with a single recurrent class: a dense
    linear solve for a class of at most DIRECT_SOLVE_LIMIT nodes, power
    iteration over the CSR chain for a larger one.

    Raises MultipleRecurrentClassesError when the fixed vector is not unique.
    The result is re-checked against the defining equation independently of
    the solver used, and StationarySolveError is raised when it fails.
    """
    structure = recurrent_classes(P)
    if len(structure.classes) != 1:
        raise MultipleRecurrentClassesError(structure.classes)
    members = np.array(structure.classes[0], dtype=np.int64)
    m = len(members)

    if m <= DIRECT_SOLVE_LIMIT:
        # the class is closed, so its rows' entries all fall inside it
        local = np.full(P.n, -1)
        local[members] = np.arange(m)
        inside = local[P.rows] >= 0
        sub = np.zeros((m, m))
        sub[local[P.rows[inside]], local[P.indices[inside]]] = P.probs[inside]
        x = _direct_stationary(sub)
    else:
        x = _power_stationary(P, members)

    x = np.clip(x, 0.0, None)
    x /= x.sum()
    pi = np.zeros(P.n)
    pi[members] = x

    residual = float(np.max(np.abs(P.vecmat(pi) - pi)))
    if not (residual <= STATIONARY_RESIDUAL_TOL):  # NaN is not <= tol either
        raise StationarySolveError(f"stationary solve residual {residual!r} exceeds {STATIONARY_RESIDUAL_TOL}")
    return StationaryDistribution(pi=pi)
