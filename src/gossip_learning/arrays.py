"""Array idioms the model types share, each written once."""

from __future__ import annotations

from dataclasses import fields
from itertools import chain
from typing import Iterator

import numpy as np

PROB_SUM_TOL = 1e-12


class ArrayValue:
    """Base of a ``@dataclass(frozen=True, eq=False)`` that holds arrays:
    instances are equal when every compared field is, an array by dtype,
    shape and the bytes of ``a + 0`` (which reads -0.0 as 0.0), and equal
    instances hash alike."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple((v.dtype, v.shape, (v + 0).tobytes()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _store(self, **arrays) -> None:
        """Set each named field to a read-only copy of its array."""
        for name, arr in arrays.items():
            object.__setattr__(self, name, read_only(np.array(arr)))


def read_only(arr: np.ndarray) -> np.ndarray:
    """arr, marked read-only."""
    arr.flags.writeable = False
    return arr


def float_array(x) -> np.ndarray | None:
    """x as a float array, or None unless x is numbers: a numpy array of
    integer or float dtype, or (nested) sequences of one length per level
    whose entries are each an int, a float, a numpy integer or a numpy
    float. A bool, None or a string is not a number, nor is an int too
    large for a float."""
    if isinstance(x, np.ndarray):
        return np.asarray(x, dtype=float) if x.dtype.kind in "iuf" else None
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    entries = [x] if arr.ndim == 0 else x
    for _ in range(arr.ndim - 1):
        entries = chain.from_iterable(entries)
    if all(t is int or t is float or issubclass(t, (np.integer, np.floating)) for t in set(map(type, entries))):
        return arr
    return None


def rows_by_length(lengths: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(d, the rows of length d, ascending) for each length d that occurs,
    ascending."""
    for d in np.flatnonzero(np.bincount(lengths)).tolist():
        yield d, np.flatnonzero(lengths == d)
