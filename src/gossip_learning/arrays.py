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


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not an integer."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _typed_array(x, dtype, kinds: str, types: tuple) -> np.ndarray | None:
    """x as an array of dtype, or None unless x is a numpy array whose dtype
    kind is one of kinds, or (nested) sequences of one length per level whose
    entries are each of a type in types, or a numpy subclass of one."""
    if isinstance(x, np.ndarray):
        return np.asarray(x, dtype=dtype) if x.dtype.kind in kinds else None
    try:
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return None
    entries = [x] if arr.ndim == 0 else x
    for _ in range(arr.ndim - 1):
        entries = chain.from_iterable(entries)
    # a bool is an int to issubclass, so Python types must match exactly
    if all(t in types or (issubclass(t, np.generic) and issubclass(t, types)) for t in set(map(type, entries))):
        return arr
    return None


def float_array(x) -> np.ndarray | None:
    """x as a float array, or None unless x is numbers: a numpy array of
    integer or float dtype, or (nested) sequences of one length per level
    whose entries are each an int, a float, a numpy integer or a numpy
    float. A bool, None or a string is not a number, nor is an int too
    large for a float."""
    return _typed_array(x, float, "iuf", (int, float, np.integer, np.floating))


def int_array(x) -> np.ndarray | None:
    """x as an int64 array, or None unless x is integers: a numpy array of
    integer dtype, or (nested) sequences of one length per level whose
    entries are each an int or a numpy integer. A bool, a float (2.0
    included), None or a string is not an integer, nor is an int beyond
    int64."""
    return _typed_array(x, np.int64, "iu", (int, np.integer))


def sum_left_to_right(a: np.ndarray) -> np.ndarray:
    """a summed along its last axis left to right, the one order of the sums
    over a belief's states and a divergence's signals: a zero entry then
    changes no bit, and a row of a stacked array sums as it does alone."""
    return np.cumsum(a, axis=-1)[..., -1]


def rows_by_length(lengths: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(d, the rows of length d, ascending) for each length d that occurs,
    ascending."""
    for d in np.flatnonzero(np.bincount(lengths)).tolist():
        yield d, np.flatnonzero(lengths == d)
