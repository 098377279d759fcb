"""Exception types shared across the package, and its one integer check,
one index check, one index-list check and one size-agreement check."""

import numpy as np

from .arrays import int_array, is_integer


class ValidationError(ValueError):
    """An input violates a documented contract (bad graph, matrix, config, ...)."""


def check_integer(name: str, value) -> None:
    """Raise unless value is an int or a numpy integer, not a bool."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_index(name: str, value: int, count: int) -> None:
    """Raise unless value is an integer, not a bool, in 0..count - 1."""
    check_integer(name, value)
    if not (0 <= value < count):
        raise ValidationError(f"{name} {value} outside 0..{count - 1}")


def check_indices(name: str, values, count: int) -> np.ndarray:
    """values as a 1-D int64 array, raising unless it is a sequence of
    indices that each pass check_index; the first entry that fails is named."""
    arr = int_array(values)
    if arr is not None and arr.ndim == 1 and ((arr >= 0) & (arr < count)).all():
        return arr
    for value in values if hasattr(values, "__iter__") else [values]:
        check_index(name, value, count)
    raise ValidationError(f"need a sequence of {name} indices, got {values!r}")


def check_sizes(**sizes: int) -> None:
    """Raise unless every named size is the same, naming each."""
    if len(set(sizes.values())) > 1:
        raise ValidationError("inconsistent sizes: " + ", ".join(f"{name}={size}" for name, size in sizes.items()))


class ImpossibleSignalError(ValidationError):
    """A Bayes update was fed a signal with zero likelihood under every state."""


class MultipleRecurrentClassesError(ValidationError):
    """The selection chain has several recurrent classes, so the stationary
    distribution is not unique. ``classes`` holds 0-based agents; the
    message names them 1-based."""

    def __init__(self, classes):
        self.classes = tuple(tuple(c) for c in classes)
        names = ", ".join("{" + ", ".join(str(m + 1) for m in c) + "}" for c in self.classes)
        super().__init__(
            f"stationary distribution is not unique: {len(self.classes)} "
            f"recurrent classes: {names}"
        )


class StationarySolveError(ValidationError):
    """The solved stationary vector fails the pi P = pi residual check."""
