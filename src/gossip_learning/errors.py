"""Exception types shared across the package, and its one index check."""


class ValidationError(ValueError):
    """An input violates a documented contract (bad graph, matrix, config, ...)."""


def check_index(name: str, value: int, count: int) -> None:
    """Raise unless value is a 0-based index below count."""
    if not (0 <= value < count):
        raise ValidationError(f"{name} {value} outside 0..{count - 1}")


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
