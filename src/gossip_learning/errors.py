"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented contract (bad graph, matrix, config, ...)."""


class ImpossibleSignalError(ValidationError):
    """A Bayes update was fed a signal with zero likelihood under every state."""


class MultipleRecurrentClassesError(ValidationError):
    """The selection chain has several recurrent classes, so the stationary
    distribution is not unique."""

    def __init__(self, classes):
        self.classes = tuple(tuple(c) for c in classes)
        names = ", ".join("{" + ", ".join(str(m) for m in c) + "}" for c in self.classes)
        super().__init__(
            f"stationary distribution is not unique: {len(self.classes)} "
            f"recurrent classes: {names}"
        )


class SelectionSupportError(ValidationError):
    """A selection row puts mass on an agent outside the row agent's
    in-neighborhood plus herself. ``row`` and ``agent`` are 0-based."""

    def __init__(self, row: int, agent: int):
        self.row = row
        self.agent = agent
        super().__init__(
            f"selection row {row} has support on agent {agent}, which is "
            f"neither an in-neighbor of {row} nor {row} itself"
        )


class StationarySolveError(ValidationError):
    """The solved stationary vector fails the pi P = pi residual check."""
