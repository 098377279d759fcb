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


class LikelihoodRowError(ValidationError):
    """A likelihood table row does not sum to 1. ``agent`` and ``state``
    are 0-based; ``total`` is the row's sum."""

    def __init__(self, agent: int, state: int, total: float):
        self.agent = agent
        self.state = state
        self.total = total
        super().__init__(f"agent {agent + 1}: likelihood row {state + 1} sums to {total!r}")


class NegativeLikelihoodError(ValidationError):
    """A likelihood table has a negative entry. ``agent`` and ``state`` are
    0-based, as is ``signal`` everywhere; ``value`` is the entry."""

    def __init__(self, agent: int, state: int, signal: int, value: float):
        self.agent = agent
        self.state = state
        self.signal = signal
        self.value = value
        super().__init__(
            f"agent {agent + 1}: negative likelihood entry {value!r} for state {state + 1}, signal {signal}"
        )


class StationarySolveError(ValidationError):
    """The solved stationary vector fails the pi P = pi residual check."""
