"""Exception types shared across the package."""


class PercolabError(Exception):
    """Base class for all package-specific errors."""


class MemoryBudgetError(PercolabError):
    """A frontier expansion or count grid would exceed the configured node budget."""

    def __init__(self, requested: int, budget: int):
        self.requested = int(requested)
        self.budget = int(budget)
        super().__init__(
            f"expansion needs at least {self.requested} nodes, budget is "
            f"{self.budget} (raise PERCOLAB_MAX_NODES)"
        )

    def __reduce__(self):  # a pool worker's error must unpickle in the parent
        return type(self), (self.requested, self.budget)


class DeadSubtreeError(PercolabError):
    """No child of the current word is alive at the requested probe depth."""


class RejectionLimitError(PercolabError):
    """Survival conditioning exhausted its rejection budget."""

    def __init__(self, attempts: int, message: str = ""):
        self.attempts = int(attempts)
        text = message or (
            f"no surviving tree found in {self.attempts} attempts "
            f"(the configuration may be subcritical or nearly so)"
        )
        super().__init__(text)

    def __reduce__(self):
        return type(self), (self.attempts, str(self))


class ZeroMassError(PercolabError):
    """An operation needed a positive-mass grid but total mass is zero."""
