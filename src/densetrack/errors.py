"""Exception types shared across the package."""


class DensetrackError(Exception):
    """Base class for all package-specific errors."""


class ChurnBudgetExceeded(DensetrackError):
    """An edit batch was larger than the per-round churn budget."""


class InvalidEdit(DensetrackError):
    """An edit referenced an edge in the wrong state (or a self-loop)."""


class EmptySubset(DensetrackError):
    """Density of the empty node set is undefined."""


class HandlerPanic(DensetrackError):
    """A node step function raised; carries (node, round) for replay."""

    def __init__(self, node: int, round_: int, message: str = ""):
        self.node = node
        self.round = round_
        super().__init__(f"handler failed at node {node}, round {round_}: {message}")


class RoundCapExceeded(DensetrackError):
    """A run reached its hard round cap with its duration or a query open."""


class DesyncDetected(DensetrackError):
    """Per-level scalar records diverged across nodes (simulator bug)."""


class UnknownSnapshot(DensetrackError):
    """Membership query referenced a snapshot id that is not current."""


class TooLargeForEnumeration(DensetrackError):
    """Brute-force oracle asked to enumerate more subsets than allowed."""


class ConfigError(DensetrackError, ValueError):
    """Scenario configuration failed validation (the CLI exits 2)."""
