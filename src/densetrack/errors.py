"""Exception types shared across the package, and the readers of input
files that raise them."""

import json


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


class TooLargeForEnumeration(DensetrackError):
    """Brute-force oracle asked to enumerate more subsets than allowed."""


class TooLargeForMaxFlow(DensetrackError):
    """Max-flow oracle asked for a network whose capacities or total flow
    could exceed the int32 that scipy's ``maximum_flow`` computes in."""


class ConfigError(DensetrackError, ValueError):
    """Scenario configuration failed validation (the CLI exits 2)."""


class InfeasibleScenario(ConfigError):
    """No planted clique within n clears the density precondition; a sweep
    skips the cell."""


def read_text(path: str, what: str) -> str:
    """The text of the file ``path``, or a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"cannot read {what} {path}: {reason}") from exc


def parse_json(text: str, what: str):
    """The JSON value of ``text``, or a ConfigError naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not JSON: {exc}") from exc
