"""Exception types shared across the package, and the readers and checks
of outside input that raise them."""

import json
from typing import NamedTuple


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


_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          bool: ((bool,), "a boolean"), str: ((str,), "a string")}


def _checked(x, kind: type, where: str, low=None, high=None, above=None,
             below=None):
    """``x`` converted to ``kind``, or a ConfigError naming the key path
    ``where``.  An int must be a JSON integer, a float any JSON number, a
    bool a JSON boolean and a str a JSON string; ``low`` and ``high`` are
    inclusive bounds and ``above`` and ``below`` exclusive ones, which NaN
    fails."""
    types, name = _KINDS[kind]
    ok = isinstance(x, types) and (kind is bool or not isinstance(x, bool))
    if not (ok and (low is None or x >= low) and (above is None or x > above)
            and (high is None or x <= high) and (below is None or x < below)):
        within = " and".join(f" {op} {b}" for op, b in (
            (">=", low), (">", above), ("<=", high), ("<", below))
            if b is not None)
        raise ConfigError(f"{where} must be {name}{within}, got {x!r}")
    return kind(x)


_REQUIRED = object()  # the section must have the key
_ABSENT = object()    # an absent key stays absent; its receiver has a default


class _Key(NamedTuple):
    """One key of a config section: its kind (a type for :func:`_checked`,
    or a schema kind that ``scenarios`` reads), its default, inclusive lower
    and upper bounds and exclusive lower and upper bounds."""
    kind: object
    default: object = _REQUIRED
    low: int | None = None
    high: int | None = None
    above: int | None = None
    below: int | None = None
