"""densetrack: deterministic simulation of dense-subgraph maintenance on
edge-dynamic broadcast networks, with exact oracles for verification."""

from .graph import (DynamicGraph, SubsetDensity, induced_density,
                    static_diameter)
from .harness import RunReport, check_round_budget, emit_report, run_scenario
from .oracle import (OracleCache, OracleResult, exact_at_least_k,
                     exact_densest, peel_reference)
from .protocol import ProtocolNode, ProtocolParams, level_round_cost, params_for
from .scenarios import ScenarioConfig, solve_planted_scenario

__version__ = "0.1.0"

__all__ = [
    "DynamicGraph", "SubsetDensity", "induced_density",
    "static_diameter",
    "RunReport", "check_round_budget", "emit_report", "run_scenario",
    "OracleCache", "OracleResult", "exact_at_least_k", "exact_densest",
    "peel_reference",
    "ProtocolNode", "ProtocolParams", "level_round_cost", "params_for",
    "ScenarioConfig", "solve_planted_scenario",
    "__version__",
]
