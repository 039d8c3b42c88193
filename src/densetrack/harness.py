"""Scenario execution, guarantee bookkeeping and report emission.

Every query record is self-auditing.  Each query is scored when it is
answered, on the graph of its answer round (the round-start graph, before
that round's churn): the answer's density is recomputed from that graph as
an exact rational, never trusted from protocol scalars, and scored against
the exact oracle on the same graph.  Queries whose graph fails the density
precondition ``24*T*r / eps`` (``/k`` for size-constrained queries) are
tagged "unconditioned" and excluded from guarantee assertions but still
reported.

``T`` is the measured wall length in rounds of the pass a query read, or
the gap from that pass's edge-count start to the answer round, whichever is
larger - a conservative stand-in for the analysis constant.

Reports are deterministic functions of (config, seed): exact values are
serialized as "num/den" strings and floats via repr, so byte-identical
re-runs are asserted rather than hoped for.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import (ConfigError, DesyncDetected, RoundCapExceeded,
                     parse_json, read_text)
from .graph import DynamicGraph, induced_density
from .netsim import EventLog, World
from .oracle import ENUMERATION_LIMIT, OracleCache, at_least_k_bounds
from .protocol import (FamilySnapshot, ProtocolNode, ProtocolParams,
                       level_round_cost)
from .scenarios import ScenarioConfig, adversary_from_spec


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class RunReport:
    config: dict
    seed: int
    rounds_run: int
    queries: list[dict]
    passes: list[dict]
    ledger: dict
    truncated_tosses: int
    log_digest: str | None
    flags: dict
    params: ProtocolParams  # read by check_round_budget, not serialized

    def to_json_bytes(self) -> bytes:
        payload = {"config": self.config, "seed": self.seed,
                   "rounds_run": self.rounds_run, "queries": self.queries,
                   "passes": self.passes, "ledger": self.ledger,
                   "truncated_tosses": self.truncated_tosses,
                   "log_digest": self.log_digest, "flags": self.flags}
        return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


class _RunState:
    """The per-round observer: checks that the nodes agree, and adds a pass
    row when a pass closes and a scored query row when a query is
    answered."""

    def __init__(self, handlers: list[ProtocolNode], params: ProtocolParams,
                 cache: OracleCache):
        self.handlers = handlers
        self.params = params
        self.cache = cache
        self.seen_level_key = (0, 0)
        self.rows: list[dict] = []
        self.passes: list[dict] = []

    # runs at every round's compute end: graph still in round-start state
    def on_compute_end(self, world: World) -> None:
        h0 = self.handlers[0]
        key = (h0.pass_index, len(h0.records))
        if key != self.seen_level_key and h0.records:
            rec = h0.records[-1]
            for h in self.handlers[1:]:
                other = h.records[-1] if h.records else None
                if other is None or (other.node_est, other.edge_est) != \
                        (rec.node_est, rec.edge_est):
                    raise DesyncDetected(
                        f"level records diverge at round {world.round}")
        self.seen_level_key = key
        if h0.pass_index > len(self.passes):
            fam = h0.family
            for h in self.handlers[1:]:
                if h.family is None or h.family.records != fam.records:
                    raise DesyncDetected("family records diverge across nodes")
            self.passes.append(_pass_row(fam))
            if world.log:
                world.log.append({"round": world.round, "event": "pass",
                                  "pass": fam.pass_index,
                                  "closed_by": fam.closed_by,
                                  "levels": len(fam.records)})
        if h0.answered > len(self.rows):
            outs = [h.outcome for h in self.handlers]
            if len({(o.completed_round, o.chosen, o.attempts, o.no_family)
                    for o in outs}) > 1:
                raise DesyncDetected("query outcomes diverge across nodes")
            base = outs[0]
            self.rows.append(_score_query(outs, world.graph, self.params,
                                          self.cache))
            if world.log:
                world.log.append({"round": world.round, "event": "query",
                                  "k": base.k, "chosen": base.chosen,
                                  "no_family": base.no_family,
                                  "attempts": base.attempts})


def _pass_row(fam: FamilySnapshot) -> dict:
    return {"pass": fam.pass_index, "start": fam.start_round,
            "end": fam.end_round,
            "length": fam.end_round - fam.start_round + 1,
            "closed_by": fam.closed_by,
            "levels": [asdict(rec) for rec in fam.records]}


def _score_query(outs, g: DynamicGraph, params: ProtocolParams,
                 cache: OracleCache) -> dict:
    """One query's row: its answer scored against the exact oracle on ``g``,
    the answer round's graph, timed and tagged against the pass it read."""
    base = outs[0]
    row: dict = {
        "round_fired": base.fired_round,
        "round_answered": base.completed_round,
        "k": base.k,
        "no_family": base.no_family,
    }
    if base.no_family:
        row["status"] = "no-complete-family"
        return row
    members = frozenset(o.node_id for o in outs if o.in_answer)
    ans_density = induced_density(g, members).density if members \
        else Fraction(0)
    k = base.k
    eps = Fraction(params.epsilon)
    enumerate_all = g.node_count <= ENUMERATION_LIMIT
    if k == 0:
        oracle_res = cache.exact_densest(g)
        rho_upper = rho_lower = oracle_res.density
        method = oracle_res.method
        bound = Fraction(2) + eps
    else:
        rho_lower, rho_upper, _ = at_least_k_bounds(
            g, k, None if enumerate_all else cache.exact_densest(g))
        if len(members) >= k:
            rho_lower = max(rho_lower, ans_density)
        method = "enumeration" if enumerate_all else "bounds"
        bound = Fraction(3) + eps
    ratio = rho_upper / ans_density if ans_density > 0 else None
    fam = base.snapshot
    rec = fam.records[base.chosen]
    t_used = max(fam.end_round - fam.start_round + 1,
                 base.completed_round - rec.edges_start)
    need = Fraction(24 * t_used * g.churn_rate) / eps
    # numeric check of the size bound the analysis leans on
    d = params.delta
    if base.padded:
        cap = k * (1 + d) * (1 + 2 * d) / (1 - d)
    else:
        cap = rec.node_est / (1 - d)
    row.update({
        "status": "answered",
        "snapshot": fam.pass_index,
        "chosen_level": base.chosen,
        "chosen_ratio": base.chosen_ratio,
        "answer_size": len(members),
        "answer_hash": hashlib.sha256(
            ",".join(map(str, sorted(members))).encode()).hexdigest()[:16],
        "answer_density": _frac_str(ans_density),
        "padded": base.padded,
        "attempts": base.attempts,
        "accepted_attempt": base.accepted_attempt,
        "cap_exceeded": base.cap_exceeded,
        "oracle_density": _frac_str(rho_upper),
        "oracle_lower": _frac_str(rho_lower),
        "oracle_method": method,
        "ratio": _frac_str(ratio) if ratio is not None else None,
        "bound_factor": float(bound),
        "guarantee_ok": bool(ans_density * bound >= rho_upper),
        "size_ok": len(members) >= k,
        "t_pass_start": fam.start_round,
        "t_pass_end": fam.end_round,
        "t_edges_start": rec.edges_start,
        "t_level_set": rec.threshold_round,
        "T_used": t_used,
        "precondition_threshold": _frac_str(need),
        "conditioned": bool(max(k, 1) * rho_lower >= need),
        "size_bound_ok": bool(len(members) <= cap + 1e-9),
    })
    return row


def run_scenario(conf: dict | ScenarioConfig, *, cache: OracleCache | None = None,
                 log_path: str | None = None) -> RunReport:
    config = conf if isinstance(conf, ScenarioConfig) else ScenarioConfig.from_dict(conf)
    built, params = config.build()
    g = built.graph
    g.churn_rate = config.churn_rate
    adversary = adversary_from_spec(config.adversary, g, config.seed,
                                    built.protected)
    cache = cache or OracleCache()
    log = None
    if log_path or config.report["emit_log"]:
        path = log_path or os.path.join(config.report["out"] or ".",
                                        "events.ndjson")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        log = EventLog(path)
        log.append({"event": "config", "config": config.raw,
                    "seed": config.seed})
    try:
        handlers = [ProtocolNode(i, g.node_count, params)
                    for i in range(g.node_count)]
        world = World(g, handlers, seed=config.seed, adversary=adversary, log=log)
        state = _RunState(handlers, params, cache)
        world.on_compute_end.append(state.on_compute_end)

        target_passes = config.duration["passes"]
        target_rounds = config.duration["rounds"]
        qspec = config.queries
        per_pass = bool(qspec) and qspec["mode"] == "per-pass"
        # every query waits here as its round, in order; the head fires at
        # the first round at or after its own with no query active
        due = sorted(qspec["rounds"]) if qspec and not per_pass else []
        fired = passes_seen = 0
        hard_cap = (target_rounds if target_rounds is not None else
                    (target_passes + 2) * params.p_cap * level_round_cost(params.diameter)
                    + params.pad_cap * 2 * params.diameter + 64)
        if params.strict_congest:
            hard_cap *= 4096

        while True:
            r = world.round
            h0 = handlers[0]
            if per_pass and h0.pass_index > passes_seen:
                passes_seen = h0.pass_index
                # a pass that closes while a query runs asks for none
                # (ROADMAP item 2)
                if (h0.pass_index >= qspec["start_pass"]
                        and fired < qspec["limit"] and h0.query is None):
                    due.append(r)
                    fired += 1
            if due and due[0] <= r and h0.query is None:
                due.pop(0)
                for h in handlers:
                    h.query_k = qspec["k"]
            elif h0.query is None and not due and (
                    (target_rounds is not None and r >= target_rounds)
                    or (target_passes is not None
                        and h0.pass_index >= target_passes)):
                break
            if r >= hard_cap:
                raise RoundCapExceeded(
                    f"run exceeded hard round cap {hard_cap} with a query "
                    f"open or its duration not done")
            world.run_round()

        answered = [row for row in state.rows if row["status"] == "answered"]
        flags = {
            "exact_counting": params.exact_counting,
            "strict_congest": params.strict_congest,
            "guarantee_failures": sum(
                row["conditioned"] and not row["guarantee_ok"]
                for row in answered),
            "size_failures": sum(not row["size_ok"] for row in answered),
            "conditioned_queries": sum(row["conditioned"] for row in answered),
            "answered_queries": len(answered),
        }
        return RunReport(config=config.raw, seed=config.seed,
                         rounds_run=world.round, queries=state.rows,
                         passes=state.passes,
                         ledger=world.ledger.summary(),
                         truncated_tosses=sum(h.truncated_tosses for h in handlers),
                         log_digest=log.digest() if log else None, flags=flags,
                         params=params)
    finally:
        if log:
            log.close()


# -- budget checks ---------------------------------------------------------------


@dataclass
class BudgetCheck:
    rows: list[dict]
    ok: bool


def check_round_budget(report: RunReport) -> BudgetCheck:
    """Pass lengths vs ``p_cap*(4D+1)``, exact 2D counting spans, padding caps."""
    params = report.params
    if params.strict_congest:
        return BudgetCheck([{"check": "strict-mode", "ok": True,
                             "note": "round budgets apply to logical mode"}], True)
    d = params.diameter
    limit = params.p_cap * level_round_cost(d)
    rows = []
    ok = True
    for p in report.passes:
        row = {"check": "pass-length", "pass": p["pass"],
               "length": p["length"], "limit": limit,
               "ok": p["length"] <= limit}
        ok &= row["ok"]
        rows.append(row)
        for lvl in p["levels"]:
            if lvl["nodes_start"] is not None:
                span = lvl["edges_start"] - lvl["nodes_start"]
                good = span == 2 * d
                rows.append({"check": "node-count-span", "pass": p["pass"],
                             "level": lvl["j"], "span": span,
                             "expected": 2 * d, "ok": good})
                ok &= good
            if lvl["threshold_round"] is not None:
                span = lvl["threshold_round"] - lvl["edges_start"]
                good = span == 2 * d
                rows.append({"check": "edge-count-span", "pass": p["pass"],
                             "level": lvl["j"], "span": span,
                             "expected": 2 * d, "ok": good})
                ok &= good
    for q in report.queries:
        if q.get("status") == "answered" and q.get("padded"):
            good = q["attempts"] <= params.pad_cap
            rows.append({"check": "padding-attempts", "attempts": q["attempts"],
                         "cap": params.pad_cap, "ok": good})
            ok &= good
    return BudgetCheck(rows, ok)


# -- emission and replay -----------------------------------------------------------


def queries_csv(report: RunReport) -> str:
    cols = ["round_fired", "round_answered", "k", "status", "snapshot",
            "chosen_level", "answer_size", "answer_density", "oracle_density",
            "oracle_method", "ratio", "bound_factor", "guarantee_ok",
            "size_ok", "conditioned", "T_used", "precondition_threshold",
            "padded", "attempts", "cap_exceeded"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in report.queries:
        writer.writerow(row)
    return buf.getvalue()


def series_csv(report: RunReport) -> str:
    """Gnuplot-ready density-vs-round table (pass bests and query answers)."""
    lines = ["# round kind value"]
    for p in report.passes:
        best = max((lvl["ratio"] for lvl in p["levels"]), default=0.0)
        lines.append(f"{p['end']} pass-best-ratio {best!r}")
    for q in report.queries:
        if q.get("status") == "answered":
            num, den = q["answer_density"].split("/")
            lines.append(f"{q['round_answered']} answer-density "
                         f"{int(num) / int(den)!r}")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    paths["json"] = os.path.join(out_dir, "report.json")
    with open(paths["json"], "wb") as fh:
        fh.write(report.to_json_bytes())
    paths["csv"] = os.path.join(out_dir, "queries.csv")
    with open(paths["csv"], "w", encoding="utf-8") as fh:
        fh.write(queries_csv(report))
    paths["series"] = os.path.join(out_dir, "series.csv")
    with open(paths["series"], "w", encoding="utf-8") as fh:
        fh.write(series_csv(report))
    return paths


@dataclass
class ReplayResult:
    identical: bool
    first_divergence: int | None
    original_lines: int
    replay_lines: int


def replay_log(path: str, replay_out: str) -> ReplayResult:
    """Re-execute the run embedded in an event log and diff line by line."""
    original = read_text(path, "event log").splitlines()
    if not original:
        raise ConfigError(f"event log {path} is empty")
    header = parse_json(original[0], f"event log {path} header")
    if not isinstance(header, dict) or header.get("event") != "config":
        raise ConfigError(f"event log {path} lacks a config header")
    run_scenario(header.get("config"), log_path=replay_out)
    with open(replay_out, "r", encoding="utf-8") as fh:
        replayed = fh.read().splitlines()
    first = None
    for i, (a, b) in enumerate(zip(original, replayed)):
        if a != b:
            first = i
            break
    if first is None and len(original) != len(replayed):
        first = min(len(original), len(replayed))
    return ReplayResult(first is None, first, len(original), len(replayed))
