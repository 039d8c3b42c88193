"""Per-node state machines: continuous maintenance of a nested candidate
family, and query-time extraction with randomized padding.

Maintenance pipeline (all nodes in lockstep, driven only by the shared
round counter and the diameter bound D):

* level j opens with a 2D-round node-count window for V_j, run by
  :class:`~densetrack.counting.CountPipeline` (coarse max-merge, then fine
  min-merge seeded with N = 2 * coarse).  The last fine round also carries
  a 1-bit membership marker so every node learns its degree inside V_j
  without a separate warm-up round.
* a 2D-round edge-count window follows through the same pipeline (each
  member simulates d_u copies, merged locally), then one threshold round:
  members broadcast membership, count member neighbors, and survive into
  V_{j+1} iff their degree is at least ``factor * m_j / n_j`` (ties stay;
  the ratio is evaluated once in binary64 so every node compares the
  identical value).

A level therefore costs exactly ``4D + 1`` communication rounds.

Pass closure.  A pass completes when a level counts to zero, when nobody
dropped at the previous threshold (a fixed point - detected by OR-flooding a
1-bit "someone dropped" marker on the next level's coarse rounds), or when
``p_cap`` levels fill up.  On closure the finished family becomes current
(double-buffered; queries always read the last complete one) and the next
pass restarts at level 0 *without* recounting n_0: node counts never change,
so the retained estimate stays valid and level 0 of later passes costs only
``2D + 1`` rounds.  Fixed-point detection spends the 2D node-count rounds of
the would-be next level, which keeps every pass within ``p_cap * (4D + 1)``
rounds.

Queries snapshot the current family, pick ``argmax_i m_i / max(k, n_i)``
(ties to the smallest index), and either answer immediately or run the
padding loop: non-members enroll with probability ``delta_target / n_0``,
the enrolled set is counted by a second pipeline beside the maintenance
one (2D rounds per attempt), and the loop accepts when the count lands in
``[(1+d)*target, (1+2d)*target]``.  After ``pad_cap`` attempts the attempt
closest to the window centre (earliest on ties) is returned with a loud
warning flag instead of looping forever.  The harness fires one query at a
time, setting ``query_k`` on every node for the next step to start; each
is one ``_QueryRun``, and ``ProtocolNode._answer`` alone closes it,
answered at once, accepted or capped, so the chosen ratio
(:func:`query_ratio`), the ``in_answer`` rule and that tie rule are each
written once.  Only a query fired before any pass closes answers
elsewhere, as ``no_family``.  The one-bit flag parts (:class:`FlagsPart`)
live here beside their tags; the tuple parts live in ``counting``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .counting import CountPipeline
# bench/tracer.py wraps these four names in this module's namespace (its
# counting.stage layer); the stages themselves are built in counting
from .counting import degs_stage, exp_stage, geo_stage, ids_stage  # noqa: F401
from .errors import ConfigError, UnknownSnapshot
from .netsim import MessagePart, StepContext

# (coarse, fine) tag pairs of the three counting windows
NODE_TAGS = ("m.nc", "m.nf")
EDGE_TAGS = ("m.ec", "m.ef")
QUERY_TAGS = ("q.pc", "q.pf")
MEMBER_TAG = "m.member"
DROP_TAG = "m.drop"


@dataclass(frozen=True)
class FlagsPart:
    """One-bit markers: subgraph membership and the did-anyone-drop bit."""

    tag: str
    member: bool = False
    dropped: bool = False

    def bit_size(self) -> int:
        return int(self.member) + int(self.dropped)

    def canonical_bytes(self) -> bytes:
        return b"F" + self.tag.encode() + bytes([self.member, self.dropped])


def threshold_value(ratio: float, factor: float) -> float:
    """Survival threshold for one level, evaluated in binary64.

    Shared by the embedded protocol and the centralized peeling reference so
    both compare against bit-identical values.
    """
    return factor * ratio


def level_round_cost(diameter: int) -> int:
    """Communication rounds per level: 2D node count + 2D edge count + 1."""
    return 4 * diameter + 1


def default_p_cap(node_count: int, delta: float) -> int:
    if node_count < 2:
        return 2
    return max(2, math.ceil(math.log(node_count) / math.log1p(delta)) + 1)


def default_pad_cap(node_count: int) -> int:
    return max(1, math.ceil(8.0 * math.log(max(node_count, 2))))


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs every node receives before round 0."""

    epsilon: float
    diameter: int
    k: int = 0
    count_eps: float | None = None   # error handed to the estimators
    delta_fail: float = 0.01         # coarse-stage failure probability
    c: float = 1.0                   # fine-stage length constant
    p_cap: int = 64                  # max levels per pass
    pad_cap: int = 32                # max padding attempts per query
    exact_counting: bool = False
    strict_congest: bool = False
    threshold_factor: float | None = None

    def __post_init__(self):
        for ok, message in (
                (0 < self.epsilon <= 1, "epsilon must be in (0,1]"),
                (0 < self.counting_eps <= 1, "count_eps must be in (0,1]"),
                (0 < self.delta_fail < 1, "delta_fail must be in (0,1)"),
                (self.diameter >= 1, "diameter must be >= 1"),
                (self.k >= 0, "k must be >= 0"),
                (not (self.exact_counting and self.strict_congest),
                 "strict mode applies to tuple estimators only")):
            if not ok:
                raise ConfigError(message)

    @property
    def delta(self) -> float:
        return self.epsilon / 24.0

    @property
    def counting_eps(self) -> float:
        return self.count_eps if self.count_eps is not None else self.epsilon

    @property
    def factor(self) -> float:
        return self.threshold_factor if self.threshold_factor is not None \
            else 1.0 + self.delta


def params_for(node_count: int, epsilon: float, diameter: int,
               **overrides) -> ProtocolParams:
    # range checks run before the defaults divide by delta
    params = ProtocolParams(epsilon=epsilon, diameter=diameter, **overrides)
    return replace(params, **{"p_cap": default_p_cap(node_count, params.delta),
                              "pad_cap": default_pad_cap(node_count),
                              **overrides})


@dataclass(frozen=True)
class LevelRecord:
    """Network-wide scalars for one completed level."""

    j: int
    node_est: float
    edge_est: float
    ratio: float
    nodes_start: int | None  # None for the reused-n0 level of later passes
    edges_start: int
    threshold_round: int | None


@dataclass(frozen=True)
class FamilySnapshot:
    """One complete pass: shared records plus this node's own flags."""

    pass_index: int
    records: tuple[LevelRecord, ...]
    flags: tuple[bool, ...]
    start_round: int
    end_round: int
    closed_by: str  # "empty" | "fixed-point" | "cap"


@dataclass(frozen=True)
class QueryOutcome:
    node_id: int
    k: int
    fired_round: int
    completed_round: int
    no_family: bool
    snapshot: FamilySnapshot | None = None
    chosen: int | None = None
    chosen_ratio: float | None = None
    in_answer: bool = False
    padded: bool = False
    attempts: int = 0
    accepted_attempt: int | None = None
    cap_exceeded: bool = False


def query_ratio(rec: LevelRecord, k: int) -> float:
    """The query objective of one level, ``edge_est / max(k, node_est)``."""
    return rec.edge_est / max(float(k), rec.node_est)


def query_argmax(records: tuple[LevelRecord, ...], k: int) -> int:
    """Index maximizing :func:`query_ratio`; ties -> smallest."""
    return max(range(len(records)), key=lambda i: query_ratio(records[i], k))


@dataclass
class _QueryRun:
    k: int
    fired_round: int
    snapshot: FamilySnapshot
    chosen: int
    member_vi: bool
    delta_target: float | None = None  # None: answered without padding
    head_p: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    attempt: int = 0
    coins: list[bool] = field(default_factory=list)
    estimates: list[float] = field(default_factory=list)


class ProtocolNode:
    """One node's full behavior: maintenance plus at most one active query."""

    def __init__(self, node_id: int, node_count: int, params: ProtocolParams):
        self.node_id = node_id
        self.node_count = node_count
        self.params = params
        # maintenance machine: segment "nodes", "edges" or "threshold"
        self.seg = "nodes"
        self.level = 0
        self.member = True
        self.records: list[LevelRecord] = []
        self.flags: list[bool] = [True]
        self.pass_start = 0
        self.pass_index = 0
        self.n0: float | None = None
        self.level_node_est: float | None = None
        self.level_nodes_start: int | None = 0
        self.level_edges_start: int | None = None
        self.du = 0
        self.drop_seen = False  # OR of "someone dropped" over the window
        self.family: FamilySnapshot | None = None
        self._member_flags_heard = 0
        self._started = False
        # one counting window at a time per machine; they share the settings
        self.count, self.query_count = (
            CountPipeline(node_id, node_count, params.diameter,
                          delta_fail=params.delta_fail,
                          epsilon=params.counting_eps, c=params.c,
                          exact=params.exact_counting,
                          strict=params.strict_congest)
            for _ in range(2))
        # query machine; the harness sets query_k for the next step to fire
        self.query_k: int | None = None
        self.query: _QueryRun | None = None
        self.outcomes: list[QueryOutcome] = []

    @property
    def truncated_tosses(self) -> int:
        return self.count.truncated + self.query_count.truncated

    # -- absorb -----------------------------------------------------------

    def _absorb(self, ctx: StepContext) -> None:
        st = self.count.stage
        q_st = self.query_count.stage
        for msg in ctx.inbox:
            for part in msg.parts:
                if isinstance(part, FlagsPart):
                    if part.tag == MEMBER_TAG and part.member:
                        self._member_flags_heard += 1
                    if part.tag == DROP_TAG and part.dropped:
                        self.drop_seen = True
                elif st is not None and part.tag == st.tag:
                    st.absorb(part)
                elif q_st is not None and part.tag == q_st.tag:
                    q_st.absorb(part)

    # -- maintenance transitions -------------------------------------------

    def _count_nodes(self, ctx: StepContext) -> None:
        self.seg = "nodes"
        self.count.start(NODE_TAGS, ctx.round, ctx.rng, self.member)

    def _count_edges(self, ctx: StepContext) -> None:
        self.seg = "edges"
        self.level_edges_start = ctx.round
        self.count.start(EDGE_TAGS, ctx.round, ctx.rng, self.member, self.du)

    def _close_pass(self, ctx: StepContext, reason: str) -> None:
        """Publish the finished family and restart at level 0, reusing n_0."""
        self.family = FamilySnapshot(
            pass_index=self.pass_index,
            records=tuple(self.records),
            flags=tuple(self.flags[:len(self.records)]),
            start_round=self.pass_start,
            end_round=ctx.round - 1,
            closed_by=reason)
        self.pass_index += 1
        self.level = 0
        self.member = True
        self.records = []
        self.flags = [True]
        self.pass_start = ctx.round
        self.level_node_est = self.n0
        self.level_nodes_start = None
        self.du = ctx.neighbor_count
        self._count_edges(ctx)

    def _advance(self, ctx: StepContext) -> None:
        """The one place that picks the next segment."""
        p = self.params
        if self.seg == "threshold":
            # one membership round, opened the round before
            deg = self._member_flags_heard
            self._member_flags_heard = 0
            rec = self.records[-1]
            self.records[-1] = replace(rec, threshold_round=ctx.round - 1)
            thr = threshold_value(rec.ratio, p.factor)
            new_member = self.member and deg >= thr
            self.drop_seen = self.member and not new_member
            self.member = new_member
            self.flags.append(new_member)
            self.level += 1
            self.level_nodes_start = ctx.round
            self._count_nodes(ctx)
            return
        total = self.count.step(ctx.round, ctx.rng)
        if total is None:
            return
        if self.seg == "nodes":
            drop_seen, self.drop_seen = self.drop_seen, False
            du_heard, self._member_flags_heard = self._member_flags_heard, 0
            if self.level == 0 and self.n0 is None:
                self.n0 = total
            if total == 0.0:
                self._close_pass(ctx, "empty")
            elif self.level > 0 and not drop_seen:
                self._close_pass(ctx, "fixed-point")
            else:
                self.level_node_est = total
                self.du = du_heard if self.member else 0
                self._count_edges(ctx)
            return
        n_est = self.level_node_est
        self.records.append(LevelRecord(
            self.level, n_est, total, total / n_est, self.level_nodes_start,
            self.level_edges_start, None))
        if len(self.records) >= p.p_cap:
            self._close_pass(ctx, "cap")
        else:
            self.seg = "threshold"

    def _emit(self, ctx: StepContext) -> list[MessagePart]:
        parts: list[MessagePart] = []
        if self.seg == "threshold":
            if self.member:
                parts.append(FlagsPart(MEMBER_TAG, member=True))
            return parts
        count = self.count
        part = count.stage.emit()
        if part is not None:
            parts.append(part)
        if self.seg == "nodes":
            # the drop bit rides the coarse rounds, the membership marker
            # the last fine round
            if not count.fine and self.drop_seen:
                parts.append(FlagsPart(DROP_TAG, dropped=True))
            if (count.fine and self.member
                    and ctx.round == count.boundary - 1):
                parts.append(FlagsPart(MEMBER_TAG, member=True))
        return parts

    # -- query machine ------------------------------------------------------

    def _start_query(self, ctx: StepContext, k: int) -> None:
        assert self.query is None, "the harness fires one query at a time"
        if self.family is None:
            self.outcomes.append(QueryOutcome(
                self.node_id, k, ctx.round, ctx.round, no_family=True))
            return
        d = self.params.delta
        snap = self.family
        chosen = query_argmax(snap.records, k)
        q = self.query = _QueryRun(k, ctx.round, snap, chosen,
                                   snap.flags[chosen])
        node_est = snap.records[chosen].node_est
        if k == 0 or node_est >= (1.0 + d) * k:
            self._answer(ctx)
            return
        q.delta_target = (1.0 + d) * k - node_est
        q.head_p = min(1.0, max(0.0, q.delta_target / self.n0))
        q.window = ((1.0 + d) * q.delta_target,
                    (1.0 + 2.0 * d) * q.delta_target)
        self._begin_attempt(ctx)

    def _begin_attempt(self, ctx: StepContext) -> None:
        q = self.query
        q.attempt += 1
        enrolled = (not q.member_vi) and bool(ctx.rng.random() < q.head_p)
        q.coins.append(enrolled)
        self.query_count.start(QUERY_TAGS, ctx.round, ctx.rng, enrolled)

    def _answer(self, ctx: StepContext, accepted: int | None = None) -> None:
        """Close the active query: answered at once, accepted at attempt
        ``accepted`` (0-based), or, padded with none accepted, capped."""
        q = self.query
        padded = q.delta_target is not None
        best = accepted
        if padded and best is None:
            # closest attempt to the window center, earliest on ties
            target = (q.window[0] + q.window[1]) / 2.0
            best = min(range(len(q.estimates)),
                       key=lambda i: (abs(q.estimates[i] - target), i))
        self.outcomes.append(QueryOutcome(
            self.node_id, q.k, q.fired_round, ctx.round, no_family=False,
            snapshot=q.snapshot, chosen=q.chosen,
            chosen_ratio=query_ratio(q.snapshot.records[q.chosen], q.k),
            in_answer=q.member_vi or (padded and q.coins[best]),
            padded=padded, attempts=q.attempt,
            accepted_attempt=None if accepted is None else accepted + 1,
            cap_exceeded=padded and accepted is None))
        self.query = None

    def _query_advance_emit(self, ctx: StepContext) -> list[MessagePart]:
        q = self.query
        est = self.query_count.step(ctx.round, ctx.rng)
        if est is not None:
            q.estimates.append(est)
            if q.window[0] <= est <= q.window[1]:
                self._answer(ctx, len(q.estimates) - 1)
                return []
            if q.attempt >= self.params.pad_cap:
                self._answer(ctx)
                return []
            self._begin_attempt(ctx)
        part = self.query_count.stage.emit()
        return [part] if part else []

    # -- engine entry point ---------------------------------------------------

    def step(self, ctx: StepContext) -> list[MessagePart] | None:
        self._absorb(ctx)
        if not self._started:
            self._started = True
            self._count_nodes(ctx)
        else:
            self._advance(ctx)
        parts = self._emit(ctx)
        if self.query_k is not None:
            self._start_query(ctx, self.query_k)
            self.query_k = None
        if self.query is not None:
            parts.extend(self._query_advance_emit(ctx))
        return parts or None


def membership_query(node: ProtocolNode, snapshot_id: int) -> dict[int, bool]:
    """Local read of this node's flags for the current snapshot."""
    fam = node.family
    if fam is None or fam.pass_index != snapshot_id:
        raise UnknownSnapshot(f"snapshot {snapshot_id} is not current")
    return {rec.j: fam.flags[i] for i, rec in enumerate(fam.records)}
