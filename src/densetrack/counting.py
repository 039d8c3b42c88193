"""Distributed cardinality estimators over flood-merge tuples.

Three estimators, all agreeing network-wide after D merge rounds:

* **coarse node count** - every member draws a tuple of geometric toss
  counters (fair coin until heads, capped at 64 tosses); tuples are
  max-merged while flooding and every node outputs the LogLog estimate
  ``2**(mean(x) - (gamma/ln 2 + 1/2))`` over the merged tuple (Durand &
  Flajolet 2003).  The max of n fair-coin toss counts has mean
  ``log2 n + gamma/ln 2 + 1/2`` up to a tiny periodic term, so averaging
  the exponents and removing that constant lands within ``[n/2, 2n]`` with
  probability above ``1 - delta`` at every n, not only near powers of two.
  Used as a cheap upper-bound stage (``N = 2 * coarse``).
* **fine node count** - members draw exponential(1) tuples of length
  ``l = ceil(27*(2+2c)*ln(N)/eps^2)`` (N an upper bound on the subset size,
  natural log, c exposed in config); tuples are min-merged and each node
  outputs ``l / sum(tuple)``.
* **edge count** - each member simulates ``d_u`` copies (its degree inside
  the subset), merging the copies locally before broadcasting, so message
  sizes do not grow; the final estimate is halved because both endpoints
  report each edge.

The empty subset is defined to estimate 0 in every mode (all-identity merges
stay at the identity), which the maintenance loop relies on.

Every per-kind decision lives in one table, :data:`KINDS`: the merge ufunc,
the little-endian dtype, the identity, the wire prefix, the bit metering and
the finalize of geo (max), exp (min), ids (union) and degs (entrywise max)
tuples.  :class:`TuplePart` (a whole tuple) and :class:`CoordPart` (one
strict coordinate) are the wire parts built from it; each carries its
kind's merge, so the engine folds each tag's parts for every receiver.
The bit meterings and the finalizes both work along the last axis: the
engine meters a round's tuples of one tag and length in one call, and the
Monte-Carlo samplers finalize many tuples at once, through the same
functions as a single tuple.

``exact`` mode swaps the tuples for idempotent set unions of (id, degree)
pairs - same schedule, exact outputs - to isolate protocol logic from
estimator noise in tests.  ``strict`` mode serializes one tuple coordinate
per round (l*D rounds instead of D) for literal per-edge bandwidth limits.

:class:`CountPipeline` is the one implementation of a counting window
(coarse, ``N = 2 * coarse``, fine, finalize, or the exact union on the same
schedule).  The protocol's node, edge and padding counts all drive it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GEO_TOSS_CAP = 64
# LogLog bias of the max of geometric(1/2) toss counts: gamma/ln 2 + 1/2,
# gamma the Euler-Mascheroni constant (Durand & Flajolet 2003).
COARSE_BIAS = 0.5772156649015329 / math.log(2.0) + 0.5


def coarse_tuple_len(delta_fail: float) -> int:
    """Tuple length for the coarse stage at failure probability delta."""
    if not (0 < delta_fail < 1):
        raise ValueError("delta_fail must be in (0,1)")
    return max(1, math.ceil(65.0 * math.log(1.0 / delta_fail)))


def fine_tuple_len(upper_bound: float, epsilon: float, c: float = 1.0) -> int:
    """Tuple length for the fine stage given an upper bound on |V'|."""
    if epsilon <= 0 or epsilon > 1:
        raise ValueError("epsilon must be in (0,1]")
    n_cap = max(float(upper_bound), 2.0)
    return max(1, math.ceil(27.0 * (2.0 + 2.0 * c) * math.log(n_cap) / epsilon ** 2))


# -- low-level samplers (single source of randomness semantics) ----------------


def geometric_tosses(rng: np.random.Generator, size) -> tuple[np.ndarray, int]:
    """Coin-toss counters: fair Bernoulli until heads, head included, capped
    at 64 tosses.  Returns (uint8 array, number of truncated draws)."""
    draws = rng.geometric(0.5, size=size)
    truncated = int(np.count_nonzero(draws > GEO_TOSS_CAP))
    return np.minimum(draws, GEO_TOSS_CAP).astype(np.uint8), truncated


def exponential_draws(rng: np.random.Generator, size,
                      copies: int = 1) -> np.ndarray:
    """The min of ``copies`` iid rate-1 exponentials, which is exactly
    Exp(copies): -ln(U) / copies, U uniform in (0,1]."""
    out = rng.random(size=size)
    np.negative(out, out=out)  # in place: no temporaries, the same bits
    np.log1p(out, out=out)
    np.negative(out, out=out)
    # -log1p(-u) is 0 only at u == 0 and at least 2^-53 elsewhere, so this
    # lifts exactly the zeros to 1e-300
    np.maximum(out, 1e-300, out=out)
    if copies != 1:  # x / 1 == x
        out /= copies
    return out


@functools.cache
def _max_toss_cdf(copies: int) -> np.ndarray:
    """``(1 - 2^-k)^copies`` for k = 1..64, the CDF of the max of
    ``copies`` toss counters; read-only, since every caller shares it."""
    ks = np.arange(1, GEO_TOSS_CAP + 1, dtype=np.float64)
    cdf = np.power(1.0 - np.exp2(-ks), copies)
    cdf.flags.writeable = False
    return cdf


def geometric_max_tosses(rng: np.random.Generator, copies: int,
                         size) -> tuple[np.ndarray, int]:
    """Max of ``copies`` independent toss counters, sampled directly.

    The max of c iid geometric(1/2) variables has CDF ``(1 - 2^-k)^c``;
    inverse-CDF sampling of that law is an exact implementation of
    draw-c-tuples-then-merge, at 1/c the draw count.  Used when one node
    simulates its degree's worth of virtual members.
    """
    if copies <= 1:
        return geometric_tosses(rng, size)
    cdf = _max_toss_cdf(copies)
    u = rng.random(size=size)
    truncated = int(np.count_nonzero(u > cdf[-1]))
    idx = cdf.searchsorted(u, side="left")
    return np.minimum(idx + 1, GEO_TOSS_CAP).astype(np.uint8), truncated


def finalize_coarse_rows(values: np.ndarray) -> np.ndarray:
    """LogLog estimate ``2**(mean(x) - COARSE_BIAS)`` along the last axis.

    ``values`` holds merged toss-count tuples, one per row.  An all-zero row
    is the merge identity (no member contributed) and estimates 0.

    The max of n fair-coin toss counts has mean ``log2 n + gamma/ln 2 +
    1/2`` up to a small periodic term (Flajolet & Martin 1985), so a row's
    mean exponent minus ``COARSE_BIAS`` estimates ``log2 n``.  Each
    coordinate has standard deviation about 1.9, so over the ``65 *
    ln(1/delta)`` coordinates the mean exponent has standard deviation at
    most about 0.15, well inside the +-1 of the ``[n/2, 2n]`` window.
    """
    # numpy's own mean, without its Python wrapper: the same bits
    width = values.shape[-1]
    if values.ndim == 1:  # one tuple, as a node finalizes it
        if not np.count_nonzero(values):
            return np.float64(0.0)
        return np.exp2(np.add.reduce(values, dtype=np.float64) / width
                       - COARSE_BIAS)
    mean = np.add.reduce(values, axis=-1, dtype=np.float64) / width
    return np.where(values.any(axis=-1), np.exp2(mean - COARSE_BIAS), 0.0)


def finalize_fine_rows(values: np.ndarray) -> np.ndarray:
    """``l / sum`` along the last axis over merged exponential tuples.

    An all-infinite row is the merge identity (no member contributed) and
    estimates 0.
    """
    return values.shape[-1] / values.sum(axis=-1)


def id_bit_width(node_count: int) -> int:
    return max(1, math.ceil(math.log2(max(node_count, 2))))


# bit length of a toss counter, 1 for the strict-mode identity 0
_TOSS_BITS = np.array([max(1, v.bit_length()) for v in range(256)])


@dataclass(frozen=True)
class Kind:
    """One flood-merge tuple kind: its algebra, its wire form, its estimate.

    ``bits(values, id_bits)`` meters tuples along the last axis, one int64
    count per tuple (the engine recomputes it from the payload, senders are
    never trusted); ``finalize`` maps merged tuples, along the last axis,
    to their estimates, 0 for the identity.  ``sized``: ``bits`` reads only
    the tuple length, never a value.
    """

    prefix: bytes
    dtype: np.dtype
    merge: np.ufunc
    identity: int | float
    bits: Callable[[np.ndarray, int], np.ndarray]
    finalize: Callable[[np.ndarray], np.ndarray]
    sized: bool = False


KINDS = {
    # toss counters at their actual bit length
    "geo": Kind(b"G", np.dtype("<u1"), np.maximum, 0,
                lambda v, _: _TOSS_BITS.take(v).sum(axis=-1),
                finalize_coarse_rows),
    # 64 bits per float coordinate
    "exp": Kind(b"E", np.dtype("<f8"), np.minimum, np.inf,
                lambda v, _: np.full(v.shape[:-1], 64 * v.shape[-1]),
                finalize_fine_rows, sized=True),
    # member ids as a packed bitset, ceil(log2 n) bits per member
    "ids": Kind(b"I", np.dtype("<u8"), np.bitwise_or, 0,
                lambda v, id_bits: np.bitwise_count(v).sum(
                    axis=-1, dtype=np.int64) * id_bits,
                lambda v: np.bitwise_count(v).sum(axis=-1)),
    # (id, degree) pairs as a vector, -1 where unknown: 2 ceil(log2 n) bits
    # per known entry
    "degs": Kind(b"D", np.dtype("<i4"), np.maximum, -1,
                 lambda v, id_bits: (v >= 0).sum(axis=-1) * (2 * id_bits),
                 lambda v: np.maximum(v, 0).sum(axis=-1)),
}


def group_bits(kind: str, rows: list[np.ndarray], id_bits: int) -> np.ndarray:
    """The bits of each of ``rows``, tuples of ``kind`` of one length, by the
    kind's formula along the last axis.  The rows are stacked for the call
    only, and not at all when the formula reads only their length."""
    k, width = KINDS[kind], rows[0].size
    values = (np.broadcast_to(rows[0], (len(rows), width)) if k.sized
              else np.concatenate(rows).reshape(len(rows), width))
    return k.bits(values, id_bits)


@dataclass(slots=True)
class TuplePart:
    """A whole merge tuple of one kind of :data:`KINDS`."""

    tag: str
    kind: str
    values: np.ndarray
    id_bits: int = 0  # ids/degs metering

    @property
    def merge(self) -> np.ufunc:
        return KINDS[self.kind].merge

    def with_values(self, values: np.ndarray) -> TuplePart:
        return TuplePart(self.tag, self.kind, values, self.id_bits)

    def header(self) -> tuple:
        return self.tag, self.kind, self.id_bits

    def row_bits(self, rows: list[np.ndarray]) -> np.ndarray:
        return group_bits(self.kind, rows, self.id_bits)

    def canonical_bytes(self) -> bytes:
        k = KINDS[self.kind]
        return (k.prefix + self.tag.encode()
                + self.values.astype(k.dtype, copy=False).tobytes())


@dataclass(slots=True)
class CoordPart:
    """Strict-bandwidth mode: tuple coordinate ``index`` of a geo or exp
    tuple, as a one-element array of the kind's dtype.  Nodes run in
    lockstep, so every sender of a tag sends the same index in a round.  The
    engine folds only coordinates of one index: a sender out of lockstep
    reaches its receivers in a part of its own, which their stage refuses."""

    tag: str
    kind: str  # "geo" | "exp"
    index: int
    values: np.ndarray

    @property
    def merge(self) -> np.ufunc:
        return KINDS[self.kind].merge

    def with_values(self, values: np.ndarray) -> CoordPart:
        return CoordPart(self.tag, self.kind, self.index, values)

    def header(self) -> tuple:
        return self.tag, self.kind, self.index

    def row_bits(self, rows: list[np.ndarray]) -> np.ndarray:
        return group_bits(self.kind, rows, 0)

    def canonical_bytes(self) -> bytes:
        return (b"C" + self.tag.encode() + self.kind.encode()
                + self.index.to_bytes(4, "little")
                + np.float64(self.values[0]).tobytes())


# -- merge stages ---------------------------------------------------------------


@dataclass
class MergeStage:
    """One flood-merge accumulator driven by a node for D (or l*D) rounds.

    ``kind`` selects the algebra in :data:`KINDS`.  The accumulator is the
    node's own draw or, when the node contributes nothing, the kind's
    identity; ``has_data`` says whether anything reached it yet.  Only geo
    and exp stages are ever strict.

    The engine delivers every part merged: a round brings one part per tag
    and tuple length, the fold of every neighbour's broadcast, so a stage
    absorbs once per round whatever its fan-in.  A strict stage's folded
    coordinate must be the one this stage emitted last round: the
    neighbours sent it in lockstep.

    A broadcast is a value: the stage never writes an array it has emitted
    (``shared``), so whoever holds an emitted part still reads what was
    sent.  The first merge into a shared array is out of place; later
    merges that round stay in place.
    """

    tag: str
    kind: str
    diameter: int
    acc: np.ndarray
    has_data: bool = False
    strict: bool = False
    id_bits: int = 0  # ids/degs metering
    emitted: int = 0
    shared: bool = False  # acc is also an emitted part's values

    @classmethod
    def empty(cls, tag: str, kind: str, diameter: int, length: int,
              **kw) -> MergeStage:
        k = KINDS[kind]
        acc = np.empty(length, k.dtype)
        acc.fill(k.identity)  # np.full's own fill, without its wrapper
        return cls(tag, kind, diameter, acc, **kw)

    def rounds(self) -> int:
        return self.acc.size * self.diameter if self.strict else self.diameter

    def absorb(self, part: TuplePart | CoordPart) -> None:
        assert part.kind == self.kind, (part.kind, self.kind)
        merge = part.merge
        if self.strict:
            i = part.index
            assert i == (self.emitted - 1) // self.diameter, (i, self.emitted)
            self.acc[i] = merge(self.acc[i], part.values[0])
        elif self.shared:
            self.acc, self.shared = merge(self.acc, part.values), False
        else:
            merge(self.acc, part.values, out=self.acc)
        self.has_data = True

    def emit(self) -> TuplePart | CoordPart | None:
        pos, self.emitted = self.emitted, self.emitted + 1
        if not self.has_data:
            return None
        if self.strict:
            i = pos // self.diameter
            return CoordPart(self.tag, self.kind, i,
                             self.acc[i:i + 1].copy())
        self.shared = True
        return TuplePart(self.tag, self.kind, self.acc, self.id_bits)


def geo_stage(tag: str, diameter: int, length: int, member: bool,
              rng: np.random.Generator, copies: int = 1,
              strict: bool = False) -> tuple[MergeStage, int]:
    """Coarse stage for one node; ``copies`` simulated members merge locally."""
    if member and copies > 0:
        acc, truncated = geometric_max_tosses(rng, copies, length)
        return MergeStage(tag, "geo", diameter, acc, True, strict), truncated
    return MergeStage.empty(tag, "geo", diameter, length, strict=strict), 0


def exp_stage(tag: str, diameter: int, length: int, member: bool,
              rng: np.random.Generator, copies: int = 1,
              strict: bool = False) -> MergeStage:
    if member and copies > 0:
        acc = exponential_draws(rng, length, copies)
        return MergeStage(tag, "exp", diameter, acc, True, strict)
    return MergeStage.empty(tag, "exp", diameter, length, strict=strict)


def ids_stage(tag: str, diameter: int, node_count: int, node_id: int,
              member: bool) -> MergeStage:
    st = MergeStage.empty(tag, "ids", diameter, (node_count + 63) // 64,
                          id_bits=id_bit_width(node_count))
    if member:
        st.acc[node_id // 64] |= np.uint64(1) << np.uint64(node_id % 64)
        st.has_data = True
    return st


def degs_stage(tag: str, diameter: int, node_count: int, node_id: int,
               member: bool, degree: int) -> MergeStage:
    st = MergeStage.empty(tag, "degs", diameter, node_count,
                          id_bits=id_bit_width(node_count))
    if member:
        st.acc[node_id] = degree
        st.has_data = True
    return st


# -- the counting window ----------------------------------------------------------


class CountPipeline:
    """One node's side of a counting window: coarse stage, fine tuple length
    from ``N = 2 * coarse``, fine stage, finalize.

    A window spans ``2 * D`` rounds (``(l_geo + l_exp) * D`` in strict mode).
    Exact mode floods one union through both halves instead: member ids for
    a node count, (id, degree) pairs for an edge count.

    The caller starts a window with its (coarse, fine) tag pair, whether this
    node contributes and, for an edge count, its degree inside the counted
    set, which it simulates as that many members (in exact mode a member of
    degree 0 still contributes its entry); an edge count's total is halved,
    since both endpoints report each edge.  It feeds ``stage`` the inbox
    parts whose tag matches and calls :meth:`step` every round; ``step``
    draws the fine tuple at the coarse boundary and returns the total when
    the window closes.  An empty subset counts 0 in every mode.
    """

    def __init__(self, node_id: int, node_count: int, diameter: int, *,
                 delta_fail: float, epsilon: float, c: float, exact: bool,
                 strict: bool):
        if diameter < 1:  # a 0-round window never closes
            raise ValueError("diameter must be >= 1")
        self.node_id = node_id
        self.node_count = node_count
        self.diameter = diameter
        self.coarse_len = coarse_tuple_len(delta_fail)
        self.epsilon = epsilon
        self.c = c
        self.exact = exact
        self.strict = strict
        self.stage: MergeStage | None = None
        self.tags = ("", "")
        self.contributes = False
        self.copies = 1
        self.edges = False      # an edge window: its total is halved
        self.fine = False       # past the coarse boundary
        self.boundary = 0       # round of the next stage boundary
        self.coarse = 0.0
        self.truncated = 0      # toss draws capped at GEO_TOSS_CAP, all windows

    def start(self, tags: tuple[str, str], round_: int,
              rng: np.random.Generator, contributes: bool,
              degree: int | None = None) -> None:
        self.tags = tags
        self.contributes = contributes
        self.copies = 1 if degree is None else degree
        self.edges = degree is not None
        self.fine = False
        if not self.exact:
            self.stage, truncated = geo_stage(
                tags[0], self.diameter, self.coarse_len, contributes, rng,
                copies=self.copies, strict=self.strict)
            self.truncated += truncated
        elif degree is None:
            self.stage = ids_stage(tags[0], self.diameter, self.node_count,
                                   self.node_id, contributes)
        else:
            self.stage = degs_stage(tags[0], self.diameter, self.node_count,
                                    self.node_id, contributes, degree)
        self.boundary = round_ + self.stage.rounds()

    def step(self, round_: int, rng: np.random.Generator) -> float | None:
        """Cross a stage boundary if ``round_`` is one; the window's total
        when it closes, else None."""
        if round_ != self.boundary:
            return None
        st = self.stage
        total = float(KINDS[st.kind].finalize(st.acc)) if st.has_data \
            else 0.0
        if self.fine:
            self.stage = None
            if self.coarse == 0 and not self.exact:
                return 0.0  # nobody drew a fine tuple
            return total / 2.0 if self.edges else total
        self.fine, self.coarse = True, total
        if not self.exact:
            length = fine_tuple_len(2.0 * total, self.epsilon, self.c)
            self.stage = exp_stage(self.tags[1], self.diameter, length,
                                   self.contributes and total > 0, rng,
                                   copies=self.copies, strict=self.strict)
        self.boundary = round_ + self.stage.rounds()
        return None


# -- direct-path samplers (distribution oracles for Monte-Carlo tests) ---------
#
# After D merge rounds on a trace whose dynamic diameter is at most D, every
# node holds exactly the merge of all members' tuples, so the estimate's
# distribution equals "draw every member's tuple, merge, finalize".  The
# default samplers collapse the merge with the same exact identities the
# simulator uses for local degree copies (max-of-c geometrics via its closed
# CDF, min-of-c exponentials as Exp(c)); the tests cross-check that law
# against drawing and merging every tuple.


def sample_coarse_estimates(rng: np.random.Generator, true_count: int,
                            delta_fail: float, trials: int) -> np.ndarray:
    length = coarse_tuple_len(delta_fail)
    if true_count == 0:
        return np.zeros(trials)
    maxima, _ = geometric_max_tosses(rng, true_count, (trials, length))
    return finalize_coarse_rows(maxima)


def _fine_collapsed(rng, count, length, trials):
    return finalize_fine_rows(
        exponential_draws(rng, (trials, length), count))


def sample_fine_estimates(rng: np.random.Generator, true_count: int,
                          epsilon: float, trials: int, c: float = 1.0,
                          upper_bound: float | None = None,
                          delta_fail: float = 0.01) -> np.ndarray:
    """Fine estimates through the full pipeline (coarse -> N -> fine).

    When ``upper_bound`` is given the coarse stage is skipped and the bound
    used directly.
    """
    if true_count == 0:
        return np.zeros(trials)
    if upper_bound is not None:
        length = fine_tuple_len(upper_bound, epsilon, c)
        return _fine_collapsed(rng, true_count, length, trials)
    coarse = sample_coarse_estimates(rng, true_count, delta_fail, trials)
    lengths = np.array([fine_tuple_len(2.0 * n_cap, epsilon, c)
                        for n_cap in coarse])
    out = np.empty(trials)
    for length in np.unique(lengths):
        idx = np.nonzero(lengths == length)[0]
        out[idx] = _fine_collapsed(rng, true_count, int(length), idx.size)
    return out

