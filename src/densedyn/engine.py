"""Fully dynamic vertex-weighted edge orientation with lazy arc labels.

Maintains an integral orientation of an undirected multigraph over a fixed
vertex set so that no arc points at a vertex whose (thresholded) load sits
more than a few bands above its tail's.  Each arc direction carries a label,
the head's band at the time the arc was last touched; rebalancing decisions
read labels instead of live bands so that one load change never fans out to
every incident arc.

Parallel copies of an edge share one record per direction: a multiplicity
counter plus a single label.  ``_adj[v][u]`` is the direction u->v, and an
edge leaves both endpoints' maps once neither direction has copies.  Updates
move copies in batches: ``insert`` and ``delete`` split all their copies
between the two directions with one water-fill, and each rebalancing flip
moves as many copies of a direction as it takes to even out its two
endpoints.  The work per update therefore does not grow with the number of
copies.  A layer index (vertices bucketed by load band) supports peak-load
queries and prefix extraction.

Inserts and deletes are repaired by the same rules, which only ever even out
a direction whose head sits two or more bands above its tail (or refresh a
stale label); no rule remembers which update moved which copies.

Rebalancing visits the vertices an update touched first-in, first-out: a
vertex whose load a move changed joins the back of one queue, so all the
neighbours a vertex hands copies to are visited before any of them hands
them on, and a receiver does not relay its copies down one long path.  The
``max_chain_inc`` and ``max_chain_dec`` stats record the deepest vertex of a
pass in that breadth-first order: the endpoints of the update have depth 1,
and a vertex that the visit to one of depth d queues has depth d + 1.

A vertex's band follows the rule in :mod:`densedyn.levels`: a bisect over
the integer threshold list of its weight, which the level table grows on
demand to the largest in-degree seen.

The label index files each vertex's incoming and outgoing directions by
label band, in plain dicts of insertion-ordered buckets; a direction is filed
exactly while its count is positive.  Rebalancing only ever reads extreme
keys: the lowest and highest incoming band and the highest outgoing band.  It
reads them with ``min`` and ``max`` over the dict's keys when it needs them
rather than keeping them sorted, because the dicts stay small.  A label is a
band its head held, and each update leaves it within four bands of the head's
current band, so a vertex's incoming keys span at most nine bands; its
outgoing keys lie at most three bands above its own and take one key per
distinct band among its out-neighbours.  The first arc of a bucket is the one
filed earliest, so every scan picks the same arc in the same order as with a
sorted map.

Every in-degree change raises a watermark, ``touched_band``, to the higher
of the vertex's bands before and after, so ``extract`` can tell whether any
change since its last scan reached the bands that scan read.

The analysis fixes five tuning constants, and this module is their only
home: ``ALPHA_C`` (band width), ``LOOP_C`` (arc-scan budget), ``DUP_C`` (edge
duplication), ``THRESHOLD_C`` (load cap of a low-density instance) and
``GRID_SHARE`` (the share of eps spent on the directed side-ratio grid).

Instances are single-threaded; distinct instances share nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .levels import BOUNDARY_TOL, LevelParams, build_level_params

INF = math.inf
# Most edge copies one engine holds, and the top of an uncapped level table.
CAPACITY = 2**32
# Scales the band width alpha, which is ALPHA_C * eps^2 / log2(n * W).
ALPHA_C = 0.25
# Scales the arc-scan budget per rebalanced vertex, ceil(LOOP_C / alpha).
LOOP_C = 4
# Scales the edge duplication, DUP_C * log2(scale) / eps^2.
DUP_C = 4.0
# Scales the low-density load cap, THRESHOLD_C * log2(scale)^2 / eps^4.
THRESHOLD_C = 4.0
# Share of eps the directed reduction's side-ratio guess may lose: every
# ratio lies within a factor q of a guess, q + 1/q = 2 / (1 - GRID_SHARE * eps).
GRID_SHARE = 0.25


def log_scale(x: float) -> float:
    """log2 clamped below at 1, the size factor used by derived parameters."""
    return math.log2(max(2.0, x))


def duplication_factor(scale: float, eps: float) -> int:
    """How many copies of each edge inflate the optimum enough that the
    additive error of the orientation becomes a relative eps-factor."""
    try:
        return max(1, math.ceil(DUP_C * log_scale(scale) / (eps * eps)))
    except (ZeroDivisionError, OverflowError):  # eps * eps is 0, or the count inf
        raise ValueError(f"eps {eps} is too small: each edge takes more copies "
                         f"than the capacity {CAPACITY}") from None


def threshold_value(scale: float, eps: float) -> float:
    """Load cap for a low-density instance."""
    return THRESHOLD_C * log_scale(scale) ** 2 / eps**4


@dataclass(frozen=True)
class EngineConfig:
    """Parameters of one orientation instance.

    ``duplication`` is bookkeeping only: the engine never multiplies inserts
    itself, but extraction divides densities back by it.
    """

    n: int
    epsilon: float
    threshold: float = INF
    duplication: int = 1

    def validate(self, max_weight: float) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.duplication < 1:
            raise ValueError("duplication must be a positive integer")
        if self.duplication > CAPACITY:
            # the duplication grows as 1 / eps^2, so this is where eps is
            # too small for any edge to fit
            raise ValueError(
                f"eps {self.epsilon} is too small: each edge takes "
                f"{self.duplication} copies, more than the capacity {CAPACITY}"
            )
        if self.threshold != INF:
            floor = log_scale(self.n * max_weight) / self.epsilon / self.epsilon
            if floor == INF:  # eps^2 underflows, or the quotient overflows
                raise ValueError(f"eps {self.epsilon} is too small: the load cap's "
                                 f"floor log2(nW) / eps^2 is infinite")
            if self.threshold < floor - BOUNDARY_TOL:
                raise ValueError(
                    f"threshold {self.threshold} below minimum {floor:.3f}"
                )


class _Arc:
    """One direction of an undirected edge: multiplicity plus the label shared
    by its copies, the band its head had when the direction was last touched."""

    __slots__ = ("tail", "head", "count", "label_level", "twin")

    def __init__(self, tail: int, head: int):
        self.tail = tail
        self.head = head
        self.count = 0
        self.label_level = 0
        self.twin: _Arc = None  # linked right after construction


def _last_true(lo: int, hi: int, ok) -> int:
    """Largest ``x`` in ``[lo, hi]`` with ``ok(x)``, by binary search, for a
    predicate that holds at ``lo`` (never evaluated there) and switches to
    false at most once."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _file(keys: dict, key, arc: _Arc) -> None:
    """Add ``arc`` to the bucket of ``key`` in ``keys``, creating it if new."""
    bucket = keys.get(key)
    if bucket is None:
        keys[key] = {arc: None}
    else:
        bucket[arc] = None


def _unfile(keys: dict, key, arc: _Arc) -> None:
    """Take ``arc`` out of the bucket of ``key``; an emptied bucket's key
    leaves ``keys`` at once, so ``min`` and ``max`` see only live keys."""
    bucket = keys[key]
    del bucket[arc]
    if not bucket:
        del keys[key]


class OrientationEngine:
    """Dynamic orientation of a vertex-weighted undirected multigraph."""

    def __init__(self, config: EngineConfig, weights=None):
        n = config.n
        if weights is None:
            weights = [1.0] * n
        if len(weights) != n:
            raise ValueError("weights length must match n")
        w = [float(x) for x in weights]
        for v, x in enumerate(w):
            if not math.isfinite(x):
                raise ValueError(f"weight of vertex {v} is {x}; weights must be finite")
            if x < 1.0 - BOUNDARY_TOL:
                raise ValueError(f"weight of vertex {v} is {x}; normalize to >= 1")
        self.config = config
        max_w = max(w)
        if not math.isfinite(n * max_w):
            raise ValueError(f"n * max weight is {n * max_w}; it must be finite")
        config.validate(max_w)
        self.max_weight = max_w

        eps = config.epsilon
        self.alpha = ALPHA_C * eps * eps / log_scale(n * max_w)
        try:
            self.budget = math.ceil(LOOP_C / self.alpha)
        except (ZeroDivisionError, OverflowError):  # alpha is 0, or the budget inf
            raise ValueError(f"eps {eps} is too small: the band width {self.alpha} "
                             f"underflows") from None
        self.threshold = config.threshold
        max_value = CAPACITY if self.threshold == INF else self.threshold
        self.params: LevelParams = build_level_params(self.alpha, max_value)

        self._w = w
        # in-degree thresholds of the bands, one list per distinct weight,
        # grown by the level table when _band reads past their end
        tables: dict[float, list[int]] = {}
        self._thr = [tables.setdefault(x, []) for x in w]
        self._ind = [0] * n
        self._lvl = [0] * n
        # in-degree at which the thresholded load pins to the cap
        if self.threshold == INF:
            self._kcap = [INF] * n
        else:
            self._kcap = [math.ceil(self.threshold * x) for x in w]
        # bucket values are insertion-ordered dicts keyed by arc record, so
        # replay order (hence every report) is deterministic; extreme keys are
        # read with min and max, as the module docstring says
        self._in = [{} for _ in range(n)]   # label band -> arcs
        self._out = [{} for _ in range(n)]  # label band -> arcs
        self._adj: list[dict[int, _Arc]] = [{} for _ in range(n)]  # head -> tail -> arc
        self._layers: dict[int, set[int]] = {0: set(range(n))}
        self._copies = 0
        # extract's reuse state (see the extract module): the watermark, the
        # highest band any vertex held, before or after, across the in-degree
        # changes since extract last scanned, and (epsilon, floor band,
        # answer) of that scan
        self.touched_band = 0
        self.last_extract = None
        self.stats = dict.fromkeys(
            ("arcs_inc", "arcs_dec", "flips", "copies_moved", "label_resets",
             "max_chain_inc", "max_chain_dec", "inserts", "deletes"),
            0,
        )

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def total_copies(self) -> int:
        """Live arc copies, counting multiplicities."""
        return self._copies

    @property
    def level_count(self) -> int:
        """Number of load bands of this instance; builds the whole table."""
        return self.params.top_level

    def weight(self, v: int) -> float:
        return self._w[v]

    def indeg(self, v: int) -> int:
        return self._ind[v]

    def thresholded_load(self, v: int) -> float:
        return self._tload(v, self._ind[v])

    def copies_to(self, v: int, members) -> int:
        """Total copies of the edges between ``v`` and the vertices in
        ``members``, summed in one pass over ``v``'s arcs."""
        total = 0
        for u, arc in self._adj[v].items():
            if u in members:
                total += arc.count + arc.twin.count
        return total

    def pair_copies(self, u: int, v: int) -> int:
        """Total copies of the undirected edge {u, v} currently stored."""
        arc = self._adj[v].get(u)
        return 0 if arc is None else arc.count + arc.twin.count

    def iter_arcs(self):
        """Yield (tail, head, count, label_level) for live directions."""
        for into in self._adj:
            for a in into.values():
                if a.count > 0:
                    yield a.tail, a.head, a.count, a.label_level

    def layer_levels_desc(self) -> list[int]:
        return sorted(self._layers, reverse=True)

    def layer_members(self, level: int) -> set[int]:
        return self._layers.get(level, set())

    # ------------------------------------------------------------------
    # public updates

    def insert(self, u: int, v: int, multiplicity: int = 1) -> None:
        """Insert ``multiplicity`` copies of the undirected edge {u, v}.

        The batch is water-filled between the endpoints in one step: the split
        is exactly the one that many single-copy choices would give with no
        rebalancing in between, each copy going toward the smaller
        thresholded load (ties toward the smaller id).  Each endpoint's count
        and band are updated once, each direction that received copies is
        labeled with its head's new band, and one rebalancing pass
        (:meth:`_settle`) then starts from the endpoints that gained copies.
        """
        self._check_pair(u, v)
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self._copies + multiplicity > CAPACITY:
            raise ValueError("edge capacity exceeded")
        k = multiplicity
        p, q = (u, v) if u < v else (v, u)
        ip, iq = self._ind[p], self._ind[q]
        tl = self._tload
        # the x-th copy to p precedes the (k-x+1)-th to q in the greedy order
        x = _last_true(0, k, lambda x: tl(p, ip + x - 1) <= tl(q, iq + k - x))
        self.stats["inserts"] += k
        self._copies += k
        base = {}
        for head, tail, c in ((q, p, k - x), (p, q, x)):
            if c:
                base[head] = self._lvl[head]
                arc = self._direction(tail, head)
                self._shift(head, c)
                self._relabel(arc, self._lvl[head])
                arc.count += c
        self._settle(base, "max_chain_inc")

    def delete(self, u: int, v: int, multiplicity: int = 1) -> None:
        """Delete ``multiplicity`` copies of the undirected edge {u, v}.

        Mirrors :meth:`insert`: copies are taken from the direction into the
        higher-load endpoint first (ties toward the smaller id), by the same
        greedy rule without rebalancing in between, falling back to the other
        direction once one runs dry.  One rebalancing pass then starts from
        the endpoints that lost copies.
        """
        self._check_pair(u, v)
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.pair_copies(u, v) < multiplicity:
            raise ValueError(
                f"cannot delete {multiplicity} copies of ({u}, {v}); "
                f"only {self.pair_copies(u, v)} present"
            )
        k = multiplicity
        p, q = (u, v) if u < v else (v, u)
        into_p = self._adj[p][q]
        into_q = into_p.twin
        cq = into_q.count
        ip, iq = self._ind[p], self._ind[q]
        tl = self._tload
        # the x-th copy out of p precedes the (k-x+1)-th out of q in the
        # greedy order, or q's direction has run dry
        x = _last_true(
            max(0, k - cq),
            min(k, into_p.count),
            lambda x: k - x == cq or tl(p, ip - x + 1) >= tl(q, iq - k + x),
        )
        self.stats["deletes"] += k
        self._copies -= k
        base = {}
        for arc, c in ((into_q, k - x), (into_p, x)):
            if c:
                base[arc.head] = self._lvl[arc.head]
                self._drop(arc, c)
                self._shift(arc.head, -c)
        if into_p.count == 0 and into_q.count == 0:
            del self._adj[p][q]
            del self._adj[q][p]
        self._settle(base, "max_chain_dec")

    def _check_pair(self, u: int, v: int) -> None:
        n = self.config.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")

    # ------------------------------------------------------------------
    # queries

    def max_load(self) -> float:
        """Maximum thresholded load, read off the top layer bucket.  The top
        band is the largest key of the layer index, which holds one key per
        band in use, so it is read when asked for rather than kept."""
        top = max(self._layers)
        if top == 0:
            return 0.0
        return max(self.thresholded_load(v) for v in self._layers[top])

    def saturation_trigger(self) -> float:
        """Peak load at which a thresholded instance stops being trusted: the
        load cap may be hiding a denser optimum.  Infinite for an
        unthresholded instance."""
        cfg = self.config
        return (1.0 - cfg.epsilon) * self.threshold - log_scale(
            cfg.n * self.max_weight
        ) / cfg.epsilon

    def verify_local_optimality(self) -> list[dict]:
        """Full scan for band-inequality violations; empty means healthy.

        Checks, for every live direction tail->head with label band ``b``:
        head band <= b + 4, b <= head band + 4, b <= tail band + 3, and
        head band <= tail band + 7.
        """
        lvl = self._lvl
        bad = []
        for into in self._adj:
            for a in into.values():
                if a.count == 0:
                    continue
                lt = lvl[a.tail]
                lh = lvl[a.head]
                lb = a.label_level
                if lh > lb + 4:
                    bad.append(self._violation(a, "head-band above label", lh, lb))
                if lb > lh + 4:
                    bad.append(self._violation(a, "label above head-band", lb, lh))
                if lb > lt + 3:
                    bad.append(self._violation(a, "label above tail-band", lb, lt))
                if lh > lt + 7:
                    bad.append(self._violation(a, "arc band gap", lh, lt))
        return bad

    def _violation(self, arc: _Arc, kind: str, got: int, base: int) -> dict:
        return {
            "kind": kind,
            "tail": arc.tail,
            "head": arc.head,
            "count": arc.count,
            "label_level": arc.label_level,
            "got": got,
            "base": base,
        }

    def snapshot(self) -> tuple[dict[int, float], list[tuple[int, int, int]]]:
        """Thresholded loads plus live (tail, head, count) directions."""
        loads = {v: self.thresholded_load(v) for v in range(self.config.n)}
        arcs = [(t, h, c) for t, h, c, _ in self.iter_arcs()]
        return loads, arcs

    # ------------------------------------------------------------------
    # internals

    def _direction(self, tail: int, head: int) -> _Arc:
        arc = self._adj[head].get(tail)
        if arc is None:
            arc, twin = _Arc(tail, head), _Arc(head, tail)
            arc.twin, twin.twin = twin, arc
            self._adj[head][tail] = arc
            self._adj[tail][head] = twin
        return arc

    def _drop(self, arc: _Arc, c: int) -> None:
        arc.count -= c
        if arc.count == 0:
            _unfile(self._in[arc.head], arc.label_level, arc)
            _unfile(self._out[arc.tail], arc.label_level, arc)

    def _relabel(self, arc: _Arc, band: int) -> None:
        """Set the direction's shared label to ``band``, keeping both label
        maps honest.  A direction is filed exactly while it has copies, so one
        with none is filed here, and its caller adds its copies right after.
        A live direction whose label does not change keeps its place."""
        h, t = arc.head, arc.tail
        if arc.count:
            if band == arc.label_level:
                return
            _unfile(self._in[h], arc.label_level, arc)
            _unfile(self._out[t], arc.label_level, arc)
        _file(self._in[h], band, arc)
        _file(self._out[t], band, arc)
        arc.label_level = band

    def _tload(self, v: int, ind: int) -> float:
        """Thresholded load of ``v`` were its in-degree ``ind``."""
        if ind >= self._kcap[v]:
            return self.threshold
        return ind / self._w[v]

    def _band(self, v: int, ind: int) -> int:
        """Band of ``v`` were its in-degree ``ind``: the smallest ``i`` with
        ``ind <= thr[i]`` in the threshold list of its weight.  A list that
        ends below ``ind`` first grows (:meth:`LevelParams.extend`), so its
        last entry is the band."""
        thr = self._thr[v]
        i = bisect_left(thr, ind)
        if i == len(thr):  # every entry is below ind
            self.params.extend(thr, self._w[v], ind)
            return len(thr) - 1
        return i

    def _shift(self, v: int, delta: int) -> None:
        """Add ``delta`` copies to the in-degree of ``v``, refile it in the
        layer index under the band the level table gives, and raise the
        watermark to the higher of its two bands."""
        ind = self._ind[v] + delta
        self._ind[v] = ind
        old = self._lvl[v]
        new = self._band(v, ind)
        if new != old:
            self._move_layer(v, old, new)
        high = new if delta > 0 else old  # bands rise with in-degree
        if high > self.touched_band:
            self.touched_band = high

    def _even_out(self, arc: _Arc) -> int:
        """Copies of tail->head to flip so that each one lowers the pair's
        ``sum(indeg^2 / weight)``: the water-fill that brings the two loads
        within one copy of each other, capped at the arc's count."""
        head, tail = arc.head, arc.tail
        wh, wt = self._w[head], self._w[tail]
        gap = self._ind[head] / wh - self._ind[tail] / wt
        return min(arc.count, max(1, math.ceil(gap / (1.0 / wh + 1.0 / wt) - 0.5)))

    def _move(self, arc: _Arc, m: int) -> None:
        """Reorient ``m`` copies of tail->head to head->tail, labeling the
        receiving direction with the tail's new band."""
        self.stats["flips"] += 1
        self.stats["copies_moved"] += m
        self._drop(arc, m)
        self._shift(arc.head, -m)
        tail = arc.tail
        self._shift(tail, m)
        self._relabel(arc.twin, self._lvl[tail])
        arc.twin.count += m

    def _move_layer(self, v: int, old: int, new: int) -> None:
        bucket = self._layers[old]
        bucket.discard(v)
        if not bucket:
            del self._layers[old]
        if new in self._layers:
            self._layers[new].add(v)
        else:
            self._layers[new] = {v}
        self._lvl[v] = new

    def _settle(self, base: dict[int, int], chain: str) -> None:
        """Rebalance after an update until no vertex it touched is stale.

        ``base`` maps the endpoints the update changed to the band each had
        before it.  Vertices are visited first-in, first-out (see the module
        docstring): the endpoints in ``base``'s order, then each vertex a move
        touched, queued at the back unless it is already waiting.  ``chain``
        names the stats key that keeps the deepest breadth-first depth
        reached.  A visit to ``x`` repeats two steps until neither moves a
        copy:

        * Pull-back: an outgoing direction labeled three or more bands above
          ``x`` is checked against its head.  A head two or more bands above
          ``x`` is evened out with ``x``; otherwise only the label is stale,
          and it gets the head's band.
        * Flip: incoming directions labeled two or more bands below ``x`` are
          scanned lowest band first, earliest filed within a band.  A tail
          also two or more bands below is evened out with ``x``; any other
          stale label is refreshed.

        Then stale-high labels on incoming directions are refreshed, highest
        first.  Each scan stops at the first fresh label or after ``budget``
        arcs per band ``x`` moved since it was queued.  Every move queues its
        other endpoint.  Evening out lowers ``sum(indeg^2 / weight)`` with each
        copy, so the queue empties.

        Each scan step reads one extreme key of the label index with ``min``
        or ``max`` over a vertex's live keys (the highest outgoing band, the
        lowest or the highest incoming band) and takes the earliest-filed arc
        of its bucket.  These are the key and arc a sorted map would give, and
        the maps hold few keys (see the module docstring), so each read scans
        a handful of them.
        """
        stats = self.stats
        lvl = self._lvl
        todo = deque(base)
        depth = dict.fromkeys(todo, 1)
        deepest = 0

        def touch(y: int, d: int) -> None:
            if y not in depth:
                depth[y] = d
                base[y] = lvl[y]
                todo.append(y)

        while todo:
            x = todo.popleft()
            d = depth.pop(x)
            deepest = max(deepest, d)
            budget = self.budget * max(1, abs(lvl[x] - base.pop(x)))
            out_map = self._out[x]
            in_map = self._in[x]
            while True:
                while out_map:
                    top = max(out_map)
                    lx = lvl[x]
                    if lx + 3 > top:
                        break
                    arc = next(iter(out_map[top]))  # x -> y
                    y = arc.head
                    stats["arcs_dec"] += 1
                    ly = lvl[y]
                    if ly < lx + 2:
                        # the head is not far above x: only the label is stale
                        stats["label_resets"] += 1
                        self._relabel(arc, ly)
                        continue
                    touch(y, d + 1)
                    self._move(arc, self._even_out(arc))
                moved = False
                for _ in range(budget):
                    if not in_map:
                        break
                    arc = next(iter(in_map[min(in_map)]))  # t -> x
                    stats["arcs_inc"] += 1
                    lx = lvl[x]
                    if lx < arc.label_level + 2:
                        break  # freshest possible; the rest are labeled higher
                    t = arc.tail
                    if lvl[t] + 2 <= lx:
                        m = self._even_out(arc)
                        touch(t, d + 1)
                        self._move(arc, m)
                        moved = True
                        break
                    stats["label_resets"] += 1
                    self._relabel(arc, lx)
                if not moved:
                    break
            lx = lvl[x]
            for _ in range(budget):
                if not in_map:
                    break
                arc = next(iter(in_map[max(in_map)]))
                stats["arcs_dec"] += 1
                if arc.label_level < lx + 2:
                    break
                stats["label_resets"] += 1
                self._relabel(arc, lx)
        if deepest > stats[chain]:
            stats[chain] = deepest
