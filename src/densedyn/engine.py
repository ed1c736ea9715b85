"""Fully dynamic vertex-weighted edge orientation with lazy arc labels.

Maintains an integral orientation of an undirected multigraph over a fixed
vertex set so that no arc points at a vertex whose (thresholded) load sits
more than a few bands above its tail's.  Each arc direction carries a label,
a snapshot of the head's load taken the last time the arc was touched;
rebalancing decisions read labels instead of live loads so that one load
change never fans out to every incident arc.

Parallel copies of an edge share one record per direction: a multiplicity
counter plus a single label.  Updates move copies in batches: ``insert`` and
``delete`` split all their copies between the two directions with one
water-fill, and each rebalancing flip moves as many copies of a direction as
it takes to even out its two endpoints.  The work per update therefore does
not grow with the number of copies.  A layer index (vertices bucketed by
load band) supports peak-load queries and prefix extraction.

The analysis fixes four tuning constants, and this module is their only
home: ``ALPHA_C`` (band width), ``LOOP_C`` (arc-scan budget), ``DUP_C`` (edge
duplication) and ``THRESHOLD_C`` (load cap of a low-density instance).

Instances are single-threaded; distinct instances share nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from sortedcontainers import SortedDict

from .levels import BOUNDARY_TOL, LevelParams, build_level_params

INF = math.inf
DEFAULT_CAPACITY = 2**32
# Weight of the log term in a thresholded instance's saturation trigger.
SATURATION_C = 1.0
# Scales the band width alpha, which is ALPHA_C * eps^2 / log2(n * W).
ALPHA_C = 0.25
# Scales the arc-scan budget per rebalanced vertex, ceil(LOOP_C / alpha).
LOOP_C = 4
# Scales the edge duplication, DUP_C * log2(scale) / eps^2.
DUP_C = 4.0
# Scales the low-density load cap, THRESHOLD_C * log2(scale)^2 / eps^4.
THRESHOLD_C = 4.0


def log_scale(x: float) -> float:
    """log2 clamped below at 1, the size factor used by derived parameters."""
    return math.log2(max(2.0, x))


def duplication_factor(scale: float, eps: float, c: float = DUP_C) -> int:
    """How many copies of each edge inflate the optimum enough that the
    additive error of the orientation becomes a relative eps-factor."""
    return max(1, math.ceil(c * log_scale(scale) / (eps * eps)))


def threshold_value(scale: float, eps: float, c: float = THRESHOLD_C) -> float:
    """Load cap for a low-density instance."""
    return c * log_scale(scale) ** 2 / eps**4


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
    capacity: int = DEFAULT_CAPACITY

    def validate(self, max_weight: float) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.duplication < 1:
            raise ValueError("duplication must be a positive integer")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.threshold != INF:
            floor = log_scale(self.n * max_weight) / self.epsilon**2
            if self.threshold < floor - BOUNDARY_TOL:
                raise ValueError(
                    f"threshold {self.threshold} below minimum {floor:.3f}"
                )


class _Arc:
    """One direction of an undirected edge: multiplicity plus shared label."""

    __slots__ = ("tail", "head", "count", "label", "label_level", "twin", "placed")

    def __init__(self, tail: int, head: int):
        self.tail = tail
        self.head = head
        self.count = 0
        self.label = 0.0
        self.label_level = 0
        self.twin: _Arc = None  # linked right after construction
        self.placed = False


def _last_true(lo: int, hi: int, ok) -> int:
    """Largest ``x`` in ``[lo, hi]`` with ``ok(x)``, for a predicate that holds
    at ``lo`` (never evaluated there) and switches to false at most once.

    Gallops up from ``lo`` and then bisects, so a small answer costs only a
    few probes.
    """
    step = 1
    while lo < hi:
        probe = min(lo + step, hi)
        if not ok(probe):
            hi = probe - 1
            break
        lo = probe
        step *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


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
        config.validate(max_w)
        self.max_weight = max_w

        eps = config.epsilon
        self.alpha = ALPHA_C * eps * eps / log_scale(n * max_w)
        self.budget = math.ceil(LOOP_C / self.alpha)
        self.threshold = config.threshold
        max_value = config.capacity if self.threshold == INF else self.threshold
        self.params: LevelParams = build_level_params(self.alpha, max_value)

        self._w = w
        self._ind = [0] * n
        self._lvl = [0] * n
        if self.threshold == INF:
            self._kcap = [None] * n
            self._cap_level = None
        else:
            # in-degree at which the thresholded load pins to the cap
            self._kcap = [math.ceil(self.threshold * x) for x in w]
            self._cap_level = self.params.level_of(self.threshold)
        # bucket values are insertion-ordered dicts keyed by arc record, so
        # replay order (hence every report) is deterministic
        self._in = [SortedDict() for _ in range(n)]   # label value -> arcs
        self._out = [SortedDict() for _ in range(n)]  # label band  -> arcs
        self._pairs: dict[tuple[int, int], _Arc] = {}
        self._nbrs = [set() for _ in range(n)]
        self._layers: dict[int, set[int]] = {0: set(range(n))}
        self._top = 0
        self._copies = 0
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
        """Number of load bands of this instance."""
        return self.params.top_level

    def weight(self, v: int) -> float:
        return self._w[v]

    def indeg(self, v: int) -> int:
        return self._ind[v]

    def load(self, v: int) -> float:
        return self._ind[v] / self._w[v]

    def thresholded_load(self, v: int) -> float:
        return self._tload(v, self._ind[v])

    def level(self, v: int) -> int:
        return self._lvl[v]

    def neighbors(self, v: int):
        return self._nbrs[v]

    def pair_copies(self, u: int, v: int) -> int:
        """Total copies of the undirected edge {u, v} currently stored."""
        arc = self._pairs.get((u, v) if u < v else (v, u))
        return 0 if arc is None else arc.count + arc.twin.count

    def iter_arcs(self):
        """Yield (tail, head, count, label, label_level) for live directions."""
        for arc in self._pairs.values():
            for a in (arc, arc.twin):
                if a.count > 0:
                    yield a.tail, a.head, a.count, a.label, a.label_level

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
        labeled with its head's new load, and one rebalancing pass
        (:meth:`_settle`) then starts from the endpoints that gained copies.
        """
        self._check_pair(u, v)
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self._copies + multiplicity > self.config.capacity:
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
                arc.count += c
                self._shift(head, c)
                self._relabel(arc, self.thresholded_load(head), self._lvl[head])
        self._settle(list(base), base, {}, "max_chain_inc")

    def delete(self, u: int, v: int, multiplicity: int = 1) -> None:
        """Delete ``multiplicity`` copies of the undirected edge {u, v}.

        Mirrors :meth:`insert`: copies are taken from the direction into the
        higher-load endpoint first (ties toward the smaller id), by the same
        greedy rule without rebalancing in between, falling back to the other
        direction once one runs dry.  One rebalancing pass then starts from
        the endpoints that lost copies, which may pull that many back in.
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
        pair = self._pairs[(p, q)]
        into_p = pair if pair.head == p else pair.twin
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
        owed = {}
        for arc, c in ((into_q, k - x), (into_p, x)):
            if c:
                base[arc.head] = self._lvl[arc.head]
                owed[arc.head] = c
                self._drop(arc, c)
                self._shift(arc.head, -c)
        if into_p.count == 0 and into_q.count == 0:
            del self._pairs[(p, q)]
            self._nbrs[p].discard(q)
            self._nbrs[q].discard(p)
        self._settle(list(base), base, owed, "max_chain_dec")

    def _check_pair(self, u: int, v: int) -> None:
        n = self.config.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")

    # ------------------------------------------------------------------
    # queries

    def max_load(self) -> float:
        """Maximum thresholded load, read off the top layer bucket."""
        top = self._top
        if top == 0:
            return 0.0
        return max(self.thresholded_load(v) for v in self._layers[top])

    def saturation_trigger(self) -> float:
        """Peak load at which a thresholded instance stops being trusted."""
        cfg = self.config
        return (1.0 - cfg.epsilon) * self.threshold - SATURATION_C * log_scale(
            cfg.n * self.max_weight
        ) / cfg.epsilon

    def saturated(self) -> bool:
        """True when the load cap may be hiding a denser optimum.

        Always False for unthresholded instances.
        """
        if self.threshold == INF:
            return False
        return self.max_load() >= self.saturation_trigger()

    def verify_local_optimality(self) -> list[dict]:
        """Full scan for band-inequality violations; empty means healthy.

        Checks, for every live direction tail->head with label band ``b``:
        head band <= b + 4, b <= head band + 4, b <= tail band + 3, and
        head band <= tail band + 7.
        """
        lvl = self._lvl
        bad = []
        for pair in self._pairs.values():
            for a in (pair, pair.twin):
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
            "label": arc.label,
            "label_level": arc.label_level,
            "got": got,
            "base": base,
        }

    def snapshot(self) -> tuple[dict[int, float], list[tuple[int, int, int]]]:
        """Thresholded loads plus live (tail, head, count) directions."""
        loads = {v: self.thresholded_load(v) for v in range(self.config.n)}
        arcs = [(t, h, c) for t, h, c, _, _ in self.iter_arcs()]
        return loads, arcs

    # ------------------------------------------------------------------
    # internals

    def _direction(self, tail: int, head: int) -> _Arc:
        key = (tail, head) if tail < head else (head, tail)
        pair = self._pairs.get(key)
        if pair is None:
            fwd = _Arc(key[0], key[1])
            bwd = _Arc(key[1], key[0])
            fwd.twin = bwd
            bwd.twin = fwd
            self._pairs[key] = fwd
            self._nbrs[key[0]].add(key[1])
            self._nbrs[key[1]].add(key[0])
            pair = fwd
        return pair if pair.tail == tail else pair.twin

    def _drop(self, arc: _Arc, c: int) -> None:
        arc.count -= c
        if arc.count == 0 and arc.placed:
            self._struct_remove(arc)

    def _struct_remove(self, arc: _Arc) -> None:
        in_map = self._in[arc.head]
        bucket = in_map[arc.label]
        bucket.pop(arc, None)
        if not bucket:
            del in_map[arc.label]
        out_map = self._out[arc.tail]
        obucket = out_map[arc.label_level]
        obucket.pop(arc, None)
        if not obucket:
            del out_map[arc.label_level]
        arc.placed = False

    def _relabel(self, arc: _Arc, value: float, lvl: int) -> None:
        """Set the direction's shared label, keeping both lookup maps honest."""
        if arc.placed:
            if value != arc.label:
                in_map = self._in[arc.head]
                bucket = in_map[arc.label]
                bucket.pop(arc, None)
                if not bucket:
                    del in_map[arc.label]
                in_map.setdefault(value, {})[arc] = None
            if lvl != arc.label_level:
                out_map = self._out[arc.tail]
                obucket = out_map[arc.label_level]
                obucket.pop(arc, None)
                if not obucket:
                    del out_map[arc.label_level]
                out_map.setdefault(lvl, {})[arc] = None
        else:
            self._in[arc.head].setdefault(value, {})[arc] = None
            self._out[arc.tail].setdefault(lvl, {})[arc] = None
            arc.placed = True
        arc.label = value
        arc.label_level = lvl

    def _tload(self, v: int, ind: int) -> float:
        """Thresholded load of ``v`` were its in-degree ``ind``."""
        kcap = self._kcap[v]
        if kcap is not None and ind >= kcap:
            return self.threshold
        return ind / self._w[v]

    def _band(self, v: int, ind: int) -> int:
        """Band of ``v`` were its in-degree ``ind``, read off the level table."""
        kcap = self._kcap[v]
        if kcap is not None and ind >= kcap:
            return self._cap_level
        return self.params.level_of_ratio(ind, self._w[v])

    def _shift(self, v: int, delta: int) -> None:
        """Add ``delta`` copies to the in-degree of ``v`` and refile it in the
        layer index under the band the level table gives."""
        ind = self._ind[v] + delta
        self._ind[v] = ind
        old = self._lvl[v]
        new = self._band(v, ind)
        if new != old:
            self._move_layer(v, old, new)

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
        receiving direction with the tail's new load."""
        self.stats["flips"] += 1
        self.stats["copies_moved"] += m
        self._drop(arc, m)
        self._shift(arc.head, -m)
        twin = arc.twin
        twin.count += m
        tail = arc.tail
        self._shift(tail, m)
        self._relabel(twin, self.thresholded_load(tail), self._lvl[tail])

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
        if new > self._top:
            self._top = new
        else:
            top = self._top
            layers = self._layers
            while top > 0 and top not in layers:
                top -= 1
            self._top = top

    def _settle(self, todo: list[int], base: dict[int, int], owed: dict[int, int],
                chain: str) -> None:
        """Rebalance after an update until no vertex it touched is stale.

        ``todo`` holds the endpoints the update changed, ``base`` the band
        each had before it, and ``owed`` the copies a deletion took from
        each.  A visit to ``x`` repeats two steps until neither moves a copy:

        * Pull-back: an outgoing direction labeled three or more bands above
          ``x`` is checked against its head.  A head two or more bands above
          ``x`` is evened out with ``x``.  Otherwise, if ``x`` still owes
          copies, up to that many come home as long as ``x`` ends at most one
          band above the head.  Otherwise only the label is stale, and it
          gets the head's load.
        * Flip: incoming directions labeled two or more bands below ``x`` are
          scanned cheapest first.  A tail also two or more bands below is
          evened out with ``x``; any other stale label is refreshed.

        Then stale-high labels on incoming directions are refreshed, highest
        first.  Each scan stops at the first fresh label or after ``budget``
        arcs per band ``x`` moved since it was queued.  Every move queues its
        other endpoint.  Evening out lowers ``sum(indeg^2 / weight)`` with each
        copy and owed copies only run down, so the queue empties.
        """
        stats = self.stats
        lvl = self._lvl
        ind = self._ind
        band = self._band
        depth = dict.fromkeys(todo, 1)
        deepest = 0

        def touch(y: int, d: int) -> None:
            if y not in depth:
                depth[y] = d
                base[y] = lvl[y]
                todo.append(y)

        while todo:
            x = todo.pop()
            d = depth.pop(x)
            deepest = max(deepest, d)
            budget = self.budget * max(1, abs(lvl[x] - base.pop(x)))
            out_map = self._out[x]
            in_map = self._in[x]
            while True:
                while out_map:
                    top, bucket = out_map.peekitem(-1)
                    lx = lvl[x]
                    if lx + 3 > top:
                        break
                    arc = next(iter(bucket))  # x -> y
                    y = arc.head
                    stats["arcs_dec"] += 1
                    ly = lvl[y]
                    if lx + 2 <= ly:
                        m = self._even_out(arc)
                    else:
                        due = owed.get(x, 0)
                        if not due or lx > ly + 1:
                            # the head is not above x: only the label is stale
                            stats["label_resets"] += 1
                            self._relabel(arc, self.thresholded_load(y), ly)
                            continue
                        # x still owes copies a deletion took: pull them home
                        # as long as x ends at most one band above the head
                        ix, iy = ind[x], ind[y]
                        m = _last_true(
                            1,
                            min(due, arc.count),
                            lambda m: band(x, ix + m - 1) <= band(y, iy - m + 1) + 1,
                        )
                        owed[x] = due - m
                    touch(y, d + 1)
                    self._move(arc, m)
                moved = False
                load_x = None
                for _ in range(budget):
                    if not in_map:
                        break
                    _, bucket = in_map.peekitem(0)
                    arc = next(iter(bucket))  # t -> x
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
                    if load_x is None:
                        load_x = self.thresholded_load(x)
                    self._relabel(arc, load_x, lx)
                if not moved:
                    break
            lx = lvl[x]
            load_x = None
            for _ in range(budget):
                if not in_map:
                    break
                _, bucket = in_map.peekitem(-1)
                arc = next(iter(bucket))
                stats["arcs_dec"] += 1
                if arc.label_level < lx + 2:
                    break
                stats["label_resets"] += 1
                if load_x is None:
                    load_x = self.thresholded_load(x)
                self._relabel(arc, load_x, lx)
        if deepest > stats[chain]:
            stats[chain] = deepest

    # ------------------------------------------------------------------
    # diagnostics

    def debug_audit(self) -> None:
        """Cross-check every redundant structure; raises AssertionError."""
        n = self.config.n
        ind = [0] * n
        copies = 0
        for pair in self._pairs.values():
            assert pair.count > 0 or pair.twin.count > 0, "dead pair retained"
            for a in (pair, pair.twin):
                ind[a.head] += a.count
                copies += a.count
                if a.count > 0:
                    assert a.placed, "live arc missing from structures"
                    assert a in self._in[a.head][a.label]
                    assert a in self._out[a.tail][a.label_level]
                    expect = self.params.level_of(a.label)
                    assert a.label_level == expect, (
                        f"label level drift: {a.label_level} vs {expect}"
                    )
                else:
                    assert not a.placed, "dead arc left in structures"
        assert copies == self._copies, "copy counter drift"
        for v in range(n):
            assert ind[v] == self._ind[v], f"indeg drift at {v}"
            kcap = self._kcap[v]
            if kcap is not None and self._ind[v] >= kcap:
                expect = self._cap_level
            else:
                expect = self.params.level_of_ratio(self._ind[v], self._w[v])
            assert self._lvl[v] == expect, f"cached level drift at {v}"
            assert v in self._layers[self._lvl[v]], f"layer bucket drift at {v}"
        for level, members in self._layers.items():
            assert members, f"empty layer bucket {level} retained"
        assert self._top == max(self._layers), "top layer drift"
        for v in range(n):
            for label, bucket in self._in[v].items():
                for a in bucket:
                    assert a.head == v and a.count > 0 and a.label == label
            for band, bucket in self._out[v].items():
                for a in bucket:
                    assert a.tail == v and a.count > 0 and a.label_level == band
