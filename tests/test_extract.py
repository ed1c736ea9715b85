import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densedyn import oracle
from densedyn.engine import (
    INF,
    EngineConfig,
    OrientationEngine,
    duplication_factor,
    log_scale,
)
from densedyn.extract import GAP_BANDS, ExtractionResult, extract
from reference import saturated


def make(n, eps=0.2, weights=None, **kw):
    return OrientationEngine(EngineConfig(n=n, epsilon=eps, **kw), weights)


def neighbors(engine, v: int) -> list[int]:
    """Vertices sharing at least one stored copy of an edge with ``v``."""
    return [u for u in range(engine.n) if u != v and engine.pair_copies(u, v)]


def induced_density(engine: OrientationEngine, vertices) -> float:
    """Exact logical density of ``vertices``: stored copies inside the set
    divided by duplication, over total vertex weight."""
    vs = set(vertices)
    if not vs:
        raise ValueError("induced_density of an empty set is undefined")
    for v in vs:
        if not 0 <= v < engine.n:
            raise ValueError(f"vertex {v} out of range")
    copies = 0
    for v in vs:
        for nb in neighbors(engine, v):
            if nb > v and nb in vs:
                copies += engine.pair_copies(v, nb)
    weight = sum(engine.weight(v) for v in vs)
    return copies / (engine.config.duplication * weight)


def full_scan(engine: OrientationEngine, epsilon: float) -> tuple[ExtractionResult, int]:
    """Reference extraction: sums every band prefix, then tries every cut.

    Also returns the rank of the winning cut among the usable ones; a
    nonzero rank means a scan that stopped at the first usable cut would
    have missed the answer.
    """
    dup = engine.config.duplication
    upper = engine.max_load() / dup
    valid = not saturated(engine)
    if engine.total_copies == 0:
        return ExtractionResult(frozenset(), 0.0, upper, 0, valid), 0

    levels = engine.layer_levels_desc()
    members = [sorted(engine.layer_members(lv)) for lv in levels]
    cum_w: list[float] = []
    cum_copies: list[int] = []
    inside: set[int] = set()
    copies = 0
    wsum = 0.0
    for verts in members:
        for v in verts:
            for nb in neighbors(engine, v):
                if nb in inside:
                    copies += engine.pair_copies(v, nb)
            inside.add(v)
            wsum += engine.weight(v)
        cum_w.append(wsum)
        cum_copies.append(copies)

    neg = [-lv for lv in levels]

    def prefix_index(cut: int) -> int:
        return bisect_right(neg, -cut) - 1

    grow_cap = (1.0 + epsilon) ** GAP_BANDS
    top = levels[0]
    cuts = sorted(
        {lv for lv in levels} | {min(lv + GAP_BANDS, top) for lv in levels},
        reverse=True,
    )
    usable = []  # (density, extended index, cut), in scan order
    for cut in cuts:
        narrow = prefix_index(cut)
        if narrow < 0:
            continue
        wide = prefix_index(max(cut - GAP_BANDS, 0))
        if cum_w[wide] > grow_cap * cum_w[narrow] * (1.0 + 1e-12):
            continue
        usable.append((cum_copies[wide] / (dup * cum_w[wide]), wide, cut))
    best = max(usable, key=lambda u: u[0])  # the first of equal densities
    density, wide, cut = best

    chosen: set[int] = set()
    for verts in members[: wide + 1]:
        chosen.update(verts)
    res = ExtractionResult(
        vertices=frozenset(chosen),
        certified_density=density,
        estimate_upper=upper,
        prefix_level=max(cut - GAP_BANDS, 0),
        valid=valid,
    )
    return res, usable.index(best)


class Banded:
    """Stand-in for an engine: a fixed orientation of a small multigraph,
    its vertices cut into load-ordered bands at arbitrary levels.  That is
    all ``extract`` relies on, and unlike a real engine it can put a heavy
    band right under light ones or leave wide gaps between levels."""

    def __init__(self, weights, arcs, breaks, bottom, gaps, dup):
        self.config = EngineConfig(n=len(weights), epsilon=0.5, duplication=dup)
        self.n = len(weights)
        self._w = weights
        self._into = [{} for _ in weights]  # head -> tail -> copies
        for (t, h), c in arcs.items():
            self._into[h][t] = c
        self._ind = [sum(into.values()) for into in self._into]
        order = sorted(range(self.n), key=lambda v: -self._ind[v] / weights[v])
        bands = [[order[0]]]
        for v, new in zip(order[1:], breaks):
            if new:
                bands.append([])
            bands[-1].append(v)
        level = bottom
        self._layers = {}
        for band, gap in zip(reversed(bands), gaps):
            self._layers[level] = set(band)
            level += gap
        self.total_copies = sum(self._ind)
        # extract's reuse state: nothing changes once the stand-in is built
        self.touched_band = 0
        self.last_extract = None

    def max_load(self):
        return max(i / w for i, w in zip(self._ind, self._w))

    def saturation_trigger(self):
        return INF

    def layer_levels_desc(self):
        return sorted(self._layers, reverse=True)

    def layer_members(self, level):
        return self._layers[level]

    def weight(self, v):
        return self._w[v]

    def indeg(self, v):
        return self._ind[v]

    def pair_copies(self, u, v):
        return self._into[v].get(u, 0) + self._into[u].get(v, 0)

    def copies_to(self, v, members):
        return sum(self.pair_copies(u, v) for u in neighbors(self, v) if u in members)


class TestExtract:
    def test_single_arc(self):
        e = make(2)
        e.insert(0, 1)
        res = extract(e, 0.2)
        assert res.vertices == frozenset({0, 1})
        assert res.certified_density == 0.5
        assert res.valid

    def test_k4_with_duplication(self):
        dup = math.ceil(math.log2(4) / 0.01)
        e = make(4, eps=0.1, duplication=dup)
        for u, v in itertools.combinations(range(4), 2):
            e.insert(u, v, multiplicity=dup)
        res = extract(e, 0.1)
        assert res.vertices == frozenset(range(4))
        assert res.certified_density == pytest.approx(1.5)
        assert res.certified_density <= res.estimate_upper + 1e-9

    def test_empty(self):
        res = extract(make(3), 0.2)
        assert res.vertices == frozenset()
        assert res.certified_density == 0.0
        assert res.estimate_upper == 0.0

    def test_certified_matches_recomputation(self):
        e = make(8, eps=0.3, duplication=3)
        rng = random.Random(9)
        for _ in range(60):
            u, v = rng.sample(range(8), 2)
            e.insert(u, v, multiplicity=3)
        res = extract(e, 0.3)
        assert res.certified_density == pytest.approx(
            induced_density(e, res.vertices)
        )

    def test_invalid_when_saturated(self):
        e = make(8, eps=0.5, threshold=50.0)
        e.insert(0, 1, multiplicity=100)
        assert saturated(e)
        res = extract(e, 0.5)
        assert not res.valid

    def test_reads_peak_load_once(self):
        # the bound and the saturation test share one read of the peak
        e = make(8, eps=0.5, threshold=50.0)
        e.insert(0, 1, multiplicity=3)
        calls = []
        max_load = e.max_load
        e.max_load = lambda: calls.append(None) or max_load()
        extract(e, 0.5)
        assert len(calls) == 1


class TestInducedDensity:
    def test_triangle(self):
        e = make(3)
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            e.insert(u, v)
        assert induced_density(e, {0, 1, 2}) == pytest.approx(1.0)

    def test_single_vertex(self):
        e = make(3)
        e.insert(0, 1)
        assert induced_density(e, {2}) == 0.0
        assert induced_density(e, {0}) == 0.0

    def test_k4_three_of_four(self):
        e = make(4)
        for u, v in itertools.combinations(range(4), 2):
            e.insert(u, v)
        assert induced_density(e, {0, 1, 2}) == pytest.approx(1.0)

    def test_rejects_empty_or_foreign(self):
        e = make(3)
        with pytest.raises(ValueError):
            induced_density(e, set())
        with pytest.raises(ValueError):
            induced_density(e, {5})

    def test_divides_by_duplication(self):
        e = make(2, duplication=4)
        e.insert(0, 1, multiplicity=4)
        assert induced_density(e, {0, 1}) == pytest.approx(0.5)


class TestGuarantees:
    def test_certificate_soundness(self):
        # any returned set's density lower-bounds the exhaustive optimum
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(2, 8)
            weights = [Fraction(rng.randint(4, 20), 4) for _ in range(n)]
            e = make(n, eps=0.25, weights=[float(w) for w in weights])
            g = oracle.SmallGraph(n=n, directed=False, weights=weights)
            for _ in range(rng.randint(1, 30)):
                u, v = rng.sample(range(n), 2)
                e.insert(u, v)
                g.add_edge(u, v)
            res = extract(e, 0.25)
            opt = oracle.exact_vwdsg(g)[0]
            assert res.certified_density <= opt + 1e-9
            assert opt <= res.estimate_upper + 1e-9

    def test_sandwich_with_duplication(self):
        # duplicated instance: certified within a (1 - eps) factor below
        # the optimum, peak load within (1+eps) plus additive above it
        eps = 0.2
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(3, 8)
            weights = [Fraction(rng.randint(4, 16), 4) for _ in range(n)]
            w_max = max(float(w) for w in weights)
            dup = duplication_factor(n * w_max, eps)
            e = make(n, eps=eps, duplication=dup, weights=[float(w) for w in weights])
            g = oracle.SmallGraph(n=n, directed=False, weights=weights)
            for _ in range(rng.randint(2, 25)):
                u, v = rng.sample(range(n), 2)
                e.insert(u, v, multiplicity=dup)
                g.add_edge(u, v)
            opt = oracle.exact_vwdsg(g)[0]
            res = extract(e, eps)
            assert res.certified_density <= opt + 1e-9
            assert res.certified_density >= (1 - eps) * opt - 1e-9
            additive = 8 * log_scale(n * w_max) / eps
            assert e.max_load() <= (1 + eps) * (dup * opt) + additive


class TestEarlyExit:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 8),
        st.sampled_from([0.25, 0.5]),
        st.sampled_from([1, 3, 8]),
        # None: unthresholded; otherwise the cap as a multiple of its floor
        st.sampled_from([None, 1.0, 2.0]),
        st.lists(st.sampled_from([1.0, 1.25, 2.0, 3.5]), min_size=8, max_size=8),
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7),
                      st.integers(1, 6)),
            max_size=40,
        ),
    )
    def test_matches_full_scan(self, n, eps, dup, cap, weights, ops):
        # weighted, duplicated and thresholded engines, saturated ones too:
        # every field of the result equals the full scan's after every update
        w = weights[:n]
        threshold = INF if cap is None else cap * log_scale(n * max(w)) / eps**2
        e = make(n, eps=eps, weights=w, duplication=dup, threshold=threshold)
        mirror: dict[tuple[int, int], int] = {}
        for insert, u, v, k in ops:
            u, v = u % n, v % n
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if insert:
                e.insert(u, v, k * dup)
                mirror[key] = mirror.get(key, 0) + k
            elif mirror.get(key, 0) >= k:
                e.delete(u, v, k * dup)
                mirror[key] -= k
            else:
                continue
            assert extract(e, eps) == full_scan(e, eps)[0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0.1, 0.25, 0.5]),
        st.sampled_from([1, 3]),
        st.lists(st.sampled_from([1.0, 1.25, 2.0, 3.5]), min_size=2, max_size=12),
        st.dictionaries(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), st.integers(1, 9),
            max_size=40,
        ),
        st.lists(st.booleans(), min_size=11, max_size=11),
        st.integers(0, 3),
        st.lists(st.integers(1, 12), min_size=12, max_size=12),
    )
    # two bands of equal density far apart: the shallower one must win
    @example(0.1, 1, [1.0] * 4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1},
             [False, True] + [False] * 9, 0, [20] * 12)
    # bands {0}, {1} and a 6-clique on 2..7, one level apart: the clique's
    # band moves the narrow prefix two bands at once
    @example(0.1, 1, [2.0] + [1.0] * 7,
             {(2, 0): 2, (3, 0): 2, (4, 0): 2, (5, 1): 1, (6, 1): 1, (7, 1): 1,
              **{(2 + i, 2 + (i + d) % 6): 1 for i in range(6) for d in (1, 2)},
              **{(2 + i, 5 + i): 1 for i in range(3)}},
             [True, True] + [False] * 9, 8, [1] * 12)
    def test_any_load_ordered_banding_matches_full_scan(self, eps, dup, weights,
                                                        arcs, breaks, bottom, gaps):
        # a heavy band under light ones moves the narrow prefix several bands
        # at once, and level gaps on both sides of GAP_BANDS reach both arms
        # of min(L_j + GAP_BANDS, L_i)
        n = len(weights)
        arcs = {(t % n, h % n): c for (t, h), c in arcs.items() if t % n != h % n}
        engine = Banded(weights, arcs, breaks, bottom, gaps, dup)
        assert extract(engine, eps) == full_scan(engine, eps)[0]

    def test_saturated_matches_full_scan(self):
        e = make(6, eps=0.5, threshold=12.0, duplication=3)
        rng = random.Random(4)
        for _ in range(40):
            u, v = rng.sample(range(6), 2)
            e.insert(u, v, 3)
            assert extract(e, 0.5) == full_scan(e, 0.5)[0]
        assert saturated(e)

    @pytest.mark.parametrize(
        "seed, n, dup, hot, hot_p, delete_p, updates, every",
        [pytest.param(s, 24, 8, 4, 0.5, 0.0, 60, 1, id=str(s)) for s in (0, 4, 16)]
        # the benchmark's band counts: a 20-vertex core in n = 120 at the
        # duplication factor (None), with deletes; it reaches over 50 bands
        + [pytest.param(1, 120, None, 20, 0.6, 0.3, 800, 4, id="n120")],
    )
    def test_deep_winner_matches_full_scan(self, seed, n, dup, hot, hot_p,
                                           delete_p, updates, every):
        # a hot core inside a sparse weighted graph; on these seeds a cut
        # below the first usable one sometimes wins, so the scan must go on,
        # and some winners widen more than GAP_BANDS bands below the top
        rng = random.Random(seed)
        eps = 0.5
        w = [rng.choice([1.0, 1.25, 2.0, 3.5]) for _ in range(n)]
        dup = dup or duplication_factor(n * max(w), eps)
        e = make(n, eps=eps, weights=w, duplication=dup)
        live = []
        deep = low = 0
        for step in range(1, updates + 1):
            if delete_p and live and rng.random() < delete_p:
                u, v, k = live.pop(rng.randrange(len(live)))
                e.delete(u, v, k)
            else:
                pool = hot if rng.random() < hot_p else n
                u, v = rng.sample(range(pool), 2)
                k = rng.randint(1, 3) * dup
                e.insert(u, v, k)
                live.append((u, v, k))
            if step % every:
                continue
            ref, rank = full_scan(e, eps)
            assert extract(e, eps) == ref
            deep += rank > 0
            low += ref.prefix_level < e.layer_levels_desc()[0] - GAP_BANDS
        assert deep > 0 and low > 0


class TestReuse:
    """``extract`` returns its stored answer, the same object, exactly while
    no in-degree change since its scan reached a band at or above its floor."""

    @staticmethod
    def tiers():
        # a 4-clique in the top bands, vertex 4 in band 11 and vertex 5 in
        # band 8: the scan stops after band 11 with band 8 as its floor, and
        # vertices 6 and 7 sit below it
        e = make(8, eps=0.5)
        for u, v in itertools.combinations(range(4), 2):
            e.insert(u, v, 30)
        for u in range(4):
            e.insert(u, 4, 3)
        for u in range(4):
            e.insert(u, 5, 2)
        res = extract(e, 0.5)
        assert res.vertices == frozenset(range(4))
        assert e.layer_levels_desc() == [33, 32, 11, 8, 0]
        assert e.last_extract == (0.5, 8, res)
        return e, res

    def test_update_below_the_floor_reuses(self):
        e, first = self.tiers()
        e.insert(6, 7, 14)
        assert e._lvl[6] == e._lvl[7] == 7
        assert extract(e, 0.5) is first

    def test_insert_inside_the_returned_set_invalidates(self):
        e, first = self.tiers()
        e.insert(0, 1)
        res = extract(e, 0.5)
        assert res is not first
        assert res == full_scan(e, 0.5)[0]

    def test_flip_from_below_the_floor_into_a_scanned_band_invalidates(self):
        e, first = self.tiers()
        e.insert(6, 7, 14)
        assert extract(e, 0.5) is first
        # rebalancing reorients copies through _move: 6 takes five of the
        # seven copies 7 holds and rises from band 7 to vertex 4's band, 11,
        # while 7 only drops
        e._move(e._adj[7][6], 5)
        assert (e._lvl[6], e._lvl[7]) == (11, 2)
        res = extract(e, 0.5)
        assert res is not first
        assert res == full_scan(e, 0.5)[0]

    def test_other_epsilon_never_reuses(self):
        e, first = self.tiers()
        other = extract(e, 0.25)
        assert other is not first
        assert other == full_scan(e, 0.25)[0]
        again = extract(e, 0.5)
        assert again is not first and again is not other
        assert again == first

    def test_empty_engine(self):
        e = make(3)
        first = extract(e, 0.2)
        assert extract(e, 0.2) is first
        e.insert(0, 1)
        res = extract(e, 0.2)
        assert res is not first
        assert res == full_scan(e, 0.2)[0]

    def test_query_after_every_update_matches_full_scan(self):
        # a heavy 4-clique on 0..3 and two lighter vertices hanging off it,
        # as in tiers(), then light updates drawn three times in four from
        # the half of the vertices in the lowest bands, so many leave the
        # bands the last scan read alone
        reused = []

        @settings(max_examples=80, deadline=None)
        @given(
            st.integers(8, 11),
            st.sampled_from([0.25, 0.5]),
            st.sampled_from([1, 3]),
            # None: unthresholded; otherwise the cap as a multiple of its floor
            st.sampled_from([None, 2.0]),
            st.lists(st.sampled_from([1.0, 1.25, 2.0, 3.5]), min_size=11, max_size=11),
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 10),
                          st.integers(0, 10), st.integers(1, 2)),
                max_size=30,
            ),
        )
        def replay(n, eps, dup, cap, weights, ops):
            w = weights[:n]
            threshold = INF if cap is None else cap * log_scale(n * max(w)) / eps**2
            e = make(n, eps=eps, weights=w, duplication=dup, threshold=threshold)
            mirror: dict[tuple[int, int], int] = {}
            for u, v in itertools.combinations(range(4), 2):
                e.insert(u, v, 30 * dup)
                mirror[(u, v)] = 30
            for u in range(4):
                e.insert(u, 4, 3 * dup)
                e.insert(u, 5, 2 * dup)
                mirror[(u, 4)], mirror[(u, 5)] = 3, 2
            prev = extract(e, eps)
            for insert, pick, u, v, k in ops:
                pool = sorted(range(n), key=lambda x: (e._lvl[x], x))
                if pick:
                    pool = pool[: n // 2]
                u, v = pool[u % len(pool)], pool[v % len(pool)]
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if insert:
                    e.insert(u, v, k * dup)
                    mirror[key] = mirror.get(key, 0) + k
                elif mirror.get(key, 0) >= k:
                    e.delete(u, v, k * dup)
                    mirror[key] -= k
                else:
                    continue
                res = extract(e, eps)
                assert res == full_scan(e, eps)[0]
                reused.append(res is prev)
                prev = res

        replay()
        assert any(reused)
