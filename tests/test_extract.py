import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def make(n, eps=0.2, weights=None, **kw):
    return OrientationEngine(EngineConfig(n=n, epsilon=eps, **kw), weights)


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
        for nb in engine.neighbors(v):
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
    valid = not engine.saturated()
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
            for nb in engine.neighbors(v):
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
        assert e.saturated()
        res = extract(e, 0.5)
        assert not res.valid


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
            opt = float(oracle.exact_vwdsg_density(g))
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
            opt = float(oracle.exact_vwdsg_density(g))
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

    def test_saturated_matches_full_scan(self):
        e = make(6, eps=0.5, threshold=12.0, duplication=3)
        rng = random.Random(4)
        for _ in range(40):
            u, v = rng.sample(range(6), 2)
            e.insert(u, v, 3)
            assert extract(e, 0.5) == full_scan(e, 0.5)[0]
        assert e.saturated()

    @pytest.mark.parametrize("seed", [0, 4, 6])
    def test_deep_winner_matches_full_scan(self, seed):
        # a hot core inside a sparse weighted graph; on these seeds a cut
        # below the first usable one sometimes wins, so the scan must go on
        rng = random.Random(seed)
        n, eps, dup = 24, 0.5, 8
        w = [rng.choice([1.0, 1.25, 2.0, 3.5]) for _ in range(n)]
        e = make(n, eps=eps, weights=w, duplication=dup)
        deep = 0
        for _ in range(60):
            pool = 4 if rng.random() < 0.5 else n
            u, v = rng.sample(range(pool), 2)
            e.insert(u, v, rng.randint(1, 3) * dup)
            ref, rank = full_scan(e, eps)
            assert extract(e, eps) == ref
            deep += rank > 0
        assert deep > 0
