import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedyn.engine import (
    EngineConfig,
    OrientationEngine,
    duplication_factor,
    log_scale,
)
from densedyn.levels import BOUNDARY_TOL, build_level_params
from densedyn.reducer import DirectedDensest, ratio_grid
from reference import float_band


def closed_form_level(alpha: float, x: float) -> int:
    """Log/ceil evaluation of the band index, a cross-check on the table.

    It can disagree with the stored table exactly at boundaries.
    """
    if x <= 0:
        return 0
    return math.ceil(math.log(alpha * x + 1.0) / math.log(1.0 + alpha))


def eager_boundaries(alpha: float, max_value: float) -> list[float]:
    """The whole table, built up front by the recurrence."""
    out = [0.0]
    while out[-1] < max_value - BOUNDARY_TOL:
        out.append((1.0 + alpha) * out[-1] + 1.0)
    return out


def band_engine(alpha: float, w: float = 1.0, max_value: float = 2.0**32):
    """A one-vertex engine of weight ``w`` on the level table of ``alpha``
    and ``max_value``, whose top band takes every larger in-degree."""
    e = OrientationEngine(EngineConfig(n=1, epsilon=0.5), [w])
    e.params = build_level_params(alpha, max_value)
    return e


def test_build_examples():
    p = build_level_params(0.1, 2.1)
    assert p.boundaries == [0.0]  # nothing is built until it is read
    assert p.top_level == 2
    assert [round(b, 9) for b in p.boundaries] == [0.0, 1.0, 2.1]

    p = build_level_params(1.0, 1.0)
    assert p.top_level == 1
    assert list(p.boundaries) == [0.0, 1.0]

    p = build_level_params(0.5, 4.0)
    thr = []
    p.extend(thr, 1.0, 2)  # reads the table up to the first threshold >= 2
    assert thr == [0, 1, 2]
    assert p.boundaries == [0.0, 1.0, 2.5]
    assert p.top_level == 3
    assert [round(b, 9) for b in p.boundaries] == [0.0, 1.0, 2.5, 4.75]


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_level_params(0.0, 10.0)
    with pytest.raises(ValueError):
        build_level_params(-0.5, 10.0)
    with pytest.raises(ValueError):
        build_level_params(0.1, 0.5)


def test_recurrence_and_coverage():
    p = build_level_params(0.37, 1234.5)
    assert p.top_level == len(p.boundaries) - 1
    b = p.boundaries
    assert b[0] == 0.0
    for i in range(1, len(b)):
        assert b[i] == pytest.approx((1 + 0.37) * b[i - 1] + 1, abs=1e-9)
        assert b[i] - b[i - 1] >= 1.0 - 1e-12
    # top boundary reaches max_value, and k is minimal
    assert b[-1] >= p.max_value - BOUNDARY_TOL
    assert b[-2] < p.max_value - BOUNDARY_TOL


def test_band_examples():
    # boundaries 0, 1, 2.1: the top band takes every load above 1
    e = band_engine(0.1, max_value=2.1)
    assert [e._band(0, ind) for ind in range(5)] == [0, 1, 2, 2, 2]
    # at weight 2 the same table is read in loads ind / 2
    e = band_engine(0.1, w=2.0, max_value=2.1)
    assert [e._band(0, ind) for ind in range(6)] == [0, 1, 1, 2, 2, 2]
    assert e._thr[0] == [0, 2, math.inf]


def test_top_level_matches_eager_recurrence():
    # a read stores the boundaries up to the band it needs and no more, and
    # reads in any order, or none, leave the same table once top_level is
    # read; past the top, a threshold list ends in inf
    rng = random.Random(7)
    for _ in range(200):
        alpha = 10 ** rng.uniform(-3.0, 0.0)
        max_value = 10 ** rng.uniform(0.0, 6.0)
        eager = eager_boundaries(alpha, max_value)
        p = build_level_params(alpha, max_value)
        k = rng.randrange(len(eager) - 1)  # below the top, whose threshold is inf
        thr = []
        p.extend(thr, 1.0, math.floor(eager[k] + BOUNDARY_TOL))
        assert p.boundaries == eager[:k + 1]
        assert thr == [math.floor(b + BOUNDARY_TOL) for b in eager[:k + 1]]
        assert p.top_level == len(eager) - 1
        assert p.boundaries == eager
        p.extend(thr, 1.0, math.inf)
        assert len(thr) == len(eager) and thr[-1] == math.inf
        assert p.boundaries == eager


# engine weights: 1, each guess weight of the n = 30, eps = 0.2 ratio grid
# (t^2 above 1, 1/t^2 below, as the reducer computes them), and weights one
# ulp below an integer, as a rounded t^2 can be, where the slack decides
GRID_WEIGHTS = sorted(
    {1.0, math.nextafter(2.0, 0.0), math.nextafter(30.0, 0.0)}
    | {t * t if t > 1.0 else 1.0 / (t * t) for t in ratio_grid(30, 0.2)}
)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from(GRID_WEIGHTS), st.floats(min_value=1.0, max_value=1e6)),
    st.sampled_from([0.2, 0.5]),
    st.lists(st.one_of(st.just(1), st.integers(100, 500)), min_size=1, max_size=8),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=4.0)),
)
def test_engine_band_matches_float_rule(w, eps, steps, cap_c):
    # the engine's integer thresholds grow with the largest in-degree looked
    # up, one copy at a time or in jumps of hundreds as batched moves make;
    # the band must be the float rule's at and just past every threshold.
    # A capped engine (its cap cap_c times the floor) puts every in-degree
    # at or past the cap in the top band.
    config = EngineConfig(n=1, epsilon=eps)
    if cap_c is not None:
        config = replace(config, threshold=cap_c * log_scale(w) / eps**2)
    e = OrientationEngine(config, [w])
    kcap = e._kcap[0]
    ind = 0
    for step in steps:
        ind += step
        assert e._band(0, ind) == float_band(e.params, w, ind)
    if cap_c is not None:
        assert e._band(0, kcap) == e.params.top_level
        for x in (kcap - 1, kcap, kcap + 1, 2 * kcap):
            assert e._band(0, x) == float_band(e.params, w, x)
    for k in list(e._thr[0]):
        if k < math.inf:
            for x in (k, k + 1):
                assert e._band(0, x) == float_band(e.params, w, x)


# the band properties, on the engine's band of integer in-degrees at weight 1,
# at integer weights and at the weights of the acceptance grid; a load is
# in-degree over weight
ALPHAS = st.floats(min_value=0.01, max_value=1.0)
WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 3.7, 29.9])
INDEGS = st.integers(min_value=0, max_value=1000)


@settings(max_examples=300)
@given(ALPHAS, WEIGHTS, INDEGS, INDEGS)
def test_monotone(alpha, w, x, y):
    e = band_engine(alpha, w)
    if x > y:
        x, y = y, x
    assert e._band(0, x) <= e._band(0, y)


@settings(max_examples=300)
@given(ALPHAS, WEIGHTS, INDEGS)
def test_smooth(alpha, w, x):
    e = band_engine(alpha, w)
    assert e._band(0, x + 1) <= e._band(0, x) + 1
    if x >= 1:
        assert e._band(0, x - 1) >= e._band(0, x) - 1


@settings(max_examples=300)
@given(ALPHAS, WEIGHTS, st.integers(min_value=1, max_value=1000))
def test_round_trip(alpha, w, x):
    e = band_engine(alpha, w)
    i = e._band(0, x)
    assert i >= 1
    assert i == float_band(e.params, w, x)
    b, tol = e.params.boundaries, BOUNDARY_TOL * w
    assert b[i - 1] * w + tol < x <= b[i] * w + tol


@settings(max_examples=300)
@given(ALPHAS, WEIGHTS, INDEGS, INDEGS)
def test_band_gap_soundness(alpha, w, x, y):
    e = band_engine(alpha, w)
    lx, ly = e._band(0, x), e._band(0, y)
    tol = 1e-6
    if lx <= ly:
        assert x / w <= (1 + alpha) * y / w + 1 + tol
    if lx >= ly + 2:
        assert x / w >= (1 + alpha) * y / w + 1 - tol


def test_closed_form_cross_check():
    # agreement away from boundaries, where log/ceil rounding cannot bite;
    # every band from 2 up is wider than 1, so it holds a load checked here
    for w in (1.0, 2.0):
        e = band_engine(0.2, w, 5000.0)
        top = e.params.top_level
        b = e.params.boundaries
        seen = set()
        for ind in range(int(5000 * w) + 1):
            x = ind / w
            if min(abs(x - L) for L in b) > 1e-6:
                assert e._band(0, ind) == closed_form_level(0.2, x)
                seen.add(e._band(0, ind))
        assert seen >= set(range(2, top + 1))


def test_table_size_scales_inversely_with_alpha():
    big = build_level_params(0.01, 10000.0)
    small = build_level_params(0.1, 10000.0)
    assert big.top_level > small.top_level
    assert big.top_level <= math.ceil(math.log(0.01 * 10000 + 1) / math.log(1.01)) + 1


# ----------------------------------------------------------------------
# the table grows only as far as it is read


def test_fresh_engines_hold_one_boundary():
    assert OrientationEngine(EngineConfig(n=3, epsilon=0.2)).params.boundaries == [0.0]
    capped = OrientationEngine(EngineConfig(n=3, epsilon=0.2, threshold=100.0))
    assert capped.params.boundaries == [0.0]
    g = DirectedDensest(30, 0.2)
    assert all(e.params.boundaries == [0.0] for e in g.engines())


def test_table_grows_to_the_largest_band_read():
    # a weighted engine at eps 0.01 has a full table of about 2.6 million
    # boundaries; 16 batched inserts of a duplicated edge read far fewer
    n, eps = 100, 0.01
    dup = duplication_factor(n, eps)
    e = OrientationEngine(EngineConfig(n=n, epsilon=eps, duplication=dup))
    full = math.log1p(e.alpha * 2.0**32) / math.log1p(e.alpha)
    assert full > 2_500_000
    for i in range(16):
        e.insert(i, i + 1, dup)
    assert max(e._lvl) < len(e.params.boundaries) < 400_000
