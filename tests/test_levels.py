import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedyn.engine import EngineConfig, OrientationEngine
from densedyn.levels import BOUNDARY_TOL, build_level_params
from densedyn.reducer import ratio_grid


def closed_form_level(alpha: float, x: float) -> int:
    """Log/ceil evaluation of the band index, a cross-check on the table.

    It can disagree with the stored table exactly at boundaries.
    """
    if x <= 0:
        return 0
    return math.ceil(math.log(alpha * x + 1.0) / math.log(1.0 + alpha))


def test_build_examples():
    p = build_level_params(0.1, 2.1)
    assert [round(b, 9) for b in p.boundaries] == [0.0, 1.0, 2.1]

    p = build_level_params(1.0, 1.0)
    assert list(p.boundaries) == [0.0, 1.0]

    p = build_level_params(0.5, 4.0)
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
    b = p.boundaries
    assert b[0] == 0.0
    for i in range(1, len(b)):
        assert b[i] == pytest.approx((1 + 0.37) * b[i - 1] + 1, abs=1e-9)
        assert b[i] - b[i - 1] >= 1.0 - 1e-12
    # top boundary reaches max_value, and k is minimal
    assert b[-1] >= p.max_value - BOUNDARY_TOL
    assert b[-2] < p.max_value - BOUNDARY_TOL


def test_level_of_examples():
    p = build_level_params(0.1, 2.1)
    assert p.level_of(0.0) == 0
    assert p.level_of(1.0) == 1
    assert p.level_of(2.1) == 2


def test_level_of_rejects_out_of_range():
    p = build_level_params(0.1, 2.1)
    with pytest.raises(ValueError):
        p.level_of(-0.001)
    with pytest.raises(ValueError):
        p.level_of(2.2)


# engine weights: 1, each guess weight of the n = 30, eps = 0.2 ratio grid
# (t^2 above 1, 1/t^2 below, as the reducer computes them), and weights one
# ulp below an integer, as a rounded t^2 can be, where the slack decides
GRID_WEIGHTS = sorted(
    {1.0, math.nextafter(2.0, 0.0), math.nextafter(30.0, 0.0)}
    | {t * t if t > 1.0 else 1.0 / (t * t) for t in ratio_grid(30, 0.2)}
)


def float_band(params, ind, w):
    """Reference band: the smallest ``i`` with
    ``ind <= L[i] * w + BOUNDARY_TOL * w``, compared in floats."""
    tol = BOUNDARY_TOL * w
    return bisect_left(params.boundaries, ind, key=lambda b: b * w + tol)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from(GRID_WEIGHTS), st.floats(min_value=1.0, max_value=1e6)),
    st.sampled_from([0.2, 0.5]),
    st.lists(st.one_of(st.just(1), st.integers(100, 500)), min_size=1, max_size=8),
)
def test_engine_band_matches_float_rule(w, eps, steps):
    # the engine's integer thresholds grow with the largest in-degree looked
    # up, one copy at a time or in jumps of hundreds as batched moves make;
    # the band must be the float rule's at and just past every threshold
    e = OrientationEngine(EngineConfig(n=1, epsilon=eps), [w])
    ind = 0
    for step in steps:
        ind += step
        assert e._band(0, ind) == float_band(e.params, ind, w)
    for k in list(e._thr[0]):
        for x in (k, k + 1):
            assert e._band(0, x) == float_band(e.params, x, w)


@settings(max_examples=300)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1000.0),
)
def test_monotone(alpha, x, y):
    p = build_level_params(alpha, 1001.0)
    if x > y:
        x, y = y, x
    assert p.level_of(x) <= p.level_of(y)


@settings(max_examples=300)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=999.0),
)
def test_smooth(alpha, x):
    p = build_level_params(alpha, 1001.0)
    assert p.level_of(x + 1.0) <= p.level_of(x) + 1
    if x >= 1.0:
        assert p.level_of(x - 1.0) >= p.level_of(x) - 1


@settings(max_examples=300)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1000.0),
)
def test_round_trip(alpha, x):
    p = build_level_params(alpha, 1001.0)
    i = p.level_of(x)
    assert i >= 1
    assert p.boundaries[i - 1] < x + BOUNDARY_TOL
    assert x <= p.boundaries[i] + BOUNDARY_TOL


@settings(max_examples=300)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1000.0),
)
def test_band_gap_soundness(alpha, x, y):
    p = build_level_params(alpha, 1001.0)
    tol = 1e-6
    if p.level_of(x) <= p.level_of(y):
        assert x <= (1 + alpha) * y + 1 + tol
    if p.level_of(x) >= p.level_of(y) + 2:
        assert x >= (1 + alpha) * y + 1 - tol


def test_closed_form_cross_check():
    # agreement away from boundaries, where log/ceil rounding cannot bite
    p = build_level_params(0.2, 5000.0)
    for i in range(1, p.top_level):
        mid = (p.boundaries[i - 1] + p.boundaries[i]) / 2
        assert p.level_of(mid) == closed_form_level(0.2, mid) == i


def test_table_size_scales_inversely_with_alpha():
    big = build_level_params(0.01, 10000.0)
    small = build_level_params(0.1, 10000.0)
    assert big.top_level > small.top_level
    assert big.top_level <= math.ceil(math.log(0.01 * 10000 + 1) / math.log(1.01)) + 1
