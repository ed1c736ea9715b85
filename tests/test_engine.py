import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedyn import oracle
from densedyn.engine import ALPHA_C, INF, LOOP_C, EngineConfig, OrientationEngine
from densedyn.levels import build_level_params


def make(n, eps=0.5, weights=None, alpha=None, loop_c=LOOP_C, **kw):
    """A fresh engine; ``alpha`` replaces the derived band width (and
    ``loop_c`` the scan constant) so that small tests get coarse bands."""
    e = OrientationEngine(EngineConfig(n=n, epsilon=eps, **kw), weights)
    if alpha is not None:
        # everything that depends on alpha, on an engine that is still empty
        e.alpha = alpha
        e.params = build_level_params(alpha, e.params.max_value)
        e.budget = math.ceil(loop_c / alpha)
        e.debug_audit()
    return e


def arc_pair_record(e, u, v):
    """Copies and labels of both directions of the edge {u, v} of ``e``."""
    key = (u, v) if u < v else (v, u)
    pair = e._pairs.get(key)
    if pair is None:
        return {"endpoints": key, "count_uv": 0, "count_vu": 0}
    uv = pair if pair.tail == key[0] else pair.twin
    vu = uv.twin
    return {
        "endpoints": key,
        "count_uv": uv.count,
        "count_vu": vu.count,
        "label_uv": uv.label if uv.count else None,
        "label_vu": vu.label if vu.count else None,
    }


def force_label(e, tail, head, value):
    """Overwrite the label of a live direction of ``e``.  This can plant
    states the update rules would never produce."""
    key = (tail, head) if tail < head else (head, tail)
    pair = e._pairs.get(key)
    if pair is None:
        raise ValueError(f"no edge between {tail} and {head}")
    arc = pair if pair.tail == tail else pair.twin
    if arc.count == 0:
        raise ValueError(f"direction {tail}->{head} has no copies")
    e._relabel(arc, value, e.params.level_of(value))


class TestConfig:
    def test_rejects_bad_epsilon(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                make(2, eps=eps)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make(0)
        with pytest.raises(ValueError):
            make(2, duplication=0)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            make(2, weights=[0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="vertex 0"):
            make(3, weights=[bad, 1.0, 1.0])

    def test_rejects_threshold_below_floor(self):
        # minimum useful cap is log2(nW) / eps^2
        with pytest.raises(ValueError):
            make(8, eps=0.5, threshold=5.0)
        make(8, eps=0.5, threshold=12.0)  # exactly at the floor is fine

    def test_derived_alpha(self):
        e = make(4, eps=0.2)
        assert e.alpha == pytest.approx(ALPHA_C * 0.04 / 2.0)
        assert e.budget == math.ceil(LOOP_C / e.alpha)

    def test_alpha_override(self):
        e = make(4, alpha=0.5, loop_c=1)
        assert e.alpha == 0.5
        assert e.budget == 2


class TestInsert:
    def test_first_edge_orients_to_smaller_id_on_tie(self):
        e = make(2)
        e.insert(0, 1)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_vu"] == 1  # direction 1 -> 0
        assert rec["count_uv"] == 0
        assert e.indeg(0) == 1
        assert rec["label_vu"] == 1.0
        assert not e.verify_local_optimality()
        e.debug_audit()

    def test_orients_toward_smaller_load(self):
        # pump vertices 1 and 2 to load 5 via a parallel bundle, keep 0 idle
        e = make(3)
        e.insert(1, 2, multiplicity=10)
        assert e.indeg(1) == 5 and e.indeg(2) == 5
        e.insert(0, 1)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_vu"] == 1  # 1 -> 0, toward the idle endpoint
        assert e.indeg(0) == 1
        e.debug_audit()

    def test_multiplicity_conservation(self):
        e = make(2)
        e.insert(0, 1, multiplicity=3)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] + rec["count_vu"] == 3
        assert e.total_copies == 3

    def test_rejects_self_loop(self):
        e = make(3)
        with pytest.raises(ValueError):
            e.insert(1, 1)

    def test_rejects_unknown_vertex(self):
        e = make(3)
        with pytest.raises(ValueError):
            e.insert(0, 3)

    def test_rejects_capacity_overflow(self):
        e = make(2, capacity=5)
        e.insert(0, 1, multiplicity=5)
        with pytest.raises(ValueError):
            e.insert(0, 1)


class TestDelete:
    def test_single_arc_delete_empties(self):
        e = make(2)
        e.insert(0, 1)
        e.delete(0, 1)
        assert e.total_copies == 0
        assert e.indeg(0) == 0 and e.indeg(1) == 0
        assert e.max_load() == 0.0
        assert arc_pair_record(e, 0, 1)["count_uv"] == 0
        e.debug_audit()

    def test_removes_copy_into_higher_load_head(self):
        # both directions live, loads 2.0 vs 1.5: the copy into the
        # higher-load endpoint goes first
        e = make(2, alpha=0.5, weights=[1.0, 4.0])
        e.insert(0, 1, multiplicity=8)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] == 6 and rec["count_vu"] == 2
        assert e.load(0) == 2.0 and e.load(1) == 1.5
        before = e.indeg(0)
        e.delete(0, 1)
        assert e.indeg(0) == before - 1 or e.indeg(0) == before  # rebalance may refill
        rec2 = arc_pair_record(e, 0, 1)
        assert rec2["count_uv"] + rec2["count_vu"] == 7
        e.debug_audit()

    def test_rejects_absent_edge(self):
        e = make(3)
        with pytest.raises(ValueError):
            e.delete(0, 1)
        e.insert(0, 1, multiplicity=2)
        with pytest.raises(ValueError):
            e.delete(0, 1, multiplicity=3)

    def test_insert_then_delete_round_trip(self):
        e = make(4)
        rng = random.Random(3)
        edges = []
        for _ in range(30):
            u, v = rng.sample(range(4), 2)
            e.insert(u, v)
            edges.append((u, v))
        rng.shuffle(edges)
        for u, v in edges:
            e.delete(u, v)
        assert e.total_copies == 0
        assert all(e.indeg(v) == 0 for v in range(4))
        e.debug_audit()


class TestRebalancing:
    def test_increase_pass_flips_stale_arc(self):
        # trace: one edge {0,1}, then a growing bundle {0,2}; once vertex 0
        # climbs two bands above idle vertex 1, the stale arc 1->0 flips
        e = make(3, alpha=0.5, loop_c=4)
        e.insert(0, 1)
        e.insert(0, 2, multiplicity=4)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] == 1  # now 0 -> 1
        assert rec["count_vu"] == 0
        assert e.indeg(1) == 1
        assert e.stats["flips"] == 1
        assert not e.verify_local_optimality()
        e.debug_audit()

    def test_fresh_arc_is_left_alone(self):
        e = make(2)
        e.insert(0, 1)
        arcs_before = e.stats["arcs_inc"]
        flips = e.stats["flips"]
        assert arcs_before >= 1  # the pass inspected the fresh arc
        assert flips == 0

    def test_decrease_pass_pulls_back_overloaded_arc(self):
        # planted stale-high label on the outgoing direction 0->1 makes the
        # deletion at 0 pull one copy home and restore its load
        e = make(2, alpha=0.5, weights=[1.0, 4.0])
        e.insert(0, 1, multiplicity=8)
        assert e.indeg(0) == 2
        force_label(e, 0, 1, 8.0)
        flips = e.stats["flips"]
        e.delete(0, 1)
        assert e.stats["flips"] == flips + 1
        assert e.indeg(0) == 2  # restored by the pull-back
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] == 5 and rec["count_vu"] == 2
        assert not e.verify_local_optimality()
        e.debug_audit()

    def test_decrease_pass_resets_exactly_budget_labels(self):
        # six stale-high incoming directions at vertex 0; one deletion resets
        # exactly ceil(loop_c / alpha) of them and stops
        weights = [100.0] + [1.0] * 7
        e = make(8, alpha=0.5, loop_c=1, weights=weights)
        for j in range(1, 7):
            e.insert(0, j, multiplicity=2)
        e.insert(0, 7, multiplicity=160)
        assert e.level(0) == 2
        for j in range(1, 7):
            force_label(e, j, 0, 40.0)
        stale_before = sum(
            1 for t, h, c, _, lb in e.iter_arcs() if h == 0 and lb >= 8
        )
        assert stale_before == 6
        resets = e.stats["label_resets"]
        e.delete(0, 1)  # removes the copy oriented into 0 and rebalances
        assert e.stats["label_resets"] == resets + e.budget
        stale_after = sum(1 for t, h, c, _, lb in e.iter_arcs() if h == 0 and lb >= 8)
        assert stale_after == stale_before - 1 - e.budget  # one left with the copy

    def test_chain_depth_bounded_by_band_count(self):
        e = make(12, eps=0.3)
        rng = random.Random(11)
        live = []
        for i in range(600):
            if live and rng.random() < 0.4:
                u, v = live.pop(rng.randrange(len(live)))
                e.delete(u, v)
            else:
                u, v = rng.sample(range(12), 2)
                e.insert(u, v)
                live.append((u, v))
        assert e.stats["max_chain_inc"] <= e.level_count
        assert e.stats["max_chain_dec"] <= e.level_count


class TestMaxLoad:
    def test_empty(self):
        assert make(3).max_load() == 0.0

    def test_weighted_single_arc(self):
        e = make(2, weights=[2.0, 1.0])
        e.insert(0, 1)  # tie: oriented into vertex 0, weight 2
        assert e.max_load() == 0.5

    def test_triangle(self):
        e = make(3)
        e.insert(0, 1)
        e.insert(1, 2)
        e.insert(0, 2)
        assert e.max_load() == 1.0

    def test_matches_vertex_table(self):
        e = make(6, eps=0.3, weights=[1.0, 2.0, 1.5, 1.0, 3.0, 1.0])
        rng = random.Random(5)
        for _ in range(200):
            u, v = rng.sample(range(6), 2)
            e.insert(u, v)
        expect = max(e.thresholded_load(v) for v in range(6))
        assert e.max_load() == pytest.approx(expect)


class TestSaturation:
    def test_unthresholded_never_saturates(self):
        e = make(2)
        e.insert(0, 1, multiplicity=50)
        assert not e.saturated()

    def test_empty_thresholded_not_saturated(self):
        e = make(8, eps=0.5, threshold=50.0)
        assert not e.saturated()

    def test_dense_bundle_saturates(self):
        e = make(8, eps=0.5, threshold=50.0)
        e.insert(0, 1, multiplicity=100)  # loads ~25 >= trigger 19
        assert e.max_load() >= e.saturation_trigger()
        assert e.saturated()

    def test_sparse_forest_not_saturated(self):
        t = 100.0 * math.log2(8) / 0.25
        e = make(8, eps=0.5, threshold=t)
        for v in range(1, 8):
            e.insert(v - 1, v)
        assert not e.saturated()

    def test_loads_pin_at_threshold(self):
        e = make(8, eps=0.5, threshold=12.0)
        e.insert(0, 1, multiplicity=60)
        assert e.max_load() <= 12.0
        assert e.thresholded_load(0) <= 12.0
        assert e.load(0) + e.load(1) == 60.0


class TestVerify:
    def test_empty_graph_clean(self):
        assert make(4).verify_local_optimality() == []

    def test_planted_violation_detected(self):
        e = make(2)
        e.insert(0, 1)
        # label five bands above everything
        force_label(e, 1, 0, 30.0)
        report = e.verify_local_optimality()
        kinds = {r["kind"] for r in report}
        assert "label above head-band" in kinds
        assert "label above tail-band" in kinds

    def test_random_updates_stay_clean(self):
        e = make(30, eps=0.2)
        rng = random.Random(17)
        live = []
        for _ in range(1500):
            if live and rng.random() < 0.45:
                u, v = live.pop(rng.randrange(len(live)))
                e.delete(u, v)
            else:
                u, v = rng.sample(range(30), 2)
                e.insert(u, v)
                live.append((u, v))
            assert e.verify_local_optimality() == []
        e.debug_audit()

    def test_band_gap_implies_load_inequality(self):
        # the checker's band constants translate into multiplicative local
        # optimality of the loads themselves
        e = make(10, eps=0.3, weights=[1.0 + 0.25 * i for i in range(10)])
        rng = random.Random(23)
        for _ in range(400):
            u, v = rng.sample(range(10), 2)
            e.insert(u, v)
        loads, arcs = e.snapshot()
        a = e.alpha
        alpha_eff = (1 + a) ** 8 - 1
        beta_eff = alpha_eff / a
        assert oracle.check_alpha_beta_optimality(loads, arcs, alpha_eff, beta_eff)


class TestDuality:
    def test_peak_load_upper_bounds_exact_density(self):
        # an integral orientation is dual-feasible: its peak load cannot be
        # beaten by any subgraph's density
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 7)
            e = make(n, eps=0.3)
            g = oracle.SmallGraph(n=n, directed=False)
            for _ in range(rng.randint(1, 25)):
                u, v = rng.sample(range(n), 2)
                e.insert(u, v)
                g.add_edge(u, v)
            opt = float(oracle.exact_vwdsg_density(g))
            assert e.max_load() >= opt - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["+", "-"]), st.integers(0, 5), st.integers(0, 5)), max_size=60))
def test_conservation_and_consistency(ops):
    e = make(6, eps=0.4)
    mirror = {}
    logical = 0
    for kind, u, v in ops:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if kind == "+":
            e.insert(u, v)
            mirror[key] = mirror.get(key, 0) + 1
            logical += 1
        else:
            if mirror.get(key, 0) == 0:
                with pytest.raises(ValueError):
                    e.delete(u, v)
                continue
            e.delete(u, v)
            mirror[key] -= 1
            logical -= 1
    assert e.total_copies == logical
    assert sum(e.indeg(v) for v in range(6)) == logical
    for (u, v), count in mirror.items():
        assert e.pair_copies(u, v) == count
    assert e.verify_local_optimality() == []
    e.debug_audit()


def test_layer_index_moves_one_band_at_a_time():
    e = make(5, eps=0.4)
    rng = random.Random(41)
    last = {v: e.level(v) for v in range(5)}
    live = []
    for _ in range(300):
        if live and rng.random() < 0.4:
            u, v = live.pop(rng.randrange(len(live)))
            e.delete(u, v)
        else:
            u, v = rng.sample(range(5), 2)
            e.insert(u, v)
            live.append((u, v))
        for w in range(5):
            cur = e.level(w)
            # flips touch a vertex repeatedly within one update and may move
            # it several bands at once; public ops keep the index coherent
            assert cur == e.params.level_of_ratio(e.indeg(w), e.weight(w)) or (
                e.threshold != INF and e.indeg(w) >= e._kcap[w]
            )
            last[w] = cur
    e.debug_audit()


# ----------------------------------------------------------------------
# batched updates: one call places or removes many copies at once

BATCH_CONFIGS = {
    "unthresholded": dict(threshold=INF),
    # the floor log2(n W) / eps^2 is about 22.4; loads reach this cap
    "thresholded": dict(threshold=30.0),
}


def _batch_engine(kind):
    weights = [1.0, 2.0, 1.5, 1.0, 1.25, 2.0]
    return make(6, eps=0.4, weights=weights, capacity=600, **BATCH_CONFIGS[kind])


def _assert_rejected(e, call, *args):
    before = (e.snapshot(), dict(e.stats), e.total_copies)
    with pytest.raises(ValueError):
        call(*args)
    assert (e.snapshot(), dict(e.stats), e.total_copies) == before


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BATCH_CONFIGS)),
    st.lists(
        st.tuples(
            st.sampled_from(["+", "-"]),
            st.integers(0, 6),  # 6 is out of range
            st.integers(0, 6),
            st.integers(1, 50),
        ),
        max_size=40,
    ),
)
def test_batched_updates_keep_invariants(kind, ops):
    e = _batch_engine(kind)
    mirror: dict[tuple[int, int], int] = {}
    for sign, u, v, k in ops:
        key = (min(u, v), max(u, v))
        if u == v or max(u, v) >= e.n:
            _assert_rejected(e, e.insert if sign == "+" else e.delete, u, v, k)
            continue
        if sign == "+":
            if e.total_copies + k > e.config.capacity:
                _assert_rejected(e, e.insert, u, v, k)
                continue
            e.insert(u, v, k)
            mirror[key] = mirror.get(key, 0) + k
        else:
            if mirror.get(key, 0) < k:
                _assert_rejected(e, e.delete, u, v, k)
                continue
            e.delete(u, v, k)
            mirror[key] -= k
        assert e.total_copies == sum(mirror.values())
        assert sum(e.indeg(x) for x in range(e.n)) == e.total_copies
        for (a, b), count in mirror.items():
            assert e.pair_copies(a, b) == count
        e.debug_audit()
        assert e.verify_local_optimality() == []


def test_batch_insert_scans_constant_arcs():
    # a thousand copies on an empty edge are one water-fill and two short
    # passes, not a thousand single-copy rebalances
    e = make(200, eps=0.2)
    e.insert(0, 1, 1000)
    assert e.indeg(0) == 500 and e.indeg(1) == 500
    assert e.stats["inserts"] == 1000
    assert e.stats["arcs_inc"] + e.stats["arcs_dec"] <= 4
    assert e.stats["flips"] == 0


def _greedy_insert_split(e, u, v, k):
    """Reference: in-degrees after ``k`` single-copy choices with no
    rebalancing in between, each toward the smaller thresholded load and
    ties toward the smaller id."""
    p, q = min(u, v), max(u, v)
    ind = {p: e.indeg(p), q: e.indeg(q)}

    def tload(x):
        load = ind[x] / e.weight(x)
        return min(load, e.threshold)

    for _ in range(k):
        ind[p if tload(p) <= tload(q) else q] += 1
    return ind


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1.0, 1.25, 2.0, 3.5]),
    st.sampled_from([1.0, 1.5, 4.0]),
    st.sampled_from([INF, 25.0]),
    st.lists(st.integers(1, 400), min_size=1, max_size=4),
)
def test_insert_split_matches_single_copy_greedy(w0, w1, threshold, batches):
    # on a lone edge the water-filled endpoints stay within one copy of each
    # other, so no flip follows and the split is visible in the in-degrees
    e = make(2, eps=0.4, weights=[w0, w1], threshold=threshold)
    for k in batches:
        expect = _greedy_insert_split(e, 1, 0, k)
        e.insert(1, 0, k)
        assert e.stats["flips"] == 0
        assert {0: e.indeg(0), 1: e.indeg(1)} == expect
