import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densedyn import engine as engine_module
from densedyn import oracle
from densedyn.engine import ALPHA_C, INF, LOOP_C, EngineConfig, OrientationEngine
from densedyn.extract import extract
from densedyn.levels import build_level_params
from reference import audit, float_band, saturated


def make(n, eps=0.5, weights=None, alpha=None, loop_c=LOOP_C, **kw):
    """A fresh engine; ``alpha`` replaces the derived band width (and
    ``loop_c`` the scan constant) so that small tests get coarse bands."""
    e = OrientationEngine(EngineConfig(n=n, epsilon=eps, **kw), weights)
    if alpha is not None:
        # everything that depends on alpha, on an engine that is still empty
        e.alpha = alpha
        e.params = build_level_params(alpha, e.params.max_value)
        e.budget = math.ceil(loop_c / alpha)
        audit(e)
    return e


def arc_pair_record(e, u, v):
    """Copies and label bands of both directions of the edge {u, v} of ``e``."""
    key = (u, v) if u < v else (v, u)
    uv = e._adj[key[1]].get(key[0])
    if uv is None:
        return {"endpoints": key, "count_uv": 0, "count_vu": 0}
    vu = uv.twin
    return {
        "endpoints": key,
        "count_uv": uv.count,
        "count_vu": vu.count,
        "label_uv": uv.label_level if uv.count else None,
        "label_vu": vu.label_level if vu.count else None,
    }


def force_label(e, tail, head, band):
    """Overwrite the label band of a live direction of ``e``.  This can plant
    states the update rules would never produce."""
    arc = e._adj[head].get(tail)
    if arc is None:
        raise ValueError(f"no edge between {tail} and {head}")
    if arc.count == 0:
        raise ValueError(f"direction {tail}->{head} has no copies")
    e._relabel(arc, band)


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

    def test_rejects_weight_overflowing_with_n(self):
        # n * W feeds log2 in alpha; at inf alpha would be 0
        with pytest.raises(ValueError, match="must be finite"):
            make(2, weights=[1e308, 1.0])

    def test_rejects_duplication_over_capacity(self, monkeypatch):
        # no edge fits, so the config is refused
        monkeypatch.setattr(engine_module, "CAPACITY", 40)
        with pytest.raises(ValueError, match="41 copies, more than the capacity 40"):
            make(2, duplication=41)
        make(2, duplication=40)

    @pytest.mark.parametrize("eps", [1e-200, 1e-160])
    def test_rejects_eps_whose_band_width_underflows(self, eps):
        # alpha = ALPHA_C * eps^2 / log2(nW) is 0 at 1e-200 and a subnormal
        # at 1e-160, where the arc-scan budget LOOP_C / alpha is inf
        with pytest.raises(ValueError, match=f"eps {eps} is too small"):
            make(3, eps=eps)
        make(3, eps=1e-100)

    @pytest.mark.parametrize("eps", [1e-200, 1e-160])
    def test_rejects_eps_whose_threshold_floor_is_infinite(self, eps):
        # the load cap's floor log2(nW) / eps^2 divides by 0 at 1e-200 and
        # overflows at 1e-160; the check runs before the band width's
        with pytest.raises(ValueError, match=f"eps {eps} is too small"):
            make(3, eps=eps, threshold=100.0)

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
        assert rec["label_vu"] == e._band(0, 1)
        assert not e.verify_local_optimality()
        audit(e)

    def test_orients_toward_smaller_load(self):
        # pump vertices 1 and 2 to load 5 via a parallel bundle, keep 0 idle
        e = make(3)
        e.insert(1, 2, multiplicity=10)
        assert e.indeg(1) == 5 and e.indeg(2) == 5
        e.insert(0, 1)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_vu"] == 1  # 1 -> 0, toward the idle endpoint
        assert e.indeg(0) == 1
        audit(e)

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

    def test_rejects_capacity_overflow(self, monkeypatch):
        monkeypatch.setattr(engine_module, "CAPACITY", 5)
        e = make(2)
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
        audit(e)

    def test_removes_copy_into_higher_load_head(self):
        # both directions live, loads 2.0 vs 1.5: the copy into the
        # higher-load endpoint goes first
        e = make(2, alpha=0.5, weights=[1.0, 4.0])
        e.insert(0, 1, multiplicity=8)
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] == 6 and rec["count_vu"] == 2
        assert e._ind[0] / e._w[0] == 2.0 and e._ind[1] / e._w[1] == 1.5
        before = e.indeg(0)
        e.delete(0, 1)
        assert e.indeg(0) == before - 1 or e.indeg(0) == before  # rebalance may refill
        rec2 = arc_pair_record(e, 0, 1)
        assert rec2["count_uv"] + rec2["count_vu"] == 7
        audit(e)

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
        audit(e)


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
        audit(e)

    def test_fresh_arc_is_left_alone(self):
        e = make(2)
        e.insert(0, 1)
        arcs_before = e.stats["arcs_inc"]
        flips = e.stats["flips"]
        assert arcs_before >= 1  # the pass inspected the fresh arc
        assert flips == 0

    def test_delete_evens_out_overloaded_out_neighbour(self):
        # vertices 0 and 1 sit level, 0 held up by the edge {0, 2}; deleting
        # that whole edge drops 0 two or more bands below its out-neighbour 1,
        # and the pull-back evens out 0->1: three copies turn around
        e = make(3, alpha=0.5)
        e.insert(0, 1, multiplicity=8)
        e.insert(0, 2, multiplicity=16)
        assert [e.indeg(v) for v in range(3)] == [7, 7, 10]
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] == 7 and rec["count_vu"] == 1
        assert e._band(0, 1) + 2 <= e._lvl[1]  # 0's in-degree once {0, 2} is gone
        flips = e.stats["flips"]
        e.delete(0, 2, multiplicity=16)
        assert e.stats["flips"] == flips + 1
        assert [e.indeg(v) for v in range(3)] == [4, 4, 0]
        rec = arc_pair_record(e, 0, 1)
        assert rec["count_uv"] == 4 and rec["count_vu"] == 4
        assert not e.verify_local_optimality()
        audit(e)

    def test_decrease_pass_resets_exactly_budget_labels(self):
        # six stale-high incoming directions at vertex 0; one deletion resets
        # exactly ceil(loop_c / alpha) of them and stops
        weights = [100.0] + [1.0] * 7
        e = make(8, alpha=0.5, loop_c=1, weights=weights)
        for j in range(1, 7):
            e.insert(0, j, multiplicity=2)
        e.insert(0, 7, multiplicity=160)
        assert e._lvl[0] == 2
        for j in range(1, 7):
            force_label(e, j, 0, e._band(1, 40))  # the band of load 40 at weight 1
        stale_before = sum(
            1 for t, h, c, lb in e.iter_arcs() if h == 0 and lb >= 8
        )
        assert stale_before == 6
        resets = e.stats["label_resets"]
        e.delete(0, 1)  # removes the copy oriented into 0 and rebalances
        assert e.stats["label_resets"] == resets + e.budget
        stale_after = sum(1 for t, h, c, lb in e.iter_arcs() if h == 0 and lb >= 8)
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
        # inserts raise the top band and deletes back down to empty lower it,
        # so the top is read right both while it climbs and while it falls
        e = make(6, eps=0.3, weights=[1.0, 2.0, 1.5, 1.0, 3.0, 1.0])
        rng = random.Random(5)
        edges = [tuple(rng.sample(range(6), 2)) for _ in range(200)]
        for update, order in ((e.insert, edges), (e.delete, rng.sample(edges, len(edges)))):
            for u, v in order:
                update(u, v)
                expect = max(e.thresholded_load(x) for x in range(6))
                assert e.max_load() == pytest.approx(expect)
        assert e.max_load() == 0.0


class TestSaturation:
    def test_unthresholded_never_saturates(self):
        e = make(2)
        e.insert(0, 1, multiplicity=50)
        assert not saturated(e)

    def test_empty_thresholded_not_saturated(self):
        e = make(8, eps=0.5, threshold=50.0)
        assert not saturated(e)

    def test_dense_bundle_saturates(self):
        e = make(8, eps=0.5, threshold=50.0)
        e.insert(0, 1, multiplicity=100)  # loads ~25 >= trigger 19
        assert e.max_load() >= e.saturation_trigger()
        assert saturated(e)

    def test_sparse_forest_not_saturated(self):
        t = 100.0 * math.log2(8) / 0.25
        e = make(8, eps=0.5, threshold=t)
        for v in range(1, 8):
            e.insert(v - 1, v)
        assert not saturated(e)

    def test_loads_pin_at_threshold(self):
        e = make(8, eps=0.5, threshold=12.0)
        e.insert(0, 1, multiplicity=60)
        assert e.max_load() <= 12.0
        assert e.thresholded_load(0) <= 12.0
        assert e._ind[0] / e._w[0] + e._ind[1] / e._w[1] == 60.0


class TestVerify:
    def test_empty_graph_clean(self):
        assert make(4).verify_local_optimality() == []

    def test_planted_violation_detected(self):
        e = make(2)
        e.insert(0, 1)
        # label five bands above everything
        force_label(e, 1, 0, e._lvl[0] + 5)
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
        audit(e)

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
            opt = oracle.exact_vwdsg(g)[0]
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
    audit(e)


def test_cached_bands_match_float_rule():
    e = make(5, eps=0.4)
    rng = random.Random(41)
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
            # flips touch a vertex repeatedly within one update and may move
            # it several bands at once; after each public op its cached band
            # is the float rule's
            assert e._lvl[w] == float_band(e.params, e.weight(w), e.indeg(w))
    audit(e)


# ----------------------------------------------------------------------
# batched updates: one call places or removes many copies at once

BATCH_CONFIGS = {
    "unthresholded": dict(threshold=INF),
    # the floor log2(n W) / eps^2 is about 22.4; loads reach this cap
    "thresholded": dict(threshold=30.0),
}


BATCH_CAPACITY = 600


def _batch_engine(kind):
    weights = [1.0, 2.0, 1.5, 1.0, 1.25, 2.0]
    return make(6, eps=0.4, weights=weights, **BATCH_CONFIGS[kind])


def _assert_rejected(e, call, *args):
    # the watermark and the stored answer are extract's reuse state: a
    # rejected update that moved either one could turn a later answer stale
    def state():
        return (e.snapshot(), dict(e.stats), e.total_copies, e.touched_band,
                e.last_extract)

    before = state()
    with pytest.raises(ValueError):
        call(*args)
    assert state() == before


# the capacity is read when the engine is built and at every insert
@mock.patch.object(engine_module, "CAPACITY", BATCH_CAPACITY)
@settings(max_examples=60, deadline=None)
# random batches rarely add up to the capacity; thirteen of 50 pass it
@example("thresholded", [("+", 0, 1, 50)] * 13)
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
            if e.total_copies + k > BATCH_CAPACITY:
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
        audit(e)
        assert e.verify_local_optimality() == []
        # store an answer and lower the watermark, so that a rejected update
        # that raises it or replaces the answer shows
        extract(e, e.config.epsilon)


def test_batch_insert_scans_constant_arcs():
    # a thousand copies on an empty edge are one water-fill and two short
    # passes, not a thousand single-copy rebalances
    e = make(200, eps=0.2)
    e.insert(0, 1, 1000)
    assert e.indeg(0) == 500 and e.indeg(1) == 500
    assert e.stats["inserts"] == 1000
    assert e.stats["arcs_inc"] + e.stats["arcs_dec"] <= 4
    assert e.stats["flips"] == 0


def test_incoming_labels_stay_near_their_band_under_churn():
    # single copies churned among 4 vertices keep relabeling the same few
    # arcs; every incoming key stays within four bands of its vertex's band,
    # the window that keeps the min and max reads of the label index short
    e = make(4, eps=0.4, weights=[1.0, 1.5, 2.0, 1.25])
    rng = random.Random(7)
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    live = dict.fromkeys(pairs, 0)
    for _ in range(3000):
        u, v = rng.choice(pairs)
        if live[(u, v)] and rng.random() < 0.5:
            e.delete(u, v)
            live[(u, v)] -= 1
        elif sum(live.values()) < 80:
            e.insert(u, v)
            live[(u, v)] += 1
        for x in range(4):
            assert all(abs(b - e._lvl[x]) <= 4 for b in e._in[x])
        audit(e)
    assert e.verify_local_optimality() == []


def _unfile_live_in(e):
    arc = e._adj[0][1]  # 1 -> 0, which holds the single copy
    bucket = e._in[0][arc.label_level]
    del bucket[arc]
    if not bucket:
        del e._in[0][arc.label_level]


def _misfile_live_in(e):
    arc = e._adj[0][1]
    engine_module._unfile(e._in[0], arc.label_level, arc)
    engine_module._file(e._in[0], arc.label_level + 1, arc)


def _label_out_of_range(e):
    force_label(e, 1, 0, e.params.top_level + 1)


def _file_dead_twin(e):
    dead = e._adj[1][0]  # 0 -> 1, which has no copies
    engine_module._file(e._in[1], dead.label_level, dead)


def _drop_mirror(e):
    del e._adj[0][1]


@pytest.mark.parametrize(
    "plant, message",
    [(_unfile_live_in, "unfiled"), (_misfile_live_in, "unfiled"),
     (_label_out_of_range, "out of range"), (_file_dead_twin, "without copies"),
     (_drop_mirror, "no mirror")],
)
def test_debug_audit_catches_planted_faults(plant, message):
    # a healthy engine passes; each planted fault in the label index or the
    # adjacency map makes the audit fail
    e = make(3)
    e.insert(0, 1)  # a tie: the copy points at the smaller id
    audit(e)
    assert e._adj[0][1].count == 1 and e._adj[1][0].count == 0
    plant(e)
    with pytest.raises(AssertionError, match=message):
        audit(e)


def test_debug_audit_catches_wrong_threshold():
    # the audit recomputes each band from the level table's boundaries, so a
    # wrong threshold that files a vertex in the wrong band is caught; an
    # audit that read the band back off the thresholds would pass
    e = make(3, alpha=0.5)
    e.insert(0, 1)  # a tie: vertex 0 gets in-degree 1, in band 1
    thr = e._thr[0]
    assert e._thr[2] is thr and thr[1] == 1  # weight 1 shares one list
    thr[1] = 0  # in-degree 1 now reads as above band 1
    e.insert(0, 2)  # the copy goes to vertex 2, the lighter endpoint
    assert e.indeg(2) == 1 and e._lvl[2] == 2
    with pytest.raises(AssertionError, match="cached level drift at 2"):
        audit(e)


def test_relabel_to_same_band_keeps_place():
    # heavy vertex 0 takes three incoming directions in one band; relabeling
    # each to that band leaves every bucket order as it was
    e = make(4, weights=[100.0, 1.0, 1.0, 1.0])
    for u, v in ((1, 2), (2, 3), (1, 3)):
        e.insert(u, v, 2)
    for j in (1, 2, 3):
        e.insert(0, j)
    band = e._lvl[0]
    bucket = e._in[0][band]
    assert [a.tail for a in bucket] == [1, 2, 3]

    def index_state():
        return [
            [[list(b) for b in keys.values()] for keys in (e._in[v], e._out[v])]
            for v in range(e.n)
        ]

    before = index_state()
    for arc in list(bucket):
        e._relabel(arc, band)
        assert index_state() == before
    audit(e)


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
