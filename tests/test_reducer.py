import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from densedyn import engine as engine_module
from densedyn import oracle
from densedyn import reducer as reducer_module
from densedyn.engine import duplication_factor
from densedyn.extract import extract
from densedyn.reducer import DirectedDensest, DirectedQueryResult, ratio_grid
from reference import audit, reduction_grid_squared, saturated


def best_t_sanity(sources, sinks) -> float:
    """Lower bound on the directed optimum implied by an optimal pair's
    shape: max(sqrt(|S|/|T|), sqrt(|T|/|S|))."""
    s, t = len(set(sources)), len(set(sinks))
    if s == 0 or t == 0:
        raise ValueError("both sides must be nonempty")
    return max(math.sqrt(s / t), math.sqrt(t / s))


EMPTY = DirectedQueryResult(0.0, frozenset(), frozenset(), 0.0, "low")


def small_cap(monkeypatch):
    """Small duplication and load cap, so that desk-scale graphs reach the
    cap of the grids built after this call."""
    monkeypatch.setattr(engine_module, "DUP_C", 1.0)
    monkeypatch.setattr(engine_module, "THRESHOLD_C", 0.3)


def reference_query(g: DirectedDensest) -> DirectedQueryResult:
    """Grid-order scan that extracts from every entry's active engine; the
    bound-ordered ``query`` must return exactly this."""
    if not g._mirror:
        return EMPTY
    n = g.n
    best = None
    for entry in g.entries:
        engine, regime, _ = entry.active()
        res = extract(engine, g.epsilon)
        sources = {v for v in res.vertices if v < n}
        sinks = {v - n for v in res.vertices if v >= n}
        if not sources or not sinks:
            continue
        cand = res.certified_density * entry.scale
        if best is None or cand > best[0]:
            best = (cand, entry, regime, sources, sinks)
    if best is None:
        return EMPTY
    _, entry, regime, sources, sinks = best
    edges = sum(
        mult
        for (u, v), mult in g._mirror.items()
        if u in sources and v in sinks
    )
    return DirectedQueryResult(
        edges / math.sqrt(len(sources) * len(sinks)),
        frozenset(sources),
        frozenset(sinks),
        entry.t,
        regime,
    )


class TestRatioGrid:
    def test_example_n4(self):
        grid = ratio_grid(4, 0.5)
        assert len(grid) == 3
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(2.0)

    def test_single_vertex(self):
        assert ratio_grid(1, 0.3) == [1.0]

    def test_matches_exact_grid(self):
        for n, eps in [(4, Fraction(1, 2)), (8, Fraction(1, 5)), (9, Fraction(1, 10))]:
            floats = ratio_grid(n, float(eps))
            exact = reduction_grid_squared(n, eps)
            assert len(floats) == len(exact)
            for t, t_sq in zip(floats, exact):
                assert t * t == pytest.approx(float(t_sq), rel=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ratio_grid(0, 0.5)
        with pytest.raises(ValueError):
            ratio_grid(4, 1.5)

    def test_rejects_eps_whose_step_rounds_to_one(self):
        # below eps of about 1e-13 the step is exactly 1, so the grid would
        # never reach sqrt(n)
        with pytest.raises(ValueError, match="step rounds to 1"):
            ratio_grid(3, 1e-14)


class TestConstruction:
    def test_weights_at_unit_guess(self):
        g = DirectedDensest(1, 0.3)
        assert len(g.entries) == 1
        entry = g.entries[0]
        assert entry.t == 1.0
        assert entry.low.weight(0) == entry.low.weight(1) == 1.0
        assert entry.scale == 2.0

    def test_weights_normalized_min_one(self):
        g = DirectedDensest(4, 0.5)
        for entry in g.entries:
            weights = [entry.low.weight(v) for v in range(8)]
            assert min(weights) == 1.0
            assert all(w >= 1.0 for w in weights)

    def test_two_regimes_per_guess(self):
        g = DirectedDensest(4, 0.5)
        for entry in g.entries:
            assert entry.low.threshold < math.inf
            assert entry.low.config.duplication == g.dup
            assert entry.high.threshold == math.inf
            assert entry.high.config.duplication == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            DirectedDensest(0, 0.5)
        with pytest.raises(ValueError):
            DirectedDensest(4, 0.0)

    def test_rejects_eps_where_no_edge_fits_before_building_the_grid(self):
        # at eps 2e-13 the grid has 2,303,960 guesses, and one duplicated
        # edge is more copies than an engine holds; the grid is never built
        with mock.patch.object(reducer_module, "ratio_grid",
                               side_effect=AssertionError("grid built")):
            with pytest.raises(ValueError, match="eps 2e-13 is too small"):
                DirectedDensest(3, 2e-13)

    @pytest.mark.parametrize("eps", [1e-85, 1e-160, 1e-200])
    def test_rejects_eps_whose_powers_leave_the_float_range(self, eps):
        # eps**4 underflows below about 1e-81, the duplication overflows a
        # float below about 1e-154, and eps**2 underflows below about 1e-162
        with pytest.raises(ValueError, match=f"eps {eps} is too small"):
            DirectedDensest(3, eps)


class TestUpdates:
    def test_insert_fans_out_one_logical_edge(self):
        g = DirectedDensest(4, 0.5)
        g.insert_directed(1, 2)
        for entry in g.entries:
            assert entry.low.pair_copies(1, 4 + 2) == g.dup
            assert entry.high.pair_copies(1, 4 + 2) == 1
            assert entry.low.total_copies == g.dup

    def test_opposite_edges_are_distinct(self):
        g = DirectedDensest(4, 0.5)
        g.insert_directed(1, 2)
        g.insert_directed(2, 1)
        for entry in g.entries:
            assert entry.high.pair_copies(1, 4 + 2) == 1
            assert entry.high.pair_copies(2, 4 + 1) == 1

    def test_insert_then_delete_restores_empty(self):
        g = DirectedDensest(3, 0.5)
        g.insert_directed(0, 1)
        g.delete_directed(0, 1)
        assert sum(g._mirror.values()) == 0
        for eng in g.engines():
            assert eng.total_copies == 0
            assert eng.max_load() == 0.0
        assert g.query().density_estimate == 0.0

    def test_rejects_self_loop_and_absent_delete(self):
        g = DirectedDensest(3, 0.5)
        with pytest.raises(ValueError):
            g.insert_directed(1, 1)
        with pytest.raises(ValueError):
            g.delete_directed(0, 1)

    def test_rejected_insert_changes_nothing(self, monkeypatch):
        # every low engine takes dup = 50 copies per edge; a capacity of 50
        # takes the first edge and rejects the second, which must leave no
        # phantom in the mirror (a capacity below dup would reject the grid)
        monkeypatch.setattr(engine_module, "CAPACITY", 50)
        g = DirectedDensest(4, 0.4)
        assert g.dup == 50
        g.insert_directed(0, 1)
        with pytest.raises(ValueError, match="capacity"):
            g.insert_directed(0, 2)
        assert g._mirror == {(0, 1): 1}
        assert all(e.low.total_copies == 50 and e.high.total_copies == 1
                   for e in g.entries)
        with pytest.raises(ValueError):
            g.delete_directed(0, 2)


class TestQuery:
    def test_empty(self):
        q = DirectedDensest(4, 0.5).query()
        assert q.density_estimate == 0.0
        assert q.sources == frozenset() and q.sinks == frozenset()

    def test_single_edge_exact(self):
        g = DirectedDensest(4, 0.3)
        g.insert_directed(0, 1)
        q = g.query()
        assert q.density_estimate == pytest.approx(1.0)
        assert q.sources == {0} and q.sinks == {1}

    def test_out_star(self):
        g = DirectedDensest(5, 0.2)
        for leaf in range(1, 5):
            g.insert_directed(0, leaf)
        q = g.query()
        assert q.density_estimate <= 2.0 + 1e-9
        assert q.density_estimate >= (1 - 3 * 0.2) * 2.0

    def test_estimate_is_exact_density_of_returned_pair(self):
        g = DirectedDensest(5, 0.3)
        rng = random.Random(77)
        for _ in range(12):
            u, v = rng.sample(range(5), 2)
            g.insert_directed(u, v)
        q = g.query()
        edges = sum(
            mult
            for (u, v), mult in g._mirror.items()
            if u in q.sources and v in q.sinks
        )
        expect = edges / math.sqrt(len(q.sources) * len(q.sinks))
        assert q.density_estimate == pytest.approx(expect)

    def test_soundness_against_oracle(self):
        rng = random.Random(13)
        for trial in range(8):
            n = rng.randint(2, 6)
            g = DirectedDensest(n, 0.25)
            mirror = oracle.SmallGraph(n=n, directed=True)
            live = []
            for _ in range(14):
                if live and rng.random() < 0.3:
                    u, v = live.pop(rng.randrange(len(live)))
                    g.delete_directed(u, v)
                    mirror.remove_edge(u, v)
                else:
                    u, v = rng.sample(range(n), 2)
                    g.insert_directed(u, v)
                    mirror.add_edge(u, v)
                    live.append((u, v))
                q = g.query()
                opt, _, _ = oracle.exact_ddsg(mirror)
                assert q.density_estimate <= opt + 1e-9
                if opt > 0:
                    assert q.density_estimate >= (1 - 3 * 0.25) * opt - 1e-9


class TestBoundOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_grid_scan(self, seed, monkeypatch):
        # odd seeds use a small cap and duplication on a hot 6-vertex core,
        # so low engines saturate and hand over to their high engines
        rng = random.Random(seed)
        if seed % 2:
            n, eps, hot = 8, 0.5, 6
            small_cap(monkeypatch)
        else:
            n, eps = rng.randint(3, 8), rng.choice([0.3, 0.5])
            hot = n
        g = DirectedDensest(n, eps)
        live = []
        any_saturated = False
        for _ in range(50):
            if live and rng.random() < 0.3:
                g.delete_directed(*live.pop(rng.randrange(len(live))))
            else:
                live.append(tuple(rng.sample(range(hot), 2)))
                g.insert_directed(*live[-1])
            assert g.query() == reference_query(g)
            for entry in g.entries:
                # the peak that active() reads once is its engine's, in
                # either regime
                engine, regime, peak = entry.active()
                assert peak == engine.max_load()
                assert (regime == "high") == saturated(entry.low)
            any_saturated |= any(saturated(entry.low) for entry in g.entries)
        if seed % 2:
            assert any_saturated

    def test_tie_goes_to_the_earlier_guess(self):
        # the first and last guesses (t = 1/2 and 2, exact in floats) give the
        # same best candidate from different sets, and the last has the
        # higher bound, so it is extracted first
        g = DirectedDensest(4, 0.5)
        for u, v in [(1, 0), (2, 0), (2, 1), (2, 0)]:
            g.insert_directed(u, v)
        cands, bounds = [], []
        for entry in g.entries:
            engine, _, _ = entry.active()
            cands.append(extract(engine, 0.5).certified_density * entry.scale)
            bounds.append(engine.max_load() / engine.config.duplication * entry.scale)
        assert cands[0] == cands[-1] == max(cands)
        assert bounds[-1] > bounds[0]
        q = g.query()
        assert q == reference_query(g)
        assert q.winning_t == g.entries[0].t


class TestRegimeSwitch:
    def test_saturation_hands_off_to_uncapped_instance(self, monkeypatch):
        # small cap and duplication so a bidirected clique crosses the cap
        small_cap(monkeypatch)
        g = DirectedDensest(8, 0.5)
        k = 6
        for u in range(k):
            for v in range(k):
                if u != v:
                    g.insert_directed(u, v)
        assert any(saturated(entry.low) for entry in g.entries)
        q = g.query()
        opt = float(k - 1)
        assert q.density_estimate <= opt + 1e-9
        assert q.density_estimate >= 0.5 * opt
        assert q.regime == "high" or not any(
            saturated(e.low) for e in g.entries if e.t == q.winning_t
        )


class TestBestTSanity:
    def test_star(self):
        assert best_t_sanity({0}, {1, 2, 3, 4}) == pytest.approx(2.0)

    def test_single_edge(self):
        assert best_t_sanity({0}, {1}) == 1.0

    def test_balanced(self):
        assert best_t_sanity({0, 1}, {2, 3}) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            best_t_sanity(set(), {1})

    def test_lower_bounds_optimum_on_small_graphs(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 5)
            mirror = oracle.SmallGraph(n=n, directed=True)
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.5:
                        mirror.add_edge(u, v)
            if not mirror.edges:
                continue
            opt, s, t = oracle.exact_ddsg(mirror)
            assert opt >= best_t_sanity(s, t) - 1e-9


class DirectedMachine(RuleBasedStateMachine):
    """``DirectedDensest`` against an ``oracle.SmallGraph`` mirror, with
    rejected updates mixed in: self-loops, absent deletes, out-of-range
    vertices and, under a capacity of a few edges, inserts over capacity."""

    @initialize(n=st.integers(2, 8), eps=st.sampled_from([0.2, 0.5]),
                max_edges=st.sampled_from([None, 1, 3]))
    def start(self, n, eps, max_edges):
        cap = engine_module.CAPACITY
        if max_edges is not None:
            cap = max_edges * duplication_factor(n, eps)
        # the capacity is read when the grid is built and at every insert, so
        # it stays patched until teardown
        self.capacity = mock.patch.object(engine_module, "CAPACITY", cap)
        self.capacity.start()
        self.g = DirectedDensest(n, eps)
        self.ref = oracle.SmallGraph(n=n, directed=True)
        self.max_edges = max_edges

    def teardown(self):
        self.capacity.stop()

    def state(self):
        # with each engine's extract reuse state, which the query invariant sets
        return dict(self.g._mirror), [
            (e.snapshot(), dict(e.stats), e.touched_band, e.last_extract)
            for e in self.g.engines()
        ]

    def rejected(self, update, u, v):
        before = self.state()
        with pytest.raises(ValueError):
            update(u, v)
        assert self.state() == before

    @rule(u=st.integers(0, 7), v=st.integers(0, 7))
    def insert(self, u, v):
        u, v = u % self.g.n, v % self.g.n
        full = self.max_edges is not None and sum(self.ref.edges.values()) == self.max_edges
        if u == v or full:
            self.rejected(self.g.insert_directed, u, v)
        else:
            self.g.insert_directed(u, v)
            self.ref.add_edge(u, v)

    @rule(u=st.integers(0, 7), v=st.integers(0, 7))
    def delete_any(self, u, v):
        u, v = u % self.g.n, v % self.g.n
        if u == v or not self.ref.edges[(u, v)]:
            self.rejected(self.g.delete_directed, u, v)
        else:
            self.g.delete_directed(u, v)
            self.ref.remove_edge(u, v)

    @precondition(lambda self: self.ref.edges)
    @rule(data=st.data())
    def delete_present(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.ref.edges)))
        self.g.delete_directed(u, v)
        self.ref.remove_edge(u, v)

    @rule(u=st.integers(0, 7), below=st.booleans(), first=st.booleans(), insert=st.booleans())
    def out_of_range(self, u, below, first, insert):
        u, bad = u % self.g.n, -1 if below else self.g.n
        update = self.g.insert_directed if insert else self.g.delete_directed
        self.rejected(update, *((bad, u) if first else (u, bad)))

    @invariant()
    def mirror_matches(self):
        assert self.g._mirror == dict(self.ref.edges)

    @invariant()
    def query_never_exceeds_optimum(self):
        opt, _, _ = oracle.exact_ddsg(self.ref)
        assert self.g.query().density_estimate <= opt + 1e-9

    @invariant()
    def engines_healthy(self):
        for e in self.g.engines():
            audit(e)
            assert e.verify_local_optimality() == []
            assert e.stats["max_chain_inc"] <= e.level_count
            assert e.stats["max_chain_dec"] <= e.level_count


TestDirectedMachine = DirectedMachine.TestCase
TestDirectedMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
