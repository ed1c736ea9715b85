import math
import random
from fractions import Fraction

import pytest

from densedyn import oracle
from densedyn.extract import extract
from densedyn.reducer import DirectedDensest, DirectedQueryResult, GridParams, ratio_grid


def best_t_sanity(sources, sinks) -> float:
    """Lower bound on the directed optimum implied by an optimal pair's
    shape: max(sqrt(|S|/|T|), sqrt(|T|/|S|))."""
    s, t = len(set(sources)), len(set(sinks))
    if s == 0 or t == 0:
        raise ValueError("both sides must be nonempty")
    return max(math.sqrt(s / t), math.sqrt(t / s))


EMPTY = DirectedQueryResult(0.0, frozenset(), frozenset(), 0.0, "low")


def reference_query(g: DirectedDensest) -> DirectedQueryResult:
    """Grid-order scan that extracts from every entry's active engine; the
    bound-ordered ``query`` must return exactly this."""
    if not g.directed_edges():
        return EMPTY
    n = g.n
    best = None
    for entry in g.entries:
        engine, regime = entry.active()
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
        for (u, v), mult in g.directed_edges().items()
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
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(2.0)

    def test_single_vertex(self):
        assert ratio_grid(1, 0.3) == [1.0]

    def test_matches_exact_grid(self):
        for n, eps in [(4, Fraction(1, 2)), (8, Fraction(1, 5)), (9, Fraction(1, 10))]:
            floats = ratio_grid(n, float(eps))
            exact = oracle.reduction_grid_squared(n, eps)
            assert len(floats) == len(exact)
            for t, t_sq in zip(floats, exact):
                assert t * t == pytest.approx(float(t_sq), rel=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ratio_grid(0, 0.5)
        with pytest.raises(ValueError):
            ratio_grid(4, 1.5)


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
        assert sum(g.directed_edges().values()) == 0
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

    def test_rejected_insert_changes_nothing(self):
        # every low engine takes dup = 50 copies per edge; a capacity of 40
        # rejects the first edge, which must leave no phantom in the mirror
        g = DirectedDensest(4, 0.4, GridParams(capacity=40))
        with pytest.raises(ValueError, match="capacity"):
            g.insert_directed(0, 1)
        assert g.directed_edges() == {}
        assert all(eng.total_copies == 0 for eng in g.engines())
        with pytest.raises(ValueError):
            g.delete_directed(0, 1)


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
            for (u, v), mult in g.directed_edges().items()
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
    def test_matches_grid_scan(self, seed):
        # odd seeds use a small cap and duplication on a hot 6-vertex core,
        # so low engines saturate and hand over to their high engines
        rng = random.Random(seed)
        if seed % 2:
            n, eps, hot = 8, 0.5, 6
            params = GridParams(dup_c=1.0, threshold_c=0.3)
        else:
            n, eps = rng.randint(3, 8), rng.choice([0.3, 0.5])
            hot, params = n, GridParams()
        g = DirectedDensest(n, eps, params)
        live = []
        saturated = False
        for _ in range(50):
            if live and rng.random() < 0.3:
                g.delete_directed(*live.pop(rng.randrange(len(live))))
            else:
                live.append(tuple(rng.sample(range(hot), 2)))
                g.insert_directed(*live[-1])
            assert g.query() == reference_query(g)
            saturated |= any(entry.low.saturated() for entry in g.entries)
        if seed % 2:
            assert saturated

    def test_tie_goes_to_the_earlier_guess(self):
        # the first two guesses give the same best candidate, and the second
        # has the higher bound, so it is extracted first
        g = DirectedDensest(3, 0.5)
        for u, v in [(0, 2), (0, 1), (0, 2), (2, 0), (0, 2), (0, 1), (2, 0)]:
            g.insert_directed(u, v)
        cands, bounds = [], []
        for entry in g.entries:
            engine, _ = entry.active()
            cands.append(extract(engine, 0.5).certified_density * entry.scale)
            bounds.append(engine.max_load() / engine.config.duplication * entry.scale)
        assert cands[0] == cands[1] == max(cands)
        assert bounds[1] > bounds[0]
        q = g.query()
        assert q == reference_query(g)
        assert q.winning_t == g.entries[0].t


class TestRegimeSwitch:
    def test_saturation_hands_off_to_uncapped_instance(self):
        # small cap and duplication so a bidirected clique crosses the cap
        params = GridParams(dup_c=1.0, threshold_c=0.3)
        g = DirectedDensest(8, 0.5, params)
        k = 6
        for u in range(k):
            for v in range(k):
                if u != v:
                    g.insert_directed(u, v)
        assert any(entry.low.saturated() for entry in g.entries)
        q = g.query()
        opt = float(k - 1)
        assert q.density_estimate <= opt + 1e-9
        assert q.density_estimate >= 0.5 * opt
        assert q.regime == "high" or not any(
            e.low.saturated() for e in g.entries if e.t == q.winning_t
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
