import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedyn import oracle
from densedyn.engine import GRID_SHARE
from densedyn.reducer import ratio_step_squared
from reference import (
    exact_ddsg_density_squared,
    exact_reduced_density_squared,
    reduction_grid_squared,
)


def _directed(n, edges):
    g = oracle.SmallGraph(n=n, directed=True)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def _undirected(n, edges, weights=None):
    g = oracle.SmallGraph(n=n, directed=False, weights=weights)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def _brute_vwdsg(g):
    """Optimum of ``|E(S)| / w(S)`` over every nonempty subset, in Fractions."""
    best = Fraction(0)
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            e = sum(m for (u, v), m in g.edges.items() if u in s and v in s)
            best = max(best, Fraction(e) / sum(g.weights[v] for v in s))
    return best


def _check_against_brute_force(g):
    expect = _brute_vwdsg(g)
    assert oracle.exact_vwdsg(g)[0] == float(expect)
    assert oracle.exact_vwdsg_density(g) == expect  # the witness's density


class TestExactVwdsg:
    def test_triangle(self):
        density, witness = oracle.exact_vwdsg(_undirected(3, [(0, 1), (1, 2), (0, 2)]))
        assert density == 1.0
        assert witness == {0, 1, 2}

    def test_weighted_edge(self):
        g = _undirected(2, [(0, 1)], weights=[Fraction(1), Fraction(3)])
        density, witness = oracle.exact_vwdsg(g)
        assert density == 0.25
        assert witness == {0, 1}

    def test_edgeless_returns_singleton(self):
        density, witness = oracle.exact_vwdsg(_undirected(3, []))
        assert density == 0.0
        assert len(witness) == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "UNDIRECTED_CAP", 2)
        with pytest.raises(ValueError):
            oracle.exact_vwdsg(_undirected(3, []))

    def test_witness_density_matches(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 7)
            weights = [Fraction(rng.randint(4, 32), 4) for _ in range(n)]
            g = oracle.SmallGraph(n=n, directed=False, weights=weights)
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < 0.5:
                    g.add_edge(u, v, rng.randint(1, 3))
            density, witness = oracle.exact_vwdsg(g)
            if witness:
                e = sum(
                    m for (u, v), m in g.edges.items() if u in witness and v in witness
                )
                w = sum(weights[v] for v in witness)
                assert density == pytest.approx(e / w)

    def test_weights_whose_common_denominator_passes_int64(self):
        # the weights' common denominator is about 1e18, so the weight of a
        # set scaled to it passes 2**63; K8 with the edge {6, 7} four times
        weights = [1 + Fraction(1, 999983), 1 + Fraction(1, 999979),
                   1 + Fraction(1, 999961), 1, 1, 1, 1, 3]
        g = _undirected(8, itertools.combinations(range(8), 2),
                        weights=[Fraction(w) for w in weights])
        g.add_edge(6, 7, 3)
        _check_against_brute_force(g)
        assert oracle.exact_vwdsg(g)[0] == pytest.approx(3.0999991, abs=1e-7)

    def test_weights_with_seven_decimals(self):
        # verify reads each weight to the nearest fraction with denominator
        # at most 10**6; eight such denominators have a common multiple far
        # past 2**63
        rng = random.Random(11)
        weights = [Fraction(1 + rng.randint(1, 9_999_999) / 1e7).limit_denominator(10**6)
                   for _ in range(8)]
        assert math.lcm(*(w.denominator for w in weights)) > 2**63
        g = _undirected(8, [(u, v) for u, v in itertools.combinations(range(8), 2)
                            if rng.random() < 0.6], weights=weights)
        _check_against_brute_force(g)


class TestExactDdsg:
    def test_single_edge(self):
        density, s, t = oracle.exact_ddsg(_directed(2, [(0, 1)]))
        assert density == 1.0
        assert (s, t) == ({0}, {1})

    def test_three_cycle_density(self):
        g = _directed(3, [(0, 1), (1, 2), (2, 0)])
        density, s, t = oracle.exact_ddsg(g)
        assert density == pytest.approx(1.0)
        # witness achieves the optimum (ties are canonicalized)
        e = sum(m for (u, v), m in g.edges.items() if u in s and v in t)
        assert e / math.sqrt(len(s) * len(t)) == pytest.approx(density)

    def test_out_star(self):
        density, s, t = oracle.exact_ddsg(_directed(5, [(0, i) for i in range(1, 5)]))
        assert density == 2.0
        assert s == {0}
        assert t == {1, 2, 3, 4}

    def test_overlapping_sides_allowed(self):
        # bidirected K3: best is S = T = everything, density 6/3 = 2
        edges = [(u, v) for u in range(3) for v in range(3) if u != v]
        density, s, t = oracle.exact_ddsg(_directed(3, edges))
        assert density == pytest.approx(2.0)
        assert s == t == {0, 1, 2}


class TestExactReduced:
    def test_single_edge_matched_guess(self):
        g = _directed(2, [(0, 1)])
        assert exact_reduced_density_squared(g, Fraction(1)) == 1

    def test_single_edge_overshot_guess(self):
        # t = 2: density 1 / ((1/2 + 2) / 2) = 4/5
        g = _directed(2, [(0, 1)])
        assert exact_reduced_density_squared(g, Fraction(4)) == Fraction(16, 25)

    def test_edgeless(self):
        assert exact_reduced_density_squared(_directed(3, []), Fraction(1)) == 0


class TestReductionFacts:
    """Exhaustive desk-scale checks of the underestimate / near-tightness /
    shape lower-bound facts behind the guess grid."""

    @staticmethod
    def _all_graphs_on_3():
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
            yield _directed(3, edges)

    def test_reduced_never_exceeds_directed_optimum(self):
        grid = reduction_grid_squared(3, Fraction(1, 10))
        for g in self._all_graphs_on_3():
            opt_sq = exact_ddsg_density_squared(g)
            for t_sq in grid:
                assert exact_reduced_density_squared(g, t_sq) <= opt_sq

    def test_grid_max_is_near_tight(self):
        eps = Fraction(1, 10)
        grid = reduction_grid_squared(3, eps)
        for g in self._all_graphs_on_3():
            opt_sq = exact_ddsg_density_squared(g)
            best = max(exact_reduced_density_squared(g, t_sq) for t_sq in grid)
            assert best >= (1 - eps) ** 2 * opt_sq

    def test_shape_lower_bound_at_optimal_pairs(self):
        for g in self._all_graphs_on_3():
            if not g.edges:
                continue
            _, s, t = oracle.exact_ddsg(g)
            e = sum(m for (u, v), m in g.edges.items() if u in s and v in t)
            # optimum >= max(sqrt(|S|/|T|), sqrt(|T|/|S|)), exactly:
            assert e >= max(len(s), len(t))


class TestGrid:
    def test_grid_example(self):
        grid = reduction_grid_squared(4, Fraction(1, 2))
        assert len(grid) == 3
        assert grid[0] == Fraction(1, 4)
        assert grid[-1] == Fraction(4)

    def test_single_vertex(self):
        assert reduction_grid_squared(1, Fraction(1, 5)) == [Fraction(1)]

    def test_spacing(self):
        eps = Fraction(1, 5)
        step = ratio_step_squared(float(eps))
        grid = reduction_grid_squared(9, eps)
        for a, b in zip(grid, grid[1:]):
            assert b <= a * step

    @pytest.mark.parametrize("eps", [Fraction(1, 5), Fraction(1, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30, 200])
    def test_every_shape_within_the_grid_share(self, n, eps):
        # guess t^2 scales the density of an a x b pair by
        # 2 sqrt(ab) t / (a + t^2 b); some guess must keep 1 - GRID_SHARE * eps
        keep = (1 - Fraction(GRID_SHARE) * eps) ** 2
        grid = reduction_grid_squared(n, eps)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                assert any(
                    4 * a * b * t_sq >= keep * (a + t_sq * b) ** 2 for t_sq in grid
                ), (a, b)


class TestLocalOptimalityChecker:
    def test_empty(self):
        assert oracle.check_alpha_beta_optimality({}, [], 0.1, 1.0)

    def test_planted_violation(self):
        loads = {0: 0.0, 1: 10.0}
        arcs = [(0, 1, 1)]
        assert not oracle.check_alpha_beta_optimality(loads, arcs, 0.1, 1.0)

    def test_satisfied(self):
        loads = {0: 2.0, 1: 2.5}
        arcs = [(0, 1, 3), (1, 0, 2)]
        assert oracle.check_alpha_beta_optimality(loads, arcs, 0.3, 1.0)

    def test_zero_count_ignored(self):
        loads = {0: 0.0, 1: 10.0}
        assert oracle.check_alpha_beta_optimality(loads, [(0, 1, 0)], 0.1, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_reduced_below_optimum_random_guess(n, rnd):
    g = oracle.SmallGraph(n=n, directed=True)
    for u in range(n):
        for v in range(n):
            if u != v and rnd.random() < 0.4:
                g.add_edge(u, v)
    t = 2 ** (rnd.random() * 4 - 2)
    assert exact_reduced_density_squared(g, Fraction(t * t)) <= exact_ddsg_density_squared(g)
