"""Exact references that only the tests compare against.

``float_band`` is the band rule of the levels module in floats, ``audit``
cross-checks every redundant structure of an orientation engine against it
and the adjacency map, and ``saturated`` reads an engine's saturation test.
The rest confirms the directed reduction in exact rational arithmetic: the
doubled graph's optimum at a guess ``t`` (parameterized by the rational
``t**2``), the exact grid of guesses, and the square of the directed optimum.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

import numpy as np

from densedyn.levels import BOUNDARY_TOL
from densedyn.oracle import (
    _NEAR_TIE,
    UNDIRECTED_CAP,
    SmallGraph,
    _edge_counts,
    exact_ddsg,
)
from densedyn.reducer import ratio_step_squared


def float_band(params, w: float, ind: float) -> int:
    """Band of in-degree ``ind`` at weight ``w``, compared in floats over the
    whole level table: the smallest ``i`` with
    ``ind <= L[i] * w + BOUNDARY_TOL * w``, and the top band for any larger
    ``ind``."""
    top = params.top_level  # reading it builds the whole table
    tol = BOUNDARY_TOL * w
    return bisect_left(params.boundaries, ind, hi=top, key=lambda b: b * w + tol)


def audit(engine) -> None:
    """Cross-check every redundant structure of ``engine``; raises
    AssertionError."""
    n = engine.config.n
    top = engine.params.top_level  # the float bisect reads the full table
    ind = [0] * n
    copies = 0
    for v, into in enumerate(engine._adj):
        for u, a in into.items():
            assert a.head == v and a.tail == u, f"arc {u}->{v} keyed wrong"
            assert engine._adj[u].get(v) is a.twin, f"no mirror of {u}->{v}"
            assert a.count > 0 or a.twin.count > 0, "dead pair retained"
            ind[v] += a.count
            copies += a.count
            if a.count > 0:
                lb = a.label_level
                assert 0 <= lb <= top, f"label {lb} out of range"
                assert a in engine._in[v].get(lb, ()), "live arc unfiled"
                assert a in engine._out[u].get(lb, ()), "live arc unfiled"
    assert copies == engine._copies, "copy counter drift"
    for v in range(n):
        assert ind[v] == engine._ind[v], f"indeg drift at {v}"
        # the float definition of the band, bypassing the thresholds
        expect = float_band(engine.params, engine._w[v], engine._ind[v])
        assert engine._lvl[v] == expect, f"cached level drift at {v}"
        assert v in engine._layers[engine._lvl[v]], f"layer bucket drift at {v}"
    for level, members in engine._layers.items():
        assert members, f"empty layer bucket {level} retained"
    for v in range(n):
        for keys, end in ((engine._in[v], "head"), (engine._out[v], "tail")):
            for band, bucket in keys.items():
                assert bucket, f"empty label bucket {band} retained at {v}"
                for a in bucket:
                    assert a.count > 0, f"arc without copies filed at {v}"
                    assert getattr(a, end) == v and a.label_level == band


def saturated(engine) -> bool:
    """True when the load cap may be hiding a denser optimum: the test
    ``GridEntry.active`` and ``extract`` write out inline.  Always False for
    an unthresholded engine, whose trigger is infinite."""
    return engine.max_load() >= engine.saturation_trigger()


def exact_ddsg_density_squared(g: SmallGraph) -> Fraction:
    """Exact square of the optimum directed density, from the witness."""
    _, s, t = exact_ddsg(g)
    e = sum(m for (u, v), m in g.edges.items() if u in s and v in t)
    return Fraction(e * e, len(s) * len(t)) if e else Fraction(0)


def exact_reduced_density_squared(g: SmallGraph, t_squared: Fraction) -> Fraction:
    """Exact square of the doubled-graph optimum, parameterized by ``t**2``.

    Keeping ``t**2`` rational (grid guesses have rational squares) makes the
    reduction checks exact even though ``t`` itself is irrational.
    """
    e, a_left, a_right = _best_reduced(g, t_squared)
    if e == 0:
        return Fraction(0)
    # density = e / ((a_left / t + a_right * t) / 2)
    # density^2 = 4 e^2 t^2 / (a_left + a_right t^2)^2
    p, q = t_squared.numerator, t_squared.denominator
    return Fraction(4 * e * e * p * q, (a_left * q + a_right * p) ** 2)


def _best_reduced(g: SmallGraph, t_squared: Fraction) -> tuple[int, int, int]:
    """Maximizer profile (edges, left-size, right-size) of the doubled graph.

    Density order for fixed ``t``:  E1/w(S1) >= E2/w(S2)  iff
    E1*(aL2*q + aR2*p) >= E2*(aL1*q + aR1*p)  with t^2 = p/q, since
    w(S) = (aL/t + aR*t)/2.  Integer arithmetic throughout.
    """
    if not g.directed:
        raise ValueError("reduction expects a directed graph")
    if 2 * g.n > UNDIRECTED_CAP:
        raise ValueError(f"doubled vertex count {2 * g.n} exceeds cap {UNDIRECTED_CAP}")
    if not g.edges:
        return (0, 1, 0)
    p, q = t_squared.numerator, t_squared.denominator

    edge_cnt, sizes = _edge_counts(g)

    # float pre-pass over all (S_left, T_right) pairs; exact pass follows
    pf, qf = float(p), float(q)
    wval = sizes[:, None] * qf + sizes[None, :] * pf
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(wval > 0, edge_cnt / np.maximum(wval, 1e-300), -1.0)
    best = dens.max()
    cand_s, cand_t = np.nonzero(dens >= best - _NEAR_TIE * (abs(best) + 1))

    best_profile = (0, 1, 0)
    for sm, tm in zip(cand_s.tolist(), cand_t.tolist()):
        e = int(edge_cnt[sm, tm])
        al, ar = int(sizes[sm]), int(sizes[tm])
        be, bal, bar = best_profile
        cmp = e * (bal * q + bar * p) - be * (al * q + ar * p)
        if cmp > 0 or (cmp == 0 and e > be):
            best_profile = (e, al, ar)
    return best_profile


def reduction_grid_squared(n: int, eps: Fraction) -> list[Fraction]:
    """Squares of the geometric guess grid spanning [1/sqrt(n), sqrt(n)].

    Entries are ``s^j / n`` while below ``n``, with ``n`` (the square of the
    clamped top guess) appended exactly.  The step ``s`` is the reducer's
    exact ``ratio_step_squared``, so this grid is the one ``ratio_grid``
    builds in floats: every ratio in range is within a factor ``q`` of a
    guess, which loses at most ``1 - 2/(q + 1/q) = GRID_SHARE * eps``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    step = ratio_step_squared(float(eps))
    out = [Fraction(1, n)]
    while out[-1] * step < n:
        out.append(out[-1] * step)
    if out[-1] != n:
        out.append(Fraction(n))
    return out
