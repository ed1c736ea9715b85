"""Brute-force ground truth for small graphs.

Exhaustive maximization of undirected weighted density ``|E(S)| / w(S)`` and
directed density ``|E(S,T)| / sqrt(|S||T|)``.  Everything here is
deliberately independent of the dynamic data structures.  Densities are
compared in exact integer/rational arithmetic so tests never argue with
floating point.

Only intended for desk-scale instances (see the caps); used by tests and the
CLI verify/oracle commands.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

UNDIRECTED_CAP = 16
DIRECTED_CAP = 8

# Relative float slack under which two candidate densities are re-compared
# exactly before declaring a maximizer.
_NEAR_TIE = 1e-9


@dataclass
class SmallGraph:
    """Vertex-weighted graph with an edge multiset, undirected or directed.

    Weights default to 1 and are kept as exact rationals.  Directed edges are
    ordered pairs; undirected edges are stored with endpoints sorted.
    """

    n: int
    directed: bool = False
    weights: list[Fraction] | None = None
    edges: Counter = field(default_factory=Counter)

    def __post_init__(self):
        if self.weights is None:
            self.weights = [Fraction(1)] * self.n
        if len(self.weights) != self.n:
            raise ValueError("weights length must match vertex count")

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if not self.directed and u > v:
            u, v = v, u
        return (u, v)

    def add_edge(self, u: int, v: int, mult: int = 1):
        self.edges[self._key(u, v)] += mult

    def remove_edge(self, u: int, v: int, mult: int = 1):
        key = self._key(u, v)
        if self.edges[key] < mult:
            raise ValueError(f"removing absent edge {key}")
        self.edges[key] -= mult
        if self.edges[key] == 0:
            del self.edges[key]


def _subset_bits(n: int) -> np.ndarray:
    """(n, 2^n) matrix whose column m is the indicator vector of mask m."""
    masks = np.arange(1 << n, dtype=np.int64)
    return ((masks[None, :] >> np.arange(n, dtype=np.int64)[:, None]) & 1).astype(
        np.int64
    )


def _edge_counts(g: SmallGraph) -> tuple[np.ndarray, np.ndarray]:
    """``edge_cnt[s, t]``, the edge copies from mask ``s`` into mask ``t``,
    and the vertex count of every mask."""
    mult = np.zeros((g.n, g.n), dtype=np.int64)
    for (u, v), m in g.edges.items():
        mult[u, v] = m
    bits = _subset_bits(g.n)
    return bits.T @ (mult @ bits), bits.sum(axis=0)


def _mask_vertices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def exact_vwdsg(g: SmallGraph) -> tuple[float, set[int]]:
    """Maximize ``|E(S)| / w(S)`` over all nonempty subsets.

    Returns the optimum density and the lexicographically smallest witness
    (by sorted vertex tuple) among exact maximizers.
    """
    if g.directed:
        raise ValueError("exact_vwdsg expects an undirected graph")
    if g.n > UNDIRECTED_CAP:
        raise ValueError(f"vertex count {g.n} exceeds brute-force cap {UNDIRECTED_CAP}")
    if g.n == 0:
        return 0.0, set()

    # float pass for the bulk, exact pass over near-ties; the common
    # denominator of the weights can pass 2**63, so the exact weights stay
    # Python ints
    den = math.lcm(*(w.denominator for w in g.weights))
    w_int = [int(w * den) for w in g.weights]

    bits = _subset_bits(g.n)
    wsum = np.array([float(w) for w in g.weights]) @ bits
    esum = np.zeros(1 << g.n, dtype=np.int64)
    for (u, v), mult in g.edges.items():
        esum += mult * (bits[u] & bits[v])

    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(wsum > 0, esum / wsum, 0.0)
    best = dens.max()
    cand = np.nonzero(dens >= best - _NEAR_TIE * (abs(best) + 1))[0]

    best_e, best_w, best_vs = -1, 1, ()
    for m in cand.tolist():
        if m == 0:
            continue
        vs = _mask_vertices(m)
        e, w = int(esum[m]), sum(w_int[v] for v in vs)
        cmp = e * best_w - best_e * w
        if cmp > 0 or (cmp == 0 and vs < best_vs):
            best_e, best_w, best_vs = e, w, vs
    density = Fraction(best_e * den, best_w) if best_w else Fraction(0)
    return float(density), set(best_vs)


def exact_vwdsg_density(g: SmallGraph) -> Fraction:
    """Exact rational optimum of ``|E(S)| / w(S)``."""
    _, witness = exact_vwdsg(g)
    e = sum(m for (u, v), m in g.edges.items() if u in witness and v in witness)
    w = sum(g.weights[v] for v in witness)
    return Fraction(e, 1) / w if w else Fraction(0)


def exact_ddsg(g: SmallGraph) -> tuple[float, set[int], set[int]]:
    """Maximize ``|E(S,T)| / sqrt(|S||T|)`` over all nonempty pairs.

    ``S`` and ``T`` may overlap.  The witness is the lexicographically
    smallest ``(sorted(S), sorted(T))`` among exact maximizers.
    """
    if not g.directed:
        raise ValueError("exact_ddsg expects a directed graph")
    if g.n > DIRECTED_CAP:
        raise ValueError(f"vertex count {g.n} exceeds brute-force cap {DIRECTED_CAP}")
    if g.n == 0 or not g.edges:
        side = {0} if g.n else set()
        return 0.0, side, set(side)

    edge_cnt, sizes = _edge_counts(g)
    size_s = np.maximum(sizes[:, None], 1)
    size_t = np.maximum(sizes[None, :], 1)
    dens_sq = (edge_cnt.astype(np.float64) ** 2) / (size_s * size_t)
    dens_sq[0, :] = -1.0
    dens_sq[:, 0] = -1.0
    best = dens_sq.max()
    cand_s, cand_t = np.nonzero(dens_sq >= best - _NEAR_TIE * (best + 1))

    best_profile = None
    for sm, tm in zip(cand_s.tolist(), cand_t.tolist()):
        e = int(edge_cnt[sm, tm])
        ssz, tsz = int(sizes[sm]), int(sizes[tm])
        if best_profile is None:
            best_profile = (e, sm, tm)
            continue
        # exact comparison: e^2 / (ssz * tsz) vs current best
        be, bsm, btm = best_profile
        cmp = e * e * bin(bsm).count("1") * bin(btm).count("1") - be * be * ssz * tsz
        if cmp > 0:
            best_profile = (e, sm, tm)
        elif cmp == 0:
            cur = (_mask_vertices(sm), _mask_vertices(tm))
            old = (_mask_vertices(bsm), _mask_vertices(btm))
            if cur < old:
                best_profile = (e, sm, tm)
    e, sm, tm = best_profile
    s, t = _mask_vertices(sm), _mask_vertices(tm)
    return e / math.sqrt(len(s) * len(t)), set(s), set(t)


def check_alpha_beta_optimality(
    loads: dict[int, float],
    arcs: list[tuple[int, int, int]],
    alpha: float,
    beta: float,
    tol: float = 1e-9,
) -> bool:
    """True iff every live arc (tail, head, count) satisfies
    ``load(head) <= (1 + alpha) * load(tail) + beta``."""
    for tail, head, count in arcs:
        if count <= 0:
            continue
        if loads[head] > (1.0 + alpha) * loads[tail] + beta + tol:
            return False
    return True
