"""References computed apart from the program, and the checks that use them.

The benchmark keeps its own multiset of live edges while it replays a
stream.  At checkpoints it recounts the density of each returned vertex set
from that multiset and compares the answer with the exact optimum from
Charikar's linear programs, solved with ``scipy.optimize.linprog`` (HiGHS).
Nothing here imports ``densedyn``.

* Weighted undirected: maximize ``sum m_e y_e`` subject to ``y_e <= x_u``,
  ``y_e <= x_v`` and ``sum w_v x_v = 1``.  The optimum equals the largest
  ``m(E(S)) / w(S)``.
* Directed: for a ratio ``c``, maximize ``sum m_e x_e`` subject to
  ``x_e <= s_u``, ``x_e <= t_v``, ``sum s = sqrt(c)`` and
  ``sum t = 1 / sqrt(c)``.  Every ratio's optimum is at most the largest
  ``m(E(S, T)) / sqrt(|S| |T|)``, and the ratio ``|S*| / |T*|`` of an
  optimal pair attains it, so the maximum over ``a / b`` with ``a`` at most
  the number of vertices with out-edges and ``b`` at most the number with
  in-edges is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Relative slack for comparing two floats that should agree.
SLACK = 1e-9


def recount_undirected(edges: dict, weights, vertices) -> float:
    """``m(E(S)) / w(S)`` from an undirected edge multiset ``{(u, v): m}``."""
    vs = set(vertices)
    if not vs:
        return 0.0
    inside = sum(m for (u, v), m in edges.items() if u in vs and v in vs)
    return inside / math.fsum(weights[v] for v in vs)


def recount_directed(edges: dict, sources, sinks) -> float:
    """``m(E(S, T)) / sqrt(|S| |T|)`` from a directed edge multiset."""
    s, t = set(sources), set(sinks)
    if not s or not t:
        return 0.0
    inside = sum(m for (u, v), m in edges.items() if u in s and v in t)
    return inside / math.sqrt(len(s) * len(t))


def _solve(c, a_ub, a_eq, b_eq) -> float:
    from scipy.optimize import linprog

    res = linprog(
        c, A_ub=a_ub, b_ub=[0.0] * a_ub.shape[0], A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs-ds",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


def _edge_rows(edges: dict, col_u: dict, col_v: dict, n_vars: int):
    """Rows ``x_e - s_u <= 0`` and ``x_e - t_v <= 0`` for every edge ``e``."""
    from scipy.sparse import coo_matrix

    rows, cols, vals = [], [], []
    for i, (u, v) in enumerate(edges):
        for r, col in ((2 * i, col_u[u]), (2 * i + 1, col_v[v])):
            rows += [r, r]
            cols += [i, col]
            vals += [1.0, -1.0]
    return coo_matrix((vals, (rows, cols)), shape=(2 * len(edges), n_vars)).tocsr()


def optimum_undirected(edges: dict, weights) -> float:
    """Exact weighted densest-subgraph density of ``{(u, v): m}``."""
    edges = {k: m for k, m in edges.items() if m > 0}
    if not edges:
        return 0.0
    verts = sorted({x for e in edges for x in e})
    col = {v: len(edges) + i for i, v in enumerate(verts)}
    n_vars = len(edges) + len(verts)
    a_ub = _edge_rows(edges, col, col, n_vars)
    a_eq = [[0.0] * len(edges) + [float(weights[v]) for v in verts]]
    c = [-float(m) for m in edges.values()] + [0.0] * len(verts)
    return _solve(c, a_ub, a_eq, [1.0])


def optimum_directed(edges: dict) -> float:
    """Exact directed densest-subgraph density of ``{(u, v): m}``."""
    edges = {k: m for k, m in edges.items() if m > 0}
    if not edges:
        return 0.0
    tails = sorted({u for u, _ in edges})
    heads = sorted({v for _, v in edges})
    col_s = {u: len(edges) + i for i, u in enumerate(tails)}
    col_t = {v: len(edges) + len(tails) + i for i, v in enumerate(heads)}
    n_vars = len(edges) + len(tails) + len(heads)
    a_ub = _edge_rows(edges, col_s, col_t, n_vars)
    a_eq = [
        [0.0] * len(edges) + [1.0] * len(tails) + [0.0] * len(heads),
        [0.0] * (len(edges) + len(tails)) + [1.0] * len(heads),
    ]
    c = [-float(m) for m in edges.values()] + [0.0] * (len(tails) + len(heads))
    ratios = {
        Fraction(a, b)
        for a in range(1, len(tails) + 1)
        for b in range(1, len(heads) + 1)
    }
    best = 0.0
    for r in ratios:
        root = math.sqrt(r)
        best = max(best, _solve(c, a_ub, a_eq, [root, 1.0 / root]))
    return best


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SLACK * max(abs(a), abs(b), 1.0)


def _at_most(a: float, b: float) -> bool:
    return a <= b + SLACK * max(abs(b), 1.0)


def check_undirected(answer: float, recount: float, upper: float, optimum: float) -> list[str]:
    """Problems with a weighted answer: its certified density must equal the
    recount of its set, and ``answer <= optimum <= upper`` must hold."""
    problems = []
    if not _close(answer, recount):
        problems.append(f"certified density {answer!r} != recount {recount!r}")
    if not _at_most(answer, optimum):
        problems.append(f"certified density {answer!r} above optimum {optimum!r}")
    if not _at_most(optimum, upper):
        problems.append(f"optimum {optimum!r} above estimate_upper {upper!r}")
    return problems


def check_directed(answer: float, recount: float, optimum: float) -> list[str]:
    """Problems with a directed answer: its density must equal the recount of
    its (sources, sinks) pair and must not exceed the optimum."""
    problems = []
    if not _close(answer, recount):
        problems.append(f"density estimate {answer!r} != recount {recount!r}")
    if not _at_most(answer, optimum):
        problems.append(f"density estimate {answer!r} above optimum {optimum!r}")
    return problems


def quality(answer: float, optimum: float) -> float:
    """Answer over optimum; 1 when both are zero."""
    if optimum <= 0.0:
        return 1.0 if answer <= 0.0 else math.inf
    return answer / optimum
