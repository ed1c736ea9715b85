"""Directed densest subgraph on top of a grid of weighted instances.

Every directed edge (u, v) is mirrored as the undirected edge {left copy of
u, right copy of v} in one bipartite weighted instance per guess ``t`` of the
optimal side ratio sqrt(|S|/|T|).  A guess off that ratio by a factor ``q``
scales the pair's density by ``2 / (q + 1/q)``, since
``|S|/c + c|T| >= 2 sqrt(|S||T|)``: it loses ``1 - 2/(q + 1/q)``, about
``(q - 1)^2 / 2``, which is second order in the step.  Guesses form a
geometric grid over [1/sqrt(n), sqrt(n)] that spends ``GRID_SHARE * eps`` of
the error budget: its step keeps every ratio within the factor ``q`` that
loses exactly that share, so the best guess's weighted optimum is within
``(1 - GRID_SHARE * eps)`` of the directed optimum.

Each guess runs two engines: a "low" one with duplicated edges and a load
cap, accurate until it saturates, and an uncapped "high" one without
duplication that takes over beyond the cap.  Query answers are always exact
densities of concrete vertex sets, so they never overshoot the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .engine import (
    GRID_SHARE,
    INF,
    EngineConfig,
    OrientationEngine,
    duplication_factor,
    threshold_value,
)
from .extract import extract


def ratio_step_squared(eps: float) -> Fraction:
    """The step of the guess grid in ``t^2``, as an exact rational.

    ``q`` solves ``q + 1/q = 2 / (1 - GRID_SHARE * eps)``, so a guess within
    a factor ``q`` of the true side ratio loses at most ``GRID_SHARE * eps``.
    A ``t^2`` step of ``q^4`` keeps every ratio between two guesses within
    that factor of one of them.  The step is ``q^4`` rounded down to a
    multiple of ``2^-20``, so float rounding in ``q`` cannot widen it, and
    its float is exact.
    """
    c = 2.0 / (1.0 - GRID_SHARE * eps)
    q = (c + math.sqrt((c - 2.0) * (c + 2.0))) / 2.0
    return Fraction(math.floor(q**4 * 2**20), 2**20)


def ratio_grid(n: int, eps: float) -> list[float]:
    """Geometric guess grid spanning [1/sqrt(n), sqrt(n)] inclusively.

    Entries are ``sqrt(s^j) / sqrt(n)`` for the step
    ``s = ratio_step_squared(eps)`` while strictly below sqrt(n); the top
    endpoint is appended exactly.  Every ratio in range is within that
    step's factor ``q`` of some entry, which then loses at most
    ``1 - 2/(q + 1/q) = GRID_SHARE * eps``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    root = math.sqrt(n)
    step = float(ratio_step_squared(eps))
    if step <= 1.0:
        raise ValueError(f"eps {eps} is too small: the ratio grid's step rounds to 1")
    out = []
    j = 0
    # same stopping rule as the exact-rational grid: s^j < n^2
    while step**j < n * n:
        out.append(math.sqrt(step**j) / root)
        j += 1
    if not out or out[-1] != root:
        out.append(root)
    return out


@dataclass
class GridEntry:
    """Both engines for one side-ratio guess."""

    t: float
    scale: float  # multiply an instance density by this to undo normalization
    low: OrientationEngine
    high: OrientationEngine

    def active(self) -> tuple[OrientationEngine, str, float]:
        """The engine to trust, its regime and its peak load.  The low
        engine's peak is read once, for its saturation test and the bound."""
        peak = self.low.max_load()
        if peak >= self.low.saturation_trigger():
            return self.high, "high", self.high.max_load()
        return self.low, "low", peak


@dataclass(frozen=True)
class DirectedQueryResult:
    """An explicit (sources, sinks) pair with its exact directed density."""

    density_estimate: float
    sources: frozenset[int]
    sinks: frozenset[int]
    winning_t: float
    regime: str


_EMPTY_RESULT = DirectedQueryResult(0.0, frozenset(), frozenset(), 0.0, "low")


class DirectedDensest:
    """Dynamic (1 - O(eps))-approximate directed densest subgraph."""

    def __init__(self, n: int, epsilon: float):
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.n = n
        self.epsilon = epsilon
        self.dup = duplication_factor(n, epsilon)
        # checked before the cap and the grid are built: at an eps where no
        # edge fits, eps**4 can underflow to 0 and the grid can hold millions
        # of guesses.  The top guess weighs its right side n, the largest
        # weight of any guess.
        EngineConfig(n=2 * n, epsilon=epsilon, duplication=self.dup).validate(n)
        self.cap = threshold_value(n, epsilon)
        low_config = EngineConfig(n=2 * n, epsilon=epsilon, threshold=self.cap,
                                  duplication=self.dup)
        high_config = replace(low_config, threshold=INF, duplication=1)
        self.entries: list[GridEntry] = []
        for t in ratio_grid(n, epsilon):
            if t < 1.0:
                w_left, w_right = 1.0 / (t * t), 1.0
            elif t > 1.0:
                w_left, w_right = 1.0, t * t
            else:
                w_left = w_right = 1.0
            weights = [w_left] * n + [w_right] * n
            scale = max(2.0 * t, 2.0 / t)
            self.entries.append(GridEntry(
                t=t,
                scale=scale,
                low=OrientationEngine(low_config, weights),
                high=OrientationEngine(high_config, weights),
            ))
        self._mirror: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------

    def _check_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")

    def insert_directed(self, u: int, v: int) -> None:
        """Insert directed edge (u, v) into every instance.

        All or nothing: every check runs before any structure changes.  Each
        low engine holds ``dup`` copies per edge and each high engine one, so
        the first call, the first low engine's insert, checks the capacity of
        all of them before it changes anything.
        """
        self._check_edge(u, v)
        left, right, dup = u, self.n + v, self.dup
        for entry in self.entries:
            entry.low.insert(left, right, dup)
            entry.high.insert(left, right, 1)
        self._mirror[(u, v)] = self._mirror.get((u, v), 0) + 1

    def delete_directed(self, u: int, v: int) -> None:
        """Delete directed edge (u, v) from every instance; all or nothing."""
        self._check_edge(u, v)
        count = self._mirror.get((u, v), 0)
        if count == 0:
            raise ValueError(f"directed edge ({u}, {v}) not present")
        left, right, dup = u, self.n + v, self.dup
        for entry in self.entries:
            entry.low.delete(left, right, dup)
            entry.high.delete(left, right, 1)
        if count == 1:
            del self._mirror[(u, v)]
        else:
            self._mirror[(u, v)] = count - 1

    # ------------------------------------------------------------------

    def query(self) -> DirectedQueryResult:
        """Best (sources, sinks) pair over the grid, with its exact density.

        Per guess, the low engine is consulted unless saturated.  A candidate
        whose extraction lands entirely on one side carries no directed edge
        and is skipped.  The reported density is recomputed from the true
        directed edge multiset, so it can only undershoot the optimum.

        Guesses are visited by descending bound ``max_load / dup * scale``,
        ties in grid order, and the visit stops once a bound falls below the
        best candidate (less a ``1e-9`` relative slack for float rounding).
        This is exact: an active low engine is unsaturated, so none of its
        loads is capped and no extraction can beat its engine's peak load.
        Equal candidates go to the earlier guess, as in a grid-order scan.
        """
        if not self._mirror:
            return _EMPTY_RESULT
        n = self.n
        order = []  # (-bound, grid index, engine, regime)
        for i, entry in enumerate(self.entries):
            engine, regime, peak = entry.active()
            bound = peak / engine.config.duplication * entry.scale
            order.append((-bound, i, engine, regime))
        order.sort(key=lambda o: o[:2])
        best = None  # (denormalized density, index, entry, regime, sources, sinks)
        for neg_bound, i, engine, regime in order:
            if best is not None and -neg_bound < best[0] * (1.0 - 1e-9):
                break
            entry = self.entries[i]
            res = extract(engine, self.epsilon)
            sources = {v for v in res.vertices if v < n}
            sinks = {v - n for v in res.vertices if v >= n}
            if not sources or not sinks:
                continue
            cand = res.certified_density * entry.scale
            if best is None or (cand, -i) > (best[0], -best[1]):
                best = (cand, i, entry, regime, sources, sinks)
        if best is None:
            return _EMPTY_RESULT
        _, _, entry, regime, sources, sinks = best
        edges = sum(
            mult
            for (u, v), mult in self._mirror.items()
            if u in sources and v in sinks
        )
        density = edges / math.sqrt(len(sources) * len(sinks))
        return DirectedQueryResult(
            density_estimate=density,
            sources=frozenset(sources),
            sinks=frozenset(sinks),
            winning_t=entry.t,
            regime=regime,
        )

    # ------------------------------------------------------------------

    def engines(self):
        for entry in self.entries:
            yield entry.low
            yield entry.high

    def combined_stats(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for eng in self.engines():
            for key, val in eng.stats.items():
                if key.startswith("max_"):
                    total[key] = max(total.get(key, 0), val)
                else:
                    total[key] = total.get(key, 0) + val
        return total
