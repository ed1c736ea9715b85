"""Directed densest subgraph on top of a grid of weighted instances.

Every directed edge (u, v) is mirrored as the undirected edge {left copy of
u, right copy of v} in one bipartite weighted instance per guess ``t`` of the
optimal side ratio sqrt(|S|/|T|).  Guesses form a geometric (1 + eps) grid
over [1/sqrt(n), sqrt(n)], so some guess is always within (1 +/- eps) of the
truth and the corresponding instance's weighted optimum is within (1 - eps)
of the directed optimum.

Each guess runs two engines: a "low" one with duplicated edges and a load
cap, accurate until it saturates, and an uncapped "high" one without
duplication that takes over beyond the cap.  Query answers are always exact
densities of concrete vertex sets, so they never overshoot the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .engine import (
    DEFAULT_CAPACITY,
    DUP_C,
    INF,
    THRESHOLD_C,
    EngineConfig,
    OrientationEngine,
    duplication_factor,
    threshold_value,
)
from .extract import extract


def ratio_grid(n: int, eps: float) -> list[float]:
    """Geometric guess grid spanning [1/sqrt(n), sqrt(n)] inclusively.

    Entries are (1 + eps)^j / sqrt(n) while strictly below sqrt(n); the top
    endpoint is appended exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    root = math.sqrt(n)
    out = []
    j = 0
    # same stopping rule as the exact-rational grid: (1+eps)^(2j) < n^2
    while (1.0 + eps) ** (2 * j) < n * n:
        out.append((1.0 + eps) ** j / root)
        j += 1
    if not out or out[-1] != root:
        out.append(root)
    return out


@dataclass(frozen=True)
class GridParams:
    """Duplication, load cap and edge capacity shared by all instances of one
    grid.  Smaller ``dup_c``/``threshold_c`` than the engine defaults let
    desk-scale graphs reach the load cap."""

    dup_c: float = DUP_C
    threshold_c: float = THRESHOLD_C
    capacity: int = DEFAULT_CAPACITY


@dataclass
class GridEntry:
    """Both engines for one side-ratio guess."""

    t: float
    scale: float  # multiply an instance density by this to undo normalization
    low: OrientationEngine
    high: OrientationEngine

    def active(self) -> tuple[OrientationEngine, str]:
        if self.low.saturated():
            return self.high, "high"
        return self.low, "low"


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

    def __init__(self, n: int, epsilon: float, params: GridParams = GridParams()):
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.n = n
        self.epsilon = epsilon
        self.params = params
        self.dup = duplication_factor(n, epsilon, params.dup_c)
        self.cap = threshold_value(n, epsilon, params.threshold_c)
        low_config = EngineConfig(n=2 * n, epsilon=epsilon, threshold=self.cap,
                                  duplication=self.dup, capacity=params.capacity)
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

    def directed_edges(self) -> dict[tuple[int, int], int]:
        return dict(self._mirror)

    def _check_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")

    def insert_directed(self, u: int, v: int) -> None:
        """Insert directed edge (u, v) into every instance.

        All or nothing: every check runs before any structure changes.  Each
        low engine holds ``dup`` copies per edge and each high engine one, so
        the first low engine speaks for the capacity of all of them.
        """
        self._check_edge(u, v)
        if self.entries[0].low.total_copies + self.dup > self.params.capacity:
            raise ValueError("edge capacity exceeded")
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
            engine, regime = entry.active()
            bound = engine.max_load() / engine.config.duplication * entry.scale
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
