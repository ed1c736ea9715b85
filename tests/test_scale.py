"""The guarantees at benchmark scale, against the benchmark's LPs.

The oracle tests stop at desk scale (n <= 8 directed, n <= 16 undirected).
Here a seeded n = 30, eps = 0.2 stream, the size of the ``ddsg-grid``
workload, is replayed through ``DirectedDensest``, and the ``vwdsg-churn``
workload's delete-heavy weighted stream, at seeds other than the
benchmark's, through one ``OrientationEngine``.  At each checkpoint the
answers are checked against the exact optima of Charikar's linear programs,
taken from the benchmark's own ``bench/checker.py`` so that there is one
reference, not two.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from densedyn.engine import EngineConfig, OrientationEngine, duplication_factor
from densedyn.extract import extract
from densedyn.reducer import DirectedDensest
from densedyn.stream import parse_stream, random_stream_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checker  # noqa: E402
from streams import WORKLOADS, stream_text  # noqa: E402


def test_directed_grid_at_benchmark_scale():
    n, eps = 30, 0.2
    _, events = parse_stream(random_stream_text(n, "ddsg", eps, 240, seed=1, query_every=80))
    g = DirectedDensest(n, eps)
    live: dict[tuple[int, int], int] = {}
    checked, prev = 0, None
    for ev in events:
        key = (ev.u, ev.v)
        if ev.kind == "insert":
            g.insert_directed(*key)
            live[key] = live.get(key, 0) + 1
        elif ev.kind == "delete":
            g.delete_directed(*key)
            live[key] -= 1
            if not live[key]:
                del live[key]
        elif prev != "query":  # the stream's closing query repeats the last state
            # each entry's instance is the doubled graph under its weights:
            # its certificate is exact, at most the LP optimum, which is at most
            # estimate_upper, and an unsaturated engine is within c2's (1 - eps)
            doubled = {(u, n + v): m for (u, v), m in live.items()}
            for entry in g.entries:
                engine, regime, _ = entry.active()
                weights = [engine.weight(v) for v in range(2 * n)]
                res = extract(engine, eps)
                opt = checker.optimum_undirected(doubled, weights)
                recount = checker.recount_undirected(doubled, weights, res.vertices)
                assert checker.check_undirected(
                    res.certified_density, recount, res.estimate_upper, opt) == [], entry.t
                if regime == "low":
                    assert res.certified_density >= (1 - eps) * opt, entry.t
            # the directed answer never exceeds the optimum and is within
            # c3's pinned (1 - eps)
            q = g.query()
            opt = checker.optimum_directed(live)
            recount = checker.recount_directed(live, q.sources, q.sinks)
            assert checker.check_directed(q.density_estimate, recount, opt) == []
            assert q.density_estimate >= (1 - eps) * opt
            checked += 1
        prev = ev.kind
    assert checked == 3


def test_breadth_first_settle_flips_at_benchmark_scale():
    # the same stream without its queries; rebalancing visits the touched
    # vertices first-in, first-out, so a vertex that just received copies
    # waits until the donor's other neighbours are seen.  A last-in,
    # first-out worklist relays them down one path instead: 52,507 flips and
    # 145,222 arcs scanned over these 240 updates
    n, eps = 30, 0.2
    _, events = parse_stream(random_stream_text(n, "ddsg", eps, 240, seed=1, query_every=80))
    g = DirectedDensest(n, eps)
    for ev in events:
        if ev.kind == "insert":
            g.insert_directed(ev.u, ev.v)
        elif ev.kind == "delete":
            g.delete_directed(ev.u, ev.v)
    stats = g.combined_stats()
    assert stats["flips"] <= 0.7 * 52_507
    assert stats["arcs_inc"] + stats["arcs_dec"] <= 145_222


@pytest.mark.parametrize("seed", [101, 202])
def test_weighted_deletes_at_benchmark_scale(seed):
    # n = 200, eps = 0.2, quarter-step weights in [1, 4]: the stream ramps up
    # and then deletes more than it inserts, so every delete's rebalancing
    # runs against a dense hot core.  The engine is the one ``densedyn run``
    # builds, each update moving the duplication factor's copies.
    header, events = parse_stream(stream_text(WORKLOADS["vwdsg-churn"], seed))
    eps, weights = header.epsilon, header.weight_list()
    dup = duplication_factor(header.n * max(weights), eps)
    engine = OrientationEngine(EngineConfig(n=header.n, epsilon=eps, duplication=dup), weights)
    queries = [i for i, ev in enumerate(events) if ev.kind == "query"]
    checks = {queries[(k + 1) * len(queries) // 4 - 1] for k in range(4)}
    live: dict[tuple[int, int], int] = {}
    checked = 0
    for i, ev in enumerate(events):
        key = (ev.u, ev.v)
        if ev.kind == "insert":
            engine.insert(*key, dup)
            live[key] = live.get(key, 0) + 1
        elif ev.kind == "delete":
            engine.delete(*key, dup)
            live[key] -= 1
            if not live[key]:
                del live[key]
        elif i in checks:
            res = extract(engine, eps)
            opt = checker.optimum_undirected(live, weights)
            recount = checker.recount_undirected(live, weights, res.vertices)
            assert checker.check_undirected(
                res.certified_density, recount, res.estimate_upper, opt) == [], i
            assert res.certified_density >= (1 - eps) * opt, i
            assert engine.verify_local_optimality() == [], i
            checked += 1
    assert checked == 4
    assert engine.stats["deletes"] > 0
