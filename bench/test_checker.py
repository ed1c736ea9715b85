"""Tests for the benchmark's own checker, plus a tiny run of every workload.

Run with ``PYTHONPATH=src python -m pytest bench``; they take a few seconds.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import random
from fractions import Fraction

import pytest

import checker
import replay
from streams import WORKLOADS, stream_text

from densedyn import oracle
from densedyn.engine import OrientationEngine
from densedyn.reducer import DirectedDensest

TINY = {
    "ddsg-grid": dict(n=6, updates=30, target=10),
    "vwdsg-churn": dict(n=12, updates=60, hot=3, mid=6, live_cap=30),
    "vwdsg-monitor": dict(n=16, updates=40, hot=5, live_cap=30),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def _random_graph(rng, n, directed, weighted):
    weights = [1.0 + rng.randrange(13) / 4.0 if weighted else 1.0 for _ in range(n)]
    edges: dict[tuple[int, int], int] = {}
    for _ in range(rng.randrange(1, 14)):
        u, v = rng.sample(range(n), 2)
        key = (u, v) if directed or u < v else (v, u)
        edges[key] = edges.get(key, 0) + 1
    return edges, weights


def test_streams_are_seeded():
    w = WORKLOADS["vwdsg-churn"]
    assert stream_text(w, 3) == stream_text(w, 3)
    assert stream_text(w, 3) != stream_text(w, 4)


@pytest.mark.parametrize("seed", range(4))
def test_lp_optima_match_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randrange(2, 7)
        edges, _ = _random_graph(rng, n, directed=True, weighted=False)
        g = oracle.SmallGraph(n=n, directed=True)
        for (u, v), m in edges.items():
            g.add_edge(u, v, m)
        assert checker.optimum_directed(edges) == pytest.approx(
            oracle.exact_ddsg(g)[0], rel=1e-12)

        edges, weights = _random_graph(rng, n, directed=False, weighted=True)
        g = oracle.SmallGraph(n=n, weights=[Fraction(x) for x in weights])
        for (u, v), m in edges.items():
            g.add_edge(u, v, m)
        assert checker.optimum_undirected(edges, weights) == pytest.approx(
            float(oracle.exact_vwdsg_density(g)), rel=1e-12)


def test_directed_check_rejects_density_inflated_by_one_edge():
    edges = {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 0): 1}
    sources, sinks = {0, 1}, {1, 2}
    recount = checker.recount_directed(edges, sources, sinks)
    assert recount == 3 / 2
    opt = checker.optimum_directed(edges)
    assert checker.check_directed(recount, recount, opt) == []
    inflated = recount + 1 / math.sqrt(len(sources) * len(sinks))
    assert checker.check_directed(inflated, recount, opt)


def test_undirected_check_rejects_set_whose_recount_differs():
    edges = {(0, 1): 3, (1, 2): 1, (2, 3): 1}
    weights = [1.0, 1.0, 2.0, 1.0]
    opt = checker.optimum_undirected(edges, weights)
    claimed = checker.recount_undirected(edges, weights, {0, 1})
    assert claimed == opt == 1.5
    assert checker.check_undirected(claimed, claimed, 2.0, opt) == []
    # the density of {0, 1} reported for the set {0, 1, 2}
    recount = checker.recount_undirected(edges, weights, {0, 1, 2})
    assert checker.check_undirected(claimed, recount, 2.0, opt)


def test_checks_reject_optimum_below_answer():
    assert checker.check_directed(1.5, 1.5, 1.4)
    assert checker.check_undirected(1.5, 1.5, 2.0, 1.4)
    # and an upper estimate below the optimum
    assert checker.check_undirected(1.5, 1.5, 1.4, 1.5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes(name):
    res = replay.run_workload(tiny(name), seed=1, seconds=0.0)
    assert res.correct, res.notes
    assert res.failed == 0 and res.attempted > 0
    assert [k for k, _ in replay.END_TO_END] == list(res.metrics)
    for m in res.metrics.values():
        assert math.isfinite(m["value"]) and m["value"] > 0
    assert res.metrics["quality_min"]["value"] == pytest.approx(1.0, rel=1e-9)


def test_tiny_traced_run_reports_every_layer_and_unpatches():
    insert = OrientationEngine.insert
    res = replay.run_workload(tiny("ddsg-grid"), seed=2, seconds=0.0, trace=True)
    assert res.correct, res.notes
    assert [k for k, _ in replay.PER_LAYER] == list(res.metrics)
    assert res.metrics["reducer.engine_calls_per_update"]["value"] == 2 * len(
        DirectedDensest(6, 0.2).entries)
    assert OrientationEngine.insert is insert


def test_run_rejects_planted_wrong_answers(monkeypatch):
    real_query = DirectedDensest.query

    def inflated_query(self):
        r = real_query(self)
        extra = 1 / math.sqrt(len(r.sources) * len(r.sinks)) if r.sources else 1.0
        return dataclasses.replace(r, density_estimate=r.density_estimate + extra)

    monkeypatch.setattr(DirectedDensest, "query", inflated_query)
    res = replay.run_workload(tiny("ddsg-grid"), seed=1, seconds=0.0)
    assert not res.correct
    monkeypatch.undo()

    extract_mod = importlib.import_module("densedyn.extract")

    real_extract = extract_mod.extract

    def wrong_set(engine, eps):
        r = real_extract(engine, eps)
        return dataclasses.replace(r, vertices=frozenset(range(engine.n)))

    monkeypatch.setattr(extract_mod, "extract", wrong_set)
    res = replay.run_workload(tiny("vwdsg-churn"), seed=1, seconds=0.0)
    assert not res.correct


def test_benchmark_json_matches_the_driver():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(replay.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(replay.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
