"""Timed, calibrated replay of one workload through densedyn's public API.

A run parses its seeded stream with ``stream.parse_stream`` and builds the
structure several times (set-up), then replays the whole stream in rounds,
each from an empty structure, until the time budget is spent:

* ``ddsg``: ``DirectedDensest.insert_directed`` / ``delete_directed`` /
  ``query`` with the default ``GridParams``;
* ``vwdsg``: ``OrientationEngine.insert`` / ``delete`` with the duplication
  factor, and ``extract`` for queries, configured as ``densedyn run`` does.

Every call is timed on its own, by the thread's CPU clock: the program is
single-threaded and does no I/O, and that clock leaves out the time the
thread is descheduled, which on a shared machine comes in bursts of
milliseconds.  The speed of the CPU itself also drifts by up to 2x within
seconds, so each timed stretch is scaled by a short pure-Python calibration
loop run right before it and its neighbours: a calibrated time is what the
stretch would take on a machine where :class:`Calibration` takes
``CALIB_NOMINAL_NS``.  Raw wall-clock figures are reported next to the
calibrated ones.

At checkpoint queries the answer is checked, outside the timed region,
against the benchmark's own edge multiset and the exact LP optimum
(:mod:`checker`).  The optimum depends only on the stream, so it is solved
once per run, after the first round; the peak RSS is read before that, so
the LP solver's memory is not counted.
"""

from __future__ import annotations

import gc
import importlib
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns, thread_time_ns

import checker
from spans import Tracer
from streams import Workload, stream_text

from densedyn import stream
from densedyn.engine import EngineConfig, OrientationEngine, duplication_factor
from densedyn.reducer import DirectedDensest

# The calibration loop: dict/set iterations, pointer-chasing steps over a
# ring of nodes larger than the CPU caches, the loop's time on the reference
# machine, and the half-width of the window of loops that scales a stretch.
CALIB_ITERS = 500
CHASE_STEPS = 400
RING_NODES = 1 << 16
CALIB_NOMINAL_NS = 200_000
CALIB_WINDOW = 2
# Set-ups per run; setup_s is their median.
SETUPS = 5

END_TO_END = (
    ("events_per_s", "events/s"),
    ("insert_p50_ms", "ms"),
    ("delete_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("quality_min", "ratio"),
)

PER_LAYER = (
    ("stream.parse_ms", "ms"),
    ("levels.build_ms", "ms"),
    ("reducer.fanout_self_ms", "ms"),
    ("reducer.engine_calls_per_update", "count"),
    ("reducer.query_self_ms", "ms"),
    ("reducer.candidate_yield", "ratio"),
    ("engine.insert_call_ms", "ms"),
    ("engine.delete_call_ms", "ms"),
    ("engine.copies_per_update", "count"),
    ("engine.flips_per_update", "count"),
    ("engine.arcs_scanned_per_update", "count"),
    ("engine.label_resets_per_update", "count"),
    ("engine.flip_yield", "ratio"),
    ("engine.max_chain", "count"),
    ("engine.bands", "count"),
    ("engine.copies_live", "count"),
    ("extract.call_ms", "ms"),
    ("extract.calls_per_query", "count"),
    ("extract.set_size", "count"),
    ("trace.events_per_s", "events/s"),
    ("trace.overhead_pct", "%"),
)


class _Cell:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _Node:
    __slots__ = ("nxt", "val")


class Calibration:
    """Fixed pure-Python work whose speed tracks the machine's.

    One part is dict lookups, set churn and slot attributes, which stay in
    the CPU caches; the other walks a shuffled ring of ``RING_NODES``
    objects, which misses them.  The program does both kinds of work, and
    the two parts together track its speed better than either alone.
    """

    def __init__(self):
        nodes = [_Node() for _ in range(RING_NODES)]
        order = list(range(RING_NODES))
        random.Random(5).shuffle(order)
        for i, k in enumerate(order):
            nodes[k].val = i
            nodes[k].nxt = nodes[order[(i + 1) % RING_NODES]]
        self._node = nodes[0]

    def run(self) -> int:
        cells = [_Cell() for _ in range(64)]
        index: dict[int, _Cell] = {}
        members: set[int] = set()
        total = 0
        for i in range(CALIB_ITERS):
            k = (i * 40503) & 1023
            cell = index.get(k)
            if cell is None:
                cell = index[k] = cells[k & 63]
            cell.count += 1
            if k in members:
                members.discard(k)
            else:
                members.add(k)
            total += cell.count
        node = self._node
        for _ in range(CHASE_STEPS):
            total += node.val
            node = node.nxt
        self._node = node
        return total


class Clock:
    """Times stretches of work, each right after a calibration loop.

    Stretch ``i`` runs between loops ``i`` and ``i + 1``.  It is scaled by
    ``CALIB_NOMINAL_NS`` over the median of loops ``i - CALIB_WINDOW`` to
    ``i + 1 + CALIB_WINDOW``, so a single disturbed loop does not count.
    """

    def __init__(self):
        self._loop = Calibration()
        self.calib: list[int] = []  # thread CPU ns of each calibration loop
        self.cpu: list[int] = []  # thread CPU ns of each stretch
        self.wall: list[int] = []  # wall-clock ns of each stretch
        self._c0 = self._w0 = 0

    def begin(self) -> int:
        """Calibrate, then start a stretch; returns its id."""
        c0 = thread_time_ns()
        self._loop.run()
        self.calib.append(thread_time_ns() - c0)
        self._w0 = perf_counter_ns()
        self._c0 = thread_time_ns()
        return len(self.cpu)

    def end(self) -> None:
        self.cpu.append(thread_time_ns() - self._c0)
        self.wall.append(perf_counter_ns() - self._w0)

    def factors(self) -> list[float]:
        """Scale factor of every stretch: nominal over nearby loop time."""
        c, w = self.calib, CALIB_WINDOW
        return [
            CALIB_NOMINAL_NS / statistics.median(c[max(0, i - w) : i + w + 2])
            for i in range(len(self.cpu))
        ]

    def seconds(self, ids, factors: list[float]) -> list[float]:
        """Calibrated times, in seconds, of the stretches ``ids``."""
        return [self.cpu[i] * factors[i] / 1e9 for i in ids]

    def wall_seconds(self, ids) -> list[float]:
        """Raw wall-clock times, in seconds, of the stretches ``ids``."""
        return [self.wall[i] / 1e9 for i in ids]


def build(header: stream.StreamHeader):
    """The structure ``densedyn run`` builds for this header."""
    if header.mode == "ddsg":
        return DirectedDensest(header.n, header.epsilon)
    weights = header.weight_list()
    dup = duplication_factor(header.n * max(weights), header.epsilon)
    return OrientationEngine(
        EngineConfig(n=header.n, epsilon=header.epsilon, duplication=dup), weights
    )


def engines(target) -> list[OrientationEngine]:
    return list(target.engines()) if isinstance(target, DirectedDensest) else [target]


@dataclass
class Checkpoint:
    """One checked query: the answer and what the benchmark recounted."""

    answer: float
    recount: float
    upper: float | None  # estimate_upper; None for ddsg
    problems: list[str]  # from the run itself: invalid answer, band violations


@dataclass
class Round:
    ids: dict[str, list[int]]  # stretch ids per event kind
    checkpoints: dict[int, Checkpoint]
    snapshots: dict[int, dict]  # live edges at each checkpoint
    failed: int
    target: object  # the structure at the end of the round
    traced: bool
    wall_s: float


def replay(header, events, checks: set[int], clock: Clock, tracer: Tracer | None,
           keep_snapshots: bool) -> Round:
    """Replay ``events`` once against a fresh structure."""
    _require_no_hooks()
    if tracer is not None:
        tracer.stretch = -1
    target = build(header)
    directed = header.mode == "ddsg"
    weights = header.weight_list()
    if directed:
        insert, delete, query = target.insert_directed, target.delete_directed, target.query
    else:
        dup = target.config.duplication
        eps = header.epsilon
        extract = importlib.import_module("densedyn.extract").extract

        def insert(u, v):
            target.insert(u, v, dup)

        def delete(u, v):
            target.delete(u, v, dup)

        def query():
            return extract(target, eps)

    ids = {"insert": [], "delete": [], "query": []}
    live: dict[tuple[int, int], int] = {}
    checkpoints: dict[int, Checkpoint] = {}
    snapshots: dict[int, dict] = {}
    failed = 0
    gc.collect()
    start = perf_counter()
    for i, ev in enumerate(events):
        kind = ev.kind
        sid = clock.begin()
        if tracer is not None:
            tracer.stretch = sid
        try:
            if kind == "insert":
                insert(ev.u, ev.v)
            elif kind == "delete":
                delete(ev.u, ev.v)
            else:
                res = query()
            ok = True
        except ValueError:
            ok = False
        clock.end()
        ids[kind].append(sid)
        if not ok:
            failed += 1
            continue
        if kind != "query":
            key = (ev.u, ev.v) if directed or ev.u < ev.v else (ev.v, ev.u)
            count = live.get(key, 0) + (1 if kind == "insert" else -1)
            if count:
                live[key] = count
            else:
                del live[key]
        elif i in checks:
            checkpoints[i] = _observe(res, directed, live, weights, target)
            if keep_snapshots:
                snapshots[i] = dict(live)
    wall = perf_counter() - start
    _require_no_hooks()
    return Round(ids, checkpoints, snapshots, failed, target, tracer is not None, wall)


def _observe(res, directed: bool, live: dict, weights, target) -> Checkpoint:
    problems = []
    for eng in engines(target):
        bad = eng.verify_local_optimality()
        if bad:
            problems.append(f"{len(bad)} band violations, first {bad[0]}")
    if directed:
        recount = checker.recount_directed(live, res.sources, res.sinks)
        return Checkpoint(res.density_estimate, recount, None, problems)
    if not res.valid:
        problems.append("extraction reported invalid")
    recount = checker.recount_undirected(live, weights, res.vertices)
    return Checkpoint(res.certified_density, recount, res.estimate_upper, problems)


def _require_no_hooks() -> None:
    """Timed replay must run without a trace or profile hook: one slows the
    calibration loop and the program differently."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("a trace or profile hook is installed; timings would be skewed")


def checkpoint_indices(events, count: int) -> set[int]:
    """``count`` evenly spaced query events, always including the last one."""
    queries = [i for i, ev in enumerate(events) if ev.kind == "query"]
    count = min(count, len(queries))
    return {queries[math.ceil((k + 1) * len(queries) / count) - 1] for k in range(count)}


def percentile(xs: list[float], pct: float) -> float:
    """Linear-interpolation percentile (``statistics.quantiles``, inclusive)."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=1000, method="inclusive")[round(pct * 10) - 1]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    notes: list[str]

    def line(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool = False,
                 trace_path: str | None = None) -> Result:
    """One benchmark run: set-ups, timed rounds, checks, metrics."""
    text = stream_text(w, seed)
    clock = Clock()
    tracer = Tracer() if trace else None
    restore = tracer.install() if tracer else None
    try:
        setup_ids = []
        for _ in range(SETUPS):
            gc.collect()
            sid = clock.begin()
            if tracer:
                tracer.stretch = sid
            header, events = stream.parse_stream(text)
            build(header)
            clock.end()
            setup_ids.append(sid)
        if restore:
            restore()
            restore = None
        checks = checkpoint_indices(events, w.checkpoints)

        # round 1 untraced: peak RSS, then the LP optima
        first = replay(header, events, checks, clock, None, keep_snapshots=True)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if header.mode == "ddsg":
            optima = {i: checker.optimum_directed(s) for i, s in first.snapshots.items()}
        else:
            weights = header.weight_list()
            optima = {i: checker.optimum_undirected(s, weights)
                      for i, s in first.snapshots.items()}
        first.snapshots.clear()

        rounds = [first]
        if tracer:
            restore = tracer.install()
        # a traced run measures only its traced rounds, and has at least one
        measured = 0.0 if tracer else first.wall_s
        while measured < seconds or len(rounds) == 1 and tracer:
            r = replay(header, events, checks, clock, tracer, keep_snapshots=False)
            rounds.append(r)
            measured += r.wall_s
    finally:
        if restore:
            restore()

    problems, quality = _check(rounds, optima)
    timed = [r for r in rounds if r.traced == trace]
    factors = clock.factors()
    attempted = sum(len(v) for r in rounds for v in r.ids.values())
    failed = sum(r.failed for r in rounds)
    notes = _describe(w, seed, header, events, rounds, timed, clock, checks, quality)
    notes += [f"CHECK FAILED: {p}" for p in problems[:20]]
    if trace:
        metrics = _per_layer(header, rounds, tracer, clock, factors, setup_ids)
        if trace_path:
            tracer.dump(trace_path)
            notes.append(f"spans written to {trace_path}")
    else:
        metrics = _end_to_end(w, timed, lambda ids: clock.seconds(ids, factors),
                              setup_ids, rss_mb, quality)
        raw = _end_to_end(w, timed, clock.wall_seconds, setup_ids, rss_mb, quality)
        notes.append("raw wall-clock, no bound: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in raw.items() if k.endswith(("_s", "_ms"))))
    return Result(not problems, attempted, failed, metrics, notes)


def _check(rounds: list[Round], optima: dict[int, float]) -> tuple[list[str], float]:
    problems = []
    quality = math.inf
    for n, r in enumerate(rounds):
        if set(r.checkpoints) != set(optima):
            problems.append(f"round {n}: checkpoints {sorted(r.checkpoints)} not answered")
        for i, cp in sorted(r.checkpoints.items()):
            opt = optima[i]
            if cp.upper is None:
                found = checker.check_directed(cp.answer, cp.recount, opt)
            else:
                found = checker.check_undirected(cp.answer, cp.recount, cp.upper, opt)
            problems += [f"round {n} event {i}: {p}" for p in cp.problems + found]
            quality = min(quality, checker.quality(cp.answer, opt))
    return problems, quality


def _ms(xs: list[float]) -> float:
    return statistics.median(xs) * 1e3 if xs else 0.0


def _end_to_end(w, timed, sec, setup_ids, rss_mb, quality) -> dict:
    ins = [t for r in timed for t in sec(r.ids["insert"])]
    dels = [t for r in timed for t in sec(r.ids["delete"])]
    qs = [t for r in timed for t in sec(r.ids["query"])]
    values = {
        "events_per_s": (len(ins) + len(dels) + len(qs)) / math.fsum(ins + dels + qs),
        "insert_p50_ms": _ms(ins),
        "delete_p50_ms": _ms(dels),
        "update_tail_ms": percentile(ins + dels, w.tail_pct) * 1e3,
        "query_p50_ms": _ms(qs),
        "setup_s": statistics.median(sec(setup_ids)),
        "peak_rss_mb": rss_mb,
        "quality_min": quality,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(header, rounds, tracer, clock, factors, setup_ids) -> dict:
    traced = [r for r in rounds if r.traced]
    spans = tracer.spans
    dur = lambda k: (spans[k][2] - spans[k][1]) * factors[spans[k][4]] / 1e6
    by_name: dict[str, list[int]] = {}
    for k, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(k)
    mean = lambda xs: math.fsum(xs) / len(xs) if xs else 0.0

    # time each stretch spent inside engine calls and inside extract
    inside = {"engine": {}, "extract": {}}
    for k, rec in enumerate(spans):
        group = "engine" if rec[0].startswith("engine.") else rec[0]
        if group in inside:
            inside[group][rec[4]] = inside[group].get(rec[4], 0) + rec[2] - rec[1]
    updates = [s for r in traced for s in r.ids["insert"] + r.ids["delete"]]
    queries = [s for r in traced for s in r.ids["query"]]
    outside = lambda ids, group: mean(
        [(clock.cpu[s] - inside[group].get(s, 0)) * factors[s] / 1e6 for s in ids])

    per_setup: dict[int, float] = {}
    for k in by_name.get("levels.build", []):
        per_setup[spans[k][4]] = per_setup.get(spans[k][4], 0.0) + dur(k)

    ext = [spans[k][5] for k in by_name.get("extract", [])]
    if header.mode == "ddsg":
        usable = [lo < n // 2 <= hi for n, _, lo, hi in ext]
    else:
        usable = [size > 0 for _, size, _, _ in ext]

    last = traced[-1]
    engs = engines(last.target)
    stats = lambda key: sum(e.stats[key] for e in engs)
    n_upd = len(last.ids["insert"]) + len(last.ids["delete"])
    scanned = stats("arcs_inc") + stats("arcs_dec")
    ev_s = lambda rs: sum(len(v) for r in rs for v in r.ids.values()) / math.fsum(
        t for r in rs for v in r.ids.values() for t in clock.seconds(v, factors))
    traced_eps = ev_s(traced)
    values = {
        "stream.parse_ms": statistics.median([dur(k) for k in by_name["stream.parse"]]),
        "levels.build_ms": statistics.median(per_setup[s] for s in setup_ids),
        "reducer.fanout_self_ms": outside(updates, "engine"),
        "reducer.engine_calls_per_update": (
            len(by_name.get("engine.insert", [])) + len(by_name.get("engine.delete", []))
        ) / len(updates),
        "reducer.query_self_ms": outside(queries, "extract"),
        "reducer.candidate_yield": mean(usable),
        "engine.insert_call_ms": mean([dur(k) for k in by_name.get("engine.insert", [])]),
        "engine.delete_call_ms": mean([dur(k) for k in by_name.get("engine.delete", [])]),
        "engine.copies_per_update": (stats("inserts") + stats("deletes")) / n_upd,
        "engine.flips_per_update": stats("flips") / n_upd,
        "engine.arcs_scanned_per_update": scanned / n_upd,
        "engine.label_resets_per_update": stats("label_resets") / n_upd,
        "engine.flip_yield": stats("flips") / scanned if scanned else 0.0,
        "engine.max_chain": max(
            max(e.stats["max_chain_inc"], e.stats["max_chain_dec"]) for e in engs),
        "engine.bands": max(e.level_count for e in engs),
        "engine.copies_live": sum(e.total_copies for e in engs),
        "extract.call_ms": mean([dur(k) for k in by_name.get("extract", [])]),
        "extract.calls_per_query": len(ext) / len(queries),
        "extract.set_size": mean([size for _, size, _, _ in ext]),
        "trace.events_per_s": traced_eps,
        "trace.overhead_pct": (ev_s([rounds[0]]) / traced_eps - 1.0) * 100.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _describe(w, seed, header, events, rounds, timed, clock, checks, quality) -> list[str]:
    kinds = [ev.kind for ev in events]
    calib = sorted(clock.calib)
    return [
        f"workload {w.name} seed {seed}: n={header.n} mode={header.mode} "
        f"eps={header.epsilon}, {kinds.count('insert')} inserts, "
        f"{kinds.count('delete')} deletes, {kinds.count('query')} queries per round",
        f"rounds: {len(rounds)} ({len(timed)} measured), wall "
        + ", ".join(f"{r.wall_s:.2f}s" for r in rounds),
        f"calibration: {len(calib)} loops, median {calib[len(calib) // 2] / 1e6:.3f} ms "
        f"(min {calib[0] / 1e6:.3f}, max {calib[-1] / 1e6:.3f}), "
        f"nominal {CALIB_NOMINAL_NS / 1e6:.3f} ms",
        f"checks: {len(checks)} checkpoints per round, quality_min {quality!r}",
    ]
