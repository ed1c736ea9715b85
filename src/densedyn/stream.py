"""Line-oriented update streams: parsing, replay, and oracle verification.

Stream format (whitespace separated, LF terminated)::

    h <n> <ddsg|vwdsg> <epsilon>   header, required first
    w <v> <weight>                 optional, vwdsg only, once per vertex, before
                                   any update; weight >= 1, n * weight finite
    + <u> <v>                      insert edge (directed in ddsg mode)
    - <u> <v>                      delete edge
    ?                              query

Replay is deterministic: identical stream and configuration produce a
byte-identical report (timings are kept out of the serialized form unless
explicitly requested).  ``run``, ``verify`` and ``oracle_replay`` share one
event loop, ``_replay``.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .engine import (
    ALPHA_C,
    DUP_C,
    LOOP_C,
    THRESHOLD_C,
    EngineConfig,
    OrientationEngine,
    duplication_factor,
)
from .extract import extract
from .reducer import DirectedDensest


class StreamFormatError(ValueError):
    """Malformed stream input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StreamRunError(RuntimeError):
    """An engine error while replaying, tagged with the event index."""


@dataclass(frozen=True)
class StreamHeader:
    n: int
    mode: str  # "ddsg" | "vwdsg"
    epsilon: float
    weights: dict[int, float] = field(default_factory=dict)

    def weight_list(self) -> list[float]:
        return [self.weights.get(v, 1.0) for v in range(self.n)]


@dataclass(frozen=True)
class UpdateEvent:
    kind: str  # "insert" | "delete" | "query"
    u: int = -1
    v: int = -1
    line: int = 0


def parse_stream(text: str) -> tuple[StreamHeader, list[UpdateEvent]]:
    """Parse a stream; raises StreamFormatError with a line number."""
    header = None
    weights: dict[int, float] = {}
    events: list[UpdateEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if header is None:
            if tag != "h":
                raise StreamFormatError(lineno, "expected header line 'h <n> <mode> <eps>'")
            if len(parts) != 4:
                raise StreamFormatError(lineno, "header needs exactly 3 fields after 'h'")
            try:
                n = int(parts[1])
                eps = float(parts[3])
            except ValueError:
                raise StreamFormatError(lineno, "header fields must be numeric") from None
            mode = parts[2]
            if mode not in ("ddsg", "vwdsg"):
                raise StreamFormatError(lineno, f"unknown mode {mode!r}")
            if n < 1:
                raise StreamFormatError(lineno, "vertex count must be positive")
            if not 0.0 < eps < 1.0:
                raise StreamFormatError(lineno, "epsilon must be in (0, 1)")
            header = (n, mode, eps)
            continue
        n, mode, eps = header
        if tag == "h":
            raise StreamFormatError(lineno, "duplicate header")
        if tag == "w":
            if mode != "vwdsg":
                raise StreamFormatError(lineno, "weight lines only allowed in vwdsg mode")
            if events:
                raise StreamFormatError(lineno, "weight lines must precede updates")
            if len(parts) != 3:
                raise StreamFormatError(lineno, "weight line needs 'w <v> <weight>'")
            try:
                v = int(parts[1])
                wt = float(parts[2])
            except ValueError:
                raise StreamFormatError(lineno, "weight fields must be numeric") from None
            if not 0 <= v < n:
                raise StreamFormatError(lineno, f"vertex {v} out of range")
            if v in weights:
                raise StreamFormatError(lineno, f"duplicate weight for vertex {v}")
            if not math.isfinite(n * wt):
                raise StreamFormatError(lineno, f"weight {wt} times n = {n} must be finite")
            if wt < 1.0:
                raise StreamFormatError(lineno, f"weight {wt} must be >= 1")
            weights[v] = wt
            continue
        if tag == "?":
            if len(parts) != 1:
                raise StreamFormatError(lineno, "query line takes no arguments")
            events.append(UpdateEvent("query", line=lineno))
            continue
        if tag in ("+", "-"):
            if len(parts) != 3:
                raise StreamFormatError(lineno, f"'{tag}' line needs two vertex ids")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise StreamFormatError(lineno, "vertex ids must be integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise StreamFormatError(lineno, f"vertex id out of range: {u}, {v}")
            if u == v:
                raise StreamFormatError(lineno, f"self-loop on vertex {u}")
            kind = "insert" if tag == "+" else "delete"
            events.append(UpdateEvent(kind, u, v, lineno))
            continue
        raise StreamFormatError(lineno, f"unknown line tag {tag!r}")
    if header is None:
        raise StreamFormatError(0, "empty stream: missing header")
    n, mode, eps = header
    return StreamHeader(n=n, mode=mode, epsilon=eps, weights=weights), events


def jsonl(records) -> str:
    """One JSON object per line, keys sorted: the form of every report."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


@dataclass
class RunReport:
    mode: str
    queries: list[dict]
    counters: dict[str, int]
    events: int
    timings: dict[str, float]
    config: dict

    def to_jsonl(self, include_timings: bool = False) -> str:
        summary = {
            "type": "summary",
            "mode": self.mode,
            "events": self.events,
            "queries": len(self.queries),
            "counters": self.counters,
            "config": self.config,
        }
        if include_timings:
            summary["timings"] = self.timings
        return jsonl([*self.queries, summary])


def _replay(events: list[UpdateEvent], insert, delete, query) -> None:
    """Apply each event in order; ``query`` gets the index of each query.

    Every ``ValueError`` is re-raised as a :class:`StreamRunError` naming the
    event index and its stream line.
    """
    for idx, ev in enumerate(events):
        try:
            if ev.kind == "insert":
                insert(ev.u, ev.v)
            elif ev.kind == "delete":
                delete(ev.u, ev.v)
            else:
                query(idx)
        except ValueError as exc:
            raise StreamRunError(f"event {idx} (line {ev.line}): {exc}") from exc


def _structure(header: StreamHeader, eps: float):
    """The dynamic structure for the stream's mode, as the callables a replay
    needs: ``(insert, delete, query, engines, counters)``.  ``query()``
    returns the estimate and the mode's own record fields."""
    if header.mode == "ddsg":
        grid = DirectedDensest(header.n, eps)

        def query_grid():
            res = grid.query()
            return res.density_estimate, {
                "sources": sorted(res.sources),
                "sinks": sorted(res.sinks),
                "winning_t": res.winning_t,
                "regime": res.regime,
            }

        return (grid.insert_directed, grid.delete_directed, query_grid,
                list(grid.engines()), grid.combined_stats)

    weights = header.weight_list()
    dup = duplication_factor(header.n * max(weights), eps)
    engine = OrientationEngine(EngineConfig(n=header.n, epsilon=eps, duplication=dup), weights)

    def query_engine():
        res = extract(engine, eps)
        return res.certified_density, {
            "vertices": sorted(res.vertices),
            "estimate_upper": res.estimate_upper,
            "prefix_level": res.prefix_level,
        }

    return (lambda u, v: engine.insert(u, v, dup), lambda u, v: engine.delete(u, v, dup),
            query_engine, [engine], lambda: dict(engine.stats))


def _oracle(header: StreamHeader, command: str):
    """Exact mirror of the stream's graph and its solver, at desk scale only.

    Returns the :class:`oracle.SmallGraph` to apply updates to, and a
    function giving its optimum and the mode's witness fields.
    """
    directed = header.mode == "ddsg"
    cap = oracle.DIRECTED_CAP if directed else oracle.UNDIRECTED_CAP
    if header.n > cap:
        raise ValueError(f"{command} needs n <= {cap} in {header.mode} mode, got {header.n}")
    if directed:
        mirror = oracle.SmallGraph(n=header.n, directed=True)

        def solve():
            opt, s, t = oracle.exact_ddsg(mirror)
            return opt, {"sources": sorted(s), "sinks": sorted(t)}
    else:
        weights = [Fraction(w) for w in header.weight_list()]
        mirror = oracle.SmallGraph(n=header.n, directed=False, weights=weights)

        def solve():
            opt, witness = oracle.exact_vwdsg(mirror)
            return opt, {"vertices": sorted(witness)}

    return mirror, solve


def _exact_density(mirror: oracle.SmallGraph, answer: dict) -> Fraction:
    """Exact density over ``mirror`` of a query's answer fields, squared for a
    directed pair so that it stays rational: ``|E(S, T)|^2 / (|S| |T|)`` of
    ``sources`` and ``sinks``, or ``|E(S)| / w(S)`` of ``vertices``.  An
    empty answer has density 0."""
    edges = mirror.edges.items()
    if mirror.directed:
        s, t = set(answer["sources"]), set(answer["sinks"])
        if not s or not t:
            return Fraction(0)
        e = sum(m for (u, v), m in edges if u in s and v in t)
        return Fraction(e * e, len(s) * len(t))
    vs = set(answer["vertices"])
    if not vs:
        return Fraction(0)
    e = sum(m for (u, v), m in edges if u in vs and v in vs)
    return e / sum(mirror.weights[v] for v in vs)


def _timed(fn, timings: dict[str, float], key: str):
    def call(*args):
        t0 = time.perf_counter()
        fn(*args)
        timings[key] += time.perf_counter() - t0

    return call


def _epsilon(header: StreamHeader, eps: float | None) -> float:
    """The header's epsilon, or the override ``eps`` once it passes the rule
    the header's own value passed in :func:`parse_stream` (NaN fails it)."""
    if eps is None:
        return header.epsilon
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps override must be in (0, 1), got {eps}")
    return eps


def run(header: StreamHeader, events: list[UpdateEvent], eps: float | None = None) -> RunReport:
    """Replay events against a fresh structure; collect per-query records.

    ``eps``, when given, overrides the header epsilon.  The summary's
    ``config`` echoes it along with the engine's tuning constants.
    """
    eps = _epsilon(header, eps)
    queries: list[dict] = []
    timings = {"build": 0.0, "updates": 0.0, "queries": 0.0}

    start = time.perf_counter()
    insert, delete, query, _, counters = _structure(header, eps)
    timings["build"] = time.perf_counter() - start

    def record(idx):
        estimate, fields = query()
        queries.append({"type": "query", "index": idx, "estimate": estimate, **fields})

    _replay(events, _timed(insert, timings, "updates"), _timed(delete, timings, "updates"),
            _timed(record, timings, "queries"))
    return RunReport(
        mode=header.mode,
        queries=queries,
        counters=counters(),
        events=len(events),
        timings=timings,
        config={"n": header.n, "mode": header.mode, "eps": eps, "alpha_c": ALPHA_C,
                "loop_c": LOOP_C, "dup_c": DUP_C, "threshold_c": THRESHOLD_C},
    )


# ----------------------------------------------------------------------
# oracle-backed verification


@dataclass
class VerifyReport:
    ok: bool
    queries: list[dict]
    worst_ratio: float
    violations: int
    counters: dict[str, int]

    def to_jsonl(self) -> str:
        summary = {
            "type": "verify-summary",
            "ok": self.ok,
            "queries": len(self.queries),
            "worst_ratio": self.worst_ratio,
            "violations": self.violations,
            "counters": self.counters,
        }
        return jsonl([*self.queries, summary])


def verify(header: StreamHeader, events: list[UpdateEvent], eps: float | None = None) -> VerifyReport:
    """Replay with a brute-force oracle cross-check at every query.

    Requires desk-scale n.  Reports the worst ratio of the returned set's
    density to the optimum, both exact over the oracle's mirror (a directed
    pair's is the square root of the exact ratio of squares), flags any
    estimate exceeding the optimum, and runs the band-inequality and
    local-optimality checkers on every instance at every query point.
    ``eps``, when given, overrides the header epsilon.
    """
    eps = _epsilon(header, eps)
    mirror, solve = _oracle(header, "verify")
    insert, delete, query, engines, counters = _structure(header, eps)
    queries: list[dict] = []

    def apply_insert(u, v):
        mirror.add_edge(u, v)
        insert(u, v)

    def apply_delete(u, v):
        mirror.remove_edge(u, v)
        delete(u, v)

    def check(idx):
        estimate, answer = query()
        opt, witness = solve()
        sound = estimate <= opt + 1e-9
        got, best = _exact_density(mirror, answer), _exact_density(mirror, witness)
        ratio = float(got / best) if best else 1.0  # no answer beats an optimum of 0
        if mirror.directed:
            ratio = math.sqrt(ratio)
        bad_arcs = 0
        local_ok = True
        for eng in engines:
            bad_arcs += len(eng.verify_local_optimality())
            a = eng.alpha
            alpha_eff = (1.0 + a) ** 8 - 1.0
            beta_eff = alpha_eff / a
            loads, arcs = eng.snapshot()
            if not oracle.check_alpha_beta_optimality(loads, arcs, alpha_eff, beta_eff):
                local_ok = False
        queries.append(
            {
                "type": "verify-query",
                "index": idx,
                "estimate": estimate,
                "optimum": opt,
                "ratio": ratio,
                "sound": sound,
                "bad_arcs": bad_arcs,
                "locally_optimal": local_ok,
            }
        )

    _replay(events, apply_insert, apply_delete, check)
    violations = sum(
        1 for q in queries if not q["sound"] or q["bad_arcs"] or not q["locally_optimal"]
    )
    return VerifyReport(
        ok=violations == 0,
        queries=queries,
        worst_ratio=min((q["ratio"] for q in queries), default=1.0),
        violations=violations,
        counters=counters(),
    )


def oracle_replay(header: StreamHeader, events: list[UpdateEvent]) -> list[dict]:
    """Replay only the exact oracle; one record per query event."""
    mirror, solve = _oracle(header, "oracle replay")
    out: list[dict] = []

    def query(idx):
        opt, fields = solve()
        out.append({"type": "oracle-query", "index": idx, "optimum": opt, **fields})

    _replay(events, mirror.add_edge, mirror.remove_edge, query)
    return out


# ----------------------------------------------------------------------
# random stream generation (bench mode and tests)


def random_stream_text(
    n: int,
    mode: str,
    eps: float,
    events: int,
    seed: int,
    query_every: int = 0,
) -> str:
    """Seeded random update stream in the line format above.

    Inserts and deletes hover around ``max(4, int(n**1.5))`` live edges, with a
    query every ``query_every`` updates when requested.
    """
    rng = random.Random(seed)
    pool_target = max(4, int(n**1.5))
    lines = [f"h {n} {mode} {eps}"]
    live: list[tuple[int, int]] = []
    live_set: set[tuple[int, int]] = set()
    emitted = 0
    while emitted < events:
        do_insert = not live or (len(live) < pool_target and rng.random() < 0.7) or (
            len(live) >= pool_target and rng.random() < 0.3
        )
        if do_insert:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            if mode == "vwdsg" and u > v:
                u, v = v, u
            key = (u, v)
            if key in live_set:
                continue
            live.append(key)
            live_set.add(key)
            lines.append(f"+ {u} {v}")
        else:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            u, v = live.pop()
            live_set.discard((u, v))
            lines.append(f"- {u} {v}")
        emitted += 1
        if query_every and emitted % query_every == 0:
            lines.append("?")
    lines.append("?")
    return "\n".join(lines) + "\n"
