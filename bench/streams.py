"""Seeded update streams for the benchmark workloads, in the program's line format.

Each workload is a :class:`Workload` spec plus a generator that turns a seed
into stream text (``h``/``w``/``+``/``-``/``?`` lines, see
``densedyn.stream``).  The same seed always gives the same text.  Every
stream starts from an empty graph and never deletes an edge that is not live,
so no update is expected to fail.

Checkpoints are indices into the stream's query events; the driver checks
the answers at those queries against independent references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Shape of one seeded stream.

    ``kind`` picks the generator: ``"uniform"`` draws directed pairs
    uniformly, ``"skewed"`` draws undirected pairs from a hot core, an
    optional middle group and the whole vertex set.
    """

    name: str
    mode: str  # "ddsg" | "vwdsg"
    n: int
    epsilon: float
    updates: int
    query_every: int
    default_seed: int
    kind: str
    # uniform: live-edge target reached by the growth phase
    target: int = 0
    # skewed: group sizes and draw probabilities, ramp shape
    hot: int = 0
    hot_p: float = 0.0
    mid: int = 0
    mid_p: float = 0.0
    ramp: float = 0.6
    ramp_insert_p: float = 0.75
    tail_insert_p: float = 0.30
    live_cap: int = 0
    # how many evenly spaced query events get the full reference check
    checkpoints: int = 3
    # percentile reported as update_tail_ms; at least 10 update samples of
    # one round lie above it
    tail_pct: float = 95.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ddsg-grid",
            mode="ddsg",
            n=30,
            epsilon=0.2,
            updates=240,
            query_every=10,
            default_seed=11,
            kind="uniform",
            target=int(30**1.5),
            checkpoints=2,
            tail_pct=95.0,
        ),
        Workload(
            name="vwdsg-churn",
            mode="vwdsg",
            n=200,
            epsilon=0.2,
            updates=1200,
            query_every=10,
            default_seed=12,
            kind="skewed",
            hot=5,
            hot_p=0.65,
            mid=25,
            mid_p=0.25,
            ramp=0.6,
            ramp_insert_p=0.75,
            tail_insert_p=0.30,
            live_cap=700,
            checkpoints=4,
            tail_pct=99.0,
        ),
        Workload(
            name="vwdsg-monitor",
            mode="vwdsg",
            n=400,
            epsilon=0.5,
            updates=1500,
            query_every=1,
            default_seed=13,
            kind="skewed",
            hot=40,
            hot_p=0.5,
            ramp=0.5,
            ramp_insert_p=0.8,
            tail_insert_p=0.4,
            live_cap=1200,
            checkpoints=4,
            tail_pct=99.0,
        ),
    )
}


def stream_text(w: Workload, seed: int) -> str:
    """The workload's stream for ``seed``, ending with a query."""
    rng = random.Random(f"{w.name}:{seed}")
    lines = [f"h {w.n} {w.mode} {w.epsilon}"]
    if w.kind == "uniform":
        updates = _uniform(w, rng)
    else:
        # fixed layout: the hot core is vertices 0.., the middle group extends
        # it, and quarter-step weights in [1, 4] are dealt evenly by id; the
        # seed picks the edges
        weights = [1.0 + (5 * v % 13) / 4.0 for v in range(w.n)]
        lines += [f"w {v} {x}" for v, x in enumerate(weights)]
        updates = _skewed(w, rng)
    for i, (tag, u, v) in enumerate(updates, start=1):
        lines.append(f"{tag} {u} {v}")
        if i % w.query_every == 0 and i < len(updates):
            lines.append("?")
    lines.append("?")
    return "\n".join(lines) + "\n"


def _is_insert(step: int, share: float) -> bool:
    """Fixed insert/delete pattern: exactly ``share`` of a phase inserts."""
    return int((step + 1) * share) > int(step * share)


def _uniform(w: Workload, rng: random.Random) -> list[tuple[str, int, int]]:
    """Simple directed graph: grow towards ``target`` live edges, then churn."""
    live: list[tuple[int, int]] = []
    live_set: set[tuple[int, int]] = set()
    out = []
    grown_at = None
    while len(out) < w.updates:
        if grown_at is None and len(live) >= w.target:
            grown_at = len(out)
        # insert-only growth, then alternate deletes and inserts
        insert = grown_at is None or _is_insert(len(out) - grown_at, 0.5)
        if live and not insert:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            key = live.pop()
            live_set.discard(key)
            out.append(("-", *key))
            continue
        while True:
            u = rng.randrange(w.n)
            v = rng.randrange(w.n - 1)
            v += v >= u
            if (u, v) not in live_set:
                break
        live.append((u, v))
        live_set.add((u, v))
        out.append(("+", u, v))
    return out


def _skewed(w: Workload, rng: random.Random) -> list[tuple[str, int, int]]:
    """Undirected multigraph with a hot core: ramp up, then turn delete-heavy."""
    everyone = range(w.n)
    hot = range(w.hot)
    mid = range(w.mid)  # the middle group contains the hot core

    def pick() -> tuple[int, int]:
        r = rng.random()
        if r < w.hot_p:
            group = hot
        elif r < w.hot_p + w.mid_p:
            group = mid
        else:
            group = everyone
        u, v = rng.sample(group, 2)
        return (u, v) if u < v else (v, u)

    count: dict[tuple[int, int], int] = {}
    keys: list[tuple[int, int]] = []
    out = []
    ramp = int(w.updates * w.ramp)
    for step in range(w.updates):
        if step < ramp:
            insert = _is_insert(step, w.ramp_insert_p)
        else:
            insert = _is_insert(step - ramp, w.tail_insert_p)
        if keys and (not insert or len(keys) >= w.live_cap):
            i = rng.randrange(len(keys))
            key = keys[i]
            count[key] -= 1
            if count[key] == 0:
                del count[key]
                keys[i] = keys[-1]
                keys.pop()
            out.append(("-", *key))
        else:
            key = pick()
            if key not in count:
                count[key] = 0
                keys.append(key)
            count[key] += 1
            out.append(("+", *key))
    return out
