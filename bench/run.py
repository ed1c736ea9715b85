"""Benchmark driver for densedyn: calibrated, layer-by-layer replay timings.

One workload, printing a JSON result as the last line::

    python3 bench/run.py --workload ddsg-grid --seed 11 --seconds 10 --trace 0

Every workload, each in its own fresh process, with its default seed::

    python3 bench/run.py

``--trace 1`` reports the per-layer metrics from a traced run instead of the
end-to-end ones and writes the spans to ``bench/out/``.  See
``bench/README.md`` for the workloads, the metrics and reference figures.

The program is imported from ``src/`` of the checkout this file sits in;
without it the driver exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _load_program():
    """Import densedyn from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import densedyn
    except ImportError as exc:
        sys.exit(f"bench: cannot import densedyn from {SRC}: {exc}")
    found = os.path.dirname(os.path.dirname(os.path.abspath(densedyn.__file__)))
    if found != SRC:
        sys.exit(f"bench: densedyn was imported from {found}, not {SRC}")


def _one(args) -> int:
    _load_program()
    from replay import run_workload
    from streams import WORKLOADS

    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    trace_path = None
    if args.trace:
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"spans-{w.name}-{seed}.jsonl")
    result = run_workload(w, seed, args.seconds, bool(args.trace), trace_path)
    for note in result.notes:
        print(note)
    for name, m in result.metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result.line()), flush=True)
    return 0 if result.correct else 1


def _all(args) -> int:
    """Run every workload in a child process of its own, one after another."""
    from streams import WORKLOADS

    status = 0
    table = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        table[name] = json.loads(lines[-1])
    print(json.dumps(table), flush=True)
    return status


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    from streams import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=None,
                   help="stream seed (default: the workload's own, see README)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="replay rounds continue until this much time is measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    args = p.parse_args(argv)
    return _one(args) if args.workload else _all(args)


if __name__ == "__main__":
    sys.exit(main())
