"""Command line front end: replay, verify, bench, and oracle modes.

The tuning constants are fixed in :mod:`densedyn.engine`; no flag sets them.
Every flag can also be set through an environment variable with the
``DENSEDYN_`` prefix (for example ``DENSEDYN_RUN_STREAM``).

Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import json
import sys

import click

from .stream import (
    StreamFormatError,
    StreamRunError,
    oracle_replay,
    parse_stream,
    random_stream_text,
    run,
    verify,
)

CONTEXT = {"auto_envvar_prefix": "DENSEDYN", "help_option_names": ["-h", "--help"]}


_stream = click.option("--stream", required=True, help="Stream file, or '-' for stdin.")
_out = click.option("--out", type=click.Path(dir_okay=False, writable=True),
                    default=None, help="Write the report here instead of stdout.")


_eps_override = click.option("--eps", type=float, default=None, help="Override header epsilon.")


def _read_stream(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail_input(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group(context_settings=CONTEXT)
def main() -> None:
    """Dynamic densest-subgraph toolkit."""


@main.command("run")
@_stream
@click.option("--timings/--no-timings", default=False, show_default=True,
              help="Include wall-clock phases in the summary (non-deterministic).")
@_eps_override
@_out
def run_cmd(stream, timings, eps, out):
    """Replay a stream and emit one JSON line per query plus a summary."""
    try:
        header, events = parse_stream(_read_stream(stream))
        report = run(header, events, eps)
    except (StreamFormatError, StreamRunError, ValueError) as exc:
        _fail_input(exc)
    _emit(report.to_jsonl(include_timings=timings), out)


@main.command("verify")
@_stream
@_eps_override
@_out
def verify_cmd(stream, eps, out):
    """Replay with brute-force cross-checks; exit 2 on any violation."""
    try:
        header, events = parse_stream(_read_stream(stream))
        report = verify(header, events, eps)
    except (StreamFormatError, StreamRunError, ValueError) as exc:
        _fail_input(exc)
    _emit(report.to_jsonl(), out)
    if not report.ok:
        sys.exit(2)


@main.command("bench")
@click.option("--n", type=int, default=100, show_default=True, help="Vertex count.")
@click.option("--events", type=int, default=10000, show_default=True, help="Update count.")
@click.option("--mode", type=click.Choice(["ddsg", "vwdsg"]), default="vwdsg", show_default=True)
@click.option("--query-every", type=int, default=0, show_default=True,
              help="Insert a query every this many updates (0: only at the end).")
@click.option("--timings/--no-timings", default=True, show_default=True)
@click.option("--eps", type=float, default=0.2, show_default=True,
              help="Epsilon written into the generated stream header.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the generated stream.")
@_out
def bench_cmd(n, events, mode, query_every, timings, eps, seed, out):
    """Generate a seeded random stream, replay it, and report counters."""
    try:
        text = random_stream_text(n, mode, eps, events, seed, query_every)
        header, evs = parse_stream(text)
        report = run(header, evs)
    except (StreamFormatError, StreamRunError, ValueError) as exc:
        _fail_input(exc)
    report.config["seed"] = seed
    _emit(report.to_jsonl(include_timings=timings), out)


@main.command("oracle")
@_stream
@_out
def oracle_cmd(stream, out):
    """Replay only the exhaustive oracle (desk-scale n) and report optima."""
    try:
        header, events = parse_stream(_read_stream(stream))
        records = oracle_replay(header, events)
    except (StreamFormatError, StreamRunError, ValueError) as exc:
        _fail_input(exc)
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    _emit(text, out)


if __name__ == "__main__":
    main()
