"""Traced mode: spans around the program's public functions, kept in memory.

:class:`Tracer` wraps each public entry point at its boundary and records
one span per call: its name, start, end, the span that called it, and the
timed stretch (event or set-up) it belongs to.  Nothing inside the program
changes; the wrappers are installed on the module and class attributes the
program and the benchmark look the functions up from, and removed again by
the function that :meth:`Tracer.install` returns.

``densedyn.reducer`` imports ``extract`` by name, so that reference is
patched next to the one in ``densedyn.extract``; likewise
``densedyn.engine`` holds its own reference to ``build_level_params``.
"""

from __future__ import annotations

import importlib
import json
from time import thread_time_ns

# (module, attribute or class.attribute, span name)
TARGETS = (
    ("densedyn.stream", "parse_stream", "stream.parse"),
    ("densedyn.engine", "build_level_params", "levels.build"),
    ("densedyn.reducer", "DirectedDensest.insert_directed", "reducer.insert"),
    ("densedyn.reducer", "DirectedDensest.delete_directed", "reducer.delete"),
    ("densedyn.reducer", "DirectedDensest.query", "reducer.query"),
    ("densedyn.engine", "OrientationEngine.insert", "engine.insert"),
    ("densedyn.engine", "OrientationEngine.delete", "engine.delete"),
    ("densedyn.extract", "extract", "extract"),
    ("densedyn.reducer", "extract", "extract"),
)


class Tracer:
    """Span recorder.  ``stretch`` is set by the caller before each timed
    stretch so that spans can be scaled by that stretch's calibration."""

    def __init__(self):
        # [name, start_ns, end_ns, parent span index, stretch, extra]
        self.spans: list[list] = []
        self.stretch = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.stretch, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = thread_time_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = thread_time_ns()
                stack.pop()
            if name == "extract":
                vs = out.vertices
                rec[5] = (args[0].n, len(vs), min(vs, default=-1), max(vs, default=-1))
            return out

        return traced

    def install(self):
        """Patch every target; returns a function that restores them."""
        saved = []
        for mod_name, attr, span in TARGETS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf]
            saved.append((owner, leaf, orig))
            setattr(owner, leaf, self.wrap(span, orig))

        def restore():
            for owner, leaf, orig in reversed(saved):
                setattr(owner, leaf, orig)

        return restore

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, stretch, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_cpu_ns": start, "end_cpu_ns": end,
                       "parent": parent, "stretch": stretch}
                if extra is not None:
                    rec["set_size"] = extra[1]
                fh.write(json.dumps(rec) + "\n")
