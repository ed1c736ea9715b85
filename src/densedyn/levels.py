"""Geometric load levels shared by the orientation machinery.

Loads are bucketed into bands ``(L[i-1], L[i]]`` where ``L[0] = 0`` and
``L[i] = (1 + alpha) * L[i-1] + 1``, so consecutive boundaries are at least 1
apart.  A boundary is computed when it is first read, and the table ends at
the top band, the first whose boundary reaches ``max_value``.

The band of an in-degree ``ind`` at vertex weight ``w`` (a load of
``ind / w``) is the smallest ``i`` with ``ind <= L[i] * w + BOUNDARY_TOL * w``,
and the top band, whose boundary is a capped engine's cap, takes every larger
in-degree.  Each boundary carries the same absolute slack, so every
comparison in the system agrees about boundary cases.  For an integer ``ind``
the test is ``ind <= thr[i]`` with ``thr[i] = floor(L[i] * w + BOUNDARY_TOL *
w)`` in the same float operations, and ``thr[top] = inf``: one integer list
per distinct weight, which :meth:`LevelParams.extend` grows as far as it is
read.
"""

from __future__ import annotations

import math

# Absolute slack used when comparing a load against a stored boundary.
BOUNDARY_TOL = 1e-9


class LevelParams:
    """Level table of one engine; reads grow it, so engines do not share one."""

    def __init__(self, alpha: float, max_value: float):
        self.alpha = alpha
        self.max_value = max_value
        self.boundaries = [0.0]

    def extend(self, thr: list, w: float, ind: float) -> None:
        """Append to the threshold list ``thr`` of weight ``w`` until an
        entry reaches ``ind``, or up to the top band's ``inf``, storing every
        boundary it reads for the first time.  The recurrence runs inline
        here, in one loop for all the bands a lookup needs."""
        bounds = self.boundaries
        grow = 1.0 + self.alpha
        top = self.max_value - BOUNDARY_TOL
        tol = BOUNDARY_TOL * w
        floor = math.floor
        i = len(thr)
        while True:
            if i < len(bounds):
                b = bounds[i]
            else:  # bounds[-1] is below the top, or thr would end in inf
                b = grow * bounds[-1] + 1.0
                bounds.append(b)
            if b >= top:
                thr.append(math.inf)
                return
            t = floor(b * w + tol)
            thr.append(t)
            if t >= ind:
                return
            i += 1

    @property
    def top_level(self) -> int:
        """Largest band index, the number of nonzero levels; reading it grows
        the table to the top."""
        b = self.boundaries
        if b[-1] < self.max_value - BOUNDARY_TOL:  # the top is not stored yet
            self.extend([], 1.0, math.inf)
        return len(b) - 1


def build_level_params(alpha: float, max_value: float) -> LevelParams:
    """Level table covering ``[0, max_value]``, with O(log(max_value) / alpha)
    levels once it is read to the top."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if max_value < 1:
        raise ValueError(f"max_value must be at least 1, got {max_value}")
    return LevelParams(alpha, max_value)
