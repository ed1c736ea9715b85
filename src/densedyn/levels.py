"""Geometric load levels shared by the orientation machinery.

Loads are bucketed into bands ``(L[i-1], L[i]]`` where ``L[0] = 0`` and
``L[i] = (1 + alpha) * L[i-1] + 1``, so consecutive boundaries are at least 1
apart.  A band is decided by comparing against the stored boundaries, each
with the same absolute slack, so that every comparison in the system agrees
about boundary cases.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

# Absolute slack used when comparing a load against a stored boundary.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class LevelParams:
    """Immutable level table; safe to share read-only across threads."""

    max_value: float
    boundaries: tuple[float, ...] = field(repr=False)

    @property
    def top_level(self) -> int:
        """Largest band index, i.e. the number of nonzero levels."""
        return len(self.boundaries) - 1

    def level_of(self, x: float) -> int:
        """Band index of ``x``: the smallest ``i`` with ``x <= L[i]`` (within
        tolerance), i.e. the ``i`` with ``L[i-1] < x <= L[i]``.

        Zero maps to level 0.  Raises ``ValueError`` outside
        ``[0, max_value]``, and for NaN.
        """
        if not 0 <= x <= self.boundaries[-1] + BOUNDARY_TOL:
            raise ValueError(f"level_of: {x} outside [0, max_value {self.max_value}]")
        return bisect_left(self.boundaries, x, key=lambda b: b + BOUNDARY_TOL)


def build_level_params(alpha: float, max_value: float) -> LevelParams:
    """Build the boundary table covering ``[0, max_value]``.

    The table has the minimal number of levels whose top boundary reaches
    ``max_value``; its size is O(log(max_value) / alpha).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if max_value < 1:
        raise ValueError(f"max_value must be at least 1, got {max_value}")
    boundaries = [0.0]
    cur = 0.0
    while cur < max_value - BOUNDARY_TOL:
        cur = (1.0 + alpha) * cur + 1.0
        boundaries.append(cur)
    return LevelParams(max_value=max_value, boundaries=tuple(boundaries))
