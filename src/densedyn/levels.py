"""Geometric load levels shared by the orientation machinery.

Loads are bucketed into bands ``(L[i-1], L[i]]`` where ``L[0] = 0`` and
``L[i] = (1 + alpha) * L[i-1] + 1``, so consecutive boundaries are at least 1
apart.  A band is decided by comparing against the stored boundaries, each
with the same absolute slack, so that every comparison in the system agrees
about boundary cases.  A boundary is computed when it is first read, and the
table ends at the top band, the first whose boundary reaches ``max_value``.
"""

from __future__ import annotations

# Absolute slack used when comparing a load against a stored boundary.
BOUNDARY_TOL = 1e-9


class LevelParams:
    """Level table of one engine; reads grow it, so engines do not share one."""

    def __init__(self, alpha: float, max_value: float):
        self.alpha = alpha
        self.max_value = max_value
        self.boundaries = [0.0]

    def boundary(self, i: int) -> float:
        """``L[i]``, stored on first read; IndexError past the top band."""
        b = self.boundaries
        while len(b) <= i and b[-1] < self.max_value - BOUNDARY_TOL:
            b.append((1.0 + self.alpha) * b[-1] + 1.0)
        return b[i]

    @property
    def top_level(self) -> int:
        """Largest band index, the number of nonzero levels; reading it grows
        the table to the top."""
        b = self.boundaries
        while b[-1] < self.max_value - BOUNDARY_TOL:
            self.boundary(len(b))
        return len(b) - 1


def build_level_params(alpha: float, max_value: float) -> LevelParams:
    """Level table covering ``[0, max_value]``, with O(log(max_value) / alpha)
    levels once it is read to the top."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if max_value < 1:
        raise ValueError(f"max_value must be at least 1, got {max_value}")
    return LevelParams(alpha, max_value)
