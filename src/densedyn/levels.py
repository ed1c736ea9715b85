"""Geometric load levels shared by the orientation machinery.

Loads are bucketed into bands ``(L[i-1], L[i]]`` where ``L[0] = 0`` and
``L[i] = (1 + alpha) * L[i-1] + 1``, so consecutive boundaries are at least 1
apart.  Band lookups are decided by the precomputed boundary table, never by
the closed form alone, so that every comparison in the system agrees about
boundary cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Absolute slack used when comparing a load against a stored boundary.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class LevelParams:
    """Immutable level table; safe to share read-only across threads."""

    alpha: float
    max_value: float
    boundaries: tuple[float, ...] = field(repr=False)

    @property
    def top_level(self) -> int:
        """Largest band index, i.e. the number of nonzero levels."""
        return len(self.boundaries) - 1

    def level_of(self, x: float) -> int:
        """Band index of ``x``: the unique ``i`` with ``L[i-1] < x <= L[i]``.

        Zero maps to level 0.  Raises ``ValueError`` outside
        ``[0, max_value]``.
        """
        if x < 0:
            raise ValueError(f"level_of: negative value {x}")
        if x > self.boundaries[-1] + BOUNDARY_TOL:
            raise ValueError(f"level_of: {x} exceeds max_value {self.max_value}")
        return self._first_at_least(x, 1.0)

    def level_of_ratio(self, num: float, den: float) -> int:
        """Band index of ``num / den`` without performing the division.

        Comparing ``num <= L[i] * den`` keeps loads stored as exact
        (in-degree, weight) pairs from flapping across a boundary that the
        divided value would straddle.
        """
        if num < 0 or den <= 0:
            raise ValueError(f"level_of_ratio: bad ratio {num}/{den}")
        if num > (self.boundaries[-1] + BOUNDARY_TOL) * den:
            raise ValueError(
                f"level_of_ratio: {num}/{den} exceeds max_value {self.max_value}"
            )
        return self._first_at_least(num, den)

    def _first_at_least(self, num: float, den: float) -> int:
        """Smallest ``i`` with ``num <= L[i] * den`` (within tolerance).

        The closed form ``L[i] = ((1 + alpha)^i - 1) / alpha`` gives a guess
        that is off by at most a step or two; the stored table decides.
        """
        b = self.boundaries
        top = len(b) - 1
        tol = BOUNDARY_TOL * den
        alpha = self.alpha
        i = math.ceil(math.log1p(alpha * num / den) / math.log1p(alpha))
        i = min(max(i, 0), top)
        while i < top and num > b[i] * den + tol:
            i += 1
        while i > 0 and num <= b[i - 1] * den + tol:
            i -= 1
        return i


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
    return LevelParams(alpha=alpha, max_value=max_value, boundaries=tuple(boundaries))
