"""Turn a maintained orientation into an explicit dense vertex set.

Vertices are scanned from the highest load band downward.  A cut is usable
when widening it by the engine's band-gap guarantee grows the total weight by
at most a ``(1 + eps)^gap`` factor; the widened prefix then contains the tail
of every arc entering the narrow prefix, which is what makes its density
competitive.  Among all usable cuts we return the one whose exactly
recomputed density is largest.

The scan is output-sensitive: it stops as soon as no deeper prefix can beat
the best cut found so far.  Every copy inside a set points into one of its
vertices, so a set's density is at most its total in-degree over
``dup * weight``.  Bands are in load order (capped vertices sit only in the
top band), so each band added to the prefix has lower loads than every
vertex already in it, and that average never rises as the prefix deepens.
Once it drops below the best density (less a ``1e-9`` relative slack for
float rounding), every later cut loses the strict comparison, so the answer
is exactly the full scan's.

Densities are reported per logical edge: stored copy counts are divided back
by the instance's duplication factor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .engine import OrientationEngine

# Width of the prefix extension, matching the engine's worst-case band gap
# between the endpoints of a live arc.
GAP_BANDS = 7


@dataclass(frozen=True)
class ExtractionResult:
    """A concrete vertex set with its exact induced density.

    ``certified_density`` is recomputed from the stored edges and never
    exceeds ``estimate_upper`` (the peak load divided by the duplication
    factor) except on a saturated thresholded instance, where ``valid`` is
    False and the numbers are not trustworthy.
    """

    vertices: frozenset[int]
    certified_density: float
    estimate_upper: float
    prefix_level: int
    valid: bool = True


def extract(engine: OrientationEngine, epsilon: float) -> ExtractionResult:
    """Best usable load-band prefix of the orientation."""
    dup = engine.config.duplication
    upper = engine.max_load() / dup
    valid = not engine.saturated()
    if engine.total_copies == 0:
        return ExtractionResult(frozenset(), 0.0, upper, 0, valid)

    levels = engine.layer_levels_desc()
    neg = [-lv for lv in levels]  # ascending, for prefix lookups

    def prefix_index(cut: int) -> int:
        """Index of the deepest band >= cut, or -1 if the prefix is empty."""
        return bisect_right(neg, -cut) - 1

    grow_cap = (1.0 + epsilon) ** GAP_BANDS
    top = levels[0]
    cuts = sorted(
        {lv for lv in levels} | {min(lv + GAP_BANDS, top) for lv in levels},
        reverse=True,
    )

    # Sorted members, cumulative weight and internal copy count of each band
    # prefix scanned so far; weights summed per vertex so the certified
    # density is free of accumulation dust
    members: list[list[int]] = []
    cum_w: list[float] = []
    cum_copies: list[int] = []
    inside: set[int] = set()
    copies = 0
    wsum = 0.0
    indeg = 0  # total in-degree of the scanned prefix

    best = None  # (density, extended index, cut)
    for cut in cuts:
        narrow = prefix_index(cut)
        if narrow < 0:
            continue
        if best is not None and indeg / (dup * wsum) < best[0] * (1.0 - 1e-9):
            break  # no prefix containing the scanned one can win
        wide = prefix_index(max(cut - GAP_BANDS, 0))
        while len(members) <= wide:
            verts = sorted(engine.layer_members(levels[len(members)]))
            for v in verts:
                for nb in engine.neighbors(v):
                    if nb in inside:
                        copies += engine.pair_copies(v, nb)
                inside.add(v)
                wsum += engine.weight(v)
                indeg += engine.indeg(v)
            members.append(verts)
            cum_w.append(wsum)
            cum_copies.append(copies)
        if cum_w[wide] > grow_cap * cum_w[narrow] * (1.0 + 1e-12):
            continue
        density = cum_copies[wide] / (dup * cum_w[wide])
        if best is None or density > best[0]:
            best = (density, wide, cut)

    density, wide, cut = best
    chosen: set[int] = set()
    for verts in members[: wide + 1]:
        chosen.update(verts)
    return ExtractionResult(
        vertices=frozenset(chosen),
        certified_density=density,
        estimate_upper=upper,
        prefix_level=max(cut - GAP_BANDS, 0),
        valid=valid,
    )


def induced_density(engine: OrientationEngine, vertices) -> float:
    """Exact logical density of ``vertices``: stored copies inside the set
    divided by duplication, over total vertex weight."""
    vs = set(vertices)
    if not vs:
        raise ValueError("induced_density of an empty set is undefined")
    for v in vs:
        if not 0 <= v < engine.n:
            raise ValueError(f"vertex {v} out of range")
    copies = 0
    for v in vs:
        for nb in engine.neighbors(v):
            if nb > v and nb in vs:
                copies += engine.pair_copies(v, nb)
    weight = sum(engine.weight(v) for v in vs)
    return copies / (engine.config.duplication * weight)
