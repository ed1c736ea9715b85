"""Turn a maintained orientation into an explicit dense vertex set.

Vertices are scanned from the highest load band ``L_0`` downward, and each
band prefix ``L_0..L_j``, of weight ``W_j``, is a candidate.  It is usable
when it widens a narrower prefix by the engine's band-gap guarantee at a
weight cost of at most ``(1 + eps)^gap``: it then holds the tail of every arc
entering the narrow prefix, which makes its density competitive.  We return
the usable prefix of largest exactly recomputed density, the shallowest of
equal ones.

The narrow prefix of ``j`` is the shallowest ``i`` with
``W_j <= (1 + eps)^gap * W_i``; weights grow with depth, so one pointer that
only moves forward finds it.  Prefix ``j`` is usable iff
``c_j = min(L_j + gap, L_i)`` exceeds ``L_{j+1} + gap`` (the last band always
is), and its ``prefix_level`` is ``max(c_j - gap, 0)``.  Of the cut levels
``c`` that keep the bands ``>= c`` and widen to the bands ``>= c - gap``,
``c_j`` is the largest that widens to exactly prefix ``j`` from a narrow
prefix of at least ``i``.  So a scan that tries every cut from the top and
keeps the first strict maximum credits each prefix with ``c_j``, in the same
order, and returns the same vertex set, density and ``prefix_level``.

The scan stops as soon as no deeper prefix can beat the best so far.  Every
copy inside a set points into one of its vertices, so a set's density is at
most its total in-degree over ``dup * weight``.  Bands are in load order
(capped vertices sit only in the top band), so that average never rises as
the prefix deepens.  Once it drops below the best density (less a ``1e-9``
relative slack for float rounding), every later prefix loses the strict
comparison, so the answer is exactly the full scan's.

A scan leaves its answer, its ``epsilon`` and its floor on the engine: the
floor is the band below the last one scanned when the usability test read
it, and otherwise the last band scanned (the empty engine's floor is 0).
What the scan read lies in the bands at or above the floor: their members,
in-degrees and weights, the copies among them, the band keys down to the
floor, and the peak load, which sits in the top band.  The number of copies
is zero only while every vertex sits in band 0.  Each in-degree change
raises the engine's watermark to the higher of its vertex's two bands, and a
copy count changes only with its head's in-degree, so while the watermark
stays below the floor none of that has changed: a call with the same
``epsilon`` returns the stored answer without scanning.

Densities are reported per logical edge: stored copy counts are divided back
by the instance's duplication factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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
    """Best usable load-band prefix of the orientation: the last call's
    answer while no update has reached the bands its scan read."""
    last = engine.last_extract
    if last is not None and engine.touched_band < last[1] and last[0] == epsilon:
        return last[2]
    dup = engine.config.duplication
    peak = engine.max_load()
    upper = peak / dup
    valid = peak < engine.saturation_trigger()
    engine.touched_band = -1  # changes from here on count against this scan
    if engine.total_copies == 0:
        result = ExtractionResult(frozenset(), 0.0, upper, 0, valid)
        engine.last_extract = (epsilon, 0, result)
        return result

    levels = engine.layer_levels_desc()
    grow_cap = (1.0 + epsilon) ** GAP_BANDS
    # scanned vertices in scan order and the weight of each band prefix,
    # summed per vertex so the certified density is free of accumulation dust
    inside: dict[int, None] = {}
    cum_w: list[float] = []
    copies = indeg = 0  # copies and total in-degree of the scanned prefix
    wsum = 0.0
    narrow = 0
    best = None  # (density, prefix size, cut)
    for j, level in enumerate(levels):
        for v in sorted(engine.layer_members(level)):
            copies += engine.copies_to(v, inside)
            inside[v] = None
            wsum += engine.weight(v)
            indeg += engine.indeg(v)
        cum_w.append(wsum)
        while wsum > grow_cap * cum_w[narrow] * (1.0 + 1e-12):
            narrow += 1
        cut = min(level + GAP_BANDS, levels[narrow])
        if j + 1 == len(levels) or cut - GAP_BANDS > levels[j + 1]:
            density = copies / (dup * wsum)
            if best is None or density > best[0]:
                best = (density, len(inside), cut)
        if best is not None and indeg / (dup * wsum) < best[0] * (1.0 - 1e-9):
            break  # no prefix containing the scanned one can win

    density, size, cut = best
    result = ExtractionResult(
        vertices=frozenset(islice(inside, size)),
        certified_density=density,
        estimate_upper=upper,
        prefix_level=max(cut - GAP_BANDS, 0),
        valid=valid,
    )
    engine.last_extract = (epsilon, levels[min(j + 1, len(levels) - 1)], result)
    return result
