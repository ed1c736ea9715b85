"""Dynamic densest-subgraph toolkit.

Maintains a (1 - O(eps))-approximate directed densest subgraph under edge
insertions and deletions, built from a vertex-weighted edge-orientation
engine, with an exhaustive oracle and a stream-replay CLI for verification.
"""

from .engine import (
    EngineConfig,
    INF,
    OrientationEngine,
    duplication_factor,
    threshold_value,
)
from .extract import ExtractionResult, extract
from .levels import LevelParams, build_level_params
from .reducer import (
    DirectedDensest,
    DirectedQueryResult,
    ratio_grid,
)

__all__ = [
    "DirectedDensest",
    "DirectedQueryResult",
    "EngineConfig",
    "ExtractionResult",
    "INF",
    "LevelParams",
    "OrientationEngine",
    "build_level_params",
    "duplication_factor",
    "extract",
    "ratio_grid",
    "threshold_value",
]

__version__ = "0.1.0"
