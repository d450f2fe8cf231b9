"""Metric aggregation helpers used by experiments and reports."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the right average for normalized ratios."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean needs at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize_to(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Divide every value by the baseline entry (paper-style normalization)."""
    baseline = values[baseline_key]
    if baseline <= 0:
        raise ValueError(f"baseline {baseline_key} must be positive")
    return {key: value / baseline for key, value in values.items()}


def improvement_percent(baseline: float, improved: float) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``.

    Positive numbers mean the challenger is better (smaller); e.g. a 50%
    EDP improvement means the challenger's EDP is half the baseline's.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - improved) / baseline
