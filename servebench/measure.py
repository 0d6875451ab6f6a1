"""Percentiles with their sample-count rule, spans, and the result line."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it is not supported by the sample.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` sorted samples lie above the nearest-rank
    ``quantile``."""
    if count <= 0:
        return 0
    return count - nearest_rank(count, quantile)


def nearest_rank(count: int, quantile: float) -> int:
    """The 1-based nearest rank of ``quantile`` among ``count`` samples."""
    return max(1, math.ceil(quantile * count))


def percentile_supported(count: int, quantile: float) -> bool:
    return samples_beyond(count, quantile) >= MIN_SAMPLES_BEYOND


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of a non-empty sample (check
    :func:`percentile_supported` before trusting a tail)."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(values), quantile) - 1]


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int


@dataclass
class Span:
    """One timed call into a layer, as the benchmark saw it."""

    name: str
    start: float
    end: float
    request: int
    parent: Optional[int] = None
    ident: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanLog:
    """Spans kept in memory and written out once, at the end of a run."""

    spans: List[Span] = field(default_factory=list)
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))

    def add(self, name: str, start: float, end: float, request: int,
            parent: Optional[Span] = None) -> Span:
        span = Span(name, start, end, request,
                    None if parent is None else parent.ident,
                    next(self._ids))
        self.spans.append(span)
        return span

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.ident, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request},
                    sort_keys=True))
                handle.write("\n")


def self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus the time covered by
    its child spans."""
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) \
                + span.seconds
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds \
            - children.get(span.ident, 0.0)
    return totals


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Sequence[Metric]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {metric.name: {"value": metric.value,
                                  "unit": metric.unit}
                    for metric in metrics},
    })


def table(metrics: Sequence[Metric]) -> List[str]:
    width = max(len(metric.name) for metric in metrics)
    return ["%-*s %14.6g %-6s n=%d" % (width, metric.name, metric.value,
                                       metric.unit, metric.samples)
            for metric in metrics]

