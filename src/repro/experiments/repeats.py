"""Repeated runs with mean/std aggregation (paper §IV-B: "we run each
experiment 5 times and report the mean results").

The benchmark suite runs each cell once for wall-clock reasons; this
module provides the aggregation used when a cell is repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class AggregatedResult:
    """Mean and standard deviation per metric over repeated runs."""

    benchmark: str
    model: str
    mean: Dict[str, float] = field(default_factory=dict)
    std: Dict[str, float] = field(default_factory=dict)
    runs: int = 0

    @property
    def metrics(self) -> Dict[str, float]:
        """Mean metrics — drop-in compatible with ExperimentResult."""
        return self.mean

    def format_cell(self, key: str) -> str:
        return f"{self.mean[key]:.2f}±{self.std[key]:.2f}"


def aggregate(results: List[ExperimentResult]) -> AggregatedResult:
    """Combine same-cell results into mean/std."""
    if not results:
        raise ValueError("nothing to aggregate")
    benchmarks = {r.benchmark for r in results}
    models = {r.model for r in results}
    if len(benchmarks) != 1 or len(models) != 1:
        raise ValueError("aggregate() expects repeats of the same cell")
    keys = results[0].metrics.keys()
    mean = {k: float(np.mean([r.metrics[k] for r in results])) for k in keys}
    std = {k: float(np.std([r.metrics[k] for r in results])) for k in keys}
    return AggregatedResult(
        benchmark=results[0].benchmark,
        model=results[0].model,
        mean=mean,
        std=std,
        runs=len(results),
    )


def run_repeated(
    run_once: Callable[[int], ExperimentResult],
    repeats: int = 5,
    base_seed: int = 0,
) -> AggregatedResult:
    """Run an experiment ``repeats`` times with distinct seeds and aggregate.

    ``run_once`` receives the seed for each repetition.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = [run_once(base_seed + i) for i in range(repeats)]
    return aggregate(results)
