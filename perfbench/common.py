"""Helpers shared by the benchmark's workloads and its server process.

Nothing here imports :mod:`repro`: the import path is set up by
:func:`use_repo_sources`, which every entry point calls first, so that a
checkout without ``src/`` fails at import time and prints no result.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch output (span dumps) stays inside the checkout, in a directory
#: the repository ignores.
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def now() -> float:
    return time.perf_counter()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def _status_kb(pid: int, field: str) -> float:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 if the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return 0.0
    return 0.0


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of ``pid`` in MB (``VmHWM``)."""
    return _status_kb(pid, "VmHWM") / 1024.0


def child_pids() -> List[int]:
    """Live direct children of this process."""
    pids: List[int] = []
    task_dir = "/proc/self/task"
    for task in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, task, "children")) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> None:
    """The result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def write_spans(name: str, spans: List[tuple]) -> str:
    """Write a traced run's raw spans as JSON lines; returns the path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans_{name}.jsonl")
    with open(path, "w") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")
    return path
