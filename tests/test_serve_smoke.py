"""The serving smoke entry points (``python -m repro.serve.smoke``) run green.

Each mode boots a real HTTP server and asserts on ``/metrics`` counters,
so each runs against a fresh metrics registry: counts left behind by
other tests would break its exact-count checks.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.serve import smoke


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def test_smoke_main_passes():
    assert smoke.main([]) == 0


@pytest.mark.chaos
def test_chaos_smoke_sheds_and_recovers():
    assert smoke.main(["--chaos"]) == 0
