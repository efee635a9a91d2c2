"""The worker pool's CPU budget: forked pools run OpenBLAS single-threaded.

While any forked :class:`~repro.parallel.pool.WorkerPool` is open, the
parent and every rank (respawns included) report one BLAS thread; the
last close restores the parent's count, and inline pools never touch it.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, inject
from repro.parallel import blas
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, fork_available, register_op

pytestmark = [
    pytest.mark.parallel,
    pytest.mark.skipif(not fork_available(), reason="fork start method unavailable"),
]

#: Skip only where numpy was not built on OpenBLAS; a broken lookup on an
#: OpenBLAS build must fail these tests, not skip them.
_BLAS_NAME = (
    getattr(np.__config__, "CONFIG", {})
    .get("Build Dependencies", {})
    .get("blas", {})
    .get("name", "")
)
needs_openblas = pytest.mark.skipif(
    "openblas" not in str(_BLAS_NAME).lower(),
    reason=f"numpy is not built on OpenBLAS ({_BLAS_NAME or 'unknown BLAS'})",
)


@register_op("blas.threads")
def _rank_threads(state, payload):
    return blas.get_threads()


@pytest.fixture
def two_threads(max_workers):
    """Start the parent at two BLAS threads, so the pin to one shows even
    on a 1-CPU host; restore its count afterwards."""
    if max_workers < 2:
        pytest.skip("needs --workers >= 2")
    gc.collect()  # close pools that earlier tests leaked to the collector
    assert pool_module._OPEN_FORKED_POOLS == 0
    original = blas.get_threads()
    blas.set_threads(2)
    yield
    assert pool_module._OPEN_FORKED_POOLS == 0
    blas.set_threads(original)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
class TestBlasPin:
    def test_every_rank_runs_single_threaded(self):
        with WorkerPool(2) as pool:
            assert pool.run("blas.threads", [None, None]) == [1, 1]

    def test_parent_pinned_while_open_and_restored_after_close(self):
        pool = WorkerPool(2)
        try:
            assert blas.get_threads() == 1
        finally:
            pool.close()
        assert blas.get_threads() == 2

    @pytest.mark.chaos
    def test_respawned_rank_stays_pinned(self):
        plan = FaultPlan([FaultSpec(op="blas.threads", kind="kill", rank=1)])
        with WorkerPool(2) as pool, inject(plan):
            assert pool.run("blas.threads", [None, None]) == [1, 1]
        assert plan.fired() == 1

    @pytest.mark.parametrize("first_closed", [0, 1])
    def test_overlapping_pools_restore_after_last_close(self, first_closed):
        pools = [WorkerPool(2), WorkerPool(2)]
        try:
            pools[first_closed].close()
            assert blas.get_threads() == 1
            assert pools[1 - first_closed].run("blas.threads", [None, None]) == [1, 1]
        finally:
            pools[1 - first_closed].close()
            pools[first_closed].close()
        assert blas.get_threads() == 2

    def test_failed_start_releases_the_pin(self, monkeypatch):
        def fail(pool):
            raise OSError("fork failed")

        monkeypatch.setattr(WorkerPool, "_start_processes", fail)
        with pytest.raises(OSError, match="fork failed") as excinfo:
            WorkerPool(2)
        # excinfo's traceback keeps the half-built pool alive, so only an
        # explicit release, not the garbage collector, can pass this.
        assert excinfo.tb is not None
        assert blas.get_threads() == 2

    def test_inline_pool_leaves_count_alone(self):
        with WorkerPool(1) as pool:
            assert blas.get_threads() == 2
            assert pool.run("blas.threads", [None]) == [2]
        assert blas.get_threads() == 2


def test_without_openblas_the_pin_is_a_noop(monkeypatch, max_workers):
    if max_workers < 2:
        pytest.skip("needs --workers >= 2")
    real = blas.get_threads()
    with monkeypatch.context() as patch:
        patch.setattr(blas, "_openblas", lambda: None)
        assert blas.get_threads() is None
        blas.set_threads(1)
        with WorkerPool(2) as pool:
            assert pool.run("blas.threads", [None, None]) == [None, None]
    assert blas.get_threads() == real
