"""Thread-count control for the OpenBLAS that numpy already loaded.

:class:`~repro.parallel.pool.WorkerPool` uses this to run BLAS
single-threaded while forked ranks share the machine (see "CPU budget" in
:mod:`repro.parallel.pool`).  ``threadpoolctl`` is not a dependency, so the
library is found directly: its path comes from ``/proc/self/maps`` and is
reopened with ``RTLD_NOLOAD``, which can only return a library that is
already mapped, never load a second copy.  Builds export the thread
setters under different spellings (plain, ILP64 ``…64_``, and the
``scipy_openblas`` prefix of numpy's own wheels); each is tried.  The
package imports no other BLAS user (scipy stays unimported), so the first
mapped OpenBLAS is numpy's.

Where no OpenBLAS is mapped (another BLAS, no ``/proc``, no
``RTLD_NOLOAD``), :func:`get_threads` returns ``None`` and
:func:`set_threads` does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, Optional, Tuple

import numpy  # noqa: F401 - maps numpy's OpenBLAS before the lookup

_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get_num_threads, set_num_threads)`` of the mapped OpenBLAS, or
    ``None`` when there is none to control."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in maps
                    if "openblas" in os.path.basename(line.split()[-1]).lower()
                }
            )
    except OSError:
        return None
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=mode | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                name = f"{prefix}openblas_%s_num_threads{suffix}"
                try:
                    get, put = lib[name % "get"], lib[name % "set"]
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def get_threads() -> Optional[int]:
    """Current OpenBLAS thread count, or ``None`` without OpenBLAS."""
    funcs = _openblas()
    return None if funcs is None else int(funcs[0]())


def set_threads(count: int) -> None:
    """Set the OpenBLAS thread count; a no-op without OpenBLAS."""
    funcs = _openblas()
    if funcs is not None:
        funcs[1](int(count))
