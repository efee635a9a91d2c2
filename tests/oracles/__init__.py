"""Reference implementations the fast paths in ``src`` are proven against.

Each ``legacy_*`` function here is an original, straightforward version of
a kernel or pipeline stage that ``src`` has since replaced with a faster
one: the ``np.add.at`` scatter kernels and the per-type matmul loop
(:mod:`oracles.kernels`), the dict/set BFS extraction
(:mod:`oracles.extraction`), the nested-loop line-graph transform
(:mod:`oracles.linegraph`) and the dict-based Algorithm-1 plan compiler
(:mod:`oracles.pruning`).  They are executable specifications only: no
code in ``src`` imports them, and the ``tests/test_*equivalence*`` suites
hold the fast paths to them (lint rule RL006 checks every one is used
there).
"""
