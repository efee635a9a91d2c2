"""Fixed settings of the benchmark: datasets, models, rates and limits.

The workload seed (``--seed``) drives everything a user would vary between
runs -- training order, negatives, dropout masks and initial weights for
the training workloads; query anchors, candidates and arrival draws for the
serving workloads.  Everything here stays fixed, so two runs with one seed
see identical inputs.  ``perfbench/README.md`` records why each value was
chosen.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

# -- training workloads ---------------------------------------------------
TRAIN_FAMILY = "FB15k-237"
TRAIN_VERSIONS = (1, 4)  # FB15k-237.v1.v4, fully inductive
TRAIN_SCALE = 0.5
DATA_SEED = 0
TRAIN_EPOCHS = 3
BATCH_SIZE = 16
MARGIN = 10.0
LEARNING_RATE = 1e-3
DROPOUT = 0.5
NUM_NEGATIVES = 49
#: Independent set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Identical training repeats per untraced run: their loss curves, weights
#: and metrics must agree bitwise, and throughput is their median.  A run
#: makes ``max(2, round(seconds / REPEAT_SECONDS[workload]))`` of them, a
#: count fixed by the arguments so every seed measures the same work.
MIN_REPEATS = 2
REPEAT_SECONDS = {"train": 4.0, "train_dp2": 8.0}
DP_WORKERS = 2

# -- serving workloads ----------------------------------------------------
SERVE_FAMILY = "NELL-995"
SERVE_VERSIONS = (1, 3)  # semi-unseen test graph of NELL-995.v1.v3
SERVE_SCALE = 0.5
#: The served model is a fixed artifact: its weights do not follow the
#: workload seed, so the quality probe pins the serving path's numerics.
MODEL_SEED = 0
CANDIDATES = 50
TOPK = 10
HOT_SET = 300
#: Sending threads and connections of the load generator (<= nproc).
SENDERS = 2
#: Share of ``query_cold`` responses re-scored on the in-benchmark replica.
CHECK_EVERY = 8
#: Held-out test triples ranked through the server by the quality probe.
PROBE_QUERIES = 60
#: Relative tolerance between served and replica scores (batch
#: composition changes float summation order, nothing else).
SCORE_RTOL = 1e-5
SCORE_ATOL = 1e-6
#: A run is invalid when the generator itself (not the server) made
#: requests late by more than this at p95.
MAX_LAG_P95_MS = 20.0

#: Per serving workload: request kind, fixed rates (requests/s), rounds,
#: requests per rate and round (at least 200 per rate in all, so a pooled
#: p95 has 10 samples beyond it), requests per round and senders of the
#: closed-loop capacity phase, and the latency limit that defines goodput.
#: ``light`` is about 25% and ``heavy`` 50-60% of the capacity two senders
#: measured on a 2-CPU machine (41 cold and 300 hot requests/s); the cold
#: rate sits lower because a slower spell of the machine pushes a cold
#: server into saturation first.  The cold capacity phase has one sender:
#: with two, the scheduler batches their /topk requests together in some
#: rounds and not in others, and the closed-loop rate jumped between about
#: 35 and 63 requests/s from seed to seed while the p50s held.
SERVING: Dict[str, Dict[str, Any]] = {
    "query_cold": {
        "route": "/topk",
        "rates": {"light": 10.0, "heavy": 20.0},
        "rounds": 4,
        "round_requests": 50,
        "capacity_requests": 60,
        "capacity_senders": 1,
        "limit_ms": 250.0,
    },
    "query_hot": {
        "route": "/score",
        "rates": {"light": 80.0, "heavy": 190.0},
        "rounds": 4,
        "round_requests": 200,
        "capacity_requests": 400,
        "capacity_senders": SENDERS,
        "limit_ms": 50.0,
    },
}


def build_train_benchmark():
    from repro.kg import build_full_benchmark

    family, (train_v, test_v) = TRAIN_FAMILY, TRAIN_VERSIONS
    return build_full_benchmark(family, train_v, test_v, scale=TRAIN_SCALE, seed=DATA_SEED)


def build_train_model(num_relations: int, seed: int):
    """RMPI-TA with the paper's hyper-parameters."""
    from repro.core import RMPI, RMPIConfig
    from repro.utils.seeding import seeded_rng

    config = RMPIConfig(use_target_attention=True, dropout=DROPOUT)
    return RMPI(num_relations, seeded_rng((seed, 1)), config)


def build_serving_data() -> Tuple[Any, Any]:
    """``(served graph, benchmark)``: the semi-unseen test graph."""
    from repro.kg import build_full_benchmark

    family, (train_v, test_v) = SERVE_FAMILY, SERVE_VERSIONS
    bench = build_full_benchmark(family, train_v, test_v, scale=SERVE_SCALE, seed=DATA_SEED)
    return bench.semi_test_graph, bench


def build_served_model(num_relations: int):
    """RMPI-NE, initialised from the fixed model seed."""
    from repro.core import RMPI, RMPIConfig
    from repro.utils.seeding import seeded_rng

    return RMPI(num_relations, seeded_rng(MODEL_SEED), RMPIConfig(use_disclosing=True))
