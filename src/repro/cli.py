"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``stats``   — print statistics of a benchmark (Table I style + analysis).
``run``     — train one model on one benchmark and print metrics.
``full``    — fully inductive run (semi/fully unseen relations).
``models``  — list available model names.
``serve``   — boot the online link-prediction service (JSON over HTTP).
``obs``     — dump metrics: from a live server's /metrics, or this process.

Examples::

    python -m repro.cli stats --family NELL-995 --version 2
    python -m repro.cli run --family WN18RR --version 1 --model RMPI-NE --epochs 8
    python -m repro.cli full --family NELL-995 --train-version 1 \
        --test-version 3 --model RMPI-NE --setting fully --schema
    python -m repro.cli serve --family NELL-995 --version 1 --model RMPI-base \
        --epochs 2 --port 8080
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import (
    MODEL_NAMES,
    format_table,
    run_experiment,
    run_full_experiment,
)
from repro.kg import build_full_benchmark, build_partial_benchmark
from repro.kg.analysis import characterise
from repro.train import ParallelConfig, TrainingConfig


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="NELL-995", choices=["WN18RR", "FB15k-237", "NELL-995"])
    parser.add_argument("--scale", type=float, default=0.06, help="dataset size multiplier")
    parser.add_argument("--seed", type=int, default=0)


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="RMPI-base", choices=list(MODEL_NAMES))
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--max-triples", type=int, default=200)
    parser.add_argument("--schema", action="store_true", help="schema-enhanced initialisation")
    parser.add_argument("--fusion", default="sum", choices=["sum", "concat", "gated"])
    parser.add_argument("--negatives", type=int, default=49, help="ranking negatives")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for training batches and eval ranking "
        "(1 = serial; see README 'Parallel execution')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print benchmark statistics")
    _add_common(stats)
    stats.add_argument("--version", type=int, default=1, choices=[1, 2, 3, 4])

    run = sub.add_parser("run", help="partially inductive experiment")
    _add_common(run)
    run.add_argument("--version", type=int, default=1, choices=[1, 2, 3, 4])
    _add_training(run)

    full = sub.add_parser("full", help="fully inductive experiment")
    _add_common(full)
    full.add_argument("--train-version", type=int, default=1, choices=[1, 2, 3, 4])
    full.add_argument("--test-version", type=int, default=3, choices=[1, 2, 3, 4])
    full.add_argument("--setting", default="semi", choices=["semi", "fully"])
    _add_training(full)

    sub.add_parser("models", help="list model names")

    serve = sub.add_parser("serve", help="boot the online inference service")
    _add_common(serve)
    serve.add_argument("--version", type=int, default=1, choices=[1, 2, 3, 4])
    serve.add_argument("--model", default="RMPI-base", choices=list(MODEL_NAMES))
    serve.add_argument(
        "--epochs", type=int, default=0,
        help="train this many epochs before serving (0 = untrained weights)",
    )
    serve.add_argument("--max-triples", type=int, default=200)
    serve.add_argument(
        "--checkpoint", default=None,
        help="load weights from a checkpoint instead of training",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 = ephemeral port")
    serve.add_argument("--max-batch-size", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--cache-size", type=int, default=65536)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="scoring worker processes behind the micro-batching scheduler "
        "(1 = in-process scoring)",
    )
    serve.add_argument(
        "--no-fused", action="store_true",
        help="score through the per-sample path instead of the fused batch forward",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=256,
        help="admission watermark: more waiting requests than this are shed "
        "with HTTP 503 + Retry-After (0 = unbounded)",
    )
    serve.add_argument(
        "--retry-after-s", type=float, default=1.0,
        help="backoff hint carried by 503 load-shedding responses",
    )
    serve.add_argument(
        "--request-deadline-s", type=float, default=30.0,
        help="server-side cap on request lifetime, queue time included; "
        "expired requests are dropped before scoring (0 = no deadline)",
    )
    serve.add_argument(
        "--fault-plan", default=None,
        help="activate a fault-injection plan for chaos runs: inline JSON "
        "or @path to a JSON file (see repro.faults)",
    )
    serve.add_argument(
        "--dry-run", action="store_true",
        help="build the app, print its configuration, and exit without serving",
    )

    obs = sub.add_parser("obs", help="dump observability metrics")
    obs.add_argument(
        "--url", default=None,
        help="base URL of a live serving process (fetches <url>/metrics); "
        "omitted, dumps this process's registry",
    )
    obs.add_argument("--format", default="text", choices=["text", "json"])
    obs.add_argument("--timeout", type=float, default=10.0)
    return parser


def cmd_stats(args: argparse.Namespace) -> str:
    benchmark = build_partial_benchmark(args.family, args.version, args.scale, args.seed)
    stats = benchmark.statistics()
    rows = [
        ["train", stats["train"]["relations"], stats["train"]["entities"], stats["train"]["triples"]],
        ["test", stats["test"]["relations"], stats["test"]["entities"], stats["test"]["triples"]],
    ]
    table = format_table(["graph", "#R", "#E", "#T"], rows, title=benchmark.name)
    analysis = characterise(benchmark.train_graph)
    lines = [table, "", "training graph analysis:"]
    lines += [f"  {key}: {value:.3f}" for key, value in analysis.items()]
    return "\n".join(lines)


def _training_config(args: argparse.Namespace) -> TrainingConfig:
    return TrainingConfig(
        epochs=args.epochs,
        seed=args.seed,
        max_triples_per_epoch=args.max_triples,
        parallel=ParallelConfig(workers=args.workers),
    )


def cmd_run(args: argparse.Namespace) -> str:
    # Built first so a bad flag fails before the benchmark is generated.
    config = _training_config(args)
    benchmark = build_partial_benchmark(args.family, args.version, args.scale, args.seed)
    result = run_experiment(
        benchmark,
        args.model,
        config,
        seed=args.seed,
        use_schema=args.schema,
        fusion=args.fusion,
        num_negatives=args.negatives,
    )
    rows = [[key, value] for key, value in result.metrics.items()]
    return format_table(["metric", "value"], rows, title=f"{result.model} on {result.benchmark}")


def cmd_full(args: argparse.Namespace) -> str:
    config = _training_config(args)
    benchmark = build_full_benchmark(
        args.family, args.train_version, args.test_version, args.scale, args.seed
    )
    result = run_full_experiment(
        benchmark,
        args.model,
        args.setting,
        config,
        seed=args.seed,
        use_schema=args.schema,
        fusion=args.fusion,
    )
    rows = [[key, value] for key, value in result.metrics.items()]
    return format_table(["metric", "value"], rows, title=f"{result.model} on {result.benchmark}")


def cmd_models(_args: argparse.Namespace) -> str:
    return "\n".join(MODEL_NAMES)


def cmd_serve(args: argparse.Namespace) -> str:
    from repro.experiments import make_model
    from repro.serve import ModelRegistry, ServingApp, ServingConfig, ServingServer
    from repro.train import load_checkpoint, train_model

    benchmark = build_partial_benchmark(args.family, args.version, args.scale, args.seed)
    model = make_model(args.model, benchmark.num_relations, seed=args.seed)
    weights = "untrained"
    if args.checkpoint:
        load_checkpoint(model, args.checkpoint)
        weights = f"checkpoint {args.checkpoint}"
    elif args.epochs > 0:
        train_model(
            model,
            benchmark.train_graph,
            benchmark.train_triples,
            benchmark.valid_triples,
            TrainingConfig(
                epochs=args.epochs, seed=args.seed,
                max_triples_per_epoch=args.max_triples,
            ),
        )
        weights = f"trained {args.epochs} epochs"

    registry = ModelRegistry()
    registry.register(
        args.model, model, meta={"benchmark": benchmark.name, "weights": weights}
    )
    if args.fault_plan:
        from repro.faults import FaultPlan, activate

        activate(FaultPlan.from_cli(args.fault_plan))
    config = ServingConfig(
        host=args.host,
        port=args.port,
        default_model=args.model,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        cache_size=args.cache_size,
        use_fused=not args.no_fused,
        workers=args.workers,
        max_queue_depth=args.max_queue_depth or None,
        retry_after_s=args.retry_after_s,
        request_deadline_s=args.request_deadline_s or None,
    )
    # Serve the inductive benchmark's *testing* graph: queries rank links
    # among entities unseen during training, the paper's core setting.
    app = ServingApp(registry, benchmark.test_graph, config)

    summary = app.describe()
    lines = [
        f"serving {args.model} ({weights}) on {benchmark.name} test graph",
        f"  graph: {summary['graph']['entities']} entities / "
        f"{summary['graph']['relations']} relations / "
        f"{summary['graph']['triples']} triples "
        f"[{summary['graph']['fingerprint'][:12]}]",
        f"  micro-batching: max_batch_size={config.max_batch_size} "
        f"max_wait_ms={config.max_wait_ms}",
        f"  score cache: {config.cache_size} entries, "
        f"fused scoring: {config.use_fused}",
        f"  scoring workers: {config.workers}",
        f"  admission: max_queue_depth={config.max_queue_depth} "
        f"retry_after_s={config.retry_after_s} "
        f"request_deadline_s={config.request_deadline_s}",
    ]
    if args.fault_plan:
        lines.append(f"  fault plan ACTIVE: {args.fault_plan}")
    if args.dry_run:
        app.close()
        lines.append("dry run: configuration OK, not serving")
        return "\n".join(lines)

    server = ServingServer(app)
    lines.append(f"listening on {server.url} (Ctrl-C to stop)")
    print("\n".join(lines))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return "serving stopped"


def cmd_obs(args: argparse.Namespace) -> str:
    import json

    from repro.obs import get_registry, render_json, render_text

    if args.url is None:
        return (
            render_json(get_registry())
            if args.format == "json"
            else render_text(get_registry()).rstrip("\n")
        )
    from urllib.request import urlopen

    url = args.url.rstrip("/") + "/metrics"
    if args.format == "text":
        url += "?format=text"
    with urlopen(url, timeout=args.timeout) as response:
        body = response.read().decode("utf-8")
    if args.format == "json":
        # Round-trip for validation + stable pretty-printing.
        return json.dumps(json.loads(body), indent=2, sort_keys=True)
    return body.rstrip("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "stats": cmd_stats,
        "run": cmd_run,
        "full": cmd_full,
        "models": cmd_models,
        "serve": cmd_serve,
        "obs": cmd_obs,
    }
    print(handlers[args.command](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
