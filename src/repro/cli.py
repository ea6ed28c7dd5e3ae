"""``python -m repro`` — the command-line face of the :mod:`repro.api` facade.

Subcommands::

    python -m repro figure fig12              # rows of one figure, as JSON
    python -m repro figure fig13 --table      # ... or as an aligned table
    python -m repro sweep --models SQ --designs Flexagon,GAMMA-like
    python -m repro dse --workloads xf-prune-80,gnn-cora   # Pareto exploration
    python -m repro serve --port 8734         # HTTP/JSON server over the cache
    python -m repro worker http://host:8734   # claim + execute fabric work
    python -m repro cache stats               # entries + size (--json for wire form)
    python -m repro cache clear               # drop every entry
    python -m repro cache prune --max-size-mb 64   # evict least recently written
    python -m repro cache prune --prefix figure-   # drop stored figure bodies
    python -m repro cache pull http://host:8734    # merge a peer's entries
    python -m repro list                      # figures, models, layers, designs

``figure``, ``sweep`` and ``dse`` write the canonical JSON of the response
record to stdout (or ``-o FILE``) through :meth:`Session.answer`: the first
run stores the body in the result cache, and a second invocation over the
same settings and cache reads that one record — byte-identical output, zero
jobs submitted.  ``--table`` renders the typed result instead.  The job
counters go to stderr so they never perturb the payload.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api.figures import FIGURES
from repro.api.requests import FigureQuery, SweepSpec
from repro.api.session import Session
from repro.experiments.settings import default_settings
from repro.metrics.reporting import format_table
from repro.runtime import BatchRunner, ResultCache
from repro.workloads.models import MODEL_REGISTRY
from repro.workloads.representative import representative_layer_names


# ----------------------------------------------------------------------
# Shared argument groups
# ----------------------------------------------------------------------
def _add_settings_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("experiment settings")
    group.add_argument(
        "--max-dense-macs", type=float, default=None, metavar="N",
        help="per-layer dense-MAC budget driving the scaling policy",
    )
    group.add_argument(
        "--max-layers", type=int, default=None, metavar="N",
        help="cap on sampled layers per model in end-to-end sweeps",
    )
    group.add_argument(
        "--full-scale", action="store_true",
        help="simulate full-size (unscaled) layers",
    )
    group.add_argument(
        "--seed-salt", type=int, default=None, metavar="N",
        help="random-seed salt for synthetic matrix generation",
    )


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runtime")
    group.add_argument(
        "--serial", action="store_true", help="force the serial executor"
    )
    group.add_argument(
        "--workers", type=int, default=None, metavar="N", help="process-pool width"
    )
    group.add_argument(
        "--no-cache", action="store_true", help="run without the persistent cache"
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    group.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help="live N/M job counter on stderr (default: on when stderr is a TTY)",
    )
    group.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="suppress the live job counter",
    )


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("output")
    group.add_argument(
        "--table", action="store_true",
        help="render an aligned table instead of JSON",
    )
    group.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the payload to FILE instead of stdout",
    )


def _settings_from_args(args: argparse.Namespace):
    overrides: dict = {}
    if args.full_scale:
        overrides["max_dense_macs"] = None
    if args.max_dense_macs is not None:
        overrides["max_dense_macs"] = args.max_dense_macs
    if args.max_layers is not None:
        overrides["max_layers_per_model"] = args.max_layers
    if args.seed_salt is not None:
        overrides["seed_salt"] = args.seed_salt
    return default_settings(**overrides)


def _progress_callback(done: int, total: int) -> None:
    """Redraw the live ``N/M`` counter on stderr (newline once complete)."""
    end = "\n" if done >= total else ""
    print(f"\r[repro] jobs {done}/{total}", end=end, file=sys.stderr, flush=True)


def _session_from_args(args: argparse.Namespace) -> Session:
    runner_kwargs: dict = {
        "parallel": False if args.serial else None,
        "max_workers": args.workers,
    }
    if args.no_cache:
        runner_kwargs["cache"] = None
    elif args.cache_dir:
        runner_kwargs["cache"] = ResultCache(args.cache_dir)
    progress = args.progress
    if progress is None:
        progress = sys.stderr.isatty()
    if progress:
        runner_kwargs["on_result"] = _progress_callback
    return Session(_settings_from_args(args), runner=BatchRunner(**runner_kwargs))


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _report_jobs(session: Session) -> None:
    stats = session.stats
    print(
        f"[repro] jobs: submitted={stats.submitted} cache_hits={stats.cache_hits} "
        f"executed={stats.executed} exec_seconds={stats.exec_seconds:.3f} "
        f"cache_scan_seconds={stats.cache_scan_seconds:.3f} "
        f"peak_in_flight={stats.peak_in_flight}",
        file=sys.stderr,
    )


def _answer(args: argparse.Namespace, request, table) -> int:
    """Emit ``request``'s JSON body, or ``table`` of its typed result."""
    session = _session_from_args(args)
    if args.table:
        payload = table(getattr(session, request.kind)(request))
    else:
        payload = session.answer(request)[0].decode("utf-8")
    _emit(args, payload)
    _report_jobs(session)
    return 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_figure(args: argparse.Namespace) -> int:
    query = FigureQuery(args.figure)
    return _answer(args, query, lambda r: format_table(r.rows, title=r.title))


def _parse_override(text: str) -> tuple[str, object]:
    name, _, raw = text.partition("=")
    if not _ or not name:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        value: object = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"override {name!r} must be numeric, got {raw!r}"
            ) from None
    return name, value


def _print_sweepable_models() -> None:
    """``sweep --list-models``: Table 2 models plus DSE-registered workloads."""
    from repro.dse.workloads import get_workload, workload_names

    print("models (python -m repro sweep --models ...):")
    for short_name, model in MODEL_REGISTRY.items():
        print(f"  {short_name:12s} {model.name} ({model.num_layers} layers)")
    print("dse workloads (python -m repro dse --workloads ...):")
    for name in workload_names():
        workload = get_workload(name)
        print(f"  {name:12s} [{workload.kind}]")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list_models:
        _print_sweepable_models()
        return 0
    spec = SweepSpec(
        designs=args.designs,
        models=args.models,
        layers=args.layers,
        config_overrides=args.set or (),
        scale=args.scale,
        max_layers_per_model=args.max_layers,
    )
    title = f"Sweep {spec.key()[:12]}"
    return _answer(args, spec, lambda r: format_table(r.rows, title=title))


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import design_point_names, get_design_point, workload_names
    from repro.dse.explore import DseSpec

    if args.list_workloads or args.list_designs:
        if args.list_workloads:
            _print_sweepable_models()
        if args.list_designs:
            print("design points (python -m repro dse --designs ...):")
            for name in design_point_names():
                point = get_design_point(name)
                print(f"  {name:18s} [{point.family}] {point.accelerator}")
        return 0
    if not args.workloads:
        print(
            "error: --workloads is required (see --list-workloads); "
            f"registered: {','.join(workload_names())}",
            file=sys.stderr,
        )
        return 2
    spec = DseSpec(
        workloads=args.workloads,
        designs=args.designs or (),
        scale=args.scale,
    )

    def table(result) -> str:
        payload = format_table(result.points, title=f"DSE {spec.key()[:12]}")
        payload += "\nPareto frontiers:\n"
        for objective, names in sorted(result.frontier.items()):
            payload += f"  {objective}: {', '.join(names)}\n"
        return payload

    return _answer(args, spec, table)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_server

    # The live N/M progress counter would interleave with the serve log on
    # one stderr stream; background jobs report progress over HTTP instead.
    if args.progress is None:
        args.progress = False
    # The serve port already carries the fabric's /v1/work routes, so under
    # REPRO_POOL=remote there is no reason to open a second listener.
    os.environ.setdefault("REPRO_FABRIC_LISTEN", "0")
    session = _session_from_args(args)
    return run_server(session, host=args.host, port=args.port)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fabric import run_worker

    return run_worker(
        args.url,
        worker_id=args.id,
        cache_dir=args.cache_dir,
        poll_seconds=args.poll_seconds,
        max_items=args.max_items,
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    if args.cache_command == "stats":
        report = cache.stats_report()
        if args.json:
            # The same serializer the server's /v1/cache/stats endpoint
            # uses, so dashboards scrape one format from either surface.
            from repro.serve.wire import cache_stats_record, dump_body

            sys.stdout.buffer.write(dump_body(cache_stats_record(report)))
            return 0
        entries = report["entries"]
        scan_seconds = report["scan_seconds"]
        throughput = entries / scan_seconds if scan_seconds > 0 else 0.0
        print(f"cache directory : {cache.directory}")
        print(f"entries         : {entries}")
        print(f"size            : {report['size_bytes'] / 1e6:.2f} MB")
        print(f"segments        : {report['segments']}")
        print(f"packs           : {report['packs']}")
        print(f"scan            : {scan_seconds * 1e3:.2f} ms ({throughput:,.0f} entries/s)")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    if args.cache_command == "pull":
        from repro.fabric import pull_cache

        if args.interval is not None:
            from repro.fabric import pull_loop

            log = lambda message: print(  # noqa: E731 - one-line stderr logger
                f"[repro.cache] {message}", file=sys.stderr, flush=True
            )
            print(
                f"[repro.cache] following {args.url} every ~{args.interval:g}s "
                f"(jittered; Ctrl-C to stop)",
                file=sys.stderr,
                flush=True,
            )
            try:
                rounds = pull_loop(
                    cache, args.url, args.interval, rounds=args.rounds, log=log
                )
            except KeyboardInterrupt:
                print("[repro.cache] pull loop stopped", file=sys.stderr)
                return 0
            print(f"[repro.cache] pull loop finished after {rounds} rounds",
                  file=sys.stderr, flush=True)
            return 0
        report = pull_cache(cache, args.url)
        print(
            f"pulled {report.fetched} entries from {args.url} into "
            f"{cache.directory} ({report.already_present} already present, "
            f"{report.skipped} skipped, {report.remote_entries} remote entries)"
        )
        return 0
    assert args.cache_command == "prune", args.cache_command
    if args.max_size_mb is None and args.prefix is None:
        print("error: prune needs --max-size-mb, --prefix, or both", file=sys.stderr)
        return 2
    bound = None if args.max_size_mb is None else int(args.max_size_mb * 1e6)
    report = cache.prune(bound, prefix=args.prefix)
    scope = f" (prefix {args.prefix!r})" if args.prefix else ""
    print(
        f"pruned {report.removed_entries} entries ({report.freed_bytes / 1e6:.2f} MB) "
        f"from {cache.directory}{scope}; {report.remaining_entries} matching entries "
        f"({report.remaining_bytes / 1e6:.2f} MB) remain"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    what = args.what
    if args.json:
        from repro.serve.wire import catalog_record, dump_body, figures_record

        record = figures_record() if what == "figures" else catalog_record()
        if what in ("models", "layers", "designs", "workloads"):
            record = {key: record[key] for key in ("kind", "schema", what)}
        sys.stdout.buffer.write(dump_body(record))
        return 0
    if what in ("figures", "all"):
        print("figures:")
        for definition in FIGURES.values():
            print(f"  {definition.figure:8s} {definition.title}")
    if what in ("models", "all"):
        print("models:")
        for short_name, model in MODEL_REGISTRY.items():
            print(f"  {short_name:5s} {model.name} ({model.num_layers} layers)")
    if what in ("layers", "all"):
        print("layers:")
        for name in representative_layer_names():
            print(f"  {name}")
    if what in ("designs", "all"):
        from repro.api.requests import SWEEPABLE_DESIGNS

        print("designs:")
        for design in SWEEPABLE_DESIGNS:
            print(f"  {design}")
    if what in ("workloads", "all"):
        from repro.dse import (
            design_point_names,
            get_design_point,
            get_workload,
            workload_names,
        )

        print("dse workloads:")
        for name in workload_names():
            print(f"  {name:18s} [{get_workload(name).kind}]")
        print("dse design points:")
        for name in design_point_names():
            print(f"  {name:18s} [{get_design_point(name).family}]")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Flexagon reproduction: figure queries, sweeps and cache "
        "maintenance over the batched simulation runtime.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure = subparsers.add_parser(
        "figure", help="compute (or cache-serve) the rows of one figure/table"
    )
    figure.add_argument(
        "figure", metavar="FIG",
        help="figure identifier, e.g. fig12, fig13, table2 ('list' shows all)",
    )
    _add_output_args(figure)
    _add_settings_args(figure)
    _add_runner_args(figure)
    figure.set_defaults(func=_cmd_figure)

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative models x designs x layers grid"
    )
    sweep.add_argument(
        "--models", default=None, metavar="CSV", help="Table 2 short names, e.g. SQ,V"
    )
    sweep.add_argument(
        "--layers", default=None, metavar="CSV",
        help="Table 6 representative layer names, e.g. R6,A2",
    )
    sweep.add_argument(
        "--designs", default=",".join(SweepSpec.__dataclass_fields__["designs"].default),
        metavar="CSV", help="designs to simulate (default: the four accelerators)",
    )
    sweep.add_argument(
        "--set", action="append", type=_parse_override, metavar="KEY=VALUE",
        help="accelerator-config override (repeatable), e.g. --set num_multipliers=16",
    )
    sweep.add_argument(
        "--scale", type=float, default=None,
        help="pin the operand scale factor (skips the MAC-budget policy)",
    )
    sweep.add_argument(
        "--list-models", action="store_true",
        help="list sweepable models (and DSE workloads), then exit",
    )
    _add_output_args(sweep)
    _add_settings_args(sweep)
    _add_runner_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    dse = subparsers.add_parser(
        "dse",
        help="explore a (workloads x design points) grid and report the "
        "Pareto frontier (cycles vs. area/power)",
    )
    dse.add_argument(
        "--workloads", default=None, metavar="CSV",
        help="DSE workload names, e.g. xf-prune-80,gnn-cora "
        "(--list-workloads shows all)",
    )
    dse.add_argument(
        "--designs", default=None, metavar="CSV",
        help="design-point names (default: every built-in family; "
        "--list-designs shows all)",
    )
    dse.add_argument(
        "--scale", type=float, default=None,
        help="pin the operand scale of synthetic workloads "
        "(skips the MAC-budget policy)",
    )
    dse.add_argument(
        "--list-workloads", action="store_true",
        help="list registered workloads, then exit",
    )
    dse.add_argument(
        "--list-designs", action="store_true",
        help="list registered design points, then exit",
    )
    _add_output_args(dse)
    _add_settings_args(dse)
    _add_runner_args(dse)
    dse.set_defaults(func=_cmd_dse)

    serve = subparsers.add_parser(
        "serve", help="serve figure/sweep queries over HTTP/JSON"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8734, metavar="N",
        help="TCP port (default: 8734; 0 picks a free port)",
    )
    _add_settings_args(serve)
    _add_runner_args(serve)
    serve.set_defaults(func=_cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help="claim and execute work from a fabric coordinator "
        "(a serve instance or a REPRO_POOL=remote run)",
    )
    worker.add_argument(
        "url", metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8734",
    )
    worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity in leases and logs (default: host-pid derived)",
    )
    worker.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="worker-local cache for nested results "
        "(default: REPRO_CACHE_DIR or .repro_cache)",
    )
    worker.add_argument(
        "--poll-seconds", type=float, default=0.2, metavar="S",
        help="idle delay between claim polls (default: 0.2)",
    )
    worker.add_argument(
        "--max-items", type=int, default=1, metavar="N",
        help="work items to claim per poll (default: 1)",
    )
    worker.set_defaults(func=_cmd_worker)

    cache = subparsers.add_parser("cache", help="inspect or maintain the result cache")
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="entry count and size")
    stats.add_argument(
        "--json", action="store_true",
        help="machine-readable output (the /v1/cache/stats wire format)",
    )
    cache_sub.add_parser("clear", help="drop every entry")
    prune = cache_sub.add_parser(
        "prune",
        help="evict entries: least recently written down to a size bound, "
        "by key prefix, or both",
    )
    prune.add_argument(
        "--max-size-mb", type=float, default=None, metavar="N",
        help="keep at most N megabytes of entries (least recently written "
        "evicted first)",
    )
    prune.add_argument(
        "--prefix", default=None, metavar="PREFIX",
        help="only consider keys starting with PREFIX (figure-, sweep- or dse- "
        "for stored bodies); without --max-size-mb every matching entry is "
        "evicted",
    )
    pull = cache_sub.add_parser(
        "pull",
        help="merge the entries a peer coordinator has and this cache lacks "
        "(anti-entropy; entries are digest-verified before storing)",
    )
    pull.add_argument(
        "url", metavar="URL",
        help="peer base URL, e.g. http://127.0.0.1:8734",
    )
    pull.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="follower mode: keep pulling, sleeping a jittered SECONDS "
        "between rounds, until interrupted",
    )
    pull.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="with --interval, stop after N pull rounds (default: forever)",
    )
    cache.set_defaults(func=_cmd_cache)

    lister = subparsers.add_parser(
        "list", help="list answerable figures, models, layers and designs"
    )
    lister.add_argument(
        "what", nargs="?", default="all",
        choices=("all", "figures", "models", "layers", "designs", "workloads"),
    )
    lister.add_argument(
        "--json", action="store_true",
        help="machine-readable output (the serving front-end's wire format)",
    )
    lister.set_defaults(func=_cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
