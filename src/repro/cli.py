"""Command-line interface for the DataLens pipeline.

Usage (after ``pip install -e .``)::

    python -m repro profile data.csv
    python -m repro detect data.csv --tools iqr sd mv_detector
    python -m repro repair data.csv --tools union_broad --repairer ml_imputer \
        --output repaired.csv
    python -m repro rules data.csv --max-lhs 1 --algorithm approximate
    python -m repro sort data.csv --by city price --descending \
        --spill-budget 64m --output sorted.csv
    python -m repro datasheet replay sheet.json data.csv --output fixed.csv
    python -m repro datasets                # list preloaded datasets
    python -m repro serve ./workspace --port 8080   # async REST server
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import DataSheet, make_detector, make_repairer
from .dataframe import SpillStore, read_csv, read_csv_chunked, write_csv
from .dataframe.spill import resolve_spill_store
from .detection import DetectionContext, merge_results
from .fd import approximate_fds, discover_fds, discover_fds_hyfd
from .ingestion import PRELOADED, load_clean
from .profiling import profile
from .settings import parse_byte_size


def _spill_budget(args: argparse.Namespace) -> int | None:
    raw = getattr(args, "spill_budget", None)
    return None if raw is None else parse_byte_size(raw, "--spill-budget")


def _load_frames(args: argparse.Namespace, *attrs: str) -> list:
    """Read each named path argument, chunked only when a scale flag is given.

    All inputs load into one spill store, so its budget bounds the
    command: the flagged one, else (``--chunk-size`` alone) the one
    ``DATALENS_SPILL_BUDGET`` asks for.
    """
    chunk_size = getattr(args, "chunk_size", None)
    spill_budget = _spill_budget(args)
    spill_dir = getattr(args, "spill_dir", None)
    spill: SpillStore | bool | None = None  # None: a monolithic read
    if spill_budget is not None or spill_dir is not None:
        spill = SpillStore(budget_bytes=spill_budget, directory=spill_dir)
    elif chunk_size is not None:
        spill = resolve_spill_store(None) or False

    def read(attr: str):
        source = Path(getattr(args, attr))
        if not source.exists() and source.stem in PRELOADED:
            return load_clean(source.stem)
        if spill is None:
            return read_csv(source)
        return read_csv_chunked(source, chunk_size=chunk_size, spill=spill)

    return [read(attr) for attr in attrs]


def _add_scale_options(command: argparse.ArgumentParser) -> None:
    """Chunking/spilling flags shared by the frame-loading commands."""
    command.add_argument(
        "--chunk-size",
        type=int,
        help="stream the CSV into shards of this many rows",
    )
    command.add_argument(
        "--spill-budget",
        help="spill shards to disk, keeping at most this many bytes "
        "resident (k/m/g suffixes allowed); implies chunked loading",
    )
    command.add_argument(
        "--spill-dir", help="directory for spill files (default: temp dir)"
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    (frame,) = _load_frames(args, "data")
    report = profile(frame)
    if args.json:
        print(report.to_json())
        return 0
    overview = report.overview
    print(f"rows={overview['rows']} columns={overview['columns']} "
          f"missing={overview['missing_cells']} "
          f"({overview['missing_fraction']:.1%}) "
          f"duplicates={overview['duplicate_rows']}")
    for column in report.columns:
        stats = column["statistics"]
        head = (
            f"mean={stats.get('mean', 0):.4g} std={stats.get('std', 0):.4g}"
            if column["is_numeric"]
            else f"distinct={stats.get('distinct', 0)} "
                 f"mode={stats.get('mode', '')!r}"
        )
        print(f"  {column['name']:24s} {column['dtype']:7s} "
              f"missing={column['missing_fraction']:.1%} {head}")
    for alert in report.alerts:
        print(f"  ALERT: {alert.message}")
    return 0


def _run_detection(frame, tools: list[str]):
    context = DetectionContext()
    results = [make_detector(name).detect(frame, context) for name in tools]
    return results, merge_results(results)


def _cmd_detect(args: argparse.Namespace) -> int:
    (frame,) = _load_frames(args, "data")
    results, cells = _run_detection(frame, args.tools)
    for result in results:
        print(f"{result.tool:18s} {len(result.cells):6d} cells "
              f"in {result.runtime_seconds:.3f}s")
    print(f"{'consolidated':18s} {len(cells):6d} cells")
    if args.output:
        payload = [{"row": row, "column": column} for row, column in sorted(cells)]
        Path(args.output).write_text(json.dumps(payload), encoding="utf-8")
        print(f"cells written to {args.output}")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    (frame,) = _load_frames(args, "data")
    _, cells = _run_detection(frame, args.tools)
    repairer = make_repairer(args.repairer)
    result = repairer.repair(frame, cells)
    repaired = result.apply_to(frame)
    print(f"detected {len(cells)} cells; repaired {len(result.repairs)} "
          f"with {args.repairer}")
    if args.output:
        write_csv(repaired, args.output)
        print(f"repaired table written to {args.output}")
    return 0


def _cmd_refcheck(args: argparse.Namespace) -> int:
    from .detection import ReferentialIntegrityDetector

    child, parent = _load_frames(args, "data", "parent")
    detector = ReferentialIntegrityDetector(
        on=args.on, parent=parent, parent_on=args.parent_on
    )
    result = detector.detect(child, DetectionContext())
    meta = result.metadata
    print(f"checked {meta['checked_rows']} of {child.num_rows} rows "
          f"against {meta['parent_rows']} parent rows on {meta['keys']}: "
          f"{meta['violating_rows']} violating row(s), "
          f"{len(result.cells)} cells in {result.runtime_seconds:.3f}s")
    if args.output:
        payload = [{"row": row, "column": column}
                   for row, column in sorted(result.cells)]
        Path(args.output).write_text(json.dumps(payload), encoding="utf-8")
        print(f"cells written to {args.output}")
    return 1 if meta["violating_rows"] and args.strict else 0


def _cmd_sort(args: argparse.Namespace) -> int:
    """Sort a CSV by one or more key columns.

    With ``--spill-budget`` (or ``DATALENS_SPILL_BUDGET``) the input is
    spilled and the sort runs out-of-core: spilled runs are merged
    shard-by-shard and the result stays spilled until written out, so
    peak resident bytes stay within the spill budget.
    """
    from .dataframe import sort_by

    (frame,) = _load_frames(args, "data")
    result = sort_by(frame, args.by, descending=args.descending)
    print(f"sorted {result.num_rows} rows by {args.by} "
          f"({'descending' if args.descending else 'ascending'})")
    if args.output:
        write_csv(result, args.output)
        print(f"sorted table written to {args.output}")
    else:
        preview = result.head(10)
        print(",".join(preview.column_names))
        for row in preview.to_records():
            print(",".join("" if row[name] is None else str(row[name])
                           for name in preview.column_names))
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    (frame,) = _load_frames(args, "data")
    if args.algorithm == "tane":
        rules = discover_fds(frame, max_lhs_size=args.max_lhs)
    elif args.algorithm == "hyfd":
        rules = discover_fds_hyfd(frame, max_lhs_size=args.max_lhs)
    else:
        rules = approximate_fds(
            frame, tolerance=args.tolerance, max_lhs_size=args.max_lhs
        )
    for rule in rules:
        print(rule)
    print(f"({len(rules)} rules, algorithm={args.algorithm})")
    return 0


def _cmd_datasheet(args: argparse.Namespace) -> int:
    if args.action != "replay":
        print("only 'replay' is supported", file=sys.stderr)
        return 2
    sheet = DataSheet.load(args.sheet)
    (frame,) = _load_frames(args, "data")
    repaired = sheet.replay(frame)
    print(f"replayed {len(sheet.detection_tools)} detector(s) + "
          f"{len(sheet.repair_tools)} repairer(s) from {args.sheet}")
    if args.output:
        write_csv(repaired, args.output)
        print(f"replayed table written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the async REST server over a workspace directory."""
    from .api import create_app, serve
    from .core import DataLens
    from .core.faults import active_plans

    try:
        # A fault plan is parsed at its first fire, which in a served
        # request is the response write: check it before binding.
        active_plans()
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    lens = DataLens(
        args.workspace,
        seed=args.seed,
        chunk_size=args.chunk_size,
        spill_budget=_spill_budget(args),
        spill_dir=args.spill_dir,
    )
    router = create_app(lens, workers=args.workers)
    server = serve(
        router, host=args.host, port=args.port, max_workers=args.workers,
        request_timeout=args.request_timeout,
    )
    host, port = server.server_address
    # flush: with --port 0 this line is how supervisors learn the bound
    # port, and stdout is block-buffered when piped.
    print(f"serving DataLens workspace {args.workspace!r} "
          f"on http://{host}:{port} "
          f"({router.job_queue.workers} workers)", flush=True)
    if args.smoke_test:
        # Boot, answer one in-process health check, and exit — used by
        # tests and CI to validate the command without a long-running
        # process.
        import urllib.request

        with urllib.request.urlopen(
            f"http://{host}:{port}/health", timeout=10
        ) as response:
            ok = response.status == 200
        server.shutdown(drain_timeout=args.drain_timeout)
        router.job_queue.shutdown(drain_timeout=args.drain_timeout)
        print("smoke test passed" if ok else "smoke test failed")
        return 0 if ok else 1
    try:
        import threading

        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown(drain_timeout=args.drain_timeout)
        router.job_queue.shutdown(drain_timeout=args.drain_timeout)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name in sorted(PRELOADED):
        frame = load_clean(name)
        print(f"{name:10s} {frame.num_rows:5d} rows x "
              f"{frame.num_columns} columns")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DataLens data-quality pipeline CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    profile_cmd = commands.add_parser("profile", help="profile a CSV")
    profile_cmd.add_argument("data")
    profile_cmd.add_argument("--json", action="store_true")
    _add_scale_options(profile_cmd)
    profile_cmd.set_defaults(func=_cmd_profile)

    detect_cmd = commands.add_parser("detect", help="run detection tools")
    detect_cmd.add_argument("data")
    detect_cmd.add_argument("--tools", nargs="+", default=["iqr", "mv_detector"])
    detect_cmd.add_argument("--output")
    _add_scale_options(detect_cmd)
    detect_cmd.set_defaults(func=_cmd_detect)

    repair_cmd = commands.add_parser("repair", help="detect then repair")
    repair_cmd.add_argument("data")
    repair_cmd.add_argument("--tools", nargs="+", default=["union_broad"])
    repair_cmd.add_argument("--repairer", default="ml_imputer")
    repair_cmd.add_argument("--output")
    _add_scale_options(repair_cmd)
    repair_cmd.set_defaults(func=_cmd_repair)

    refcheck_cmd = commands.add_parser(
        "refcheck", help="cross-table referential-integrity check"
    )
    refcheck_cmd.add_argument("data", help="child CSV (holds the foreign key)")
    refcheck_cmd.add_argument("parent", help="parent CSV (holds the referenced key)")
    refcheck_cmd.add_argument("--on", nargs="+", required=True,
                              help="key column(s) in the child table")
    refcheck_cmd.add_argument("--parent-on", nargs="+",
                              help="key column(s) in the parent table "
                              "(default: same names as --on)")
    refcheck_cmd.add_argument("--strict", action="store_true",
                              help="exit 1 when violations are found")
    refcheck_cmd.add_argument("--output", help="write violating cells as JSON")
    _add_scale_options(refcheck_cmd)
    refcheck_cmd.set_defaults(func=_cmd_refcheck)

    sort_cmd = commands.add_parser(
        "sort", help="sort a CSV by key columns (spill-aware)"
    )
    sort_cmd.add_argument("data")
    sort_cmd.add_argument("--by", nargs="+", required=True,
                          help="key column(s), highest priority first")
    sort_cmd.add_argument("--descending", action="store_true")
    sort_cmd.add_argument("--output", help="write the sorted table as CSV")
    _add_scale_options(sort_cmd)
    sort_cmd.set_defaults(func=_cmd_sort)

    rules_cmd = commands.add_parser("rules", help="discover FD rules")
    rules_cmd.add_argument("data")
    rules_cmd.add_argument(
        "--algorithm", choices=("tane", "hyfd", "approximate"), default="tane"
    )
    rules_cmd.add_argument("--max-lhs", type=int, default=2)
    rules_cmd.add_argument("--tolerance", type=float, default=0.1)
    rules_cmd.set_defaults(func=_cmd_rules)

    sheet_cmd = commands.add_parser("datasheet", help="replay a DataSheet")
    sheet_cmd.add_argument("action", choices=("replay",))
    sheet_cmd.add_argument("sheet")
    sheet_cmd.add_argument("data")
    sheet_cmd.add_argument("--output")
    sheet_cmd.set_defaults(func=_cmd_datasheet)

    serve_cmd = commands.add_parser(
        "serve", help="run the async REST server over a workspace"
    )
    serve_cmd.add_argument("workspace", help="workspace directory")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="TCP port (0 picks a free one)")
    serve_cmd.add_argument(
        "--workers", type=int,
        help="thread-pool size for handlers and jobs "
        "(default: DATALENS_SERVER_WORKERS)",
    )
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument(
        "--request-timeout", type=float, default=None,
        help="per-request deadline in seconds; exceeded requests get "
        "503 + Retry-After (default: DATALENS_REQUEST_TIMEOUT)",
    )
    serve_cmd.add_argument(
        "--drain-timeout", type=float, default=None,
        help="seconds to wait for in-flight requests and queued jobs "
        "on shutdown (default: hard stop)",
    )
    serve_cmd.add_argument(
        "--smoke-test", action="store_true",
        help="boot, self-check /health, and exit",
    )
    _add_scale_options(serve_cmd)
    serve_cmd.set_defaults(func=_cmd_serve)

    datasets_cmd = commands.add_parser("datasets", help="list preloaded data")
    datasets_cmd.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
