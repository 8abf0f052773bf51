"""DataLens benchmark: three user paths timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_mono --seed 1 --seconds 20 --trace 0

Workloads: ``pipeline_mono``, ``rest_spilled``, ``relational_outofcore``
(see ``workloads.py`` and ``NOTES.md``). With ``--trace 0`` each pass
runs untraced in a fresh process until ``--seconds`` have passed (at
least one pass); the end-to-end metrics are medians over passes. With
``--trace 1`` the run makes one untraced pass, one pass with spans
around every layer's entry points, and one pass with tracemalloc around
selected stages, and reports the per-layer metrics plus the tracing
overhead. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline_mono", "rest_spilled", "relational_outofcore")
PASS_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: End-to-end metrics printed in the report lines only: they apply to
#: some workloads, or (``ingest_s``, ``process_s``) spread too widely
#: between runs on a shared machine to gate a change.
REPORTED = {
    "ingest_s": "s",
    "process_s": "s",
    "clean_s": "s",
    "version_s": "s",
    "join_s": "s",
    "sort_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "reads_per_s": "1/s",
    "write_p50_ms": "ms",
}

STAGES = ("ingest", "profile", "quality", "detect", "repair", "load_version", "history")
TOOLS = ("sd", "iqr", "mv_detector")
ROUTES = (
    "upload", "profile", "detect", "repair", "job_poll", "preview", "quality",
    "detections", "versions", "cache", "health", "labels", "restore",
)
STRATEGIES = ("memory", "partitioned", "sortmerge")

PER_LAYER = (
    [
        ("io.write_csv_s", "s"),
        ("io.write_csv_calls", "count"),
        ("io.write_csv_rows", "count"),
        ("io.read_csv_s", "s"),
        ("io.read_csv_calls", "count"),
        ("io.read_csv_stream_s", "s"),
        ("io.read_csv_chunked_s", "s"),
        ("versioning.write_s", "s"),
        ("versioning.write_calls", "count"),
        ("versioning.read_s", "s"),
        ("versioning.read_calls", "count"),
        ("versioning.history_calls", "count"),
        ("versioning.stored_bytes_per_input_byte", "ratio"),
    ]
    + [(f"controller.{stage}_s", "s") for stage in STAGES]
    + [
        ("profiling.profile_s", "s"),
        ("profiling.profile_warm_s", "s"),
        ("profiling.peak_alloc_mb", "MB"),
    ]
    + [(f"detection.{tool}_s", "s") for tool in TOOLS]
    + [
        ("detection.peak_alloc_mb", "MB"),
        ("repair.fit_s", "s"),
        ("repair.apply_s", "s"),
        ("tracking.log_s", "s"),
        ("artifacts.hits", "count"),
        ("artifacts.misses", "count"),
        ("artifacts.hit_rate", "ratio"),
        ("artifacts.evictions", "count"),
        ("spill.spill_s", "s"),
        ("spill.spill_calls", "count"),
        ("spill.load_s", "s"),
        ("spill.loads", "count"),
        ("spill.hit_rate", "ratio"),
        ("spill.evictions", "count"),
        ("spill.spilled_bytes", "bytes"),
        ("spill.peak_resident_bytes", "bytes"),
        ("spill.columns_still_spilled", "count"),
        ("joins.join_s", "s"),
    ]
    + [(f"joins.strategy.{name}", "count") for name in STRATEGIES]
    + [
        ("joins.semi_join_s", "s"),
        ("joins.peak_alloc_mb", "MB"),
        ("sort.sort_s", "s"),
        ("ops.group_by_s", "s"),
        ("ops.peak_alloc_mb", "MB"),
    ]
    + [(f"http.dispatch_s.{route}", "s") for route in ROUTES]
    + [
        ("http.overhead_ms", "ms"),
        ("jobs.queue_wait_s", "s"),
        ("jobs.run_s", "s"),
        ("jobs.lock_wait_s", "s"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

#: Spans each workload must record at least once in its traced pass.
_PIPELINE_SPANS = (
    [f"controller.{stage}" for stage in STAGES]
    + ["io.write_csv", "io.read_csv", "profiling.profile", "repair.fit", "repair.apply"]
    + ["versioning.write", "versioning.read", "versioning.history", "versioning.restore"]
    + [f"detection.{tool}" for tool in TOOLS]
    + ["tracking.log"]
)
EXERCISED = {
    "pipeline_mono": _PIPELINE_SPANS,
    "rest_spilled": _PIPELINE_SPANS
    + ["io.read_csv_stream", "spill.spill", "spill.load", "jobs.run"]
    + [f"http.dispatch.{route}" for route in ROUTES],
    "relational_outofcore": [
        "joins.join", "joins.semi_join", "sort.sort", "ops.group_by",
        "spill.spill", "spill.load",
    ],
}
#: Span prefixes a workload must not touch.
IDLE = {
    "pipeline_mono": ("spill.", "http.", "jobs."),
    "rest_spilled": (),
    "relational_outofcore": ("io.", "versioning.", "controller.", "http.", "jobs."),
}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_pass(root: Path, workroot: Path, workload: str, seed: int, mode: str) -> dict:
    """Run one pass in a fresh process and return its result."""
    workdir = workroot / f"{mode}-{time.monotonic_ns()}"
    (workdir / "tmp").mkdir(parents=True)
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("DATALENS_")
    }
    env.update(TMPDIR=str(workdir / "tmp"), PYTHONHASHSEED="0")
    config = {
        "role": "pass", "workload": workload, "seed": seed,
        "mode": mode, "workdir": str(workdir),
    }
    # Flush what earlier passes wrote and deleted, so their writeback and
    # discards do not land inside this pass's timed steps.
    os.sync()
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} {mode} pass exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def timed_run(root, workroot, workload, seed, seconds) -> tuple[list, dict]:
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(root, workroot, workload, seed, "plain"))
    metrics = {
        "setup_s": statistics.median(t for p in passes for t in p["setup_s"]),
    }
    keys = [name for name, _ in END_TO_END[1:]] + list(REPORTED)
    for key in keys:
        values = [p["e2e"][key] for p in passes if key in p["e2e"]]
        if values:
            metrics[key] = statistics.median(values)
    return passes, metrics


def traced_run(root, workroot, workload, seed) -> tuple[list, dict]:
    plain = run_pass(root, workroot, workload, seed, "plain")
    traced = run_pass(root, workroot, workload, seed, "traced")
    memory = run_pass(root, workroot, workload, seed, "memory")
    metrics = layer_metrics(traced, memory["peak_alloc_mb"])
    metrics["trace.untraced_run_s"] = plain["e2e"]["run_s"]
    metrics["trace.overhead_ratio"] = traced["e2e"]["run_s"] / plain["e2e"]["run_s"]
    spans = traced["trace"]["spans"]
    for name in EXERCISED[workload]:
        if spans.get(name, [0])[0] == 0:
            traced["failures"].append(f"span {name} recorded no calls")
    for name, (calls, _, _) in spans.items():
        if calls and name.startswith(IDLE[workload]):
            traced["failures"].append(f"span {name} should be idle here")
    return [plain, traced], metrics


def layer_metrics(traced: dict, peak_alloc: dict) -> dict[str, float]:
    trace, facts = traced["trace"], traced["facts"]
    spans, counters, calls = trace["spans"], trace["counters"], trace["calls"]
    stores = trace["spill_stores"]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def count(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    profile_calls = calls.get("profiling.profile", [])
    artifacts = facts.get("artifacts", {})
    store_sum = {
        key: sum(store[key] for store in stores)
        for key in ("loads", "cache_hits", "evictions", "spilled_bytes")
    }
    lookups = store_sum["loads"] + store_sum["cache_hits"]
    client = facts.get("client_by_route", {})
    served = [route for route in client if route != "upload"]
    n_requests = sum(client[route][0] for route in served)
    metrics = {
        "io.write_csv_s": own("io.write_csv"),
        "io.write_csv_calls": count("io.write_csv"),
        "io.write_csv_rows": counters.get("io.write_csv_rows", 0),
        "io.read_csv_s": own("io.read_csv"),
        "io.read_csv_calls": count("io.read_csv"),
        "io.read_csv_stream_s": own("io.read_csv_stream"),
        "io.read_csv_chunked_s": own("io.read_csv_chunked"),
        "versioning.write_s": own("versioning.write"),
        "versioning.write_calls": count("versioning.write"),
        "versioning.read_s": own("versioning.read"),
        "versioning.read_calls": count("versioning.read"),
        "versioning.history_calls": count("versioning.history"),
        "versioning.stored_bytes_per_input_byte": (
            facts["delta_bytes"] / facts["input_csv_bytes"]
            if "delta_bytes" in facts else 0.0
        ),
        "profiling.profile_s": profile_calls[0] if profile_calls else 0.0,
        "profiling.profile_warm_s": profile_calls[-1] if len(profile_calls) > 1 else 0.0,
        "profiling.peak_alloc_mb": peak_alloc.get("profiling", 0.0),
        "detection.peak_alloc_mb": peak_alloc.get("detection", 0.0),
        "repair.fit_s": own("repair.fit"),
        "repair.apply_s": own("repair.apply"),
        "tracking.log_s": own("tracking.log"),
        "artifacts.hits": artifacts.get("hits", 0),
        "artifacts.misses": artifacts.get("misses", 0),
        "artifacts.hit_rate": artifacts.get("hit_rate", 0.0),
        "artifacts.evictions": artifacts.get("evictions", 0),
        "spill.spill_s": own("spill.spill"),
        "spill.spill_calls": count("spill.spill"),
        "spill.load_s": own("spill.load"),
        "spill.loads": store_sum["loads"],
        "spill.hit_rate": store_sum["cache_hits"] / lookups if lookups else 0.0,
        "spill.evictions": store_sum["evictions"],
        "spill.spilled_bytes": store_sum["spilled_bytes"],
        "spill.peak_resident_bytes": max(
            (store["peak_resident_bytes"] for store in stores), default=0
        ),
        "spill.columns_still_spilled": facts["columns_still_spilled"],
        "joins.join_s": own("joins.join"),
        "joins.semi_join_s": own("joins.semi_join"),
        "joins.peak_alloc_mb": peak_alloc.get("joins", 0.0),
        "sort.sort_s": own("sort.sort"),
        "ops.group_by_s": own("ops.group_by"),
        "ops.peak_alloc_mb": peak_alloc.get("ops", 0.0),
        "http.overhead_ms": (
            (
                sum(client[route][1] for route in served)
                - sum(total(f"http.dispatch.{route}") for route in served)
            ) / n_requests * 1e3
            if n_requests else 0.0
        ),
        "jobs.queue_wait_s": counters.get("jobs.queue_wait_s", 0.0),
        "jobs.run_s": total("jobs.run"),
        "jobs.lock_wait_s": counters.get("jobs.lock_wait_s", 0.0),
        "trace.run_s": traced["e2e"]["run_s"],
    }
    for stage in STAGES:
        metrics[f"controller.{stage}_s"] = total(f"controller.{stage}")
    for tool in TOOLS:
        metrics[f"detection.{tool}_s"] = own(f"detection.{tool}")
    for name in STRATEGIES:
        metrics[f"joins.strategy.{name}"] = counters.get(f"joins.strategy.{name}", 0)
    for route in ROUTES:
        metrics[f"http.dispatch_s.{route}"] = total(f"http.dispatch.{route}")
    return metrics


# ----------------------------------------------------------------------
def report(workload: str, passes: list, metrics: dict, declared: list) -> None:
    """Human-readable lines: every metric with its unit, then the facts."""
    print(f"perfbench {workload}: {len(passes)} pass(es)")
    units = dict(declared)
    units.update(REPORTED)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units.get(name, '')}")
    if "read_p95_ms" in metrics:
        samples = sum(p["facts"]["read_samples"] for p in passes)
        print(f"  read latencies from {samples} reads at 2 closed-loop clients")
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"  error_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    for key, value in passes[-1]["facts"].items():
        if not isinstance(value, dict):
            print(f"  fact {key} = {value}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no DataLens source under {root / 'src'}; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    workroot = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workroot.mkdir(parents=True)
    try:
        if args.trace:
            passes, metrics = traced_run(root, workroot, args.workload, args.seed)
            declared = PER_LAYER
        else:
            passes, metrics = timed_run(
                root, workroot, args.workload, args.seed, args.seconds
            )
            declared = END_TO_END
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass
        os.sync()
    report(args.workload, passes, metrics, declared)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
