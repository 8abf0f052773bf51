"""The three benchmark workloads: inputs, scripted user path, output checks.

Each workload is one pass of a user's path through DataLens, driven
through public calls and timed step by step from outside:

``pipeline_mono``
    In-process ``DataLens`` over a monolithic 100k x 10 frame: ingest ->
    profile -> quality -> detect -> repair -> re-profile of the repaired
    frame -> time travel to v0 -> restore v0 -> version history.
``rest_spilled``
    The same-shape data as CSV, uploaded to a real socket server whose
    ``DataLens`` chunks at 4096 rows and spills above 1 MiB; async
    profile/detect/repair jobs, a closed-loop read mix from two
    keep-alive clients, then restore v0 and re-profile.
``relational_outofcore``
    Three tables spilled into one 256 KiB ``SpillStore``: joins against a
    sorted and a shuffled dimension, a semi-join, an external sort and a
    group-by, run twice per timed pass.

Inputs come only from the seed. Every value survives the program's CSV
round trip (floats are written with ``repr``; strings are never numeric,
boolean or null tokens), so fingerprint checks hold for any seed.
"""

from __future__ import annotations

import gc
import http.client
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tracer import route_of

# -- pipeline inputs ----------------------------------------------------
N_ROWS = 100_000
N_FLOAT = 6
N_STRING = 4
#: Columns with nulls: every float column and the first two string
#: columns, at a rate giving 1% null cells overall. The last two string
#: columns stay untouched by detection and repair, so the re-profile of
#: the repaired frame finds their artifacts in the cache.
NULL_COLUMNS = [f"f{j}" for j in range(N_FLOAT)] + ["s0", "s1"]
NULL_RATE = 0.01 * (N_FLOAT + N_STRING) / len(NULL_COLUMNS)
OUTLIER_RATE = 0.005
DETECTORS = ["sd", "iqr", "mv_detector"]
REPAIRER = "standard_imputer"

# -- REST serving ---------------------------------------------------------
CHUNK_SIZE = 4096
SPILL_BUDGET = 1 << 20
MIX_CLIENTS = 2
MIX_REQUESTS_PER_CLIENT = 1000
#: One cycle of the closed-loop mix: seven reads and one label write.
MIX_CYCLE = [
    ("GET", "/datasets/d?limit=20"),
    ("GET", "/datasets/d/quality"),
    ("GET", "/datasets/d/detections"),
    ("GET", "/datasets/d/versions"),
    ("GET", "/datasets/d/profile"),
    ("GET", "/datasets/d/cache"),
    ("GET", "/health"),
    ("PUT", "/datasets/d/labels"),
]
POLL_INTERVAL_S = 0.005

# -- relational inputs ----------------------------------------------------
N_FACT = 60_000
N_DIM = 20_000
N_KEYS = 5_000
N_TAGS = 40
RELATIONAL_BUDGET = 256 * 1024
KEY_NULL_RATE = 0.01
RELATIONAL_SEQUENCES = 2

SETUP_REPEATS = 3


class Pass:
    """Times the user-visible steps of one pass and collects failures."""

    def __init__(self) -> None:
        self.steps: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def step(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        self.attempted += 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.steps[name] = self.steps.get(name, 0.0) + time.perf_counter() - start
        return result

    def check(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)

    def total(self, *names: str) -> float:
        return sum(self.steps[name] for name in names)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak_alloc_mb(fn: Callable, *args: Any, **kwargs: Any) -> float:
    """Peak bytes allocated while ``fn`` runs, under tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def fingerprints(frame) -> dict[str, str]:
    return {name: frame.column(name).fingerprint() for name in frame.column_names}


def timed_setup(
    build: Callable[[], Any], discard: Callable[[Any], None] | None = None
) -> tuple[Any, list[float]]:
    """Run ``build`` SETUP_REPEATS times; keep the last result.

    ``discard`` releases each earlier result, outside the timed region.
    """
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        if result is not None and discard is not None:
            discard(result)
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, times


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def pipeline_columns(seed: int) -> dict[str, list[Any]]:
    """6 float + 4 string columns, 1% nulls, ~0.5% outliers per float column."""
    rng = np.random.default_rng(seed)
    columns: dict[str, list[Any]] = {}
    for j in range(N_FLOAT):
        scale = 1.0 + j
        values = rng.normal(10.0 * (j + 1), scale, N_ROWS)
        outliers = rng.random(N_ROWS) < OUTLIER_RATE
        n_out = int(outliers.sum())
        values[outliers] += (
            rng.choice([-1.0, 1.0], n_out) * rng.uniform(8.0, 12.0, n_out) * scale
        )
        columns[f"f{j}"] = values.tolist()
    for j in range(N_STRING):
        categories = [f"cat{j}_{k:03d}" for k in range(12 + 8 * j)]
        codes = rng.integers(0, len(categories), N_ROWS)
        columns[f"s{j}"] = [categories[code] for code in codes.tolist()]
    for name in NULL_COLUMNS:
        column = columns[name]
        for row in np.flatnonzero(rng.random(N_ROWS) < NULL_RATE).tolist():
            column[row] = None
    return columns


def csv_bytes(columns: dict[str, list[Any]]) -> bytes:
    """CSV the program parses back to exactly these values."""
    rendered = [
        ["" if value is None else repr(value) if isinstance(value, float) else value
         for value in values]
        for values in columns.values()
    ]
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in zip(*rendered))
    return ("\n".join(lines) + "\n").encode("utf-8")


def relational_arrays(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    dim_key = np.sort(rng.integers(0, N_KEYS, N_DIM))
    return {
        "fact_key": rng.integers(0, N_KEYS, N_FACT),
        "fact_key_missing": rng.random(N_FACT) < KEY_NULL_RATE,
        "x0": rng.normal(0.0, 1.0, N_FACT),
        "x1": rng.normal(0.0, 1.0, N_FACT),
        "tag": rng.integers(0, N_TAGS, N_FACT),
        "dim_key": dim_key,
        "w0": rng.normal(5.0, 2.0, N_DIM),
        "label": rng.integers(0, 25, N_DIM),
        "perm": rng.permutation(N_DIM),
    }


def relational_tables(arrays: dict[str, np.ndarray]) -> list[dict[str, list[Any]]]:
    """Column lists of the fact table, the sorted and the shuffled dimension."""
    fact = {
        "key": [
            None if missing else key
            for key, missing in zip(
                arrays["fact_key"].tolist(), arrays["fact_key_missing"].tolist()
            )
        ],
        "x0": arrays["x0"].tolist(),
        "x1": arrays["x1"].tolist(),
        "tag": [f"t{tag}" for tag in arrays["tag"].tolist()],
    }

    def dimension(order: np.ndarray) -> dict[str, list[Any]]:
        return {
            "key": arrays["dim_key"][order].tolist(),
            "w0": arrays["w0"][order].tolist(),
            "label": [f"l{label}" for label in arrays["label"][order].tolist()],
        }

    return [fact, dimension(np.arange(N_DIM)), dimension(arrays["perm"])]


# ----------------------------------------------------------------------
# pipeline_mono
# ----------------------------------------------------------------------
def pipeline_mono(seed: int, workdir: Path, mode: str) -> dict[str, Any]:
    from repro.core import DataLens
    from repro.dataframe import DataFrame
    from repro.profiling import profile

    def setup():
        columns = pipeline_columns(seed)
        frame = DataFrame.from_dict(columns)
        shutil.rmtree(workdir / "lens", ignore_errors=True)
        return columns, frame, DataLens(workdir / "lens", seed=0)

    (columns, frame, lens), setup_times = timed_setup(setup)
    if mode == "memory":
        session = lens.ingest_frame("d", frame)
        return {
            "peak_alloc_mb": {
                "profiling": peak_alloc_mb(session.profile),
                "detection": peak_alloc_mb(session.run_detection, DETECTORS),
            }
        }

    run = Pass()
    session = run.step("ingest", lens.ingest_frame, "d", frame)
    run.step("profile", session.profile)
    run.step("quality", session.quality_metrics)
    cells = run.step("detect", session.run_detection, DETECTORS)
    per_tool = [session.detection_results[tool].cells for tool in DETECTORS]
    run.check(
        "union of per-tool detections equals the consolidated set",
        set().union(*per_tool) == cells,
    )
    repaired = run.step("repair", session.run_repair, REPAIRER)
    run.step("reprofile", profile, repaired, store=session.artifacts)
    v0 = fingerprints(run.step("time_travel", session.load_version, 0))

    def restore() -> Any:
        return session.load_version(session.delta.restore(0))

    restored = fingerprints(run.step("restore", restore))
    history = run.step("history", session.version_history)
    rss = peak_rss_mb()

    expected = fingerprints(DataFrame.from_dict(columns))
    run.check("Delta v0 matches the input fingerprints", v0 == expected)
    run.check("restored version matches the input fingerprints", restored == expected)
    run.check(
        "history is upload, repair, restore",
        [commit["operation"] for commit in history] == ["upload", "repair", "restore"],
    )
    ingest = run.total("ingest")
    clean = run.total("profile", "quality", "detect", "repair", "reprofile")
    version = run.total("time_travel", "restore", "history")
    return {
        "setup_s": setup_times,
        "steps": run.steps,
        "e2e": {
            "run_s": ingest + clean + version,
            "ingest_s": ingest,
            "process_s": clean,
            "clean_s": clean,
            "version_s": version,
            "peak_rss_mb": rss,
        },
        "attempted": run.attempted,
        "failures": run.failures,
        "facts": {
            "input_csv_bytes": len(csv_bytes(columns)),
            "delta_bytes": _tree_bytes(session.workspace.delta_path),
            "artifacts": session.artifacts.stats(),
            "columns_still_spilled": _columns_still_spilled(session.frame),
            "detected_cells": len(cells),
        },
    }


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in Path(root).rglob("*") if path.is_file())


def _columns_still_spilled(frame) -> int:
    from repro.dataframe import SpilledChunkedColumn

    return sum(
        1
        for name in frame.column_names
        if isinstance(frame.column(name), SpilledChunkedColumn)
        and frame.column(name).spilled
    )


# ----------------------------------------------------------------------
# relational_outofcore
# ----------------------------------------------------------------------
def relational_outofcore(seed: int, workdir: Path, mode: str) -> dict[str, Any]:
    from repro.dataframe import (
        DataFrame,
        SpillStore,
        group_by,
        join,
        semi_join_mask,
        sort_by,
        spill_frame,
    )

    def setup():
        arrays = relational_arrays(seed)
        return arrays, [DataFrame.from_dict(table) for table in relational_tables(arrays)]

    (arrays, frames), setup_times = timed_setup(setup)
    aggregations = {"n": ("key", "count"), "x0_mean": ("x0", "mean")}

    def ingest():
        """Spill the three frames into one fresh store."""
        store = SpillStore(budget_bytes=RELATIONAL_BUDGET, directory=workdir / "spill")
        return store, [
            spill_frame(frame, store=store, chunk_size=CHUNK_SIZE) for frame in frames
        ]

    if mode == "memory":
        _, (fact, _, dim_shuffled) = ingest()
        return {
            "peak_alloc_mb": {
                "joins": peak_alloc_mb(join, fact, dim_shuffled, ["key"], how="left"),
                "ops": peak_alloc_mb(group_by, fact, ["tag"], aggregations),
            }
        }

    valid = ~arrays["fact_key_missing"]
    matches = np.bincount(arrays["dim_key"], minlength=N_KEYS)[arrays["fact_key"]] * valid
    tags = np.array([f"t{tag}" for tag in arrays["tag"].tolist()])
    order = np.lexsort((arrays["x0"], tags))

    def sequence() -> tuple[Pass, dict[str, Any]]:
        run = Pass()
        store, (fact, dim_sorted, dim_shuffled) = run.step("ingest", ingest)
        inner = run.step("join_sorted", join, fact, dim_sorted, ["key"])
        left = run.step(
            "join_shuffled_left", join, fact, dim_shuffled, ["key"], how="left"
        )
        member = run.step("semi_join", semi_join_mask, fact, dim_shuffled, ["key"])
        ordered = run.step("sort", sort_by, fact, ["tag", "x0"])
        groups = run.step("group_by", group_by, fact, ["tag"], aggregations)
        facts = {
            "columns_still_spilled": sum(
                _columns_still_spilled(frame)
                for frame in (fact, dim_sorted, dim_shuffled)
            ),
            "joined_rows": inner.num_rows,
        }
        run.check("inner join row count", inner.num_rows == int(matches.sum()))
        run.check(
            "left join row count",
            left.num_rows == int(matches.sum() + (matches == 0).sum()),
        )
        run.check(
            "semi-join mask equals np.isin",
            np.array_equal(
                np.asarray(member),
                valid & np.isin(arrays["fact_key"], arrays["dim_key"]),
            ),
        )
        run.check(
            "sort output is the ordered permutation",
            ordered.column("tag").values() == tags[order].tolist()
            and np.array_equal(
                np.array(ordered.column("x0").values()), arrays["x0"][order]
            ),
        )
        run.check(
            "group counts sum to the non-null keys",
            sum(groups.column("n").values()) == int(valid.sum())
            and groups.num_rows == len(set(tags.tolist())),
        )
        store.close()
        return run, facts

    # One sequence varies by about 20% between runs on a shared machine,
    # so a timed pass runs it RELATIONAL_SEQUENCES times and reports
    # medians; the traced pass runs it once.
    runs = [sequence() for _ in range(1 if mode == "traced" else RELATIONAL_SEQUENCES)]
    rss = peak_rss_mb()

    def median_of(*names: str) -> float:
        return statistics.median(run.total(*names) for run, _ in runs)

    process = ("join_sorted", "join_shuffled_left", "semi_join", "sort", "group_by")
    return {
        "setup_s": setup_times,
        "steps": {name: median_of(name) for name in runs[0][0].steps},
        "e2e": {
            "run_s": median_of("ingest", *process),
            "ingest_s": median_of("ingest"),
            "process_s": median_of(*process),
            "join_s": median_of("join_sorted", "join_shuffled_left"),
            "sort_s": median_of("sort"),
            "peak_rss_mb": rss,
        },
        "attempted": sum(run.attempted for run, _ in runs),
        "failures": [failure for run, _ in runs for failure in run.failures],
        "facts": runs[-1][1],
    }


# ----------------------------------------------------------------------
# rest_spilled
# ----------------------------------------------------------------------
class Client:
    """Keep-alive JSON client that times every request by route."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.by_route: dict[str, list[float]] = {}

    def request(
        self,
        method: str,
        path: str,
        body: Any = None,
        content_type: str = "application/json",
    ) -> tuple[int, Any, float]:
        headers = {}
        if body is not None:
            if not isinstance(body, bytes):
                body = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = content_type
        start = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        if response.getheader("Connection", "").lower() == "close":
            self.connection.close()
        entry = self.by_route.setdefault(route_of(path.split("?")[0]), [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        return response.status, json.loads(raw), elapsed

    def close(self) -> None:
        self.connection.close()


class Server:
    """The REST server in its own process (``worker.py`` in the serve role)."""

    def __init__(self, workdir: Path, trace: bool) -> None:
        config = {"role": "serve", "workdir": str(workdir), "trace": trace}
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError("server process exited before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict[str, Any]:
        """Ask the server to shut down; returns its final report."""
        try:
            out, _ = self.process.communicate("stop\n", timeout=120)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def rest_spilled(seed: int, workdir: Path, mode: str) -> dict[str, Any]:
    if mode == "memory":
        return _rest_memory(seed, workdir)

    servers: list[Server] = []

    def setup():
        body = csv_bytes(pipeline_columns(seed))
        shutil.rmtree(workdir / "lens", ignore_errors=True)
        servers.append(Server(workdir, trace=mode == "traced"))
        return body, servers[-1]

    try:
        (body, server), setup_times = timed_setup(
            setup, discard=lambda built: built[1].stop()
        )
        result = _rest_pass(seed, body, server)
    finally:
        for server in servers:
            if server.process.poll() is None:
                server.process.kill()
                server.process.wait()
    result["setup_s"] = setup_times
    return result


def _poll_job(client: Client, run: Pass, accepted: tuple[int, Any, float]) -> Any:
    status, payload, _ = accepted
    if status != 202:
        raise RuntimeError(f"job submit answered {status}: {payload}")
    while True:
        run.attempted += 1
        status, job, _ = client.request("GET", payload["poll"])
        if status != 200:
            raise RuntimeError(f"job poll answered {status}: {job}")
        if job["status"] == "done":
            return job["result"]
        if job["status"] == "failed":
            raise RuntimeError(f"job {job['kind']} failed: {job['error']}")
        time.sleep(POLL_INTERVAL_S)


def _mix_client(port: int, offset: int, out: list) -> None:
    client = Client(port)
    samples = []
    try:
        for i in range(MIX_REQUESTS_PER_CLIENT):
            method, path = MIX_CYCLE[(offset + i) % len(MIX_CYCLE)]
            body = None
            if method == "PUT":
                body = {"row": (offset * 7919 + i) % N_ROWS, "column": "f0", "is_dirty": True}
            status, _, elapsed = client.request(method, path, body)
            samples.append((method, status, elapsed))
    finally:
        client.close()
        out.append((samples, client.by_route))


def _rest_pass(seed: int, body: bytes, server: Server) -> dict[str, Any]:
    run = Pass()
    client = Client(server.port)
    try:
        run.attempted += 1
        status, uploaded, ingest = client.request(
            "POST", "/datasets/d/upload", body, content_type="text/csv"
        )
        if status != 200:
            raise RuntimeError(f"upload answered {status}: {uploaded}")
        run.steps["ingest"] = ingest
        run.check("upload shape", uploaded["shape"] == [N_ROWS, N_FLOAT + N_STRING])

        def job(method: str, path: str, payload: Any = None) -> Any:
            return _poll_job(client, run, client.request(method, path, payload))

        def checked(method: str, path: str, payload: Any = None) -> Any:
            status, answer, _ = client.request(method, path, payload)
            if status != 200:
                raise RuntimeError(f"{method} {path} answered {status}: {answer}")
            return answer

        run.step("profile", job, "GET", "/datasets/d/profile?async=1")
        detected = run.step(
            "detect", job, "POST", "/datasets/d/detect?async=1", {"tools": DETECTORS}
        )
        run.step(
            "repair", job, "POST", "/datasets/d/repair?async=1", {"tool": REPAIRER}
        )

        run.attempted += 1
        spilled_before_mix = checked("GET", "/datasets/d/spill")["enabled"]
        outputs: list = []
        threads = [
            threading.Thread(target=_mix_client, args=(server.port, 4 * k, outputs))
            for k in range(MIX_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        mix_wall = time.perf_counter() - start
        samples = [sample for client_samples, _ in outputs for sample in client_samples]
        run.attempted += len(samples)
        mix_failed = sum(1 for _, status, _ in samples if not 200 <= status < 300)
        if len(outputs) != MIX_CLIENTS:
            raise RuntimeError("a read-mix client crashed")
        reads = np.array([elapsed for method, _, elapsed in samples if method == "GET"])
        writes = np.array([elapsed for method, _, elapsed in samples if method == "PUT"])

        run.attempted += 2
        spilled_after_mix = checked("GET", "/datasets/d/spill")["enabled"]
        run.check(
            "detections endpoint lists the detect job's cells",
            checked("GET", "/datasets/d/detections")["num_cells"]
            == detected["num_cells"],
        )

        restored = run.step(
            "restore", checked, "POST", "/datasets/d/versions/restore", {"version": 0}
        )
        history = run.step("history", checked, "GET", "/datasets/d/versions")
        report = run.step("reprofile", checked, "GET", "/datasets/d/profile")
        run.check("restore commits version 2", restored["new_version"] == 2)
        run.check(
            "history is upload, repair, restore",
            [commit["operation"] for commit in history["versions"]]
            == ["upload", "repair", "restore"],
        )
        run.check("re-profile covers every row", report["overview"]["rows"] == N_ROWS)
    finally:
        # Close every keep-alive socket before the server shuts down, so
        # shutdown finds no idle connection to cancel.
        client.close()
    served = server.stop()

    from repro.dataframe import DataFrame

    expected = fingerprints(DataFrame.from_dict(pipeline_columns(seed)))
    run.check("Delta v0 matches the input fingerprints", served["v0"] == expected)
    run.check(
        "restored version matches the input fingerprints",
        served["restored"] == expected,
    )
    run.check(
        "union of per-tool detections equals the consolidated set",
        served["detections_union_ok"],
    )
    run.failures.extend(["read-mix response was not 2xx"] * mix_failed)

    by_route: dict[str, list[float]] = {}
    for routes in [client.by_route] + [routes for _, routes in outputs]:
        for route, (count, total) in routes.items():
            entry = by_route.setdefault(route, [0, 0.0])
            entry[0] += count
            entry[1] += total
    ingest_s = run.total("ingest")
    clean = run.total("profile", "detect", "repair")
    version = run.total("restore", "history", "reprofile")
    return {
        "steps": run.steps,
        "e2e": {
            "run_s": ingest_s + clean + mix_wall + version,
            "ingest_s": ingest_s,
            "process_s": clean,
            "clean_s": clean,
            "version_s": version,
            "read_p50_ms": float(np.percentile(reads, 50) * 1e3),
            "read_p95_ms": float(np.percentile(reads, 95) * 1e3),
            "reads_per_s": len(reads) / mix_wall,
            "write_p50_ms": float(np.percentile(writes, 50) * 1e3),
            "peak_rss_mb": served["peak_rss_mb"],
        },
        "attempted": run.attempted,
        "failures": run.failures,
        "facts": {
            "read_samples": len(reads),
            "write_samples": len(writes),
            "input_csv_bytes": len(body),
            "delta_bytes": served["delta_bytes"],
            "artifacts": served["artifacts"],
            "columns_still_spilled": served["columns_still_spilled"],
            "frame_spilled_before_mix": spilled_before_mix,
            "frame_spilled_after_mix": spilled_after_mix,
            "client_by_route": by_route,
            "detected_cells": detected["num_cells"],
        },
        "server": served,
    }


def _rest_memory(seed: int, workdir: Path) -> dict[str, Any]:
    """Allocation peaks of the spilled session's stages, in process."""
    import io

    from repro.core import DataLens

    body = csv_bytes(pipeline_columns(seed))
    lens = DataLens(
        workdir / "lens-memory",
        seed=0,
        chunk_size=CHUNK_SIZE,
        spill_budget=SPILL_BUDGET,
        spill_dir=workdir / "spill",
    )
    session = lens.ingest_csv_stream(
        "d", io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", newline="")
    )
    return {
        "peak_alloc_mb": {
            "profiling": peak_alloc_mb(session.profile),
            "detection": peak_alloc_mb(session.run_detection, DETECTORS),
        }
    }


def serve(workdir: Path, trace: bool) -> None:
    """Server role: boot, print the port, serve until stdin says stop."""
    from repro.api.app import create_app
    from repro.api.http import serve as start_server
    from repro.core import DataLens
    from repro.core.controller import DataLensSession
    from repro.versioning.table import DeltaTable

    # Output checks need what the server saw: the per-tool detections of
    # each run and the frame Delta v0 reads back as. Keeping references
    # costs nothing inside the timed requests; fingerprints are taken
    # after shutdown.
    seen: dict[str, Any] = {"detections": [], "v0": None}
    run_detection = DataLensSession.run_detection
    read_version = DeltaTable.read

    def remember_detection(self, *args: Any, **kwargs: Any):
        cells = run_detection(self, *args, **kwargs)
        seen["detections"].append((dict(self.detection_results), cells))
        return cells

    def remember_v0(self, version=None):
        frame = read_version(self, version)
        if version == 0:
            seen["v0"] = frame
        return frame

    DataLensSession.run_detection = remember_detection
    DeltaTable.read = remember_v0

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    lens = DataLens(
        workdir / "lens",
        seed=0,
        chunk_size=CHUNK_SIZE,
        spill_budget=SPILL_BUDGET,
        spill_dir=workdir / "spill",
    )
    app = create_app(lens)
    server = start_server(app, port=0)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.readline()
    server.shutdown()
    app.job_queue.shutdown()
    rss = peak_rss_mb()

    report: dict[str, Any] = {"peak_rss_mb": rss}
    if "d" in lens.list_datasets():
        session = lens.session("d")
        report.update(
            v0=fingerprints(seen["v0"]) if seen["v0"] is not None else None,
            restored=fingerprints(session.frame),
            detections_union_ok=bool(seen["detections"])
            and all(
                set().union(*(r.cells for r in results.values())) == cells
                for results, cells in seen["detections"]
            ),
            columns_still_spilled=_columns_still_spilled(session.frame),
            delta_bytes=_tree_bytes(session.workspace.delta_path),
            artifacts=lens.artifact_store.stats(),
        )
    if tracer is not None:
        report["trace"] = tracer.snapshot()
        report["trace"]["spill_stores"] = [s.stats() for s in tracer.spill_stores]
    print(json.dumps(report), flush=True)


WORKLOADS = {
    "pipeline_mono": pipeline_mono,
    "rest_spilled": rest_spilled,
    "relational_outofcore": relational_outofcore,
}
