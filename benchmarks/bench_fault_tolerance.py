"""Fault-tolerance benchmark: serving under injected storage faults.

Boots the real asyncio HTTP server over a spill-configured workspace
(chunked NASA, tight spill budget so the storage sites actually fire),
then measures the same concurrent read workload twice: fault-free
baseline vs. ~5%% seeded transient faults on every ``spill.*`` site.
The internal retry layer must absorb the faults, so the chaos leg is
held to the acceptance bar:

* zero 5xx / dead sockets (clients retry on 5xx, but none should occur
  for absorbed transient faults);
* **zero corrupted responses** — every body is byte-compared against
  the baseline run;
* bounded latency inflation (reported, and sanity-bounded);
* the dataset is still spilled after both legs, and the ``spill.*``
  rule fired under chaos: concurrent reads, previews included, go
  through the spill store and never densify the frame.

A second leg injects a transient fault into a queued job and shows the
automatic retry converging to ``done`` with the attempt on record.

``DATALENS_BENCH_CLIENTS`` overrides the client count (default 8).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

from repro.api import TestClient, create_app, serve
from repro.core import DataLens, faults

from conftest import print_table

CLIENTS = int(os.environ.get("DATALENS_BENCH_CLIENTS", "8"))
REQUESTS_PER_CLIENT = 20
#: ~5% per-invocation transient faults on every storage site, seeded so
#: both benchmark runs inject the identical sequence.
CHAOS_PLAN = "site=spill.*,error=transient,prob=0.05,seed=11"
#: The sorted preview runs the external sort through the spill store
#: (the frame stays spilled), so the ``spill.*`` rule has sites to hit.
READ_PATHS = (
    "/health",
    "/datasets/nasa",
    "/datasets/nasa?sort_by=Frequency,Angle",
    "/datasets/nasa/quality",
    "/datasets/nasa/detections",
    "/datasets/nasa/spill",
)
#: Paths whose bodies must be byte-identical between runs (the spill
#: endpoint legitimately differs: it reports retry counters).
COMPARED_PATHS = frozenset(READ_PATHS) - {"/datasets/nasa/spill"}
MAX_RETRIES_PER_REQUEST = 3


def _boot(tmp_path, nasa_bundle, name):
    lens = DataLens(
        tmp_path / name,
        seed=0,
        chunk_size=257,
        spill_budget=64 * 1024,
        spill_dir=tmp_path / f"{name}-spill",
    )
    lens.ingest_frame("nasa", nasa_bundle.dirty)
    router = create_app(lens)
    seeded = TestClient(router).post(
        "/datasets/nasa/detect", {"tools": ["mv_detector", "iqr"]}
    )
    assert seeded.status == 200
    server = serve(router, port=0)
    return router, server


def _client_worker(
    port: int,
    client_id: int,
    latencies: list,
    bodies: dict,
    failures: list,
    retries: list,
) -> None:
    """Keep-alive reader that retries on 5xx (per the Retry-After contract)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for i in range(REQUESTS_PER_CLIENT):
            path = READ_PATHS[(client_id + i) % len(READ_PATHS)]
            start = time.perf_counter()
            body = None
            for attempt in range(1 + MAX_RETRIES_PER_REQUEST):
                conn.request("GET", path)
                response = conn.getresponse()
                payload = response.read()
                if response.status < 500:
                    body = payload
                    break
                retries.append((path, response.status))
            latencies.append(time.perf_counter() - start)
            if body is None:
                failures.append((path, "exhausted retries"))
            elif path in COMPARED_PATHS:
                bodies.setdefault(path, set()).add(body)
    except Exception as error:  # noqa: BLE001 — a dead socket is a failure
        failures.append((f"client {client_id}", repr(error)))
    finally:
        conn.close()


def _run_leg(port: int):
    latencies: list[float] = []
    failures: list = []
    retries: list = []
    bodies: dict[str, set[bytes]] = {}
    lock = threading.Lock()

    def worker(client_id: int):
        mine: list[float] = []
        _client_worker(port, client_id, mine, bodies, failures, retries)
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=worker, args=(client_id,))
        for client_id in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - start
    return latencies, failures, retries, bodies, wall


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def test_fault_tolerance_under_load(benchmark, tmp_path, nasa_bundle):
    router, server = _boot(tmp_path, nasa_bundle, "chaosbench")
    port = server.server_address[1]
    try:
        base_lat, base_fail, _, base_bodies, base_wall = _run_leg(port)
        assert base_fail == [], f"baseline failures: {base_fail[:5]}"

        def chaos_leg():
            with faults.inject(CHAOS_PLAN) as plan:
                result = _run_leg(port)
            fires = {rule["site"]: rule["fires"] for rule in plan.stats()}
            return result + (fires,)

        chaos_lat, chaos_fail, retries, chaos_bodies, chaos_wall, fires = (
            benchmark.pedantic(chaos_leg, rounds=1, iterations=1)
        )
        fired = sum(fires.values())
        assert chaos_fail == [], f"failures under chaos: {chaos_fail[:5]}"
        assert fires["spill.*"] > 0, (
            "no read of the spilled dataset went through the spill store"
        )
        spill = TestClient(router).get("/datasets/nasa/spill")
        assert spill.status == 200 and spill.body["enabled"] is True, (
            "concurrent reads densified the spilled dataset"
        )
        # Zero corrupted responses: each compared path served exactly one
        # body shape in both runs, and they are byte-identical.
        for path in COMPARED_PATHS:
            assert chaos_bodies[path] == base_bodies[path], (
                f"response bodies diverged under chaos for {path}"
            )
        base_p99 = _percentile(base_lat, 0.99)
        chaos_p99 = _percentile(chaos_lat, 0.99)
        # Sanity bound, not a perf SLO: absorbed retries back off in the
        # low milliseconds, so p99 must stay the same order of magnitude.
        assert chaos_p99 < max(10 * base_p99, 1.0), (
            f"p99 exploded under chaos: {base_p99:.4f}s -> {chaos_p99:.4f}s"
        )
        print_table(
            f"Fault tolerance — {CLIENTS} clients, ~5% transient storage faults",
            [
                "leg",
                "requests",
                "faults fired",
                "client retries",
                "5xx after retry",
                "p50 (ms)",
                "p99 (ms)",
                "rps",
            ],
            [
                [
                    "baseline",
                    len(base_lat),
                    0,
                    0,
                    0,
                    round(_percentile(base_lat, 0.50) * 1e3, 2),
                    round(base_p99 * 1e3, 2),
                    round(len(base_lat) / base_wall, 1),
                ],
                [
                    "chaos",
                    len(chaos_lat),
                    fired,
                    len(retries),
                    0,
                    round(_percentile(chaos_lat, 0.50) * 1e3, 2),
                    round(chaos_p99 * 1e3, 2),
                    round(len(chaos_lat) / chaos_wall, 1),
                ],
            ],
        )
    finally:
        server.shutdown()
        router.job_queue.shutdown()


def test_faulted_async_job_converges(tmp_path, nasa_bundle):
    """A transiently-failing queued job retries to the baseline result."""
    router, server = _boot(tmp_path, nasa_bundle, "chaosjob")
    router.job_queue.retry_base_delay = 0.001
    port = server.server_address[1]
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

        def run_job():
            conn.request(
                "POST",
                "/datasets/nasa/detect?async=1",
                body=json.dumps({"tools": ["mv_detector"]}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            submitted = json.loads(response.read())
            assert response.status == 202, submitted
            job = router.job_queue.wait(submitted["job_id"], timeout=120)
            conn.request("GET", f"/jobs/{submitted['job_id']}")
            return json.loads(conn.getresponse().read()), job

        baseline, _ = run_job()
        with faults.inject("site=job.run,error=transient,count=1"):
            retried, _ = run_job()
        conn.close()
        assert baseline["status"] == retried["status"] == "done"
        assert retried["result"] == baseline["result"]
        assert len(retried["attempts"]) == 1
        print_table(
            "Async job with one injected transient fault",
            ["leg", "status", "attempts recorded", "result identical"],
            [
                ["baseline", baseline["status"], len(baseline["attempts"]), "-"],
                ["chaos", retried["status"], len(retried["attempts"]), "yes"],
            ],
        )
    finally:
        server.shutdown()
        router.job_queue.shutdown()
