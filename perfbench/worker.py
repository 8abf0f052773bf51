"""One benchmark process: a single pass of a workload, or the REST server.

Started by ``run.py`` with one JSON argument, from the checkout root:

    python3 perfbench/worker.py '{"role": "pass", "workload": "pipeline_mono",
                                  "seed": 1, "mode": "plain", "workdir": "..."}'

``mode`` is ``plain`` (timed, untraced), ``traced`` (spans on) or
``memory`` (tracemalloc around selected stages). The result is printed
as the last line of standard output. Each pass runs in a fresh process
so its peak RSS belongs to that pass alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _import_program() -> None:
    source = Path.cwd() / "src"
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"repro was imported from {repro.__file__}, not {source}")


def main() -> None:
    config = json.loads(sys.argv[1])
    _import_program()
    import workloads

    workdir = Path(config["workdir"])
    if config["role"] == "serve":
        workloads.serve(workdir, config["trace"])
        return

    name, mode = config["workload"], config["mode"]
    tracer = None
    if mode == "traced" and name != "rest_spilled":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    result = workloads.WORKLOADS[name](config["seed"], workdir, mode)
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["trace"]["spill_stores"] = [s.stats() for s in tracer.spill_stores]
    elif "server" in result:
        result["trace"] = result["server"].pop("trace", None)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
