"""One benchmark measurement: a single run_experiment call in a fresh process.

Started by run.py as `python3 bench/worker.py <job json>`. The job names the
source tree to import, the ExperimentConfig fields and whether to trace. Prints
one JSON line: the summary row and extras, the wall time of run_experiment,
the process's peak resident memory, the workload's fixed query budget (null
for stopping scenarios), versions, and with tracing the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def budget(mathcore, config) -> int | None:
    noise = mathcore.NoiseParams.from_p(config.p)
    if config.scenario == "graph-adversarial":
        return mathcore.worst_case_budget_graph(config.n, noise, config.delta).q
    if config.scenario == "bin-adversarial":
        return mathcore.worst_case_budget_linear(
            config.n, noise, config.delta, config.c_const
        ).q
    return None


def run(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    from noisysearch import harness, mathcore

    if not Path(harness.__file__).resolve().is_relative_to(src):
        raise ImportError(f"noisysearch imported from {harness.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = harness.ExperimentConfig(**job["config"])
    start = time.perf_counter()
    stats = harness.run_experiment(config)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.remove(config.output)
    out = {
        "row": stats.row(),
        "extras": stats.extras,
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "budget": budget(mathcore, config),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["absent_hooks"] = tracer.absent
    return out


def main() -> int:
    try:
        out = run(json.loads(sys.argv[1]))
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
