"""Benchmark of the noisy-search Monte Carlo harness.

    python3 bench/run.py --workload grid-fixed --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a checkout; the program is imported from ./src, and
the benchmark exits 2 without it. Each measurement is one
noisysearch.harness.run_experiment call with workers=1 in a fresh process
(worker.py). --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones (tracer.py), and the last line of stdout is the
JSON result. README.md defines every metric and the output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "NOISY_SEARCH_THREADS": "1"}
SETUP_PROBES = 5
MIN_RUNS = 3
DEADLINE_S = 170.0  # a whole invocation must end within 180 s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class Bench:
    """Sequential worker runs of one invocation, with their tally."""

    def __init__(self, bounded: bool = True) -> None:
        self.bounded = bounded
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.issues: list[str] = []
        self.versions: dict = {}

    def run(self, config: dict, trace: bool = False, probe: bool = False) -> dict | None:
        """One checked run_experiment call in a fresh process; None if it failed."""
        OUT.mkdir(exist_ok=True)
        job = {
            "src": str(SRC),
            "trace": trace,
            "config": {**config, "workers": 1, "output": str(OUT / f"{os.getpid()}.csv")},
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            result = {"error": "worker timed out"}
        else:
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"error": proc.stderr or "worker printed no result"}
        found = check(result, config, bounded=self.bounded and not probe)
        self.attempted += config["trials"]
        if found:
            self.failed += config["trials"]
            self.issues += [f"seed {config['seed']}: {issue}" for issue in found]
            return None
        self.versions = {"python": result["python"], "numpy": result["numpy"]}
        return result


def check(result: dict, config: dict, bounded: bool) -> list[str]:
    if "error" in result:
        lines = result["error"].strip().splitlines()
        return [lines[-1] if lines else "worker printed nothing"]
    row, extras, budget = result["row"], result["extras"], result["budget"]
    found = []
    if row["trials"] != config["trials"]:
        found.append(f"{row['trials']} trials reported, {config['trials']} asked")
    if bounded and not row["bound_satisfied"]:
        found.append("theoretical bound not satisfied")
    if row["flagged_trials"]:
        found.append(f"{row['flagged_trials']} flagged trials")
    if budget is not None:
        if config["scenario"].startswith("graph-"):
            spent = [row["mean_queries"], row["max_queries"]]
        else:
            spent = [extras["mean_phase_one"], extras["min_phase_one"], extras["max_phase_one"]]
        if any(q != budget for q in spent):
            found.append(f"queries {spent} differ from the budget {budget}")
    return found


def leading_term(config: dict) -> float:
    """(log2 n + log2 1/delta) / (1 - H(p)), the query-complexity yardstick."""
    p = config["p"]
    entropy = -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    return (math.log2(config["n"]) + math.log2(1.0 / config["delta"])) / (1.0 - entropy)


def untraced(bench: Bench, workload: dict, seed: int, seconds: float,
             trials: int, probes: int, min_runs: int) -> dict[str, float]:
    base = workload["config"]
    setups = []
    # cheap set-ups get more probes: one probe's time includes a whole trial
    probe_until = time.monotonic() + seconds / 4
    k = 0
    while k < probes or time.monotonic() < probe_until:
        probe = bench.run({**base, "seed": 1000 * seed + k, "trials": 1}, probe=True)
        k += 1
        if probe is not None:
            setups.append(probe["wall_s"])
    runs = []
    begin = time.monotonic()
    started = 0
    while True:
        result = bench.run({**base, "seed": 1000 * seed + started, "trials": trials})
        started += 1
        if result is not None:
            runs.append(result)
        elapsed = time.monotonic() - begin
        if started >= min_runs and elapsed * (started + 1) / started > seconds:
            break
    if not setups or not runs:
        return {}
    setup = statistics.median(setups)
    phases = [r["wall_s"] - setup for r in runs]
    if min(phases) <= 0.0:
        bench.issues.append("a measured run was shorter than the set-up")
        return {}
    queries = [r["row"]["mean_queries"] * r["row"]["trials"] for r in runs]
    values = {
        "setup_s": setup,
        "trials_per_s": trials * len(runs) / sum(phases),
        "us_per_query": 1e6 * sum(phases) / sum(queries),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "query_ratio": sum(queries) / (trials * len(runs)) / leading_term(base),
    }
    print(f"set-up probes (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"measured runs of {trials} trials (trials/s): "
          f"{' '.join(f'{trials / t:.3f}' for t in phases)}")
    return values


def traced(bench: Bench, workload: dict, seed: int, trials: int) -> dict[str, float]:
    config = {**workload["config"], "seed": 1000 * seed, "trials": trials}
    plain = bench.run(config)
    spans = bench.run(config, trace=True)
    if plain is None or spans is None:
        return {}
    if (plain["row"], plain["extras"]) != (spans["row"], spans["extras"]):
        bench.issues.append("the traced summary differs from the untraced one")
    if spans["absent_hooks"]:
        print(f"absent hooks: {', '.join(spans['absent_hooks'])}")
    return {**spans["layers"], "trace.overhead_ratio": spans["wall_s"] / plain["wall_s"]}


def report(bench: Bench, declared: list[dict], values: dict[str, float]) -> dict:
    """The result line. A metric missing from a completed measurement had its
    hook target removed and is marked absent; a failed one leaves all null."""
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values.get(name), "unit": unit}
        if values and name not in values:
            metrics[name]["absent"] = True
    return {
        "correct": not bench.issues,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def provenance(bench: Bench) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisysearch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **bench.versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "env": PINNED_ENV,
    }


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    workload = spec["workloads"][name]
    bench = Bench(bounded=not smoke)
    if trace:
        trials = workload["smoke_trials" if smoke else "trace_trials"]
        values = traced(bench, workload, seed, trials)
    else:
        trials = workload["smoke_trials" if smoke else "chunk_trials"]
        values = untraced(bench, workload, seed, seconds, trials,
                          probes=1 if smoke else SETUP_PROBES,
                          min_runs=1 if smoke else MIN_RUNS)
    result = report(bench, spec["per_layer" if trace else "end_to_end"], values)
    print(json.dumps({"workload": name, "seed": seed, "provenance": provenance(bench)}))
    for issue in bench.issues:
        print(f"check failed: {issue}")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']} {entry['unit']}")
    return result


def smoke(spec: dict) -> int:
    ok = True
    for name in spec["workloads"]:
        for trace in (False, True):
            result = measure(spec, name, seed=0, seconds=0.0, trace=trace, smoke=True)
            missing = [
                metric for metric, entry in result["metrics"].items()
                if not (isinstance(entry["value"], (int, float)) or entry.get("absent"))
            ]
            passed = result["correct"] and not missing
            print(f"smoke {name} trace={int(trace)}: {'ok' if passed else 'FAILED'}"
                  f"{' missing ' + ', '.join(missing) if missing else ''}")
            ok = ok and passed
    return 0 if ok else 1


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["workloads"] = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, at a tiny trial count")
    args = parser.parse_args(argv)
    if not (SRC / "noisysearch" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'noisysearch'} is missing", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload not in spec["workloads"]:
        parser.error(f"--workload must be one of {sorted(spec['workloads'])}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
