"""The benchmark's output contract, checked in process on every workload.

bench/worker.py runs one run_experiment call and bench/run.py checks its
result; a result that fails the check, or that strict JSON cannot hold
(NaN, Infinity), is what makes a benchmark invocation fail or print a last
line that is not a result. Both modules are imported from their files, as
they are, at the smoke trial counts and without tracing.
"""

import importlib.util
import json
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from noisysearch.graph import all_pairs_distances, random_tree

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_worker_result_passes_the_check_and_is_strict_json(name, tmp_path):
    worker, run = load("worker"), load("run")
    workload = WORKLOADS[name]
    config = {**workload["config"], "seed": 0, "trials": workload["smoke_trials"]}
    job = {
        "src": str(run.SRC),
        "trace": False,
        "config": {**config, "workers": 1, "output": str(tmp_path / "out.csv")},
    }
    result = worker.run(job)
    # on grid-fixed the check asks mean and max queries to equal the budget,
    # so every step of every trial counts, whether its row is heavy or light
    assert run.check(result, config, bounded=False) == []
    json.dumps(result, allow_nan=False)



def test_every_traced_name_exists_and_distances_keep_a_dict():
    # a hook whose target moved leaves its metrics absent, and the traced
    # worker sums the nbytes of what vars() finds on each DistanceMatrix, so
    # one without a __dict__ would fail it and null every per-layer value
    for _, module, attr in load("tracer").HOOKS:
        owner = import_module(f"noisysearch.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
    d = all_pairs_distances(random_tree(64, np.random.default_rng(0)))
    d.row(3)
    assert d.tree is not None
    held = sum(v.nbytes for v in vars(d).values() if hasattr(v, "nbytes"))
    json.dumps(held, allow_nan=False)
