"""Command line front end: noisy-search <scenario> [options]."""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .graph import GraphFormatError
from .harness import (
    SCENARIOS,
    ExperimentConfig,
    adversarial_sweep,
    run_experiment,
)
from .mathcore import DomainError
from .oracle import ProtocolError

LIE_CHOICE_ALIASES = {
    "uniform": "uniform-wrong",
    "adversarial": "adversarial-heaviest",
    "uniform-wrong": "uniform-wrong",
    "adversarial-heaviest": "adversarial-heaviest",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisy-search",
        description="Simulate noisy target search strategies and check their bounds.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--n", type=int, required=True, help="search space size")
    parser.add_argument("--p", type=float, required=True, help="per-answer error rate")
    parser.add_argument("--delta", type=float, required=True, help="confidence threshold")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--graph", help="graph file path")
    group.add_argument(
        "--gen",
        help="built-in graph generator: path, cycle, star, grid, random-tree or gnm "
        "(gnm: a connected uniform graph with min(ceil(n ln n / 2) + n, n(n-1)/2) "
        "edges, just above the Erdos-Renyi connectivity threshold)",
    )
    parser.add_argument(
        "--mu", default="uniform", help="distribution file path or 'uniform'"
    )
    parser.add_argument(
        "--lie-choice", default="uniform", choices=sorted(LIE_CHOICE_ALIASES)
    )
    parser.add_argument("--c-const", type=float, default=4.0)
    parser.add_argument("--c-prime", type=float, default=64.0)
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument(
        "--format", choices=("csv", "json"),
        help="output format; default: from the --out suffix (.json or .csv), else csv",
    )
    parser.add_argument("--keep-transcripts", action="store_true")
    parser.add_argument(
        "--sweep", action="store_true",
        help="run once per fixed target and report each (n <= 256)",
    )
    return parser


_SUFFIX_FORMATS = {".csv": "csv", ".json": "json"}


def _output_format(out: str, fmt: str | None) -> str:
    """--format, or the format the --out suffix names; a disagreement is an error."""
    suffix = os.path.splitext(out)[1].lower()
    implied = _SUFFIX_FORMATS.get(suffix)
    if fmt is None:
        return implied or "csv"
    if implied is not None and implied != fmt:
        raise DomainError(f"--out {out} has suffix {suffix} but --format is {fmt}")
    return fmt


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=args.scenario,
        n=args.n,
        p=args.p,
        delta=args.delta,
        trials=args.trials,
        seed=args.seed,
        graph_path=args.graph,
        gen=args.gen,
        mu_path=None if args.mu == "uniform" else args.mu,
        lie_choice=LIE_CHOICE_ALIASES[args.lie_choice],
        c_const=args.c_const,
        c_prime=args.c_prime,
        output=args.out,
        fmt=_output_format(args.out, args.format),
        keep_transcripts=args.keep_transcripts,
    )


def main(argv=None) -> int:
    """Run the command; exit 0 ok, 1 bound violated, 2 bad input, 3 internal error."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (DomainError, GraphFormatError, ProtocolError, OSError) as exc:
        print(f"noisy-search: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of its input: keep it apart from exit 1
        traceback.print_exc(file=sys.stderr)
        print(f"noisy-search: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    if args.sweep:
        results = adversarial_sweep(config)
    else:
        results = [run_experiment(config)]
    ok = all(r.bound_satisfied for r in results)
    for r in results:
        target = r.extras.get("target")
        label = f"{r.scenario}[target={target}]" if target is not None else r.scenario
        print(
            f"{label}: n={r.n} p={r.p} delta={r.delta} trials={r.trials} "
            f"mean_queries={r.mean_queries:.2f} error_rate={r.error_rate:.4f} "
            f"bound={r.theoretical_bound:.4f} satisfied={r.bound_satisfied}"
        )
    if not ok:
        print("noisy-search: bound violated", file=sys.stderr)
        for r in results:
            need = r.extras.get("min_trials_for_bound", 0)
            if not r.bound_satisfied and r.trials < need:
                print(
                    f"noisy-search: {r.trials} trial(s) cannot show an error bound of "
                    f"delta={r.delta}: with no errors the Wilson 95% upper limit reaches "
                    f"it only from {need} trials (min_trials_for_bound)",
                    file=sys.stderr,
                )
                break
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
