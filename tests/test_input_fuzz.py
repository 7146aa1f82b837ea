"""Property tests: arbitrary file contents fed to the two loaders, directly
and through the command line, and arbitrary values of the other command
line arguments.

A loader either returns or raises its input error (GraphFormatError,
DomainError) with the file named. The CLI exits 0, 1 or 2, and an exit 2
names the file on stderr; no input gives a traceback or exit 3.
"""

import contextlib
import io
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from noisysearch.cli import LIE_CHOICE_ALIASES, main
from noisysearch.graph import GENERATORS, GraphFormatError, load_graph
from noisysearch.harness import SCENARIOS
from noisysearch.mathcore import DomainError
from noisysearch.oracle import load_distribution

_NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-400", "1e308", "-0", "0x1", "1_0", "nan", "Infinity", "٣"]),
)
_TOKENS = st.one_of(_NUMBERS, _NUMBERS, st.text(max_size=4))
_LINES = st.one_of(
    st.lists(_TOKENS, max_size=4).map(" ".join),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda t: f"{t[0]} {t[1]}"),
    st.just(""),
    st.text(max_size=6).map(lambda t: "#" + t),
)


@st.composite
def _graph_lines(draw):
    """A header "n m" and edge lines, mostly well formed."""
    n = draw(st.integers(1, 8))
    ids = st.integers(0, n - 1) | st.integers(0, n - 1) | st.integers(-1, n)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=2 * n))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return [f"{n} {m}", *(f"{u} {v}" for u, v in edges)]


@st.composite
def _file_bytes(draw):
    """Mostly lines of numbers, as the loaders expect; sometimes any text
    or any bytes at all."""
    kind = draw(st.sampled_from(["lines", "graph", "text", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "text":
        return draw(st.text(max_size=60)).encode("utf-8")
    lines = draw(_graph_lines() if kind == "graph" else st.lists(_LINES, max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines).encode("utf-8")


@contextlib.contextmanager
def _written(data: bytes):
    """A path to a fresh file holding data, removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        yield path


def _cli(*args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*args])
    return code, err.getvalue()


def _check_exit(code: int, err: str, path: Path) -> None:
    event(f"exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert str(path) in err, err


_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_FUZZ
@given(data=_file_bytes())
def test_graph_files(data):
    with _written(data) as path:
        _check_graph_file(path)


def _check_graph_file(path: Path) -> None:
    try:
        g = load_graph(path)
    except GraphFormatError as exc:
        assert str(exc).startswith(f"{path}"), exc
        n = 4
    else:
        n = g.n if g.n <= 40 else 4
    out = path.with_suffix(".csv")
    code, err = _cli(
        "graph-adversarial", "--n", str(n), "--p", "0.3", "--delta", "0.2",
        "--trials", "2", "--seed", "1", "--graph", str(path), "--out", str(out),
    )
    _check_exit(code, err, path)


@_FUZZ
@given(data=_file_bytes())
def test_distribution_files(data):
    with _written(data) as path:
        _check_distribution_file(path)


def _check_distribution_file(path: Path) -> None:
    try:
        mu, total = load_distribution(path, 6)
    except DomainError as exc:
        assert str(exc).startswith(f"{path}"), exc
    else:
        assert mu.n == 6 and total > 0.0
    out = path.with_suffix(".csv")
    for scenario, source in (("bin-lv-distr", ()), ("graph-lv-distr", ("--gen", "path"))):
        code, err = _cli(
            scenario, "--n", "6", "--p", "0.25", "--delta", "0.2", "--trials", "2",
            "--seed", "1", *source, "--mu", str(path), "--out", str(out),
        )
        _check_exit(code, err, path)


def _mostly(valid, invalid):
    """Valid about four times in five, so that most command lines run."""
    return st.integers(0, 4).flatmap(lambda k: invalid if k == 4 else valid)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=st.sampled_from([*SCENARIOS, "graph-bogus"]),
    # an n that runs stays small; the huge ones must be refused before they run
    n=_mostly(st.integers(1, 300), st.integers(-2, 0) | st.sampled_from([10**13, 10**18])),
    # a p so near 1/2 that a trial's budget or cap passes MAX_TRIAL_QUERIES exits 2
    p=_mostly(
        st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        st.sampled_from([0.0, -0.1, 0.5, 0.7, 1e-300, math.nan, math.inf]),
    ),
    delta=_mostly(
        st.floats(1e-3, 0.45), st.sampled_from([0.0, -1.0, 0.5, 1.0, math.nan, math.inf])
    ),
    trials=_mostly(st.integers(1, 12), st.integers(-2, 0)),
    gen=_mostly(st.sampled_from(GENERATORS), st.sampled_from([None, "hypercube"])),
    seed=_mostly(st.integers(0, 2**70), st.integers(-3, -1)),
    lie=_mostly(st.sampled_from(sorted(LIE_CHOICE_ALIASES)), st.just("sneaky")),
    workers=st.sampled_from(["1", "2"]),
)
def test_other_arguments(scenario, n, p, delta, trials, gen, seed, lie, workers):
    # the CLI has no --workers flag: the worker count comes from
    # NOISY_SEARCH_THREADS
    with tempfile.TemporaryDirectory() as tmp:
        args = [
            scenario, "--n", str(n), "--p", repr(p), "--delta", repr(delta),
            "--trials", str(trials), "--seed", str(seed), "--lie-choice", lie,
            "--out", str(Path(tmp) / "out.csv"),
        ]
        if gen is not None:
            args += ["--gen", gen]
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"NOISY_SEARCH_THREADS": workers}):
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(args)
                except SystemExit as exc:  # argparse refuses the command line
                    code = exc.code
        err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
