"""Command line contract: flags, outputs, exit statuses."""

import csv
import json

import pytest

from noisysearch import cli, harness
from noisysearch.cli import main


def run_cli(*args):
    return main(list(args))


class TestCli:
    def test_graph_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = run_cli(
            "graph-adversarial", "--n", "15", "--p", "0.3", "--delta", "0.2",
            "--trials", "120", "--seed", "3", "--gen", "path",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["scenario"] == "graph-adversarial"
        assert rows[0]["bound_satisfied"] == "true"
        assert "mean_queries" in capsys.readouterr().out

    def test_json_format_and_transcripts(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli(
            "bin-lv-adv", "--n", "16", "--p", "0.25", "--delta", "0.2",
            "--trials", "40", "--seed", "5",
            "--out", str(out), "--format", "json", "--keep-transcripts",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["n"] == 16
        assert "transcript_sample" in doc

    def test_sweep_emits_row_per_target(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "bin-lv-adv", "--n", "6", "--p", "0.25", "--delta", "0.2",
            "--trials", "25", "--seed", "5", "--sweep",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6

    def test_gnm_runs_at_a_thousand_vertices(self, tmp_path):
        # 16 error-free trials are the fewest whose Wilson upper limit is
        # below delta = 0.2, so the exit status of one trial is not checked
        for trials in ("1", "16"):
            out = tmp_path / f"gnm{trials}.csv"
            code = run_cli(
                "graph-adversarial", "--n", "1000", "--p", "0.3", "--delta", "0.2",
                "--trials", trials, "--seed", "4", "--gen", "gnm", "--out", str(out),
            )
            if trials == "16":
                assert code == 0
            with open(out) as fh:
                assert len(list(csv.DictReader(fh))) == 1

    def test_too_few_trials_name_the_count_that_can_show_the_bound(self, tmp_path, capsys):
        # one error-free trial has a Wilson upper limit of 0.79: the run
        # still exits 1, and the message names the 16 trials delta = 0.2 needs
        code = run_cli(
            "graph-adversarial", "--n", "16", "--p", "0.1", "--delta", "0.2",
            "--trials", "1", "--seed", "1", "--gen", "grid",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bound violated" in err and "from 16 trials" in err

    def test_invalid_input_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "graph-adversarial", "--n", "8", "--p", "0.7", "--delta", "0.2",
            "--trials", "5", "--seed", "1", "--gen", "path",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_graph_source_exits_2(self, tmp_path):
        code = run_cli(
            "graph-adversarial", "--n", "8", "--p", "0.3", "--delta", "0.2",
            "--trials", "5", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_graph_file_flag(self, tmp_path):
        gpath = tmp_path / "g.txt"
        gpath.write_text("3 2\n0 1\n1 2\n")
        out = tmp_path / "res.csv"
        code = run_cli(
            "graph-adversarial", "--n", "3", "--p", "0.25", "--delta", "0.2",
            "--trials", "30", "--seed", "2", "--graph", str(gpath),
            "--out", str(out),
        )
        assert code == 0

    def test_mu_file_flag(self, tmp_path):
        mpath = tmp_path / "mu.txt"
        mpath.write_text("".join(f"{i} {2**-(i+1)}\n" for i in range(8)))
        out = tmp_path / "res.csv"
        code = run_cli(
            "bin-lv-distr", "--n", "8", "--p", "0.25", "--delta", "0.2",
            "--trials", "30", "--seed", "2", "--mu", str(mpath),
            "--out", str(out),
        )
        assert code == 0

    def test_verify_invariants_scenario(self, tmp_path):
        out = tmp_path / "inv.csv"
        code = run_cli(
            "verify-invariants", "--n", "16", "--p", "0.25", "--delta", "0.2",
            "--trials", "20", "--seed", "9",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["bound_satisfied"] == "true"

    @pytest.mark.parametrize(
        "p, delta, named",
        [("nan", "nan", "delta"), ("0.3", "nan", "delta"), ("0.5", "0.2", "noise parameter")],
    )
    def test_verify_invariants_checks_p_and_delta(self, tmp_path, capsys, p, delta, named):
        # it used to run and write p=nan delta=nan into its row
        out = tmp_path / "inv.csv"
        code = run_cli(
            "verify-invariants", "--n", "1", "--p", p, "--delta", delta,
            "--trials", "1", "--seed", "1", "--out", str(out),
        )
        assert code == 2 and not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario",
        ["graph-adversarial", "graph-lv-distr", "graph-lv-adv",
         "bin-adversarial", "bin-lv-distr", "bin-lv-adv"],
    )
    def test_a_p_near_one_half_is_refused_before_any_trial(self, tmp_path, capsys, scenario):
        # 1 - H(p) is about 3e-14 here: budgets and caps of 1e14 queries and more
        code = run_cli(
            scenario, "--n", "8", "--p", "0.4999999", "--delta", "0.2",
            "--trials", "2", "--seed", "1", "--gen", "path", "--out", str(tmp_path / "x.csv"),
        )
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "x.csv").exists()
        assert "p=0.4999999" in err and f"MAX_TRIAL_QUERIES={harness.MAX_TRIAL_QUERIES}" in err
        count = int(err.split(" queries")[0].split()[-1])
        assert count > harness.MAX_TRIAL_QUERIES

    @pytest.mark.parametrize(
        "scenario, flag, value",
        [(s, "--c-const", v) for s in ("bin-adversarial", "bin-lv-distr", "bin-lv-adv")
         for v in ("0", "nan", "inf")]
        + [("graph-lv-adv", "--c-prime", v) for v in ("0", "nan", "inf")],
    )
    def test_constants_outside_their_range_exit_2(self, tmp_path, capsys, scenario, flag, value):
        # a NaN or infinite constant used to reach int() (exit 3) or, for
        # c_prime = nan, to run at the loosest confidence
        code = run_cli(
            scenario, "--n", "8", "--p", "0.3", "--delta", "0.2", "--trials", "2",
            "--seed", "1", "--gen", "path", flag, value, "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "warp-search", "--n", "4", "--p", "0.2", "--delta", "0.2",
                "--trials", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"),
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("mass", ["nan", "inf", "abc"])
    def test_bad_mass_exits_2_naming_line(self, tmp_path, capsys, mass):
        mpath = tmp_path / "mu.txt"
        mpath.write_text(f"0 0.5\n1 {mass}\n")
        code = run_cli(
            "bin-lv-distr", "--n", "4", "--p", "0.25", "--delta", "0.2",
            "--trials", "5", "--seed", "1", "--mu", str(mpath),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert f"{mpath}:2" in capsys.readouterr().err

    def test_non_integer_graph_header_exits_2_naming_line(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("# header next\n4x 3\n0 1\n1 2\n2 3\n")
        code = run_cli(
            "graph-adversarial", "--n", "4", "--p", "0.25", "--delta", "0.2",
            "--trials", "5", "--seed", "1", "--graph", str(gpath),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert f"{gpath}:2" in capsys.readouterr().err

    def test_non_integer_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NOISY_SEARCH_THREADS", "abc")
        code = run_cli(
            "graph-adversarial", "--n", "8", "--p", "0.3", "--delta", "0.2",
            "--trials", "5", "--seed", "1", "--gen", "path",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "NOISY_SEARCH_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("n, extra", [("4096", ()), ("16", ("--sweep",))])
    def test_unwritable_out_exits_2_before_any_trial(
        self, tmp_path, capsys, monkeypatch, n, extra
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the output path was checked")

        monkeypatch.setattr(harness, "_run_trial", no_trials)
        out = tmp_path / "missing" / "o.csv"
        code = run_cli(
            "bin-adversarial", "--n", n, "--p", "0.3", "--delta", "0.1",
            "--trials", "100", "--seed", "1", "--out", str(out), *extra,
        )
        assert code == 2
        assert str(out) in capsys.readouterr().err

    def test_internal_error_exits_3_with_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(cli, "run_experiment", broken)
        code = run_cli(
            "graph-adversarial", "--n", "8", "--p", "0.3", "--delta", "0.2",
            "--trials", "5", "--seed", "1", "--gen", "path",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "RuntimeError: engine fault" in err and "Traceback" in err

    def test_json_suffix_without_format_writes_json(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli(
            "bin-lv-adv", "--n", "16", "--p", "0.25", "--delta", "0.2",
            "--trials", "40", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["results"][0]["n"] == 16

    @pytest.mark.parametrize("name", ["res.csv", "res.txt", "res"])
    def test_other_suffixes_without_format_write_csv(self, tmp_path, name):
        out = tmp_path / name
        code = run_cli(
            "bin-lv-adv", "--n", "16", "--p", "0.25", "--delta", "0.2",
            "--trials", "40", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["n"] == "16"

    @pytest.mark.parametrize("name, fmt", [("x.json", "csv"), ("x.csv", "json")])
    def test_suffix_and_format_disagreeing_exit_2(self, tmp_path, capsys, name, fmt):
        out = tmp_path / name
        code = run_cli(
            "bin-lv-adv", "--n", "16", "--p", "0.25", "--delta", "0.2",
            "--trials", "40", "--seed", "5", "--out", str(out), "--format", fmt,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(out) in err and f"--format is {fmt}" in err
        assert not out.exists()

    def test_n_beyond_physical_memory_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "bin-adversarial", "--n", "10000000000000", "--p", "0.3", "--delta", "0.1",
            "--trials", "2", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "n=10000000000000" in err and "physical memory" in err
        assert "Traceback" not in err
