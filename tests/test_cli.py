"""Command line interface: outputs, exit codes, determinism."""

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from weierdim import (COSINE, Params, boxdim, claims, cli, coeff_bound, eval_weierstrass,
                      parallel, rng)
from weierdim.cli import main
from weierdim.parallel import worker_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestEval:
    def test_trivial_weierstrass_value(self, capsys):
        code, payload = run_json(
            capsys, "eval", "--b", "2", "--lambda", "0.5", "--x", "0", "--what", "f"
        )
        assert code == 0
        assert abs(payload["value"] - 2.0) <= payload["tail_bound"] + 1e-12

    def test_zero_word_slope(self, capsys):
        code, payload = run_json(
            capsys, "eval", "--b", "2", "--lambda", "0.9", "--x", "0",
            "--what", "Y", "--word", "000",
        )
        assert code == 0
        assert payload["value"] == 0.0

    def test_matches_library_bit_for_bit(self, capsys):
        code, payload = run_json(
            capsys, "eval", "--b", "3", "--lambda", "0.7", "--x", "0.31",
            "--what", "f", "--tol", "1e-10",
        )
        ref = eval_weierstrass(Params(3, 0.7), COSINE, 0.31, abs_tol=1e-10)
        assert payload["value"] == ref.value
        assert payload["tail_bound"] == ref.tail_bound
        assert payload["terms_used"] == ref.terms_used

    def test_random_tail_word(self, capsys):
        code, payload = run_json(
            capsys, "eval", "--b", "3", "--lambda", "0.7", "--x", "0.2",
            "--what", "Ydx", "--tail-seed", "7",
        )
        assert code == 0
        assert payload["value"] != 0.0

    def test_fiber_sum_with_sin2(self, capsys):
        code, payload = run_json(
            capsys, "eval", "--b", "2", "--lambda", str(1 / (2 * 0.55)), "--x", "0.37",
            "--what", "S", "--word", "110", "--psi", "sin2", "--tol", "1e-11",
        )
        assert code == 0
        assert payload["value"] == pytest.approx(0.18247425610196148, abs=1e-10)

    def test_domain_error_exit_code(self, capsys):
        code, _ = run_cli(
            capsys, "eval", "--b", "2", "--lambda", "1.5", "--x", "0", "--what", "Y"
        )
        assert code == 3

    def test_usage_error_exit_code(self, capsys):
        bad_word = ["eval", "--b", "2", "--lambda", "0.9", "--x", "0", "--what", "Y", "--word"]
        bad_phases = ["eval", "--b", "2", "--lambda", "0.9", "--x", "0", "--phases"]
        bad_range = ["thresholds", "--b-range"]
        star = ["star-verify", "--k", "1", "--t", "0.5"]
        for argv in (["eval", "--b", "2"], bad_word + ["0a1"], bad_word + ["0,1,x"],
                     bad_phases + ["0.1,zz"], bad_range + ["2:x"], bad_range + ["5:2"],
                     bad_range + ["2:3:4"], bad_range + ["2,,3"],
                     # non-finite numbers, which JSON cannot carry
                     ["eval", "--b", "2", "--lambda", "0.9", "--x", "inf"],
                     bad_phases + ["0.1,nan"], star + ["--beta", "nan", "--eta", "0.1"],
                     star + ["--beta", "1.0", "--eta", "nan"],
                     ["reproduce", "--perturb-eta", "nan"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        # a well-formed range with a base below 2 is a domain error
        assert run_cli(capsys, "thresholds", "--b-range", "1:3")[0] == 3


class TestThresholds:
    def test_base2_row(self, capsys):
        code, payload = run_json(capsys, "thresholds", "--b-range", "2:2")
        assert code == 0
        row = payload["rows"][0]
        assert 0.9 < row["critical_lo"] <= row["critical_hi"] < 0.9352
        assert row["ae_upper"] <= 0.81
        assert row["ae_method"] == "certificate"

    def test_base5_row(self, capsys):
        code, payload = run_json(capsys, "thresholds", "--b-range", "5:5")
        row = payload["rows"][0]
        assert row["critical_hi"] < 0.5448
        assert row["ae_upper"] <= 1.04 / math.sqrt(5)

    def test_critical_monotone_in_base(self, capsys):
        code, payload = run_json(capsys, "thresholds", "--b-range", "3:12")
        mids = [r["critical_lo"] for r in payload["rows"]]
        assert all(a > b for a, b in zip(mids, mids[1:]))

    def test_tol_below_float_spacing_domain_error(self, capsys):
        code = main(["thresholds", "--b-range", "2:2", "--tol", "1e-20"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "") and "tightest bracket" in err

    def test_closed_stdout_pipe_exits_quietly(self):
        # about 73 kB of JSON: more than a 64 KiB pipe buffer holds, so a write meets the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "weierdim.cli", "thresholds", "--b-range", "2:400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert os.read(proc.stdout.fileno(), 100)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (1, b"")


class TestStarVerify:
    def test_valid_certificate(self, capsys):
        code, payload = run_json(
            capsys, "star-verify", "--b", "2", "--lambda0", "0.81",
            "--k", "4", "--eta", "0.81", "--t", "0.62",
        )
        assert code == 0
        assert payload["valid"] is True

    def test_invalid_certificate_exit_one(self, capsys):
        code, payload = run_json(
            capsys, "star-verify", "--beta", "10", "--k", "2", "--eta", "0", "--t", "0.9"
        )
        assert code == 1
        assert payload["valid"] is False

    def test_search(self, capsys):
        code, payload = run_json(
            capsys, "star-verify", "--b", "2", "--lambda0", "0.81",
            "--search", "--t-target", "0.62",
        )
        assert code == 0
        assert payload["found"] is True
        # the computed beta is a result, as in verify mode; config holds the source as given
        assert payload["beta"] == coeff_bound(2, 0.81)
        assert payload["config"]["beta"] is None

    @pytest.mark.parametrize("source", [
        ("--beta", "3", "--b", "2", "--lambda0", "0.81"),
        ("--beta", "3", "--b", "2"),
        ("--b", "2"),
        (),
    ], ids=["both", "beta-and-b", "b-only", "none"])
    def test_one_beta_source_or_usage_error(self, capsys, source):
        argv = ("star-verify", *source, "--k", "4", "--eta", "0.81", "--t", "0.62")
        assert run_cli(capsys, *argv) == (2, "")


class TestEstimators:
    def test_transversality_delta(self, capsys):
        code, payload = run_json(
            capsys, "transversality", "--b", "3", "--lambda", "0.8",
            "--x-grid", "500", "--pair-budget", "256", "--seed", "1",
        )
        assert code == 0
        assert payload["delta_hat"] > 0
        assert payload["holds"] is True

    def test_boxdim(self, capsys):
        code, payload = run_json(
            capsys, "boxdim", "--b", "2", "--lambda", "0.9",
            "--levels", "14", "--samples-per-column", "64",
        )
        assert code == 0
        assert abs(payload["slope"] - 1.8480) < 0.1
        assert payload["theoretical"] == pytest.approx(1.8480, abs=5e-5)

    @pytest.mark.parametrize("argv", [
        ("transversality", "--b", "2", "--depth", "0"),
        ("transversality", "--b", "2", "--mode", "two-var", "--depth", "0"),
        ("transversality", "--b", "2", "--depth", "-2"),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9", "--count", "10",
         "--depth", "-3"),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9", "--count", "10",
         "--depth", "0"),
        ("measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9", "--count", "10",
         "--depth", "0"),
        ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "12", "--drop-coarsest", "-5"),
        ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "40"),
        ("transversality", "--b", "2", "--mode", "two-var", "--x-grid", "0"),
        ("transversality", "--b", "2", "--mode", "two-var", "--gamma-grid", "-1"),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9",
         "--count", str(10 ** 11)),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9", "--count", "10",
         "--depth", "100000000"),
        ("transversality", "--b", "2", "--depth", "100000000"),
        ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
         "--eps", "0.5", "--delta", "0.5", "--depth", "10000000"),
        ("transversality", "--b", "2", "--lambda", "0.95", "--x-grid", "100000000",
         "--pair-budget", "16"),
        ("transversality", "--b", "2", "--mode", "two-var",
         "--x-grid", "100000000", "--pair-budget", "16"),
        ("star-verify", "--b", "3", "--lambda0", "0.55", "--search", "--t-target", "0.6",
         "--k-max", "0"),
        ("measure", "--kind", "graph", "--b", "2", "--lambda", "0.99999", "--count", "10000"),
        ("transversality", "--b", "2", "--mode", "two-var", "--gamma-grid", "100000000",
         "--x-grid", "2", "--pair-budget", "2"),
        # t_target ** k_max underflows: larger k add no certificate
        ("star-verify", "--beta", "50", "--search", "--t-target", "0.5", "--k-max", "4000"),
    ])
    def test_out_of_range_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("thresholds", "--b-range", "2:1000000000000"),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9", "--count", "10",
         "--bins", "1000000000"),
    ], ids=["thresholds-rows", "measure-bins"])
    def test_output_rows_budgeted_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("solving or sampling before the budget check")

        for name in ("solve_critical_lambda", "solve_ae_critical_lambda", "sample_transversal"):
            monkeypatch.setattr(cli, name, no_work)
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "over the budget" in err

    @pytest.mark.parametrize("kind", ("sbr", "graph"))
    def test_sample_budget_counts_one_float_per_point(self, capsys, monkeypatch, kind):
        # a budget of 1000 floats: 1000 points are drawn, 1001 are refused before any draw
        monkeypatch.setattr(parallel, "_MAX_BYTES", 8 * 1000)
        argv = ("measure", "--kind", kind, "--b", "2", "--lambda", "0.9", "--seed", "3")
        code, payload = run_json(capsys, *argv, "--count", "1000")
        assert (code, payload["count"]) == (0, 1000)

        def no_draw(*args, **kwargs):
            raise AssertionError("drawing before the budget check")

        for name in ("uniform_vector", "digit_columns"):
            monkeypatch.setattr(rng, name, no_draw)
        code = main([*argv, "--count", "1001"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "over the budget" in err

    def test_scale_error_lists_plain_floats(self, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the box grid before the drop_coarsest check")

        # the fit's refusal comes before the grid: a 2^25-point grid at levels 19
        monkeypatch.setattr(boxdim, "_grid_values", no_grid)
        for levels, samples, drop, tail in (
            ("4", "32", "1", "strictly decreasing scales, got [0.25, 0.125, 0.0625]"),
            ("19", "64", "16", "strictly decreasing scales, got "
                               f"{[2.0 ** -j for j in (17, 18, 19)]}"),
            ("19", "64", "-5", "drop_coarsest must be an integer >= 0, got -5"),
        ):
            code = main(["boxdim", "--b", "2", "--lambda", "0.9", "--levels", levels,
                         "--samples-per-column", samples, "--drop-coarsest", drop])
            out, err = capsys.readouterr()
            assert (code, out) == (3, "")
            assert err.rstrip().endswith(tail)

    def test_measure_mean(self, capsys):
        code, payload = run_json(
            capsys, "measure", "--kind", "transversal", "--b", "2",
            "--lambda", "0.95", "--x", "0.3", "--count", "100000", "--seed", "1",
        )
        assert code == 0
        se = payload["std"] / math.sqrt(payload["count"])
        assert abs(payload["mean"]) < 4 * se

    def test_measure_csv_output(self, capsys, tmp_path):
        out = tmp_path / "pts.csv"
        code, _ = run_cli(
            capsys, "measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9",
            "--count", "50", "--out-csv", str(out),
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 50

    @pytest.mark.parametrize("argv, digest", [
        (("measure", "--kind", "sbr", "--b", "3", "--lambda", "0.6", "--count", "70000"),
         "a2bdbcb04322c5b895ad197fe54c5febfb2f01a362d94118aa6972b550c34fc1"),
        (("measure", "--kind", "graph", "--b", "2", "--lambda", "0.9", "--count", "40000"),
         "ea116f730d31e68b1bafc213d10eab6a667eadb6219fd768212155c82a3ceadc"),
    ], ids=("sbr", "graph"))
    def test_measure_csv_pinned(self, capsys, monkeypatch, tmp_path, argv, digest):
        # the x column is re-drawn from its counter stream: the file keeps the stored x's bytes
        for threads in ("1", "2"):
            monkeypatch.setenv("WEIERDIM_THREADS", threads)
            out = tmp_path / f"{threads}.csv"
            assert run_cli(capsys, *argv, "--seed", "3", "--out-csv", str(out))[0] == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_measure_graph_histogram(self, capsys):
        code, payload = run_json(
            capsys, "measure", "--kind", "graph", "--b", "2", "--lambda", "0.9",
            "--count", "300", "--bins", "8", "--seed", "3",
        )
        assert code == 0
        assert sum(m for _, m in payload["histogram"]) == pytest.approx(1.0, abs=1e-12)

    def test_unwritable_output_usage_error(self, capsys, monkeypatch, tmp_path):
        def no_work(*args, **kwargs):
            raise AssertionError("work before the output paths are checked")

        for name in ("box_count", "sample_sbr"):
            monkeypatch.setattr(cli, name, no_work)
        missing = str(tmp_path / "missing" / "out")
        for argv in (("eval", "--b", "2", "--lambda", "0.9", "--x", "0.1", "--out", missing),
                     ("measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9",
                      "--count", "50", "--out-csv", missing),
                     ("boxdim", "--b", "2", "--lambda", "0.9", "--out", missing)):
            code = main(list(argv))
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
        code = main(["boxdim", "--b", "2", "--lambda", "0.9", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (code, err) == (2, f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
        # the check opens nothing: a run that fails later keeps a file and creates none
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_text("kept\n")
        for path in (kept, absent):
            argv = ("eval", "--b", "2", "--lambda", "1.5", "--x", "0.1", "--what", "Y", "--out")
            assert run_cli(capsys, *argv, str(path)) == (3, "")
        assert (kept.read_text(), absent.exists()) == ("kept\n", False)

    def test_measure_graph_depth_usage_error(self, capsys):
        code, out = run_cli(
            capsys, "measure", "--kind", "graph", "--b", "2", "--lambda", "0.9",
            "--count", "10", "--depth", "0",
        )
        assert (code, out) == (2, "")

    def test_two_var_mode(self, capsys):
        code, payload = run_json(
            capsys, "transversality", "--b", "2", "--mode", "two-var",
            "--eps-margin", "0.05", "--x-grid", "200", "--seed", "1",
        )
        assert code == 0
        assert payload["delta_hat"] > 0
        assert payload["argmin_gamma"] is not None

    def test_tangency_mode(self, capsys):
        code, payload = run_json(
            capsys, "transversality", "--b", "2", "--lambda", "0.95",
            "--mode", "tangency", "--n", "1", "--m", "1",
            "--eps", "1e6", "--delta", "1e6", "--grid-per-interval", "50",
        )
        assert code == 0
        assert payload["e"] == 2

    def test_tangency_missing_thresholds_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "transversality", "--b", "2", "--mode", "tangency"
        )
        assert code == 2


EVAL = ("eval", "--b", "2", "--lambda", "0.9", "--x", "0.3")
MEASURE = ("measure", "--b", "2", "--lambda", "0.9", "--count", "20", "--kind")
TANGENCY = ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
            "--n", "1", "--m", "1", "--eps", "0.5", "--delta", "0.5", "--grid-per-interval", "20")
# One cheap, valid run of each command mode in cli._MODES.
MODE_RUNS = {
    **{("eval", what): (*EVAL, "--what", what) for what in ("f", "Y", "Ydx", "Ydgamma", "S")},
    ("thresholds", None): ("thresholds", "--b-range", "2:2"),
    ("star-verify", False): ("star-verify", "--beta", "3", "--k", "1", "--eta", "0.1",
                             "--t", "0.5"),
    ("star-verify", True): ("star-verify", "--b", "2", "--lambda0", "0.81", "--search",
                            "--t-target", "0.62"),
    ("transversality", "delta"): ("transversality", "--b", "2", "--x-grid", "10",
                                  "--pair-budget", "16"),
    ("transversality", "two-var"): ("transversality", "--b", "2", "--mode", "two-var",
                                    "--x-grid", "10", "--pair-budget", "16"),
    ("transversality", "tangency"): TANGENCY,
    ("boxdim", None): ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "8"),
    **{("measure", kind): (*MEASURE, kind) for kind in ("transversal", "sbr", "graph")},
    ("reproduce", None): ("reproduce",),
}


def _subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(command: str) -> list:
    return [a for a in _subparsers()[command]._actions
            if a.dest != "help" and a.dest not in cli._OUTPUT]


def _entry(key) -> list:
    return cli._MODES[key][0].split()


def _off_default(action) -> list:
    """Command-line values that set the option off its default."""
    if action.choices:
        return [c for c in action.choices if c != action.default]
    for raw in ("0.5", "7"):
        try:
            if action.type(raw) != action.default:
                return [raw]
        except ValueError:
            pass
    raise AssertionError(f"no off-default value for {action.dest}")


def _unread_cases():
    for (command, mode), run in MODE_RUNS.items():
        flag = cli._MODE_OPTION.get(command)
        reads = {key.rstrip("!") for key in _entry((command, mode))}
        for action in _options(command):
            if action.dest in reads:
                continue
            for raw in _off_default(action):
                yield pytest.param((*run, action.option_strings[0], raw),
                                   id=f"--{flag} {mode} {action.option_strings[0]} {raw}")


def test_every_mode_has_an_entry_and_a_run():
    modes = set()
    for command, sp in _subparsers().items():
        flag = cli._MODE_OPTION.get(command)
        action = next((a for a in sp._actions if a.dest == flag), None)
        values = (None,) if action is None else action.choices or (False, True)
        modes.update((command, value) for value in values)
    assert modes == set(cli._MODES) == set(MODE_RUNS)


def test_every_option_is_read_by_a_mode_or_shapes_the_output():
    for command in _subparsers():
        named = {k.rstrip("!") for key in cli._MODES if key[0] == command for k in _entry(key)}
        assert {a.dest for a in _options(command)} == named, command


@pytest.mark.parametrize("argv", list(_unread_cases()))
def test_function_flag_the_result_does_not_read_is_usage_error(capsys, argv):
    """Any option that the chosen mode does not read, set off its default, is refused
    before any work: --phi, --psi and --phases as much as --x, --lambda or --k."""
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("key, dest", [(key, k[:-1]) for key in MODE_RUNS
                                       for k in _entry(key) if k.endswith("!")])
def test_required_option_unset_is_usage_error(capsys, key, dest):
    run = MODE_RUNS[key]
    i = run.index("--" + dest.replace("_", "-"))
    assert main([*run[:i], *run[i + 2:]]) == 2
    out, err = capsys.readouterr()
    assert (out, err.startswith("error: ")) == ("", True)


@pytest.mark.parametrize("argv, flag, a, b", [
    (TANGENCY, "--grid-per-interval", "20", "10"),
    (TANGENCY, "--random-tails", "3", "1"),
    (("transversality", "--b", "2", "--mode", "two-var", "--x-grid", "10", "--pair-budget", "16"),
     "--gamma-grid", "24", "30"),
    (("measure", "--kind", "graph", "--b", "2", "--lambda", "0.9", "--count", "20"),
     "--phi", "cos", "sin2"),
    (("measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9", "--count", "20"),
     "--psi", "cos-deriv", "sin2"),
    (("eval", "--b", "2", "--lambda", "0.9", "--x", "0.3"), "--phases", "0.1", "0.2"),
    *((run, None, None, None) for run in MODE_RUNS.values()),
], ids=["tangency-grid", "tangency-tails", "two-var-gamma-grid", "measure-phi", "measure-psi",
        "eval-phases", *(f"entry-{c}-{m}" for c, m in MODE_RUNS)])
def test_config_names_every_option_of_the_result(capsys, argv, flag, a, b):
    """config names exactly the options of the mode's entry, and follows each of them."""
    runs = [argv] if flag is None else [(*argv, flag, v) for v in (a, b)]
    configs = [run_json(capsys, *run)[1]["config"] for run in runs]
    args = cli.build_parser().parse_args(argv)
    mode_flag = cli._MODE_OPTION.get(args.command)
    key = (args.command, getattr(args, mode_flag) if mode_flag else None)
    assert set(configs[0]) - {"version"} == {k.rstrip("!") for k in _entry(key)}
    assert flag is None or configs[0] != configs[1]


# Exit code and stdout SHA-256 (JSON, then CSV) of each MODE_RUNS run.  Any byte that a mode's
# output changes fails here; a pin moves only with a change meant to alter that output.
MODE_PINS = {
    ("eval", "f"): (
        0, "6583d012275c294a248d8d5002f32ff43e6bab9131e2c139e38423b5a9c48ab9",
        "f78b4c0deb76baf9c28d3f9b18422016321db464714a0ff58e6392fedd52da0d"),
    ("eval", "Y"): (
        0, "80b2aab6bf363b497952f968f7e5fa3b2a2ab7bf443ba0f1518a39f806dc7240",
        "3366161fe5ab1b4beec1119a82a426a7425bd45ecadb9e61060c4381121e5af3"),
    ("eval", "Ydx"): (
        0, "859cce2934364ac6096b759ef0633f23b85b12d67d3041b3471a217317aa7525",
        "3e8230fdccc56037bc9ab696f8849bf34653b5080a9d65d2fdaa31005c4a04f2"),
    ("eval", "Ydgamma"): (
        0, "05e037e36447db1a81ea673678480edd02f7b6f5391a084def86521a8cefc8f7",
        "5d0bd2b7f3435f6ea6a9b2e4d86468efc9e8806bbcfb197ba97831c375c4c1d1"),
    ("eval", "S"): (
        0, "d92ea05980b23c8530c26b0ec1a7ad9b949c9a5b0f6eedcb0650e96051f3be53",
        "5b77879ab95f06432e7f5469657058cf9676e00572406c3d77f2d8d94b5a951a"),
    ("thresholds", None): (
        0, "7fffeb4e0cb027af6a49a31d8af286e1dd43a3705c29aef67fd7e1186fffe4e5",
        "4bcade2d8a7c3776bbb63b76a8b3486ca5afdd48addb0ff607b3c95576426270"),
    ("star-verify", False): (
        1, "e768168afbeadf4d56632558889e5cfe2538dd6b5be359bf9007cd81c17ebce5",
        "4ecfc7f179815e016aa7d0d5826f151ccc555d5cb10ab56d7ec9f514d55324e3"),
    ("star-verify", True): (
        0, "8ccd277abbe12d008c4b364752121cc44b753e446191381eb1b7499a4609e1c8",
        "b7aa313110f525f202b7e58c43d9d1649ef4db529c7508183ba3a38bd413e920"),
    ("transversality", "delta"): (
        0, "86fa63438aa76f6b1c4cf763297e3c2433cce7d2d9fe2fc9526d84fad2add031",
        "12345ec115efde745671695740bbbb638c3d42a23006ebde96ff5352173360c5"),
    ("transversality", "two-var"): (
        0, "f73e0480247ada9848e86379e75fc8e8a788a5addb3868a042b2518f6b292b63",
        "5ef5e43c4ce77c91c883bf755b481b29eb2dfbc77e8f85aeef779c745803edb1"),
    ("transversality", "tangency"): (
        0, "e6c45d31674ca43489c57093d76c8b2823db1e8b85527971202b9184039918bf",
        "42851f579a37a508d9fa572d914dcc77fd0d55e029a52713aa57667f7518eff9"),
    ("boxdim", None): (
        0, "3114c78024c5e332f267402ae07ae59636cf99c43fc97b43a26ac188ba6daaca",
        "e95953fef113fd128258257ebc4b2c94985ec80dbb40a433e4fbc8dc30d98cf3"),
    ("measure", "transversal"): (
        0, "2c87c691e1cf99812c57176c758514fd39898913613f12d4c8c665bc7360acb0",
        "635eabe3400b50f0b5d8fb57c7485b9e095ae78e04d8d8e4b65daa9163865f46"),
    ("measure", "sbr"): (
        0, "46dd221b5598219aac5466979dd252fccd6c930b24e8735f3da6fcde8f25dc57",
        "c54b36e338ca38ad63f3b5561973357d62431b52c342baa429bbee2179c683e6"),
    ("measure", "graph"): (
        0, "bcf36671a5feaae09ddd32b64888373604d3b6772c455a6725c04191286816c4",
        "d070414ee14d69a193ca760066e668d2e40e3eec9f9401d8f1c6c49921aa5923"),
    ("reproduce", None): (
        0, "9952c9d115ea0ffe59db4b1dab5ce0044ba71e5f0fa54f7ddd905a5724c7dab6",
        "a4b7c38ab90105eecfd693bff1d65e3fda350659ddfdcee5a41a5fd5ac7da27a"),
}


@pytest.mark.parametrize("key", MODE_RUNS, ids=[f"{c}-{m}" for c, m in MODE_RUNS])
def test_every_mode_output_pinned(capsys, key):
    outs = [run_cli(capsys, *MODE_RUNS[key], "--format", fmt) for fmt in ("json", "csv")]
    assert {code for code, _ in outs} == {MODE_PINS[key][0]}
    assert [hashlib.sha256(out.encode()).hexdigest() for _, out in outs] == list(MODE_PINS[key][1:])


def _readme_commands() -> list:
    """Each `weierdim ...` line of README's shell blocks, continuations joined, comments cut."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = "".join(part.split("```")[0] for part in text.split("```sh\n")[1:])
    lines = blocks.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("weierdim ")]
    assert {argv[0] for argv in commands} == set(_subparsers())  # the usage block was found
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_usage_lines_parse(capsys, argv):
    """Every command README shows parses and sets only options its mode reads; none is run."""
    args = cli.build_parser().parse_args(argv)
    assert cli._config(args) is not None, capsys.readouterr().err


class TestReproduce:
    def test_all_claims_pass(self, capsys):
        code, payload = run_json(capsys, "reproduce")
        assert code == 0
        assert payload["all_pass"] is True
        assert all(row["pass"] for row in payload["rows"])

    def test_row_names_in_order(self, capsys):
        code, payload = run_json(capsys, "reproduce")
        assert [r["claim"] for r in payload["rows"]] == [
            "defect_b2_lam0.9352_negative",
            "defect_b2_lam0.9_positive",
            "defect_b3_lam0.7269_negative",
            "defect_b4_lam0.6083_negative",
            "majorant_b3_lam1_negative",
            "majorant_b5_lam0.5448_negative",
            "ae_majorant_b5_negative",
            "critical_b2_bracket_in_(0.9,0.9352)",
            "critical_b5_to_20_below_0.5448",
            "critical_b10000_near_inv_pi",
            "ae_b10000_sqrt_scaling",
            "certificate_b2_valid",
            "ae_bound_b2_at_most_0.81",
            "certificate_b3_valid",
            "ae_bound_b3_at_most_0.55",
            "certificate_b4_valid",
            "ae_bound_b4_at_most_0.44",
            "tangency_e11_b2_equals_1",
            "tangency_e11_b3_equals_1",
            "tangency_e11_b4_equals_1",
            "case_bounds_b2_match_gamma_defect",
        ]

    def test_perturbed_certificate_fails(self, capsys):
        code, payload = run_json(capsys, "reproduce", "--perturb-eta", "0.5")
        assert code == 1
        failing = [r["claim"] for r in payload["rows"] if not r["pass"]]
        assert failing == ["certificate_b3_valid"]

    def test_case_bounds_checked_independently(self, capsys, monkeypatch):
        # the row compares the case bounds with the lambda form; shifting them must fail it
        shifted = lambda g, f=claims.case_bounds_base2: tuple(c + 1e-6 for c in f(g))  # noqa: E731
        monkeypatch.setattr(claims, "case_bounds_base2", shifted)
        code, payload = run_json(capsys, "reproduce")
        assert code == 1
        failing = [r["claim"] for r in payload["rows"] if not r["pass"]]
        assert failing == ["case_bounds_b2_match_gamma_defect"]

    def test_csv_format(self, capsys):
        for argv, first, keys in (
            (("reproduce",), "claim", {"detail", "all_pass"}),
            (("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "8"), "epsilon",
             {"slope", "stderr", "theoretical", "note"}),
        ):
            code, out = run_cli(capsys, *argv, "--format", "csv")
            assert code == 0
            header, *rows = csv.reader(out.splitlines())
            assert header[0] == first and keys <= set(header)
            assert rows and all(len(r) == len(header) for r in rows)

    def test_text_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", "--b-range", "2:2", "--format", "text"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self):
        cmd = [sys.executable, "-m", "weierdim.cli", "thresholds", "--b-range", "2:6"]
        outs = []
        for threads in ("1", "8", "1"):
            proc = subprocess.run(
                cmd, capture_output=True, env={**os.environ, "WEIERDIM_THREADS": threads}
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("argv", [
        ("boxdim", "--b", "3", "--lambda", "0.8", "--levels", "9", "--samples-per-column", "27"),
        ("transversality", "--b", "3", "--lambda", "0.8", "--x-grid", "300", "--seed", "2"),
        ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
         "--n", "2", "--m", "2", "--eps", "0.5", "--delta", "0.5", "--grid-per-interval", "50"),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.95", "--x", "0.3",
         "--count", "20000", "--bins", "16", "--seed", "3"),
        ("transversality", "--b", "2", "--mode", "two-var"),
        ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "13", "--samples-per-column", "64"),
        ("transversality", "--b", "3", "--mode", "two-var", "--pair-budget", "2048"),
        ("boxdim", "--b", "5", "--lambda", "0.7", "--levels", "6", "--samples-per-column", "30"),
        # counts above one pooled sampler chunk (2^16 rows)
        ("measure", "--kind", "sbr", "--b", "3", "--lambda", "0.6", "--count", "140000",
         "--bins", "16", "--seed", "2"),
        ("measure", "--kind", "graph", "--b", "2", "--lambda", "0.6", "--count", "140000",
         "--bins", "16", "--seed", "4"),
        # the pool under empirical_delta and tangency_count
        ("reproduce",),
        # a ragged last chunk, with a shallower digit-prefix tree than the full ones
        ("measure", "--kind", "transversal", "--b", "3", "--lambda", "0.8", "--x", "0.5",
         "--count", "140000", "--bins", "16"),
        # one pooled sampler task (2^15 rows) less one, one and one more; a ragged last task
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.95", "--x", "0.3",
         "--count", "32767", "--bins", "16", "--seed", "5"),
        ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.95", "--x", "0.3",
         "--count", "32768", "--bins", "16", "--seed", "5"),
        ("measure", "--kind", "sbr", "--b", "3", "--lambda", "0.6", "--count", "32769",
         "--bins", "16", "--seed", "5"),
        ("measure", "--kind", "transversal", "--b", "3", "--lambda", "0.8", "--x", "0.5",
         "--count", "114688", "--bins", "16", "--seed", "5"),
        # under two pooled tasks: one task per worker, of half the count each
        ("measure", "--kind", "graph", "--b", "2", "--lambda", "0.9", "--count", "20000",
         "--bins", "16", "--seed", "3"),
    ])
    def test_worker_pool_output_independent_of_threads(self, capsys, monkeypatch, argv):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WEIERDIM_THREADS", threads)
            code, out = run_cli(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_import_starts_no_thread(self):
        # numpy's OpenBLAS would start a spinning thread per extra core; the package does no BLAS
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        code = ("import os, sys, weierdim; weierdim.slope_grid; assert 'numpy' in sys.modules; "
                "print(len(os.listdir('/proc/self/task')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stdout.split() == [b"1"]

    def test_import_keeps_the_users_blas_threads(self):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "3"}
        code = ("import os, sys, weierdim; weierdim.slope_grid; assert 'numpy' in sys.modules; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stdout.split() == [b"3"]

    def test_import_loads_no_numpy(self):
        code = "import sys, weierdim; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == 0 and proc.stdout.split() == [b"False"]

    def test_series_import_loads_no_pool(self):
        # concurrent.futures imports logging; only a threaded map_ordered needs it
        code = "import sys, weierdim.series; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == 0 and proc.stdout.split() == [b"False"]

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("WEIERDIM_THREADS", "100000")
        assert worker_count() <= (os.cpu_count() or 1)


# Each probe: the argv a fresh interpreter runs through main, the weierdim submodules it then
# holds and whether it holds numpy.  A mode imports only what it runs; --version, --help and
# usage errors import no library module.
_SERIES = {"cli", "parallel", "rng", "series"}
_THRESHOLDS = _SERIES | {"certificates", "thresholds"}
_COLD_PROBES = {
    "version": (["--version"], {"cli"}, False),
    "help": (["eval", "--help"], {"cli"}, False),
    "usage-error": (["eval", "--b", "2"], {"cli"}, False),
    "eval": (["eval", "--b", "2", "--lambda", "0.9", "--x", "0.1"], _SERIES, True),
    "measure": (["measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9", "--count", "10"],
                _SERIES | {"measures"}, True),
    "boxdim": (["boxdim", "--b", "2", "--lambda", "0.9", "--levels", "6"],
               _SERIES | {"measures", "boxdim"}, True),
    "star-verify": (["star-verify", "--beta", "2", "--k", "2", "--eta", "0.1", "--t", "0.5"],
                    _SERIES | {"certificates"}, True),
    "star-verify-b": (["star-verify", "--b", "3", "--lambda0", "0.9", "--k", "2", "--eta", "0.1",
                       "--t", "0.5"], _THRESHOLDS, True),
    "thresholds": (["thresholds", "--b-range", "2:2"], _THRESHOLDS, True),
    "transversality": (["transversality", "--b", "2", "--x-grid", "10", "--pair-budget", "4"],
                       _THRESHOLDS | {"transversality"}, True),
    "reproduce": (["reproduce"], _THRESHOLDS | {"transversality", "claims"}, True),
}
_PROBE = """
import contextlib, io, json, sys
from weierdim.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps([sorted(m[len("weierdim."):] for m in sys.modules if m.startswith("weierdim.")),
                  "numpy" in sys.modules]))
"""


class TestColdImports:
    @pytest.fixture(scope="class")
    def probes(self):
        """Every probe's (submodules, numpy loaded), the processes run side by side."""
        procs = {name: subprocess.Popen([sys.executable, "-c", _PROBE, *argv],
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for name, (argv, _, _) in _COLD_PROBES.items()}
        results = {}
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            modules, numpy = json.loads(out)
            results[name] = set(modules), numpy
        return results

    @pytest.mark.parametrize("name", _COLD_PROBES)
    def test_mode_imports_only_what_it_runs(self, probes, name):
        _, modules, numpy = _COLD_PROBES[name]
        assert probes[name] == (modules, numpy)


class _Sentinel(Exception):
    pass


# A mode run that reaches each name the benchmark's tracer replaces on cli.
_TRACED_CALLS = {
    "_emit": ("eval", "--b", "2", "--lambda", "0.9", "--x", "0.1"),
    "eval_weierstrass": ("eval", "--b", "2", "--lambda", "0.9", "--x", "0.1"),
    "sample_transversal": ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9",
                           "--count", "10"),
    "sample_sbr": ("measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9", "--count", "10"),
    "sample_graph_lift": ("measure", "--kind", "graph", "--b", "2", "--lambda", "0.9",
                          "--count", "10"),
    "density_histogram": ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.9",
                          "--count", "10", "--bins", "4"),
    "box_count": ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "6"),
    "fit_box_dimension": ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "6"),
    "empirical_delta": ("transversality", "--b", "2", "--x-grid", "10", "--pair-budget", "4"),
    "two_var_delta": ("transversality", "--b", "2", "--mode", "two-var", "--x-grid", "10",
                      "--gamma-grid", "2", "--pair-budget", "4"),
    "tangency_count": ("transversality", "--b", "2", "--mode", "tangency", "--eps", "0.5",
                       "--delta", "0.5"),
    "solve_critical_lambda": ("thresholds", "--b-range", "2:2"),
    "solve_ae_critical_lambda": ("thresholds", "--b-range", "2:2"),
    "search_certificate": ("star-verify", "--beta", "2", "--search", "--t-target", "0.5"),
    "verify_certificate": ("star-verify", "--beta", "2", "--k", "2", "--eta", "0.1", "--t", "0.5"),
}


def test_traced_calls_cover_every_name_the_tracer_replaces():
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = set()

    class Recorder(spans.Tracer):
        def wrap(self, owner, attr, *args, **kwargs):
            if owner is cli:
                wrapped.add(attr)

        wrap_tally = wrap_map = wrap

    before = dict(vars(cli))
    try:
        spans.install(Recorder())  # it also sets some names on cli itself
        replaced = {name for name, value in before.items() if vars(cli)[name] is not value}
    finally:
        vars(cli).update(before)
    assert wrapped | replaced == set(_TRACED_CALLS)


@pytest.mark.parametrize("name", _TRACED_CALLS)
def test_name_replaced_on_cli_is_the_one_called(monkeypatch, name):
    def sentinel(*args, **kwargs):
        raise _Sentinel(name)

    monkeypatch.setattr(cli, name, sentinel)
    with pytest.raises(_Sentinel):
        main(list(_TRACED_CALLS[name]))
