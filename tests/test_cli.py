"""Command line interface: outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from weierdim import COSINE, Params, claims, cli, eval_weierstrass
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
        ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "two-var",
         "--x-grid", "100000000", "--pair-budget", "16"),
        ("star-verify", "--b", "3", "--lambda0", "0.55", "--search", "--t-target", "0.6",
         "--k-max", "0"),
        ("measure", "--kind", "graph", "--b", "2", "--lambda", "0.99999", "--count", "10000"),
        ("transversality", "--b", "2", "--mode", "two-var", "--gamma-grid", "100000000",
         "--x-grid", "2", "--pair-budget", "2"),
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

    def test_scale_error_lists_plain_floats(self, capsys):
        code = main(["boxdim", "--b", "2", "--lambda", "0.9", "--levels", "4",
                     "--drop-coarsest", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.rstrip().endswith("strictly decreasing scales, got [0.25, 0.125, 0.0625]")

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

    def test_measure_graph_histogram(self, capsys):
        code, payload = run_json(
            capsys, "measure", "--kind", "graph", "--b", "2", "--lambda", "0.9",
            "--count", "300", "--bins", "8", "--seed", "3",
        )
        assert code == 0
        assert sum(m for _, m in payload["histogram"]) == pytest.approx(1.0, abs=1e-12)

    def test_unwritable_output_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing" / "out")
        for argv in (("eval", "--b", "2", "--lambda", "0.9", "--x", "0.1", "--out", missing),
                     ("measure", "--kind", "sbr", "--b", "2", "--lambda", "0.9",
                      "--count", "50", "--out-csv", missing)):
            assert run_cli(capsys, *argv) == (2, "")

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


@pytest.mark.parametrize("argv", [
    *((*EVAL, "--what", what, "--phi", "sin2") for what in ("Y", "Ydx", "Ydgamma", "S")),
    (*EVAL, "--what", "Y", "--phi", "zero"),
    *((*EVAL, "--what", what, "--psi", "sin2") for what in ("f", "Y", "Ydx", "Ydgamma")),
    *((*EVAL, "--what", what, "--phases", "0.5") for what in ("Y", "Ydx", "Ydgamma", "S")),
    (*MEASURE, "transversal", "--phi", "sin2"),
    (*MEASURE, "sbr", "--phi", "sin2"),
    (*MEASURE, "transversal", "--psi", "sin2"),
    (*MEASURE, "graph", "--psi", "zero"),
], ids=lambda argv: " ".join(argv[len(EVAL):]))
def test_function_flag_the_result_does_not_read_is_usage_error(capsys, argv):
    """A --phi, --psi or --phases that the chosen series or sampler would ignore is refused."""
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


TANGENCY = ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
            "--n", "1", "--m", "1", "--eps", "0.5", "--delta", "0.5", "--grid-per-interval", "20")


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
], ids=["tangency-grid", "tangency-tails", "two-var-gamma-grid", "measure-phi", "measure-psi",
        "eval-phases"])
def test_config_names_every_option_of_the_result(capsys, argv, flag, a, b):
    configs = [run_json(capsys, *argv, flag, v)[1]["config"] for v in (a, b)]
    assert configs[0] != configs[1]


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
        code = "import os, weierdim; print(len(os.listdir('/proc/self/task')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stdout.split() == [b"1"]

    def test_import_keeps_the_users_blas_threads(self):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "3"}
        code = "import os, weierdim; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert proc.returncode == 0 and proc.stdout.split() == [b"3"]

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("WEIERDIM_THREADS", "100000")
        assert worker_count() <= (os.cpu_count() or 1)
