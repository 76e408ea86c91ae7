"""Command line interface: outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from weierdim import COSINE, Params, eval_weierstrass
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
        for argv in (["eval", "--b", "2"], bad_word + ["0a1"], bad_word + ["0,1,x"],
                     bad_phases + ["0.1,zz"], bad_range + ["2:x"], bad_range + ["5:2"],
                     bad_range + ["2:3:4"], bad_range + ["2,,3"]):
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


class TestReproduce:
    def test_all_claims_pass(self, capsys):
        code, payload = run_json(capsys, "reproduce")
        assert code == 0
        assert payload["all_pass"] is True
        assert all(row["pass"] for row in payload["rows"])

    def test_perturbed_certificate_fails(self, capsys):
        code, payload = run_json(capsys, "reproduce", "--perturb-eta", "0.5")
        assert code == 1
        failing = [r["claim"] for r in payload["rows"] if not r["pass"]]
        assert failing == ["certificate_b3_valid"]

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
    ])
    def test_worker_pool_output_independent_of_threads(self, capsys, monkeypatch, argv):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WEIERDIM_THREADS", threads)
            code, out = run_cli(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("WEIERDIM_THREADS", "100000")
        assert worker_count() <= (os.cpu_count() or 1)
