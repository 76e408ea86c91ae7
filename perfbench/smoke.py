"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

Run from the repository root.  It checks that the correctness gate counts an
op whose stdout bytes differ from the WEIERDIM_THREADS=1 reference, that both
modes print every metric BENCHMARK.json names, and that the benchmark fails
without a result where the program's source is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import Op  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _no_check(doc: dict):
    return None


def tiny(seed: int, tmp: str) -> list[Op]:
    """One small op per layer the workloads reach."""
    s = str(seed)
    return [
        Op("thresholds", ("thresholds", "--b-range", "2:6"), _no_check),
        Op("star-search", ("star-verify", "--b", "3", "--lambda0", "0.55", "--search",
                           "--t-target", "0.6"), _no_check),
        Op("eval", ("eval", "--b", "2", "--lambda", "0.9", "--x", "0.3"), _no_check),
        Op("measure-csv", ("measure", "--kind", "transversal", "--b", "2", "--lambda", "0.95",
                           "--count", "1000", "--bins", "8", "--seed", s,
                           "--out-csv", str(Path(tmp) / "t.csv")), _no_check),
        Op("measure-graph", ("measure", "--kind", "graph", "--b", "2", "--lambda", "0.9",
                             "--count", "50", "--seed", s), _no_check),
        Op("boxdim", ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "6",
                      "--samples-per-column", "4"), _no_check),
        Op("delta", ("transversality", "--b", "2", "--lambda", "0.95", "--x-grid", "50",
                     "--pair-budget", "64", "--seed", s), _no_check),
        Op("tangency", ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
                        "--n", "1", "--m", "1", "--eps", "0.5", "--delta", "0.5", "--seed", s),
           _no_check),
    ]


def test_gate_counts_bytes_that_differ_from_the_reference(tmp_path):
    ops = tiny(1, str(tmp_path))[2:3]
    ref = run.reference(ROOT, ops, tmp_path)
    ok, _ = run.run_pass(ROOT, ops, ref, tmp_path)
    assert (ok.attempted, ok.failed) == (1, 0)

    ref["eval"] = dict(ref["eval"], sha256="0" * 64)
    bad, _ = run.run_pass(ROOT, ops, ref, tmp_path)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "differs from the WEIERDIM_THREADS=1 reference" in bad.lines[0]


def _check_result(result: dict, lines: list[str], section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCH[section]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCH[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") for line in lines)


def test_untraced_mode_reports_every_end_to_end_metric(tmp_path):
    result, lines = run.measure(ROOT, "checklist", 1, 0, False, tmp_path, ops_factory=tiny)
    _check_result(result, lines, "end_to_end")
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
    assert any(line.startswith("env ") for line in lines)


def test_traced_mode_reports_every_per_layer_metric(tmp_path):
    result, lines = run.measure(ROOT, "sampling", 1, 0, True, tmp_path, ops_factory=tiny)
    _check_result(result, lines, "per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for reached in ("cli.import_s", "cli.to_csv_bytes", "rng.digits", "series.slope_grid_cells",
                    "boxdim.grid_points", "parallel.tasks", "thresholds.defect_evals",
                    "certificates.candidates", "measures.local_dim_pair_tests"):
        assert values[reached] > 0, reached


def test_fails_without_a_result_when_the_source_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCH["command"] + ["--workload", "checklist", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
