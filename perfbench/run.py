"""weierdim benchmark: cold CLI processes, end to end and layer by layer.

    python3 perfbench/run.py --workload checklist --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload (see workloads.py) is a
serial list of cold `python -m weierdim.cli ...` processes, one client in a
closed loop, every process with WEIERDIM_THREADS=2.

--trace 0 cycles through the workload's ops, in order, for --seconds (every
op runs at least once; no op is started that would end past the window by
its earlier time) and reports the end-to-end metrics: setup_s (median of
cold `--version` starts, half before and half after the window), wall_s and
cpu_s (one pass, each op counted by the median of its runs), peak_rss_mb and
pass_ratio.  --trace 1 alternates an untraced pass with a traced one, in
which every op runs under child.py with the layer wrappers of spans.py, and
reports the per-layer metrics.

Every op is gated: exit code, JSON stdout, the pinned facts of its workload
entry, and stdout bytes equal to the same op run with WEIERDIM_THREADS=1
(computed once per invocation, untimed).  Lines before the last one report
the environment, each op's stdout digest and every metric with its unit; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import LOCAL_DIM_WORKLOAD, WORKLOADS, Op
import spans

HERE = Path(__file__).resolve().parent
THREADS = "2"
SETUP_STARTS = 4
OP_TIMEOUT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


class BenchError(RuntimeError):
    """The program could not be set up; no result is printed."""


@dataclass
class Run:
    exit_code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr_tail: str


def child_env(root: Path, threads: str) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["WEIERDIM_THREADS"] = threads
    return env


def launch(cmd: list[str], env: dict, tmp: Path, stdin: bytes | None = None) -> Run:
    """Run one process to completion; CPU time and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=tmp) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, env=env)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.stdin is not None:
                proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace")[-400:]
    return Run(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, tail)


def gate(op: Op, run: Run, ref: dict) -> str | None:
    """Why the op failed the correctness gate, or None."""
    if run.exit_code != op.exit_code:
        return f"exit code {run.exit_code}, expected {op.exit_code}: {run.stderr_tail.strip()}"
    try:
        doc = json.loads(run.stdout)
    except ValueError:
        return "stdout is not JSON"
    problem = op.check(doc)
    if problem:
        return problem
    if hashlib.sha256(run.stdout).hexdigest() != ref["sha256"]:
        return "stdout differs from the WEIERDIM_THREADS=1 reference"
    return None


def reference(root: Path, ops: list[Op], tmp: Path) -> dict[str, dict]:
    """stdout digest of every op at WEIERDIM_THREADS=1.

    Untimed, so the ops are dealt alternately to two child processes that
    run side by side; each imports the package once.
    """
    parts = [ops[0::2], ops[1::2]]
    env = child_env(root, "1")

    def run_part(part):
        payload = json.dumps([list(op.argv) for op in part]).encode()
        return launch([sys.executable, str(HERE / "child.py"), "reference"], env, tmp, stdin=payload)

    with ThreadPoolExecutor(len(parts)) as pool:
        runs = list(pool.map(run_part, parts))
    ref = {}
    for part, run in zip(parts, runs):
        if run.exit_code != 0:
            raise BenchError(f"reference run failed: {run.stderr_tail}")
        ref.update({op.name: r for op, r in zip(part, json.loads(run.stdout))})
    return ref


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    lines: list[str]


def run_op(root: Path, op: Op, ref: dict, tmp: Path, traced: bool = False):
    """Run and gate one op; returns the run, the gate's complaint or None,
    the op's spans (traced only) and its report line."""
    env = child_env(root, THREADS)
    span_list = None
    if traced:
        spans_path = tmp / "spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path), *op.argv]
    else:
        cmd = [sys.executable, "-m", "weierdim.cli", *op.argv]
    run = launch(cmd, env, tmp)
    problem = gate(op, run, ref[op.name])
    if traced:
        try:
            span_list = json.loads(spans_path.read_text())
            spans_path.unlink()
        except (OSError, ValueError):
            problem = problem or "no spans written"
    line = (f"op {op.name} exit={run.exit_code} bytes={len(run.stdout)} "
            f"sha256={hashlib.sha256(run.stdout).hexdigest()} wall_s={run.wall_s:.4f} "
            f"cpu_s={run.cpu_s:.4f} {'ok' if problem is None else 'FAILED: ' + problem}")
    return run, problem, span_list, line


def run_pass(root: Path, ops: list[Op], ref: dict, tmp: Path, traced: bool = False) -> tuple[Pass, list]:
    """One serial pass over the ops; returns its totals and, if traced, the spans of each op."""
    runs, span_lists, lines = [], [], []
    failed = 0
    for op in ops:
        run, problem, span_list, line = run_op(root, op, ref, tmp, traced)
        if traced and span_list is not None:
            span_lists.append(span_list)
        failed += problem is not None
        runs.append(run)
        lines.append(line)
    totals = Pass(
        wall_s=sum(r.wall_s for r in runs),
        cpu_s=sum(r.cpu_s for r in runs),
        peak_rss_mb=max(r.maxrss_mb for r in runs),
        attempted=len(ops),
        failed=failed,
        lines=lines,
    )
    return totals, span_lists


def run_window(root: Path, ops: list[Op], ref: dict, tmp: Path, seconds: float) -> Pass:
    """Cycle through the ops for `seconds`; one pass estimated from per-op medians.

    Every op runs at least once.  After that, an op is not started if its
    earlier median time would carry the window past `seconds`, so a run ends
    close to its budget.  wall_s and cpu_s sum each op's median; peak_rss_mb
    is the largest per-op median of ru_maxrss.
    """
    runs: dict[str, list[Run]] = {op.name: [] for op in ops}
    lines = []
    attempted = failed = 0
    t0 = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops):
            expected = statistics.median(r.wall_s for r in runs[op.name])
            if time.perf_counter() - t0 + expected > seconds:
                break
        run, problem, _, line = run_op(root, op, ref, tmp)
        runs[op.name].append(run)
        attempted += 1
        failed += problem is not None
        lines.append(line)
    med = {name: (statistics.median(r.wall_s for r in rs), statistics.median(r.cpu_s for r in rs),
                  statistics.median(r.maxrss_mb for r in rs)) for name, rs in runs.items()}
    lines += [f"op_median {name} runs={len(runs[name])} wall_s={w:.4f} cpu_s={c:.4f} "
              f"maxrss_mb={m:.1f}" for name, (w, c, m) in med.items()]
    return Pass(
        wall_s=sum(w for w, _, _ in med.values()),
        cpu_s=sum(c for _, c, _ in med.values()),
        peak_rss_mb=max(m for _, _, m in med.values()),
        attempted=attempted,
        failed=failed,
        lines=lines,
    )


def setup_times(root: Path, tmp: Path, starts: int) -> list[float]:
    env = child_env(root, THREADS)
    times = []
    for _ in range(starts):
        run = launch([sys.executable, "-m", "weierdim.cli", "--version"], env, tmp)
        if run.exit_code != 0:
            raise BenchError(f"`weierdim --version` failed: {run.stderr_tail}")
        times.append(run.wall_s)
    return times


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(root: Path) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "WEIERDIM_THREADS": THREADS,
        "git_commit": _git_commit(root),
        "loadavg_start": _loadavg(),
    }
    env.update({var: os.environ.get(var, "unset") for var in BLAS_VARS})
    return env


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            tmp: Path, ops_factory=None) -> tuple[dict, list[str]]:
    """Run one benchmark invocation; returns the result object and report lines."""
    ops_factory = ops_factory or WORKLOADS[workload]
    env = environment(root)
    t_start = time.perf_counter()
    setup = [] if trace else setup_times(root, tmp, SETUP_STARTS // 2)
    (tmp / "ref").mkdir()
    (tmp / "run").mkdir()
    t_ref = time.perf_counter()
    ref = reference(root, ops_factory(seed, str(tmp / "ref")), tmp)
    ops = ops_factory(seed, str(tmp / "run"))

    t_passes = time.perf_counter()
    if trace:
        plain: list[Pass] = []
        traced: list[tuple[Pass, dict]] = []
        while not plain or time.perf_counter() - t_passes < seconds:
            plain.append(run_pass(root, ops, ref, tmp)[0])
            p, span_lists = run_pass(root, ops, ref, tmp, traced=True)
            traced.append((p, spans.layer_metrics(span_lists)))
        passes = plain + [p for p, _ in traced]
    else:
        window = run_window(root, ops, ref, tmp, seconds)
        passes = [window]
    t_end = time.perf_counter()
    if not trace:
        setup += setup_times(root, tmp, SETUP_STARTS - SETUP_STARTS // 2)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        values = {name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]}
        values["trace.overhead_s"] = (statistics.median(p.wall_s for p, _ in traced)
                                      - statistics.median(p.wall_s for p in plain))
        if workload == LOCAL_DIM_WORKLOAD:
            local = local_dim(root, seed, tmp)
            for name in ("measures.local_dim_s", "measures.local_dim_pair_tests"):
                values[name] = local[name]
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": window.wall_s,
            "cpu_s": window.cpu_s,
            "peak_rss_mb": window.peak_rss_mb,
            "pass_ratio": (attempted - failed) / attempted,
        }

    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    lines += [f"ref {name} exit={r['exit_code']} bytes={r['bytes']} sha256={r['sha256']}"
              for name, r in ref.items()]
    for p in passes:
        lines += p.lines
    lines += [
        "setup_runs_s " + " ".join(f"{t:.4f}" for t in setup),
        "pass_walls_s " + " ".join(f"{p.wall_s:.4f}" for p in passes),
        f"phases_s setup={t_ref - t_start:.2f} reference={t_passes - t_ref:.2f} "
        f"passes={t_end - t_passes:.2f} total={time.perf_counter() - t_start:.2f}",
        f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}",
        f"loadavg_end {_loadavg()}",
    ]
    for name, unit in units.items():
        note = " (computed from array and output sizes)" if unit == "B" else ""
        lines.append(f"metric {name} = {values[name]:.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def local_dim(root: Path, seed: int, tmp: Path) -> dict:
    spans_path = tmp / "spans-localdim.json"
    run = launch([sys.executable, str(HERE / "child.py"), "localdim", str(spans_path), str(seed)],
                 child_env(root, THREADS), tmp)
    if run.exit_code != 0:
        raise BenchError(f"local-dimension case failed: {run.stderr_tail}")
    return spans.layer_metrics([json.loads(spans_path.read_text())])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "weierdim" / "cli.py").is_file():
        print("error: run from a weierdim checkout (src/weierdim/cli.py not found)", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result, lines = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
