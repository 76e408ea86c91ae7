"""Benchmark child process: runs `weierdim` ops in-process.

    python3 perfbench/child.py reference            < argv lists (JSON) on stdin
    python3 perfbench/child.py trace SPANS ARGV...
    python3 perfbench/child.py localdim SPANS SEED

reference: run every op through weierdim.cli.main in this one process and
print, as JSON, each op's exit code and the digest and size of its stdout.
trace: run one op with the layer wrappers of spans.py installed; stdout is
the op's own output and the spans go to the file SPANS when the op ends.
localdim: the layer-only local-dimension case, which no CLI path reaches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback

from spans import Tracer, install

# The layer-only local-dimension case: the 1e6-point transversal sample of
# the sampling workload, 100 centers, a ladder of 7 radii.
LOCAL_DIM_COUNT = 1_000_000
LOCAL_DIM_CENTERS = 100
LOCAL_DIM_RADII = tuple(2.0 ** -k for k in range(7))


def _run_main(main, argv) -> int:
    try:
        return int(main(list(argv)) or 0)
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error exits 1, as a cold process would
        traceback.print_exc()
        return 1


def reference() -> int:
    from weierdim.cli import main

    results = []
    for argv in json.load(sys.stdin):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _run_main(main, argv)
        data = buf.getvalue().encode()
        results.append({"exit_code": code, "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data)})
    json.dump(results, sys.stdout)
    return 0


def _write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.spans, fh)


def trace(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    try:
        with tracer.span("op"):
            with tracer.span("cli.import"):
                import weierdim.cli
            install(tracer)
            return _run_main(weierdim.cli.main, argv)
    finally:
        _write_spans(tracer, spans_path)


def localdim(spans_path: str, seed: int) -> int:
    from weierdim.measures import local_dim_estimate, sample_transversal
    from weierdim.series import Params

    tracer = Tracer()
    s = sample_transversal(Params(2, 0.95), 0.3, LOCAL_DIM_COUNT, seed=seed)
    with tracer.span("measures.local_dim") as sid:
        fit = local_dim_estimate(s, LOCAL_DIM_RADII, centers=LOCAL_DIM_CENTERS, seed=seed)
        tracer.add(sid, {"measures.local_dim_pair_tests":
                         LOCAL_DIM_CENTERS * s.count * len(LOCAL_DIM_RADII)})
    _write_spans(tracer, spans_path)
    print(json.dumps({"slope": fit.slope, "stderr": fit.stderr}))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "reference":
        sys.exit(reference())
    if mode == "trace":
        sys.exit(trace(rest[0], rest[1:]))
    if mode == "localdim":
        sys.exit(localdim(rest[0], int(rest[1])))
    sys.exit(f"unknown mode {mode!r}")
