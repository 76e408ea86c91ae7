"""In-memory spans around the calls into each `weierdim` layer.

The traced child process (child.py) installs wrappers by replacing the names
that calling modules look up at call time, runs one CLI op, and writes its
spans as JSON when the op ends.  A span is [name, start, end, parent, counts]
with perf_counter times; counts are work counters recorded at the same
boundary.  run.py folds the spans of every op of a pass into the per-layer
metrics listed in PER_LAYER.

This module imports nothing from numpy or weierdim at module level, so the
child's `cli.import` span covers the whole package and dependency import.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Open a span; the parent defaults to this thread's innermost span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = [name, time.perf_counter(), None, parent, {}]
        with self._lock:
            self.spans.append(record)
            sid = len(self.spans) - 1
        stack.append(sid)
        try:
            yield sid
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def add(self, sid: int, counts: dict) -> None:
        own = self.spans[sid][COUNTS]
        for key, n in counts.items():
            own[key] = own.get(key, 0) + n

    def tally(self, key: str, n: int = 1) -> None:
        """Add to a counter of this thread's innermost span."""
        self.add(self._stack()[-1], {key: n})

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace owner.attr by a spanned call; counts(result, *a, **k) -> dict."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
                if counts is not None:
                    self.add(sid, counts(result, *args, **kwargs))
            return result

        setattr(owner, attr, traced)

    def wrap_tally(self, owner, attr: str, counts) -> None:
        """Replace owner.attr by a call that only bumps counters (hot paths)."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, n in counts(result, *args, **kwargs).items():
                self.tally(key, n)
            return result

        setattr(owner, attr, tallied)

    def wrap_map(self, owner, attr: str) -> None:
        """Span a map_ordered call and each task it runs, in whatever thread."""
        fn = getattr(owner, attr)
        from weierdim.parallel import worker_count

        @functools.wraps(fn)
        def traced_map(task_fn, items):
            items = list(items)
            workers = worker_count()
            used = min(workers, len(items)) if workers > 1 and len(items) > 1 else 1
            with self.span("parallel.map") as map_sid:
                self.add(map_sid, {"parallel.tasks": len(items), "parallel.workers": used})

                def task(item):
                    with self.span("parallel.task", parent=map_sid):
                        return task_fn(item)

                return fn(task, items)

        setattr(owner, attr, traced_map)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported weierdim package."""
    import weierdim.boxdim as boxdim
    import weierdim.certificates as certificates
    import weierdim.cli as cli
    import weierdim.measures as measures
    import weierdim.rng as rng
    import weierdim.thresholds as thresholds
    import weierdim.transversality as transversality

    def emit(payload, args):
        # Capture the text so its size is known, then write it unchanged.
        buf = io.StringIO()
        with tracer.span("cli.emit") as sid:
            with contextlib.redirect_stdout(buf):
                emit_fn(payload, args)
            text = buf.getvalue()
            sys.stdout.write(text)
            sys.stdout.flush()
            tracer.add(sid, {"cli.emit_bytes": len(text.encode())})

    emit_fn = cli._emit
    cli._emit = emit

    tracer.wrap(rng, "digit_matrix", "rng.digit_matrix",
                lambda out, *a, **k: {"rng.digits": out.size, "rng.digit_matrix_bytes": out.nbytes})
    weierstrass_counts = lambda out, *a, **k: {"series.terms": out.terms_used}  # noqa: E731
    for owner in (cli, measures):
        tracer.wrap(owner, "eval_weierstrass", "series.eval_weierstrass", weierstrass_counts)

    def slope_cells(out, *a, **k):
        x, digits = _arg(a, k, 2, "x"), _arg(a, k, 3, "digits")
        return {"series.slope_grid_cells": digits.shape[0] * x.size * digits.shape[1],
                "series.slope_grid_points": x.size}

    tracer.wrap(transversality, "slope_grid", "series.slope_grid", slope_cells)

    for sampler in ("sample_transversal", "sample_sbr", "sample_graph_lift"):
        tracer.wrap(cli, sampler, "measures.sample",
                    lambda out, *a, **k: {"measures.samples": out.count})
    tracer.wrap(cli, "density_histogram", "measures.histogram")
    tracer.wrap(measures.SampleSet, "to_csv", "cli.to_csv",
                lambda out, *a, **k: {"cli.to_csv_bytes": os.path.getsize(_arg(a, k, 1, "path"))})

    tracer.wrap(boxdim, "_grid_values", "boxdim.grid_values",
                lambda out, *a, **k: {"boxdim.grid_points": out.size})
    tracer.wrap(cli, "box_count", "boxdim.count")
    tracer.wrap(cli, "fit_box_dimension", "boxdim.fit")
    for owner in (boxdim, transversality):
        tracer.wrap_map(owner, "map_ordered")

    for fn in ("empirical_delta", "two_var_delta"):
        tracer.wrap(cli, fn, "transversality.delta")
    tracer.wrap_tally(transversality, "_pair_words",
                      lambda out, *a, **k: {"transversality.pairs": len(out[1])})

    def comparisons(out, *a, **k):
        p, q = _arg(a, k, 0, "p"), _arg(a, k, 1, "q")
        reps = 1 + q.random_tails
        return {"transversality.tangency_comparisons":
                p.b ** (2 * q.n) * p.b ** q.m * q.grid_per_interval * reps * reps}

    tracer.wrap(cli, "tangency_count", "transversality.tangency", comparisons)

    for fn in ("solve_critical_lambda", "solve_ae_critical_lambda"):
        tracer.wrap(cli, fn, "thresholds.solve", lambda out, *a, **k: {"thresholds.bases": 1})
    for fn in ("transversality_defect", "ae_defect"):
        tracer.wrap_tally(thresholds, fn, lambda out, *a, **k: {"thresholds.defect_evals": 1})

    for owner in (cli, thresholds):
        tracer.wrap(owner, "search_certificate", "certificates.search",
                    lambda out, *a, **k: {"certificates.found": int(out is not None)})
    for owner in (cli, thresholds, certificates):
        tracer.wrap(owner, "verify_certificate", "certificates.verify")


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.emit_bytes", "B", "lower"),
    ("cli.to_csv_s", "s", "lower"),
    ("cli.to_csv_bytes", "B", "lower"),
    ("rng.digit_matrix_s", "s", "lower"),
    ("rng.digits", "count", "lower"),
    ("rng.digit_matrix_bytes", "B", "lower"),
    ("series.eval_weierstrass_s", "s", "lower"),
    ("series.eval_weierstrass_calls", "count", "lower"),
    ("series.terms", "count", "lower"),
    ("series.slope_grid_s", "s", "lower"),
    ("series.slope_grid_cells", "count", "lower"),
    ("measures.sample_self_s", "s", "lower"),
    ("measures.samples", "count", "lower"),
    ("measures.histogram_s", "s", "lower"),
    ("measures.local_dim_s", "s", "lower"),
    ("measures.local_dim_pair_tests", "count", "lower"),
    ("boxdim.grid_values_s", "s", "lower"),
    ("boxdim.grid_points", "count", "lower"),
    ("boxdim.grid_points_per_s", "1/s", "higher"),
    ("boxdim.count_self_s", "s", "lower"),
    ("boxdim.fit_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.task_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("transversality.delta_self_s", "s", "lower"),
    ("transversality.pairs", "count", "lower"),
    ("transversality.pair_cells", "count", "lower"),
    ("transversality.tangency_self_s", "s", "lower"),
    ("transversality.tangency_comparisons", "count", "lower"),
    ("thresholds.solve_s", "s", "lower"),
    ("thresholds.defect_evals", "count", "lower"),
    ("thresholds.bases", "count", "lower"),
    ("certificates.search_s", "s", "lower"),
    ("certificates.candidates", "count", "lower"),
    ("certificates.hit_ratio", "ratio", "higher"),
    ("certificates.verify_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Span totals reported as-is: metric -> (span name, "dur" | "self").
_SPAN_TIMES = {
    "cli.import_s": ("cli.import", "dur"),
    "cli.emit_s": ("cli.emit", "dur"),
    "cli.to_csv_s": ("cli.to_csv", "dur"),
    "rng.digit_matrix_s": ("rng.digit_matrix", "dur"),
    "series.eval_weierstrass_s": ("series.eval_weierstrass", "dur"),
    "series.slope_grid_s": ("series.slope_grid", "dur"),
    "measures.sample_self_s": ("measures.sample", "self"),
    "measures.histogram_s": ("measures.histogram", "dur"),
    "measures.local_dim_s": ("measures.local_dim", "dur"),
    "boxdim.grid_values_s": ("boxdim.grid_values", "dur"),
    "boxdim.count_self_s": ("boxdim.count", "self"),
    "boxdim.fit_s": ("boxdim.fit", "dur"),
    "parallel.task_s": ("parallel.task", "dur"),
    "transversality.delta_self_s": ("transversality.delta", "self"),
    "transversality.tangency_self_s": ("transversality.tangency", "self"),
    "thresholds.solve_s": ("thresholds.solve", "dur"),
    "certificates.search_s": ("certificates.search", "dur"),
    "certificates.verify_s": ("certificates.verify", "dur"),
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def layer_metrics(runs: list[list[list]]) -> dict[str, float]:
    """Per-layer totals over the span lists of several processes.

    Self time is a span's duration minus the part of it its child spans
    cover.  Counts are summed over all spans.  Metrics of a layer the runs
    never reached are 0.
    """
    dur: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    map_capacity = 0.0
    for spans in runs:
        children = defaultdict(list)
        for sid, sp in enumerate(spans):
            if sp[PARENT] is not None:
                children[sp[PARENT]].append(sid)
        for sid, sp in enumerate(spans):
            name, start, end = sp[NAME], sp[START], sp[END]
            kids = children[sid]
            d = end - start
            dur[name] += d
            self_time[name] += d - _covered(
                [(max(start, spans[c][START]), min(end, spans[c][END])) for c in kids])
            calls[name] += 1
            for key, n in sp[COUNTS].items():
                counts[key] += n
            if name == "parallel.map":
                map_capacity += d * sp[COUNTS]["parallel.workers"]
            elif name == "transversality.delta":
                points = sum(spans[c][COUNTS].get("series.slope_grid_points", 0) for c in kids
                             if spans[c][NAME] == "series.slope_grid")
                counts["transversality.pair_cells"] += sp[COUNTS].get("transversality.pairs", 0) * points
            elif name == "certificates.verify" and sp[PARENT] is not None \
                    and spans[sp[PARENT]][NAME] == "certificates.search":
                counts["certificates.candidates"] += 1

    out = {m: (self_time if kind == "self" else dur)[span] for m, (span, kind) in _SPAN_TIMES.items()}
    out.update({name: counts[name] for name, unit, _ in PER_LAYER if unit in ("count", "B")})
    out["series.eval_weierstrass_calls"] = calls["series.eval_weierstrass"]
    out["boxdim.grid_points_per_s"] = (
        counts["boxdim.grid_points"] / dur["boxdim.grid_values"] if dur["boxdim.grid_values"] else 0.0)
    out["parallel.efficiency"] = dur["parallel.task"] / map_capacity if map_capacity else 0.0
    out["certificates.hit_ratio"] = (
        counts["certificates.found"] / counts["certificates.candidates"]
        if counts["certificates.candidates"] else 0.0)
    return out
