"""The benchmark's workloads: fixed, serial lists of `weierdim` invocations.

Each op is one cold CLI process.  An op carries the exit code it must return
and a check of the repository's pinned facts on its parsed JSON output; the
byte comparison against the WEIERDIM_THREADS=1 reference lives in run.py.
Only the seeded subcommands (transversality, measure) receive the workload
seed, so every other op is the same on every seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

# Box-counting slope of the classic b=2, lam=0.9 graph pinned by the test suite.
PINNED_BOX_SLOPE_B2 = 1.8480


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], Optional[str]]
    exit_code: int = 0


def _fact(pred: Callable[[dict], bool], what: str) -> Callable[[dict], Optional[str]]:
    def check(doc: dict) -> Optional[str]:
        try:
            return None if pred(doc) else what
        except (KeyError, TypeError, IndexError):
            return f"{what} (field missing)"
    return check


def _csv_rows(path: str, count: int) -> Callable[[dict], Optional[str]]:
    def check(doc: dict) -> Optional[str]:
        if doc.get("count") != count:
            return f"count {doc.get('count')} != {count}"
        try:
            with open(path, "rb") as fh:
                rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
            os.remove(path)  # the next pass must write its own file
        except OSError as exc:
            return f"csv unreadable: {exc}"
        return None if rows == count else f"csv has {rows} rows, expected {count}"
    return check


def _measure(kind: str, b: int, lam: float, count: int, seed: int, extra: tuple = (),
             bins: int = 0, check=None) -> Op:
    argv = ("measure", "--kind", kind, "--b", str(b), "--lambda", str(lam),
            "--count", str(count), "--seed", str(seed)) + extra
    if bins:
        argv += ("--bins", str(bins))
    if check is None:
        check = _fact(lambda d: d["count"] == count and len(d.get("histogram", [])) == bins,
                      f"count != {count} or histogram != {bins} bins")
    return Op(f"measure-{kind}-b{b}-{count}", argv, check)


def checklist(seed: int, tmp: str) -> list[Op]:
    """The claim-checking path: reproduce, thresholds, certificates, eval,
    light transversality, then the chunked worker-pool estimators that check
    the box slope, the delta-mode bound and the tangency count."""
    s = str(seed)
    ops = [
        Op("reproduce", ("reproduce",), _fact(lambda d: d["all_pass"] is True, "all_pass is not true")),
        Op("reproduce-perturbed", ("reproduce", "--perturb-eta", "0.5"),
           _fact(lambda d: [r["claim"] for r in d["rows"] if not r["pass"]] == ["certificate_b3_valid"],
                 "perturbed run must fail only certificate_b3_valid"),
           exit_code=1),
        Op("thresholds-2-200", ("thresholds", "--b-range", "2:200"),
           _fact(lambda d: [r["b"] for r in d["rows"]] == list(range(2, 201)), "rows are not b=2..200")),
        Op("star-verify-b2", ("star-verify", "--b", "2", "--lambda0", "0.81",
                              "--k", "4", "--eta", "0.81", "--t", "0.62"),
           _fact(lambda d: d["valid"] is True, "built-in b=2 certificate not valid")),
        Op("star-search-b3", ("star-verify", "--b", "3", "--lambda0", "0.55",
                              "--search", "--t-target", "0.6"),
           _fact(lambda d: d["found"] is True and d["t"] >= 0.6, "no b=3 certificate found")),
        Op("star-search-b4", ("star-verify", "--b", "4", "--lambda0", "0.44",
                              "--search", "--t-target", "0.56"),
           _fact(lambda d: d["found"] is True and d["t"] >= 0.56, "no b=4 certificate found")),
    ]
    for what in ("f", "Y", "Ydx", "Ydgamma", "S"):
        ops.append(Op(f"eval-{what}", ("eval", "--b", "2", "--lambda", "0.9", "--x", "0.3",
                                       "--what", what),
                      _fact(lambda d: d["tail_bound"] <= 1e-9 and d["terms_used"] > 0,
                            "tail bound above tolerance")))
    ops += [
        Op("transversality-delta-b3", ("transversality", "--b", "3", "--lambda", "0.8", "--seed", s),
           _fact(lambda d: d["holds"] is True, "delta-mode holds flag is not true")),
        Op("transversality-two-var-b2", ("transversality", "--b", "2", "--mode", "two-var",
                                         "--seed", s),
           _fact(lambda d: d["delta_hat"] >= 0.0, "negative delta_hat")),
        Op("tangency-n1-m1", ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
                              "--n", "1", "--m", "1", "--eps", "0.5", "--delta", "0.5", "--seed", s),
           _fact(lambda d: d["e"] >= 1, "tangency count e < 1")),
    ]
    return ops + _estimators(seed)


def sampling(seed: int, tmp: str) -> list[Op]:
    """The pushforward-measure samplers at 1e6 points, plus a CSV write."""
    csv_path = os.path.join(tmp, "transversal.csv")
    return [
        _measure("transversal", 2, 0.95, 1_000_000, seed, ("--x", "0.3"), bins=64),
        _measure("sbr", 3, 0.6, 1_000_000, seed, bins=64),
        _measure("graph", 2, 0.9, 20_000, seed, bins=64),
        _measure("transversal", 3, 0.8, 200_000, seed, ("--x", "0.5", "--out-csv", csv_path),
                 check=_csv_rows(csv_path, 200_000)),
    ]


def _estimators(seed: int) -> list[Op]:
    """The chunked worker-pool estimators: exact box grid, slope grid, tangency.

    They have no sampler and no RNG matrix of any size, while `sampling` has
    almost no box-grid or worker-pool work; so an orbit kernel that helps one
    use and slows the other shows as a move between the two workloads.
    """
    s = str(seed)
    return [
        Op("boxdim-b2-l16", ("boxdim", "--b", "2", "--lambda", "0.9", "--levels", "16",
                             "--samples-per-column", "64"),
           _fact(lambda d: len(d["rows"]) == 16 and abs(d["slope"] - PINNED_BOX_SLOPE_B2) <= 0.1,
                 f"b=2 box slope not within 0.1 of {PINNED_BOX_SLOPE_B2}")),
        Op("boxdim-b3-l11", ("boxdim", "--b", "3", "--lambda", "0.8", "--levels", "11",
                             "--samples-per-column", "27"),
           _fact(lambda d: len(d["rows"]) == 11, "expected 11 box levels")),
        Op("transversality-delta-b2-x8000", ("transversality", "--b", "2", "--lambda", "0.95",
                                             "--x-grid", "8000", "--pair-budget", "16384",
                                             "--seed", s),
           _fact(lambda d: d["holds"] is True, "delta-mode holds flag is not true")),
        Op("tangency-n4-m4", ("transversality", "--b", "2", "--lambda", "0.95", "--mode", "tangency",
                              "--n", "4", "--m", "4", "--eps", "0.5", "--delta", "0.5", "--seed", s),
           _fact(lambda d: d["e"] >= 1, "tangency count e < 1")),
    ]


WORKLOADS = {"checklist": checklist, "sampling": sampling}

# The layer-only local-dimension case rides on the workload that draws the
# same 1e6-point transversal sample.
LOCAL_DIM_WORKLOAD = "sampling"
