"""Command line front end.

Subcommands: eval | thresholds | star-verify | transversality | boxdim |
measure | reproduce.  Data goes to stdout (JSON by default, CSV or text on
request), logs to stderr.  Exit codes: 0 success, 1 failed claim, 2 usage
error (including a non-finite number or an unwritable output path), 3 domain
error.  Output for fixed flags and seed is byte-identical across runs and
worker counts; WEIERDIM_THREADS only caps workers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__
from .boxdim import box_count, fit_box_dimension
from .certificates import StarCertificate, search_certificate, verify_certificate
from .claims import reproduce_rows
from .measures import (
    _check_bins,
    density_histogram,
    sample_graph_lift,
    sample_sbr,
    sample_transversal,
)
from .parallel import _check_bytes
from .series import (
    COSINE,
    COSINE_DERIV,
    DigitWord,
    Params,
    PhiSpec,
    eval_fiber_sum,
    eval_stable_slope,
    eval_stable_slope_dgamma,
    eval_stable_slope_dx,
    eval_weierstrass,
)
from .thresholds import coeff_bound, solve_ae_critical_lambda, solve_critical_lambda
from .transversality import TangencyQuery, empirical_delta, tangency_count, two_var_delta

_ROW_BYTES = 2048  # per thresholds row: its dict and emitted text (1.4 kB measured as JSON)

_PHI_CHOICES = {
    "cos": COSINE,
    "zero": PhiSpec(),
    "cos-deriv": COSINE_DERIV,
    "sin2": PhiSpec(sine_coeffs=((2, 1.0),)),
}


def _csv_text(payload: dict) -> str:
    """CSV table: the rows' fields, then every other key but config on each row."""
    rows = payload.get("rows") or [{}]
    extra = sorted(k for k in payload if k not in ("rows", "config"))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*rows[0], *extra])
    for row in rows:
        cells = [*(row[k] for k in rows[0]), *(payload[k] for k in extra)]
        writer.writerow(json.dumps(v, sort_keys=True, allow_nan=False)
                        if isinstance(v, (dict, list, tuple)) else v for v in cells)
    return buf.getvalue().rstrip("\n")


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    elif args.format == "csv":
        text = _csv_text(payload)
    else:
        lines = []
        for k in sorted(payload):
            if k == "rows":
                for r in payload[k]:
                    lines.append("  " + "  ".join(f"{c}={v}" for c, v in r.items()))
            elif k != "config":
                lines.append(f"{k}: {payload[k]}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# argparse reports a ValueError from these type= functions as a usage error (exit 2).
def _finite(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {raw!r}")
    return v


def _word_digits(raw: str) -> tuple[int, ...]:
    """Digit word from "010" or "0,1,0"."""
    raw = raw.strip()
    tokens = [t for t in raw.split(",") if t != ""] if "," in raw else raw
    return tuple(int(t) for t in tokens)


def _phases(raw: str) -> list[float]:
    return [_finite(t) for t in raw.split(",") if t != ""]


def _b_range(raw: str) -> tuple[str, range | list[int]]:
    """(raw, bases) from "lo:hi" (a range) or "2,3,5"; the raw string is echoed in config."""
    lo, _, hi = raw.partition(":")
    bases = range(int(lo), int(hi) + 1) if hi else [int(t) for t in raw.split(",")]
    if not bases:
        raise ValueError(f"empty base range {raw!r}")
    return raw, bases


def _cmd_eval(args) -> int:
    what = args.what
    config = {
        "b": args.b, "lambda": args.lam, "x": args.x, "what": what,
        "tol": args.tol, "word": args.word, "tail_seed": args.tail_seed,
        "phi": args.phi, "psi": args.psi, "phases": args.phases,
    }
    if what == "f":
        phi = _PHI_CHOICES[args.phi]
        sv = eval_weierstrass(
            (args.b, args.lam), phi, args.x,
            phases=args.phases, abs_tol=args.tol,
        )
    else:
        p = Params(args.b, args.lam)
        word = DigitWord(args.word or (), tail_seed=args.tail_seed)
        if what == "Y":
            sv = eval_stable_slope(p, word, args.x, abs_tol=args.tol)
        elif what == "Ydx":
            sv = eval_stable_slope_dx(p, word, args.x, abs_tol=args.tol)
        elif what == "Ydgamma":
            sv = eval_stable_slope_dgamma(p, word, args.x, abs_tol=args.tol)
        else:
            psi = _PHI_CHOICES[args.psi]
            sv = eval_fiber_sum(p, psi, word, args.x, abs_tol=args.tol)
    _emit(
        {
            "value": sv.value,
            "tail_bound": sv.tail_bound,
            "terms_used": sv.terms_used,
            "config": config,
        },
        args,
    )
    return 0


def _cmd_thresholds(args) -> int:
    raw, bases = args.b_range
    _check_bytes(len(bases) * _ROW_BYTES, f"{len(bases)} threshold rows")
    rows = []
    for b in bases:
        br = solve_critical_lambda(b, args.tol)
        ae = solve_ae_critical_lambda(b, args.tol)
        rows.append(
            {
                "b": b,
                "critical_lo": br.lo,
                "critical_hi": br.hi,
                "ae_upper": ae.hi,
                "ae_method": ae.method,
            }
        )
    _emit({"rows": rows, "config": {"b_range": raw, "tol": args.tol}}, args)
    return 0


def _cmd_star_verify(args) -> int:
    if args.beta is not None:
        beta = args.beta
    elif args.b is not None and args.lambda0 is not None:
        beta = coeff_bound(args.b, args.lambda0)
    else:
        print("error: give --beta or both --b and --lambda0", file=sys.stderr)
        return 2
    if args.search:
        if args.t_target is None:
            print("error: --search needs --t-target", file=sys.stderr)
            return 2
        found = search_certificate(beta, args.t_target, k_max=args.k_max)
        payload = {
            "found": found is not None,
            "config": {"beta": beta, "t_target": args.t_target, "k_max": args.k_max},
        }
        if found is not None:
            payload.update({"k": found.k, "eta": found.eta, "t": found.t})
        _emit(payload, args)
        return 0 if found is not None else 1
    if args.k is None or args.eta is None or args.t is None:
        print("error: give --k, --eta and --t", file=sys.stderr)
        return 2
    cert = StarCertificate(beta, args.k, args.eta, args.t)
    rep = verify_certificate(cert)
    _emit(
        {
            "beta": beta,
            "g": rep.g_value,
            "g_prime": rep.g_prime_value,
            "valid": rep.valid,
            "margin": rep.margin,
            "note": rep.note,
            "config": {"k": args.k, "eta": args.eta, "t": args.t},
        },
        args,
    )
    return 0 if rep.valid else 1


def _cmd_transversality(args) -> int:
    config = {
        k: getattr(args, k)
        for k in ("b", "lam", "mode", "seed", "depth", "x_grid", "pair_budget")
    }
    if args.mode == "delta":
        p = Params(args.b, args.lam)
        est = empirical_delta(
            args.b, p.gamma, x_grid=args.x_grid, depth=args.depth,
            pair_budget=args.pair_budget, seed=args.seed,
        )
        payload = {
            "delta_hat": est.delta_hat,
            "argmin_x": est.argmin_x,
            "argmin_words": [list(w.digits) for w in est.argmin_pair],
            "tail_slack": est.tail_slack,
            "holds": est.delta_hat > 0.0,
            "config": config,
        }
    elif args.mode == "two-var":
        est = two_var_delta(
            args.b, args.eps_margin, x_grid=args.x_grid,
            gamma_grid=args.gamma_grid, depth=args.depth,
            pair_budget=args.pair_budget, seed=args.seed,
        )
        payload = {
            "delta_hat": est.delta_hat,
            "argmin_x": est.argmin_x,
            "argmin_gamma": est.argmin_gamma,
            "tail_slack": est.tail_slack,
            "config": {**config, "eps_margin": args.eps_margin, "gamma_grid": args.gamma_grid},
        }
    else:  # tangency
        p = Params(args.b, args.lam)
        if args.eps is None or args.delta is None:
            print("error: tangency mode needs --eps and --delta", file=sys.stderr)
            return 2
        q = TangencyQuery(
            n=args.n, m=args.m, eps=args.eps, delta=args.delta,
            depth=args.depth, grid_per_interval=args.grid_per_interval,
            random_tails=args.random_tails,
        )
        e = tangency_count(p, q, seed=args.seed)
        payload = {
            "e": e,
            "threshold_gamma_b_pow_n": (p.gamma * p.b) ** args.n,
            "config": {**config, "n": args.n, "m": args.m, "eps": args.eps, "delta": args.delta,
                       "grid_per_interval": args.grid_per_interval,
                       "random_tails": args.random_tails},
        }
    _emit(payload, args)
    return 0


def _cmd_boxdim(args) -> int:
    p = Params(args.b, args.lam)
    phi = _PHI_CHOICES[args.phi]
    table = box_count(p, phi, levels=args.levels, samples_per_column=args.samples_per_column)
    fit = fit_box_dimension(table, drop_coarsest=args.drop_coarsest)
    rows = [{"epsilon": e, "boxes": h} for e, h in table.levels]
    _emit(
        {
            "rows": rows,
            "slope": fit.slope,
            "stderr": fit.stderr,
            "theoretical": p.affinity_dim,
            "note": "per-column oscillation bracketed by sampling; counts may undercount, never overcount",
            "config": {
                "b": args.b, "lambda": args.lam, "levels": args.levels,
                "samples_per_column": args.samples_per_column,
                "drop_coarsest": args.drop_coarsest, "phi": args.phi,
            },
        },
        args,
    )
    return 0


def _cmd_measure(args) -> int:
    p = Params(args.b, args.lam)
    if args.bins:
        _check_bins(args.bins)  # before any draw
    if args.kind == "transversal":
        s = sample_transversal(p, args.x, args.count, depth=args.depth, seed=args.seed)
    elif args.kind == "sbr":
        s = sample_sbr(p, _PHI_CHOICES[args.psi], args.count, depth=args.depth, seed=args.seed)
    elif args.depth is not None:
        print("error: graph mode picks its depth from the tolerance", file=sys.stderr)
        return 2
    else:
        s = sample_graph_lift(p, _PHI_CHOICES[args.phi], args.count, seed=args.seed)
    payload = s.summary()
    payload["config"] = {
        "b": args.b, "lambda": args.lam, "kind": args.kind,
        "x": args.x, "count": args.count, "seed": args.seed,
        "depth": args.depth, "bins": args.bins, "phi": args.phi, "psi": args.psi,
    }
    if args.bins:
        payload["histogram"] = [[c, m] for c, m in density_histogram(s, args.bins)]
    if args.out_csv:
        s.to_csv(args.out_csv)
        print(f"wrote {s.count} points to {args.out_csv}", file=sys.stderr)
    _emit(payload, args)
    return 0


def _cmd_reproduce(args) -> int:
    claims = []
    for name, check in reproduce_rows(args.perturb_eta):
        ok, detail = check()
        claims.append({"claim": name, "pass": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED: {name} ({detail})", file=sys.stderr)
    all_ok = all(c["pass"] for c in claims)
    _emit(
        {
            "rows": claims,
            "all_pass": all_ok,
            "config": {"perturb_eta": args.perturb_eta, "version": __version__},
        },
        args,
    )
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weierdim",
        description="Series values, dimension thresholds, certificates and "
        "estimators for Weierstrass-type graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument("--out", help="also write the output to this path")

    pe = sub.add_parser("eval", help="evaluate one series value")
    pe.add_argument("--b", type=int, required=True)
    pe.add_argument("--lambda", dest="lam", type=_finite, required=True)
    pe.add_argument("--x", type=_finite, required=True)
    pe.add_argument("--what", choices=("f", "Y", "Ydx", "Ydgamma", "S"), default="f")
    pe.add_argument("--word", type=_word_digits, help="digit word, e.g. 010 or 0,1,2")
    pe.add_argument("--tail-seed", type=int, default=None,
                    help="random word tail; default is the all-zero tail")
    pe.add_argument("--tol", type=_finite, default=1e-9)
    pe.add_argument("--phases", type=_phases,
                    help="comma separated per-term phase offsets (f only)")
    pe.add_argument("--phi", choices=sorted(_PHI_CHOICES), default="cos")
    pe.add_argument("--psi", choices=sorted(_PHI_CHOICES), default="cos-deriv")
    add_common(pe)
    pe.set_defaults(func=_cmd_eval)

    pt = sub.add_parser("thresholds", help="critical scales per base")
    pt.add_argument("--b-range", type=_b_range, default="2:12", help="lo:hi or comma list")
    pt.add_argument("--tol", type=_finite, default=1e-12)
    add_common(pt)
    pt.set_defaults(func=_cmd_thresholds)

    ps = sub.add_parser("star-verify", help="verify or search a star certificate")
    ps.add_argument("--beta", type=_finite)
    ps.add_argument("--b", type=int)
    ps.add_argument("--lambda0", type=_finite)
    ps.add_argument("--k", type=int)
    ps.add_argument("--eta", type=_finite)
    ps.add_argument("--t", type=_finite)
    ps.add_argument("--search", action="store_true")
    ps.add_argument("--t-target", type=_finite)
    ps.add_argument("--k-max", type=int, default=6)
    add_common(ps)
    ps.set_defaults(func=_cmd_star_verify)

    pv = sub.add_parser("transversality", help="separation and tangency estimates")
    pv.add_argument("--b", type=int, required=True)
    pv.add_argument("--lambda", dest="lam", type=_finite, default=0.9)
    pv.add_argument("--mode", choices=("delta", "two-var", "tangency"), default="delta")
    pv.add_argument("--x-grid", type=int, default=2000)
    pv.add_argument("--depth", type=int, default=30)
    pv.add_argument("--pair-budget", type=int, default=2048,
                    help="ordered word pairs; the depth-1 prefix pairs are always scored")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--eps-margin", type=_finite, default=0.05)
    pv.add_argument("--gamma-grid", type=int, default=24)
    pv.add_argument("--n", type=int, default=1)
    pv.add_argument("--m", type=int, default=1)
    pv.add_argument("--eps", type=_finite)
    pv.add_argument("--delta", type=_finite)
    pv.add_argument("--grid-per-interval", type=int, default=200)
    pv.add_argument("--random-tails", type=int, default=3)
    add_common(pv)
    pv.set_defaults(func=_cmd_transversality)

    pb = sub.add_parser("boxdim", help="box-counting dimension of the graph")
    pb.add_argument("--b", type=int, required=True)
    pb.add_argument("--lambda", dest="lam", type=_finite, required=True)
    pb.add_argument("--levels", type=int, default=12)
    pb.add_argument("--samples-per-column", type=int, default=32)
    pb.add_argument("--drop-coarsest", type=int, default=2)
    pb.add_argument("--phi", choices=sorted(_PHI_CHOICES), default="cos")
    add_common(pb)
    pb.set_defaults(func=_cmd_boxdim)

    pm = sub.add_parser("measure", help="sample a pushforward measure")
    pm.add_argument("--kind", choices=("transversal", "sbr", "graph"), required=True)
    pm.add_argument("--b", type=int, required=True)
    pm.add_argument("--lambda", dest="lam", type=_finite, required=True)
    pm.add_argument("--x", type=_finite, default=0.0)
    pm.add_argument("--count", type=int, default=10000)
    pm.add_argument("--depth", type=int, default=None)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--bins", type=int, default=0)
    pm.add_argument("--phi", choices=sorted(_PHI_CHOICES), default="cos")
    pm.add_argument("--psi", choices=sorted(_PHI_CHOICES), default="cos-deriv")
    pm.add_argument("--out-csv", help="write sample points to this CSV path")
    add_common(pm)
    pm.set_defaults(func=_cmd_measure)

    pr = sub.add_parser("reproduce", help="re-run the package's numeric claims")
    pr.add_argument("--perturb-eta", type=_finite, default=0.0,
                    help="perturb the base-3 certificate eta (sanity check)")
    add_common(pr)
    pr.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an unwritable --out or --out-csv
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
