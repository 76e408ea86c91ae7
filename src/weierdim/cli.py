"""Command line front end.

Subcommands: eval | thresholds | star-verify | transversality | boxdim |
measure | reproduce.  Data goes to stdout (JSON by default, CSV on request),
logs to stderr.  Exit codes: 0 success, 1 failed claim or a stdout
pipe closed by its reader, 2 usage error (such as a non-finite number, an
unwritable output path or an option the mode does not read), 3 domain error.
Output for fixed flags and seed is byte-identical across runs and worker
counts; WEIERDIM_THREADS only caps workers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
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
    eval_orbit_sum,
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
    else:
        text = _csv_text(payload)
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


def _bases(raw: str) -> range | list[int]:
    """Bases from "lo:hi" (a range) or "2,3,5"."""
    lo, _, hi = raw.partition(":")
    bases = range(int(lo), int(hi) + 1) if hi else [int(t) for t in raw.split(",")]
    if not bases:
        raise ValueError(f"empty base range {raw!r}")
    return bases


def _b_range(raw: str) -> str:
    _bases(raw)
    return raw  # config echoes the range as typed


# The options each command mode reads, keyed by the command and the value of its mode option
# (None for a command without one).  Keys are option names with "-" -> "_"; a trailing "!"
# marks a required option.  A command reads its entry's options only from the config built
# from it; any other option set off its default is a usage error.  --format, --out and
# --out-csv shape the output, not the result, and are in no entry.
_MODE_OPTION = {"eval": "what", "star-verify": "search", "transversality": "mode",
                "measure": "kind"}
_READS = {
    ("eval", "f"): "b lambda x what tol phi phases",
    **{("eval", what): "b lambda x what tol word tail_seed" for what in ("Y", "Ydx", "Ydgamma")},
    ("eval", "S"): "b lambda x what tol word tail_seed psi",
    ("thresholds", None): "b_range tol",
    ("star-verify", False): "beta b lambda0 search k! eta! t!",
    ("star-verify", True): "beta b lambda0 search t_target! k_max",
    ("transversality", "delta"): "b lambda mode x_grid depth pair_budget seed",
    ("transversality", "two-var"): "b mode eps_margin x_grid gamma_grid depth pair_budget seed",
    ("transversality", "tangency"): "b lambda mode n m eps! delta! depth grid_per_interval "
                                    "random_tails seed",
    ("boxdim", None): "b lambda levels samples_per_column drop_coarsest phi",
    ("measure", "transversal"): "b lambda kind x count depth seed bins",
    ("measure", "sbr"): "b lambda kind count depth seed bins psi",
    ("measure", "graph"): "b lambda kind count seed bins phi",
    ("reproduce", None): "perturb_eta",
}
_OUTPUT = ("format", "out", "out_csv")


def _config(args) -> dict | None:
    """The result's config: each option the chosen mode reads, by key.  None, after a usage
    error on stderr, when a required one is unset or any other option is off its default."""
    flag = _MODE_OPTION.get(args.command)
    mode = getattr(args, flag) if flag else None
    entry = _READS[args.command, mode].split()
    config = {key.rstrip("!"): getattr(args, key.rstrip("!")) for key in entry}
    missing = [key[:-1] for key in entry if key.endswith("!") and config[key[:-1]] is None]
    unread = [a.dest for a in args.parser._actions if a.dest not in (*config, *_OUTPUT, "help")
              and getattr(args, a.dest) != a.default]
    if not missing and not unread:
        return config
    where = f"{args.command} --{flag} {mode}" if flag else args.command
    key, verb = (missing[0], "needs") if missing else (unread[0], "does not read")
    print(f"error: {where} {verb} --{key.replace('_', '-')}", file=sys.stderr)
    return None


def _cmd_eval(config, out) -> int:
    if config["what"] == "f":
        sv = eval_weierstrass(
            (config["b"], config["lambda"]), _PHI_CHOICES[config["phi"]], config["x"],
            phases=config["phases"], abs_tol=config["tol"],
        )
    else:
        p = Params(config["b"], config["lambda"])
        word = DigitWord(config["word"] or (), tail_seed=config["tail_seed"])
        psi = _PHI_CHOICES[config["psi"]] if "psi" in config else COSINE_DERIV
        sv = eval_orbit_sum(p, word, config["x"], config["what"], psi, abs_tol=config["tol"])
    _emit(
        {
            "value": sv.value,
            "tail_bound": sv.tail_bound,
            "terms_used": sv.terms_used,
            "config": config,
        },
        out,
    )
    return 0


def _cmd_thresholds(config, out) -> int:
    bases = _bases(config["b_range"])
    _check_bytes(len(bases) * _ROW_BYTES, f"{len(bases)} threshold rows")
    rows = []
    for b in bases:
        br = solve_critical_lambda(b, config["tol"])
        ae = solve_ae_critical_lambda(b, config["tol"])
        rows.append(
            {
                "b": b,
                "critical_lo": br.lo,
                "critical_hi": br.hi,
                "ae_upper": ae.hi,
                "ae_method": ae.method,
            }
        )
    _emit({"rows": rows, "config": config}, out)
    return 0


def _cmd_star_verify(config, out) -> int:
    given = [config[key] is not None for key in ("beta", "b", "lambda0")]
    if given not in ([True, False, False], [False, True, True]):
        print("error: give either --beta or both --b and --lambda0", file=sys.stderr)
        return 2
    beta = config["beta"] if given[0] else coeff_bound(config["b"], config["lambda0"])
    if config["search"]:
        found = search_certificate(beta, config["t_target"], k_max=config["k_max"])
        payload = {"found": found is not None, "beta": beta, "config": config}
        if found is not None:
            payload.update({"k": found.k, "eta": found.eta, "t": found.t})
        _emit(payload, out)
        return 0 if found is not None else 1
    rep = verify_certificate(StarCertificate(beta, config["k"], config["eta"], config["t"]))
    _emit(
        {
            "beta": beta,
            "g": rep.g_value,
            "g_prime": rep.g_prime_value,
            "valid": rep.valid,
            "margin": rep.margin,
            "note": rep.note,
            "config": config,
        },
        out,
    )
    return 0 if rep.valid else 1


def _cmd_transversality(config, out) -> int:
    b, mode = config["b"], config["mode"]
    if mode == "delta":
        p = Params(b, config["lambda"])
        est = empirical_delta(
            b, p.gamma, x_grid=config["x_grid"], depth=config["depth"],
            pair_budget=config["pair_budget"], seed=config["seed"],
        )
        payload = {
            "delta_hat": est.delta_hat,
            "argmin_x": est.argmin_x,
            "argmin_words": [list(w.digits) for w in est.argmin_pair],
            "tail_slack": est.tail_slack,
            "holds": est.delta_hat > 0.0,
        }
    elif mode == "two-var":
        est = two_var_delta(
            b, config["eps_margin"], x_grid=config["x_grid"],
            gamma_grid=config["gamma_grid"], depth=config["depth"],
            pair_budget=config["pair_budget"], seed=config["seed"],
        )
        payload = {
            "delta_hat": est.delta_hat,
            "argmin_x": est.argmin_x,
            "argmin_gamma": est.argmin_gamma,
            "tail_slack": est.tail_slack,
        }
    else:  # tangency
        p = Params(b, config["lambda"])
        q = TangencyQuery(
            n=config["n"], m=config["m"], eps=config["eps"], delta=config["delta"],
            depth=config["depth"], grid_per_interval=config["grid_per_interval"],
            random_tails=config["random_tails"],
        )
        e = tangency_count(p, q, seed=config["seed"])
        payload = {"e": e, "threshold_gamma_b_pow_n": (p.gamma * p.b) ** config["n"]}
    _emit({**payload, "config": config}, out)
    return 0


def _cmd_boxdim(config, out) -> int:
    p = Params(config["b"], config["lambda"])
    phi = _PHI_CHOICES[config["phi"]]
    table = box_count(p, phi, levels=config["levels"],
                      samples_per_column=config["samples_per_column"])
    fit = fit_box_dimension(table, drop_coarsest=config["drop_coarsest"])
    rows = [{"epsilon": e, "boxes": h} for e, h in table.levels]
    _emit(
        {
            "rows": rows,
            "slope": fit.slope,
            "stderr": fit.stderr,
            "theoretical": p.affinity_dim,
            "note": "per-column oscillation bracketed by sampling; counts may undercount, never overcount",
            "config": config,
        },
        out,
    )
    return 0


def _cmd_measure(config, out) -> int:
    p = Params(config["b"], config["lambda"])
    kind, count, seed, bins = config["kind"], config["count"], config["seed"], config["bins"]
    if bins:
        _check_bins(bins)  # before any draw
    if kind == "transversal":
        s = sample_transversal(p, config["x"], count, depth=config["depth"], seed=seed)
    elif kind == "sbr":
        s = sample_sbr(p, _PHI_CHOICES[config["psi"]], count, depth=config["depth"], seed=seed)
    else:
        s = sample_graph_lift(p, _PHI_CHOICES[config["phi"]], count, seed=seed)
    payload = {**s.summary(), "config": config}
    if bins:
        payload["histogram"] = [[c, m] for c, m in density_histogram(s, bins)]
    if out.out_csv:
        s.to_csv(out.out_csv)
        print(f"wrote {s.count} points to {out.out_csv}", file=sys.stderr)
    _emit(payload, out)
    return 0


def _cmd_reproduce(config, out) -> int:
    claims = []
    for name, check in reproduce_rows(config["perturb_eta"]):
        ok, detail = check()
        claims.append({"claim": name, "pass": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED: {name} ({detail})", file=sys.stderr)
    all_ok = all(c["pass"] for c in claims)
    _emit(
        {
            "rows": claims,
            "all_pass": all_ok,
            "config": {**config, "version": __version__},
        },
        out,
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
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="also write the output to this path")

    pe = sub.add_parser("eval", help="evaluate one series value")
    pe.add_argument("--b", type=int, required=True)
    pe.add_argument("--lambda", type=_finite, required=True)
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
    pe.set_defaults(func=_cmd_eval, parser=pe)

    pt = sub.add_parser("thresholds", help="critical scales per base")
    pt.add_argument("--b-range", type=_b_range, default="2:12", help="lo:hi or comma list")
    pt.add_argument("--tol", type=_finite, default=1e-12)
    add_common(pt)
    pt.set_defaults(func=_cmd_thresholds, parser=pt)

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
    ps.set_defaults(func=_cmd_star_verify, parser=ps)

    pv = sub.add_parser("transversality", help="separation and tangency estimates")
    pv.add_argument("--b", type=int, required=True)
    pv.add_argument("--lambda", type=_finite, default=0.9)
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
    pv.set_defaults(func=_cmd_transversality, parser=pv)

    pb = sub.add_parser("boxdim", help="box-counting dimension of the graph")
    pb.add_argument("--b", type=int, required=True)
    pb.add_argument("--lambda", type=_finite, required=True)
    pb.add_argument("--levels", type=int, default=12)
    pb.add_argument("--samples-per-column", type=int, default=32)
    pb.add_argument("--drop-coarsest", type=int, default=2)
    pb.add_argument("--phi", choices=sorted(_PHI_CHOICES), default="cos")
    add_common(pb)
    pb.set_defaults(func=_cmd_boxdim, parser=pb)

    pm = sub.add_parser("measure", help="sample a pushforward measure")
    pm.add_argument("--kind", choices=("transversal", "sbr", "graph"), required=True)
    pm.add_argument("--b", type=int, required=True)
    pm.add_argument("--lambda", type=_finite, required=True)
    pm.add_argument("--x", type=_finite, default=0.0)
    pm.add_argument("--count", type=int, default=10000)
    pm.add_argument("--depth", type=int, default=None)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--bins", type=int, default=0)
    pm.add_argument("--phi", choices=sorted(_PHI_CHOICES), default="cos")
    pm.add_argument("--psi", choices=sorted(_PHI_CHOICES), default="cos-deriv")
    pm.add_argument("--out-csv", help="write sample points to this CSV path")
    add_common(pm)
    pm.set_defaults(func=_cmd_measure, parser=pm)

    pr = sub.add_parser("reproduce", help="re-run the package's numeric claims")
    pr.add_argument("--perturb-eta", type=_finite, default=0.0,
                    help="perturb the base-3 certificate eta (sanity check)")
    add_common(pr)
    pr.set_defaults(func=_cmd_reproduce, parser=pr)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config(args)
    if config is None:
        return 2
    out = argparse.Namespace(**{key: getattr(args, key, None) for key in _OUTPUT})
    try:
        code = args.func(config, out)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader left: not a usage error, and nothing to report
        # the interpreter flushes stdout at exit; point it at devnull so that flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an unwritable --out or --out-csv
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
