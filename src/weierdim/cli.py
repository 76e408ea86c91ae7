"""Command line front end.

Subcommands: eval | thresholds | star-verify | transversality | boxdim |
measure | reproduce.  One table, _MODES, names each command mode's options and
the call that answers it; main runs that call and emits every result, after
refusing an unwritable output path.  Data goes to stdout (JSON by default, CSV
on request), logs to stderr.  Exit codes: 0 success, 1 failed claim or a stdout
pipe closed by its reader, 2 usage error (such as a non-finite number, an
unwritable output path or an option the mode does not read), 3 domain error.
Output for fixed flags and seed is byte-identical across runs and worker
counts; WEIERDIM_THREADS only caps workers.
"""

from __future__ import annotations

import argparse
import csv
import errno
import importlib
import io
import json
import math
import os
import sys

from . import __version__

_ROW_BYTES = 2048  # per thresholds row: its dict and emitted text (1.4 kB measured as JSON)

# The library names the mode calls read that the package does not export, by submodule; the
# exported ones resolve through the package.  __getattr__ imports each on first use and keeps it
# as an attribute of this module, and every call reads it off _lib, this module, so a process
# loads only what its mode runs and a name replaced on this module is the one called.
_UNEXPORTED = {"_check_fit": "boxdim", "_check_bins": "measures", "_check_bytes": "parallel",
               "reproduce_rows": "claims"}
_package = sys.modules[__package__]
_lib = sys.modules[__name__]


def __getattr__(name: str):
    """A library name a mode call reads, imported on first use and kept here."""
    if name in _UNEXPORTED:
        value = getattr(importlib.import_module(f".{_UNEXPORTED[name]}", __package__), name)
    elif name in _package.__all__:
        value = getattr(_package, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# --phi/--psi name -> its spec, built when a mode reads it (the spec classes load numpy)
_PHI_CHOICES = {
    "cos": lambda: _lib.COSINE,
    "zero": lambda: _lib.PhiSpec(),
    "cos-deriv": lambda: _lib.COSINE_DERIV,
    "sin2": lambda: _lib.PhiSpec(sine_coeffs=((2, 1.0),)),
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


def _eval_f(config, out):
    return vars(_lib.eval_weierstrass(
        (config["b"], config["lambda"]), _PHI_CHOICES[config["phi"]](), config["x"],
        phases=config["phases"], abs_tol=config["tol"],
    )), 0


def _eval_orbit(config, out):
    p = _lib.Params(config["b"], config["lambda"])
    word = _lib.DigitWord(config["word"] or (), tail_seed=config["tail_seed"])
    psi = _PHI_CHOICES[config.get("psi", "cos-deriv")]()  # only S reads --psi
    return vars(_lib.eval_orbit_sum(p, word, config["x"], config["what"], psi,
                                    abs_tol=config["tol"])), 0


def _thresholds(config, out):
    bases = _bases(config["b_range"])
    _lib._check_bytes(len(bases) * _ROW_BYTES, f"{len(bases)} threshold rows")
    rows = []
    for b in bases:
        br = _lib.solve_critical_lambda(b, config["tol"])
        ae = _lib.solve_ae_critical_lambda(b, config["tol"])
        rows.append(
            {
                "b": b,
                "critical_lo": br.lo,
                "critical_hi": br.hi,
                "ae_upper": ae.hi,
                "ae_method": ae.method,
            }
        )
    return {"rows": rows}, 0


def _beta(config) -> float:
    given = [config[key] is not None for key in ("beta", "b", "lambda0")]
    if given not in ([True, False, False], [False, True, True]):
        raise argparse.ArgumentError(None, "give either --beta or both --b and --lambda0")
    return config["beta"] if given[0] else _lib.coeff_bound(config["b"], config["lambda0"])


def _star_search(config, out):
    beta = _beta(config)
    found = _lib.search_certificate(beta, config["t_target"], k_max=config["k_max"])
    if found is None:
        return {"found": False, "beta": beta}, 1
    return {"found": True, **vars(found)}, 0  # found.beta is beta


def _star_verify(config, out):
    beta = _beta(config)
    cert = _lib.StarCertificate(beta, config["k"], config["eta"], config["t"])
    rep = _lib.verify_certificate(cert)
    return {
        "beta": beta,
        "g": rep.g_value,
        "g_prime": rep.g_prime_value,
        "valid": rep.valid,
        "margin": rep.margin,
        "note": rep.note,
    }, 0 if rep.valid else 1


def _delta(config, out):
    p = _lib.Params(config["b"], config["lambda"])
    est = _lib.empirical_delta(
        p.b, p.gamma, x_grid=config["x_grid"], depth=config["depth"],
        pair_budget=config["pair_budget"], seed=config["seed"],
    )
    return {
        "delta_hat": est.delta_hat,
        "argmin_x": est.argmin_x,
        "argmin_words": [list(w.digits) for w in est.argmin_pair],
        "tail_slack": est.tail_slack,
        "holds": est.delta_hat > 0.0,
    }, 0


def _two_var(config, out):
    est = _lib.two_var_delta(
        config["b"], config["eps_margin"], x_grid=config["x_grid"],
        gamma_grid=config["gamma_grid"], depth=config["depth"],
        pair_budget=config["pair_budget"], seed=config["seed"],
    )
    return {
        "delta_hat": est.delta_hat,
        "argmin_x": est.argmin_x,
        "argmin_gamma": est.argmin_gamma,
        "tail_slack": est.tail_slack,
    }, 0


def _tangency(config, out):
    p = _lib.Params(config["b"], config["lambda"])
    q = _lib.TangencyQuery(
        n=config["n"], m=config["m"], eps=config["eps"], delta=config["delta"],
        depth=config["depth"], grid_per_interval=config["grid_per_interval"],
        random_tails=config["random_tails"],
    )
    e = _lib.tangency_count(p, q, seed=config["seed"])
    return {"e": e, "threshold_gamma_b_pow_n": (p.gamma * p.b) ** config["n"]}, 0


def _boxdim(config, out):
    p = _lib.Params(config["b"], config["lambda"])
    phi = _PHI_CHOICES[config["phi"]]()
    _lib._check_fit(p.b, config["levels"], config["drop_coarsest"])  # before the grid
    table = _lib.box_count(p, phi, levels=config["levels"],
                           samples_per_column=config["samples_per_column"])
    fit = _lib.fit_box_dimension(table, drop_coarsest=config["drop_coarsest"])
    rows = [{"epsilon": e, "boxes": h} for e, h in table.levels]
    return {
        "rows": rows,
        "slope": fit.slope,
        "stderr": fit.stderr,
        "theoretical": p.affinity_dim,
        "note": "per-column oscillation bracketed by sampling; counts may undercount, never overcount",
    }, 0


def _measure(draw):
    """The call of a measure mode whose sample is draw(config, params)."""
    def call(config, out):
        p = _lib.Params(config["b"], config["lambda"])
        bins = config["bins"]
        if bins:
            _lib._check_bins(bins)  # before any draw
        s = draw(config, p)
        payload = s.summary()
        if bins:
            payload["histogram"] = [[c, m] for c, m in _lib.density_histogram(s, bins)]
        if out.out_csv:
            s.to_csv(out.out_csv)
            print(f"wrote {s.count} points to {out.out_csv}", file=sys.stderr)
        return payload, 0
    return call


def _reproduce(config, out):
    claims = []
    for name, check in _lib.reproduce_rows(config["perturb_eta"]):
        ok, detail = check()
        claims.append({"claim": name, "pass": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED: {name} ({detail})", file=sys.stderr)
    all_ok = all(c["pass"] for c in claims)
    config["version"] = __version__  # the claims checked are this version's
    return {"rows": claims, "all_pass": all_ok}, 0 if all_ok else 1


# Every command mode, keyed by its command and the value of its mode option (None for a command
# without one): the options it reads, named with "-" -> "_" and "!" marking a required one, and
# the call that answers it, (config, output options) -> (payload, exit code).  Any other option
# set off its default is a usage error; --format, --out and --out-csv are in no row.
_MODE_OPTION = {"eval": "what", "star-verify": "search", "transversality": "mode",
                "measure": "kind"}
_MODES = {
    ("eval", "f"): ("b lambda x what tol phi phases", _eval_f),
    **{("eval", what): ("b lambda x what tol word tail_seed", _eval_orbit)
       for what in ("Y", "Ydx", "Ydgamma")},
    ("eval", "S"): ("b lambda x what tol word tail_seed psi", _eval_orbit),
    ("thresholds", None): ("b_range tol", _thresholds),
    ("star-verify", False): ("beta b lambda0 search k! eta! t!", _star_verify),
    ("star-verify", True): ("beta b lambda0 search t_target! k_max", _star_search),
    ("transversality", "delta"): ("b lambda mode x_grid depth pair_budget seed", _delta),
    ("transversality", "two-var"): ("b mode eps_margin x_grid gamma_grid depth pair_budget seed",
                                    _two_var),
    ("transversality", "tangency"): ("b lambda mode n m eps! delta! depth grid_per_interval "
                                     "random_tails seed", _tangency),
    ("boxdim", None): ("b lambda levels samples_per_column drop_coarsest phi", _boxdim),
    ("measure", "transversal"): ("b lambda kind x count depth seed bins", _measure(
        lambda c, p: _lib.sample_transversal(p, c["x"], c["count"], depth=c["depth"],
                                             seed=c["seed"]))),
    ("measure", "sbr"): ("b lambda kind count depth seed bins psi", _measure(
        lambda c, p: _lib.sample_sbr(p, _PHI_CHOICES[c["psi"]](), c["count"], depth=c["depth"],
                                     seed=c["seed"]))),
    ("measure", "graph"): ("b lambda kind count seed bins phi", _measure(
        lambda c, p: _lib.sample_graph_lift(p, _PHI_CHOICES[c["phi"]](), c["count"],
                                            seed=c["seed"]))),
    ("reproduce", None): ("perturb_eta", _reproduce),
}
_OUTPUT = ("format", "out", "out_csv")


def _config(args) -> tuple | None:
    """The chosen mode's config, each option it reads by key, and its call.  None, after a usage
    error on stderr, when a required one is unset or any other option is off its default."""
    flag = _MODE_OPTION.get(args.command)
    mode = getattr(args, flag) if flag else None
    reads, call = _MODES[args.command, mode]
    entry = reads.split()
    config = {key.rstrip("!"): getattr(args, key.rstrip("!")) for key in entry}
    missing = [key[:-1] for key in entry if key.endswith("!") and config[key[:-1]] is None]
    unread = [a.dest for a in args.parser._actions if a.dest not in (*config, *_OUTPUT, "help")
              and getattr(args, a.dest) != a.default]
    if not missing and not unread:
        return config, call
    where = f"{args.command} --{flag} {mode}" if flag else args.command
    key, verb = (missing[0], "needs") if missing else (unread[0], "does not read")
    print(f"error: {where} {verb} --{key.replace('_', '-')}", file=sys.stderr)
    return None


def _check_writable(path: str) -> None:
    """Raise, without opening path, the error that open(path, "w") would raise for a directory,
    a missing or unwritable directory or an unwritable file: nothing is created or truncated."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weierdim",
        description="Series values, dimension thresholds, certificates and "
        "estimators for Weierstrass-type graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

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

    pt = sub.add_parser("thresholds", help="critical scales per base")
    pt.add_argument("--b-range", type=_b_range, default="2:12", help="lo:hi or comma list")
    pt.add_argument("--tol", type=_finite, default=1e-12)

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

    pb = sub.add_parser("boxdim", help="box-counting dimension of the graph")
    pb.add_argument("--b", type=int, required=True)
    pb.add_argument("--lambda", type=_finite, required=True)
    pb.add_argument("--levels", type=int, default=12)
    pb.add_argument("--samples-per-column", type=int, default=32)
    pb.add_argument("--drop-coarsest", type=int, default=2)
    pb.add_argument("--phi", choices=sorted(_PHI_CHOICES), default="cos")

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

    pr = sub.add_parser("reproduce", help="re-run the package's numeric claims")
    pr.add_argument("--perturb-eta", type=_finite, default=0.0,
                    help="perturb the base-3 certificate eta (sanity check)")

    for sp in sub.choices.values():  # the options that shape the output, last in every help
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="also write the output to this path")
        sp.set_defaults(parser=sp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    resolved = _config(args)
    if resolved is None:
        return 2
    config, call = resolved
    out = argparse.Namespace(**{key: getattr(args, key, None) for key in _OUTPUT})
    try:
        for path in filter(None, (out.out_csv, out.out)):  # in the order they are written
            _check_writable(path)
        payload, code = call(config, out)
        _emit({**payload, "config": config}, out)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader left: not a usage error, and nothing to report
        # the interpreter flushes stdout at exit; point it at devnull so that flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, argparse.ArgumentError) as exc:  # an unwritable path; star-verify's beta
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
