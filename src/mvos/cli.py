"""Command-line interface.

Subcommands:
  dnorm eval | dnorm validate    evaluate or stress-test a tail norm
  sample                         draw copula observations to CSV
  check smirnov | check von-mises  marginal tail-condition tables
  cov                            closed-form limit covariance
  chi2rep                        correlated order-statistic ratios to CSV
  experiment                     run a configured Monte Carlo experiment

Exit codes, for every subcommand: 0 success (for experiments and
validation, all gated criteria pass), 1 criterion failure, 2 invalid
input, rejected before any sampling, or a result array too large to
allocate, 3 refusal because the square-root correlation matrix is not
positive semidefinite.  MVOS_SEED overrides the configured seed and is
flagged in the report.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chi2rep import NotPositiveSemidefiniteError, correlated_ratio_sample
from .copula import copula_sample
from .dnorm import dnorm_validate, dnorm_eval
from .margins import make_k_rule, smirnov_check, von_mises_check
from .orderstats import KRatioMatrix, theoretical_sigma
from .experiment import (
    InvalidConfigError,
    config_from_json,
    report_csv_bytes,
    report_json_bytes,
    report_text,
    run_experiment,
)
from .wire import FAMILIES, from_json

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_PSD = 3


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidConfigError(message)


def _parsed(what: str, parse, text):
    """parse(text), with any fault reported as invalid input named ``what``.

    Library calls that check their arguments before any work go through
    here too, so each bound is written once, in the library.
    """
    try:
        return parse(text)
    except (InvalidConfigError, NotPositiveSemidefiniteError):
        raise
    except (OSError, TypeError, ValueError, KeyError) as exc:
        raise InvalidConfigError(f"bad {what}: {exc}") from exc


def _floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values or not all(np.isfinite(values)):
        raise ValueError(f"expected comma-separated finite numbers, got {text!r}")
    return values


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _matrix(text: str):
    obj = json.loads(text)
    return obj["matrix"] if isinstance(obj, dict) else obj


def _kratios(text: str) -> KRatioMatrix:
    obj = json.loads(text)
    ratios = KRatioMatrix(obj["k"])
    if obj.get("d") not in (None, ratios.d):
        raise ValueError(f"d = {obj['d']!r} but k is {ratios.d} x {ratios.d}")
    return ratios


def _writable(path: str) -> str:
    """``path``, if a file can be written there; checked before any work,
    so a bad output path costs no sampling."""
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"{path!r} is a directory")
    if not target.exists() and not target.parent.is_dir():
        raise ValueError(f"no directory {str(target.parent)!r}")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ValueError(f"{path!r} is not writable")
    return path


def _out(args, name: str = "out"):
    """The output path option ``name``, if given, checked by ``_writable``."""
    path = getattr(args, name)
    return None if path is None else _parsed(f"--{name}", _writable, path)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Integers and booleans as integers, floats with 17 significant digits,
    which round-trip float64 exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(int(v)) if isinstance(v, (int, np.integer)) else f"{v:.17g}" for v in row) + "\n")


def _cmd_dnorm(args) -> int:
    spec = from_json("dnorm", _parsed("--spec", json.loads, args.spec))
    _check(args.seed is None or args.seed >= 0, "--seed must be >= 0")
    if args.action == "eval":
        _check(bool(args.x), "dnorm eval requires --x")
        x = _parsed("--x", _floats, args.x)
        value = _parsed("--x", lambda x: dnorm_eval(spec, x, seed=args.seed), x)
        print(f"{value:.12g}")
        return EXIT_OK
    report = _parsed("dnorm validate input", lambda trials: dnorm_validate(spec, trials=trials, seed=args.seed or 0), args.trials)
    print(report)
    return EXIT_OK if report.passed else EXIT_CRITERION


def _cmd_sample(args) -> int:
    model = from_json("copula", {"kind": args.copula, "d": args.d, "p": args.p})
    out = _out(args)
    rows = _parsed("-n or --seed", lambda n: copula_sample(model, n, args.seed), args.n)
    header = [f"u{i + 1}" for i in range(model.d)]
    _write_csv(out, header, rows)
    print(f"wrote {args.n} rows of {model.label()} to {out}")
    return EXIT_OK


def _print_table(header: list[str], rows: list[tuple]) -> None:
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))


def _cmd_check(args) -> int:
    margin = from_json("margin", {"kind": args.margin, "alpha": args.alpha})
    out = _out(args)
    if args.action == "smirnov":
        k_rule = _parsed("--k-rule", make_k_rule, args.k_rule)
        sizes = _parsed("--n-grid", _floats, args.n_grid)
        _check(all(n.is_integer() for n in sizes) and min(sizes) >= 2, "--n-grid values must be whole numbers >= 2")
        n_grid = [int(n) for n in sizes]
        x = _parsed("--x", _floats, args.x)
        header = ["n", "k", "x", "quotient", "clipped"]
        table = _parsed("--n-grid", lambda n_grid: smirnov_check(margin, x, n_grid, k_rule), n_grid)
    else:
        grid = _parsed("--x-grid", _floats, args.x_grid) if args.x_grid else _default_vm_grid(margin)
        result = _parsed("--x-grid", lambda g: von_mises_check(margin, g), grid)
        print(f"condition ({result.condition}), declared limit {result.limit:g}")
        header, table = ["x", "quotient"], result.rows
    _print_table(header, table)
    if out:
        _write_csv(out, header, table)
    return EXIT_OK


def _default_vm_grid(margin) -> list[float]:
    if np.isfinite(margin.upper_endpoint):
        return [margin.upper_endpoint - 10.0 ** (-j) for j in range(1, 7)]
    return [1.0, 2.0, 4.0, 6.0, 8.0]


def _cmd_cov(args) -> int:
    spec = from_json("dnorm", _parsed("--dnorm", json.loads, args.dnorm))
    if args.equal_k:
        ratios = _parsed("--d", KRatioMatrix.ones, args.d)
    else:
        _check(bool(args.kratios), "either --kratios or --equal-k is required")
        ratios = _parsed("--kratios", _kratios, args.kratios)
    sigma = _parsed("--dnorm", lambda spec: theoretical_sigma(spec, ratios), spec)
    print(json.dumps({"sigma": [[float(v) for v in row] for row in sigma]}, sort_keys=True))
    for row in sigma:
        print("  ".join(f"{v:12.6f}" for v in row))
    return EXIT_OK


def _cmd_chi2rep(args) -> int:
    lam = _parsed("--lambda", _matrix, getattr(args, "lambda"))
    _check(args.seed >= 0, "--seed must be >= 0")
    out = _out(args)
    ratios = _parsed("chi2rep input", lambda lam: correlated_ratio_sample(lam, args.n, args.k, args.R, args.seed), lam)
    header = [f"r{i + 1}" for i in range(ratios.shape[1])]
    _write_csv(out, header, ratios)
    print(f"wrote {args.R} ratio vectors to {out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    out, csv = _out(args), _out(args, "csv")
    obj = _parsed("--config", _read_json, args.config)
    env_seed = os.environ.get("MVOS_SEED")
    seed = _parsed("MVOS_SEED", int, env_seed) if env_seed else None
    report = run_experiment(config_from_json(obj, seed_override=seed), threads=args.threads)
    if out:
        Path(out).write_bytes(report_json_bytes(report))
    else:
        sys.stdout.write(report_json_bytes(report).decode())
    if csv:
        Path(csv).write_bytes(report_csv_bytes(report))
    sys.stderr.write(report_text(report))
    sys.stderr.write(f"runtime: {report.runtime_seconds:.1f}s\n")
    return EXIT_OK if report.passed else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvos", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mvos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dnorm", help="evaluate or validate a tail norm")
    p.add_argument("action", choices=["eval", "validate"])
    p.add_argument("--spec", required=True, help='norm JSON, e.g. {"kind":"logistic","p":2}')
    p.add_argument("--x", help="comma-separated vector (eval)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_dnorm)

    p = sub.add_parser("sample", help="draw copula observations to CSV")
    p.add_argument("--copula", required=True, choices=list(FAMILIES["copula"][1]))
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("-d", type=int, default=2)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("check", help="marginal tail-condition tables")
    p.add_argument("action", choices=["smirnov", "von-mises"])
    p.add_argument("--margin", required=True, choices=list(FAMILIES["margin"][1]))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n-grid", default="1e4,1e6,1e8")
    p.add_argument("--k-rule", default="sqrt")
    p.add_argument("--x", default="-2,-1,0,1,2")
    p.add_argument("--x-grid", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cov", help="closed-form limit covariance")
    p.add_argument("--dnorm", required=True)
    p.add_argument("--kratios", default=None, help='{"d":2,"k":[[1,2],[0.5,1]]}')
    p.add_argument("--equal-k", action="store_true")
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("chi2rep", help="correlated order-statistic ratios to CSV")
    p.add_argument("--lambda", required=True, help="correlation matrix JSON")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-R", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chi2rep)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.add_argument("--csv", default=None, help="flat CSV dump path")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place errors become exit codes 2 and 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"input too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotPositiveSemidefiniteError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PSD


if __name__ == "__main__":
    sys.exit(main())
