"""Command-line front end.

One table, _COMMANDS, holds the six subcommands: check, crosscheck,
threshold, grid, identities and suite.  A row gives the subcommand's help,
its flags in the order --help lists them (each row ends with --format and
--out), a runner, and a human formatter.  _build_parser adds one subparser
per row.  main runs the chosen row's runner, which returns (JSON dict, CSV
rows, exit code), each CSV row a flat dict and the first row's keys the CSV
header, and writes the report once, to stdout or --out: canonical JSON by
default, csv, or the row's human text.  Exit codes are 0 for success or
Holds, 1 for Fails, 2 for Marginal, 3 for usage errors (an --out path that
cannot be written among them), 4 for numeric failures.  A runner builds
its records in the order its command refuses bad input: the predicate, m,
(k, lambda), the R flags, then the command's own flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from .criteria import ClassParams, RParams, Verdict
from .disk import GridSpec, grid_check
from .errors import (DomainError, InvalidTolerance, MissingRParams,
                     TruncationNotReached)
from .serialize import dict_to_human, dumps_canonical, fmt_float, rows_to_csv
# coeffs_F is not called here, but bench/test_tracer.py wraps it under this name
from .series import (_SHIFT3_M_MAX, PoissonParams, TruncationPolicy,  # noqa: F401
                     choose_truncation, coeffs_F)
from .suite import _identity_rows, run_suite
from .theorems import (SPECS, PredicateId, evaluate, evaluate_with_crosscheck,
                       resolve)
from .thresholds import solve_m_star

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_MARGINAL = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4

_VERDICT_EXIT = {Verdict.HOLDS: EXIT_HOLDS, Verdict.FAILS: EXIT_FAILS,
                 Verdict.MARGINAL: EXIT_MARGINAL}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse would exit 2; the contract is 3
        raise UsageError(message)


def _records(args) -> tuple:
    """(pid, p, c, r), or (pid, c, r) for a command without --m, built in the
    order every predicate command refuses bad input."""
    try:
        pid = PredicateId(args.predicate)
    except ValueError:
        valid = ", ".join(q.value for q in PredicateId)
        raise UsageError(f"unknown predicate {args.predicate!r}; valid ids: {valid}")
    p = (PoissonParams(args.m),) if "m" in args else ()
    c = ClassParams(args.k, args.lam)
    has_a, has_b = args.A is not None, args.B is not None
    if SPECS[pid].needs_r and not (has_a and has_b):
        raise UsageError(f"predicate {pid.value} requires --A and --B")
    if has_a != has_b:
        raise UsageError("--A and --B must be given together")
    if not has_a and (args.tau_re, args.tau_im) != (1.0, 0.0):
        raise UsageError("--tau-re and --tau-im need --A and --B")
    r = RParams(A=args.A, B=args.B, tau=complex(args.tau_re, args.tau_im)) if has_a else None
    return (pid, *p, c, r)


def _verdict(report) -> tuple:
    d = report.to_json_dict()
    return d, [d], _VERDICT_EXIT[report.verdict]


def _check(args) -> tuple:
    return _verdict(evaluate(*_records(args)))


def _crosscheck(args) -> tuple:
    return _verdict(evaluate_with_crosscheck(*_records(args), TruncationPolicy(eps=args.eps)))


def _threshold(args) -> tuple:
    d = solve_m_star(*_records(args), tol=args.tol).to_json_dict()
    return d, [d], EXIT_HOLDS


def _grid(args) -> tuple:
    pid, p, c, r = _records(args)
    spec, c = resolve(pid, c, r)
    f = spec.series(p, TruncationPolicy(eps=args.eps), r)
    spec_kwargs = {}
    if args.radii is not None:
        try:
            spec_kwargs["radii"] = tuple(float(x) for x in args.radii.split(","))
        except ValueError:
            raise UsageError(f"could not parse --radii {args.radii!r}")
    if args.points is not None:
        spec_kwargs["points_per_circle"] = args.points
    report = grid_check(f, spec.condition, c, GridSpec(**spec_kwargs))
    d = report.to_json_dict()
    row = {"condition": d["condition"], "max": d["max"], "argmax_re": d["argmax"][0],
           "argmax_im": d["argmax"][1], "violations": d["violations"], "skipped": d["skipped"]}
    return d, [row], EXIT_HOLDS if report.violations == 0 else EXIT_FAILS


def _identities(args) -> tuple:
    p = PoissonParams(args.m)
    n_top = choose_truncation(p, TruncationPolicy(eps=args.eps))
    if p.m > _SHIFT3_M_MAX:
        raise OverflowError(f"Shift3's m^2 e^m overflows above m = {_SHIFT3_M_MAX!r}, "
                            "the largest m identities accepts")
    entries = [{"kind": kind.value, "closed": closed, "partial": partial,
                "abs_err": err, "pass": err <= allowed}
               for kind, closed, partial, err, allowed in _identity_rows(p, n_top)]
    return ({"m": p.m, "N": n_top, "identities": entries}, entries,
            EXIT_HOLDS if all(e["pass"] for e in entries) else EXIT_FAILS)


def _identities_human(d: dict) -> str:
    lines = [f"m {fmt_float(d['m'])}  N {d['N']}"]
    lines.extend(f"{e['kind']:<14} closed {fmt_float(e['closed'])} "
                 f"err {fmt_float(e['abs_err'])} {'pass' if e['pass'] else 'FAIL'}"
                 for e in d["identities"])
    return "\n".join(lines) + "\n"


def _suite(args) -> tuple:
    raw = os.environ.get("GFT_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"GFT_SEED must be an integer, got {raw!r}")
    summary = run_suite(seed)
    return summary, summary["checks"], EXIT_HOLDS if summary["failed"] == 0 else EXIT_FAILS


def _suite_human(d: dict) -> str:
    lines = [f"seed {d['seed']}  passed {d['passed']}  failed {d['failed']}"]
    lines.extend(f"{chk['name']:<18} {chk['status']:<5} {chk['detail']}"
                 for chk in d["checks"])
    return "\n".join(lines) + "\n"


# ---- the command table ----

_PREDICATE = [("--predicate", dict(required=True))]
_M = [("--m", dict(type=float, required=True))]
_CLASS = [("--k", dict(type=float, required=True)),
          ("--lambda", dict(dest="lam", type=float, default=0.0)),
          ("--A", dict(type=float, default=None)),
          ("--B", dict(type=float, default=None)),
          ("--tau-re", dict(dest="tau_re", type=float, default=1.0)),
          ("--tau-im", dict(dest="tau_im", type=float, default=0.0))]
_EPS = [("--eps", dict(type=float, default=1e-12))]
_OUTPUT = [("--format", dict(choices=("json", "csv", "human"), default="json")),
           ("--out", dict(default=None, help="write the report to this file"))]

# name -> (help, flags before --format and --out, runner, human formatter)
_COMMANDS = {
    "check": ("evaluate one membership predicate",
              _PREDICATE + _M + _CLASS, _check, dict_to_human),
    "crosscheck": ("evaluate plus independent series recomputation",
                   _PREDICATE + _M + _CLASS + _EPS, _crosscheck, dict_to_human),
    "threshold": ("solve for the boundary parameter m*",
                  _PREDICATE + _CLASS + [("--tol", dict(type=float, default=1e-10))],
                  _threshold, dict_to_human),
    "grid": ("sample the defining inequality on disk grids",
             _PREDICATE + _M + _CLASS + _EPS
             + [("--radii", dict(default=None, help="comma-separated radii in (0,1)")),
                ("--points", dict(type=int, default=None, help="points per circle"))],
             _grid, dict_to_human),
    "identities": ("closed forms of the shifted exponential sums vs direct "
                   "partial summation", _M + _EPS, _identities, _identities_human),
    "suite": ("run the seeded property suite", [], _suite, _suite_human),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="gftpoisson",
                     description="Membership predicates for Poisson-weighted "
                                 "series in starlike and convex function classes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, options in flags + _OUTPUT:
            sp.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, _, run, human = _COMMANDS[args.command]
        json_dict, csv_rows, code = run(args)
        if args.format == "json":
            text = dumps_canonical(json_dict) + "\n"
        elif args.format == "csv":
            text = rows_to_csv(csv_rows)
        else:
            text = human(json_dict)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: {exc.strerror}")
        else:
            sys.stdout.write(text)
        return code
    except (UsageError, DomainError, MissingRParams, InvalidTolerance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationNotReached, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main_entry() -> None:
    sys.exit(main())
