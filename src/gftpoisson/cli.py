"""Command-line front end.

Commands: check, crosscheck, threshold, grid, identities, suite.  Output is
canonical JSON by default (csv and human also available); exit codes are
0 for success or Holds, 1 for Fails, 2 for Marginal, 3 for usage errors,
4 for numeric failures.
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="gftpoisson",
                     description="Membership predicates for Poisson-weighted "
                                 "series in starlike and convex function classes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--format", choices=("json", "csv", "human"), default="json")
        sp.add_argument("--out", default=None, help="write the report to this file")

    def add_class_params(sp, with_m: bool):
        sp.add_argument("--predicate", required=True)
        if with_m:
            sp.add_argument("--m", type=float, required=True)
        sp.add_argument("--k", type=float, required=True)
        sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
        sp.add_argument("--A", type=float, default=None)
        sp.add_argument("--B", type=float, default=None)
        sp.add_argument("--tau-re", dest="tau_re", type=float, default=1.0)
        sp.add_argument("--tau-im", dest="tau_im", type=float, default=0.0)

    sp = sub.add_parser("check", help="evaluate one membership predicate")
    add_class_params(sp, with_m=True)
    add_output(sp)

    sp = sub.add_parser("crosscheck",
                        help="evaluate plus independent series recomputation")
    add_class_params(sp, with_m=True)
    sp.add_argument("--eps", type=float, default=1e-12)
    add_output(sp)

    sp = sub.add_parser("threshold", help="solve for the boundary parameter m*")
    add_class_params(sp, with_m=False)
    sp.add_argument("--tol", type=float, default=1e-10)
    add_output(sp)

    sp = sub.add_parser("grid", help="sample the defining inequality on disk grids")
    add_class_params(sp, with_m=True)
    sp.add_argument("--eps", type=float, default=1e-12)
    sp.add_argument("--radii", default=None, help="comma-separated radii in (0,1)")
    sp.add_argument("--points", type=int, default=None, help="points per circle")
    add_output(sp)

    sp = sub.add_parser("identities",
                        help="closed forms of the shifted exponential sums vs "
                             "direct partial summation")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--eps", type=float, default=1e-12)
    add_output(sp)

    sp = sub.add_parser("suite", help="run the seeded property suite")
    add_output(sp)
    return parser


def _parse_predicate(text: str) -> PredicateId:
    try:
        return PredicateId(text)
    except ValueError:
        valid = ", ".join(pid.value for pid in PredicateId)
        raise UsageError(f"unknown predicate {text!r}; valid ids: {valid}")


def _r_params(args, pid: PredicateId) -> RParams | None:
    has_a, has_b = args.A is not None, args.B is not None
    if SPECS[pid].needs_r and not (has_a and has_b):
        raise UsageError(f"predicate {pid.value} requires --A and --B")
    if has_a != has_b:
        raise UsageError("--A and --B must be given together")
    if not has_a:
        return None
    return RParams(A=args.A, B=args.B, tau=complex(args.tau_re, args.tau_im))


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, json_dict: dict, csv_header: list, csv_rows: list) -> None:
    if args.format == "json":
        _write(args, dumps_canonical(json_dict) + "\n")
    elif args.format == "csv":
        _write(args, rows_to_csv(csv_header, csv_rows))
    else:
        _write(args, dict_to_human(json_dict))


_REPORT_HEADER = ["predicate", "verdict", "lhs", "rhs", "margin", "residual", "N"]


def _emit_report(args, report) -> int:
    d = report.to_json_dict()
    _emit(args, d, _REPORT_HEADER, [[d[k] for k in _REPORT_HEADER]])
    return _VERDICT_EXIT[report.verdict]


def _cmd_check(args) -> int:
    pid = _parse_predicate(args.predicate)
    report = evaluate(pid, PoissonParams(args.m), ClassParams(args.k, args.lam),
                      _r_params(args, pid))
    return _emit_report(args, report)


def _cmd_crosscheck(args) -> int:
    pid = _parse_predicate(args.predicate)
    policy = TruncationPolicy(eps=args.eps)
    report = evaluate_with_crosscheck(pid, PoissonParams(args.m),
                                      ClassParams(args.k, args.lam),
                                      _r_params(args, pid), policy)
    return _emit_report(args, report)


def _cmd_threshold(args) -> int:
    pid = _parse_predicate(args.predicate)
    result = solve_m_star(pid, ClassParams(args.k, args.lam),
                          _r_params(args, pid), tol=args.tol)
    d = result.to_json_dict()
    header = ["predicate", "outcome", "m_star", "bracket", "evals"]
    _emit(args, d, header, [[d[k] for k in header]])
    return EXIT_HOLDS


def _cmd_grid(args) -> int:
    pid = _parse_predicate(args.predicate)
    p = PoissonParams(args.m)
    c = ClassParams(args.k, args.lam)
    r = _r_params(args, pid)
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
    grid = GridSpec(**spec_kwargs)
    report = grid_check(f, spec.condition, c, grid)
    d = report.to_json_dict()
    header = ["condition", "max", "argmax_re", "argmax_im", "violations", "skipped"]
    row = [d["condition"], d["max"], d["argmax"][0], d["argmax"][1],
           d["violations"], d["skipped"]]
    _emit(args, d, header, [row])
    return EXIT_HOLDS if report.violations == 0 else EXIT_FAILS


def _cmd_identities(args) -> int:
    p = PoissonParams(args.m)
    policy = TruncationPolicy(eps=args.eps)
    n_top = choose_truncation(p, policy)
    if p.m > _SHIFT3_M_MAX:
        raise OverflowError(f"Shift3's m^2 e^m overflows above m = {_SHIFT3_M_MAX!r}, "
                            "the largest m identities accepts")
    entries = [{"kind": kind.value, "closed": closed, "partial": partial,
                "abs_err": err, "pass": err <= allowed}
               for kind, closed, partial, err, allowed in _identity_rows(p, n_top)]
    d = {"m": p.m, "N": n_top, "identities": entries}
    if args.format == "human":
        lines = [f"m {fmt_float(p.m)}  N {n_top}"]
        for e in entries:
            lines.append(f"{e['kind']:<14} closed {fmt_float(e['closed'])} "
                         f"err {fmt_float(e['abs_err'])} "
                         f"{'pass' if e['pass'] else 'FAIL'}")
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit(args, d, ["kind", "closed", "partial", "abs_err", "pass"],
              [list(e.values()) for e in entries])
    return EXIT_HOLDS if all(e["pass"] for e in entries) else EXIT_FAILS


def _cmd_suite(args) -> int:
    raw = os.environ.get("GFT_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"GFT_SEED must be an integer, got {raw!r}")
    summary = run_suite(seed)
    rows = [[chk["name"], chk["status"], chk["detail"]] for chk in summary["checks"]]
    if args.format == "human":
        lines = [f"seed {summary['seed']}  passed {summary['passed']}  "
                 f"failed {summary['failed']}"]
        lines.extend(f"{chk['name']:<18} {chk['status']:<5} {chk['detail']}"
                     for chk in summary["checks"])
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit(args, summary, ["name", "status", "detail"], rows)
    return EXIT_HOLDS if summary["failed"] == 0 else EXIT_FAILS


_COMMANDS = {"check": _cmd_check, "crosscheck": _cmd_crosscheck,
             "threshold": _cmd_threshold, "grid": _cmd_grid,
             "identities": _cmd_identities, "suite": _cmd_suite}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, MissingRParams, InvalidTolerance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationNotReached, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main_entry() -> None:
    sys.exit(main())
