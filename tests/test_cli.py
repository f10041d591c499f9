import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gftpoisson import cli, series
from gftpoisson.cli import (EXIT_FAILS, EXIT_HOLDS, EXIT_MARGINAL,
                            EXIT_NUMERIC, EXIT_USAGE, main)
from gftpoisson.disk import MAX_POINTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- check ----

def test_check_holds_exit_zero(capsys):
    code, out, err = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                             "--m", "0.1", "--k", "1.0")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["predicate"] == "T1_F_in_S"
    assert d["verdict"] == "Holds"
    assert d["rhs"] == 2
    assert d["residual"] is None
    assert err == ""


def test_check_fails_exit_one(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "1.0", "--k", "1.0")
    assert code == EXIT_FAILS
    assert json.loads(out)["verdict"] == "Fails"


def test_check_marginal_exit_two(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "0.5671432904097838", "--k", "1.0")
    assert code == EXIT_MARGINAL
    assert json.loads(out)["verdict"] == "Marginal"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 11, CHANGES.md FOUND line 43: theorems._g_tail_ratio keeps about "
    "8 digits just above its 1e-8 cutoff, so this margin reads -1.0976e-9 (Fails) "
    "where the 60-digit closed form at the same floats gives +1.1e-9 (Holds)"))
def test_t5_just_above_the_g_series_cutoff_holds(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T5_I_in_S", "--m", "1.5e-8",
                           "--k", "0.35", "--A", "1", "--B", "-1",
                           "--tau-re", "22764227.759190958")
    assert (json.loads(out)["verdict"], code) == ("Holds", EXIT_HOLDS)


def test_check_r_predicate(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T6_I_in_C",
                           "--m", "0.1", "--k", "1.0",
                           "--A", "1.0", "--B", "-1.0")
    assert code == EXIT_HOLDS
    assert json.loads(out)["lhs"] == pytest.approx(0.7806503278561617)


def test_check_lambda_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "0.1", "--k", "0.5", "--lambda", "0.5")
    assert code == EXIT_HOLDS
    # P = 0.5 + 0.5 * 1.5 = 1.25
    assert json.loads(out)["lhs"] == pytest.approx(1.25 * 0.1 * 2.718281828459045**0.1)


def test_check_csv_format(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "0.1", "--k", "1.0", "--format", "csv")
    assert code == EXIT_HOLDS
    lines = out.splitlines()
    assert lines[0] == "predicate,verdict,lhs,rhs,margin,residual,N"
    assert lines[1].startswith("T1_F_in_S,Holds,")


def test_check_human_format(capsys):
    code, out, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "0.1", "--k", "1.0", "--format", "human")
    assert code == EXIT_HOLDS
    assert "verdict" in out
    assert "Holds" in out


# ---- usage errors ----

def test_bad_k_exit_three(capsys):
    code, out, err = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                             "--m", "1.0", "--k", "2.0")
    assert code == EXIT_USAGE
    assert out == ""
    assert "k must be in (0,1]" in err


def test_unknown_predicate_lists_valid_ids(capsys):
    code, _, err = run_cli(capsys, "check", "--predicate", "T9_bogus",
                           "--m", "1.0", "--k", "1.0")
    assert code == EXIT_USAGE
    assert "T1_F_in_S" in err
    assert "C6_G_in_Sk" in err


def test_unknown_flag_exit_three(capsys):
    code, _, err = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "1.0", "--k", "1.0", "--bogus", "1")
    assert code == EXIT_USAGE
    assert err != ""


def test_missing_required_flag_exit_three(capsys):
    code, _, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                         "--k", "1.0")
    assert code == EXIT_USAGE


def test_r_predicate_without_AB_exit_three(capsys):
    code, _, err = run_cli(capsys, "check", "--predicate", "T5_I_in_S",
                           "--m", "1.0", "--k", "1.0")
    assert code == EXIT_USAGE
    assert "requires --A and --B" in err


def test_A_without_B_exit_three(capsys):
    code, _, err = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "1.0", "--k", "1.0", "--A", "1.0")
    assert code == EXIT_USAGE
    assert "together" in err


# one row of each predicate command that takes no R member, so RParams, which
# checks tau, is never built; no command once read their tau, so a nan or inf
# tau still printed a report
NO_R_ROWS = [
    ("check", "--predicate", "T1_F_in_S", "--m", "1", "--k", "0.5"),
    ("crosscheck", "--predicate", "T1_F_in_S", "--m", "1", "--k", "0.5"),
    ("threshold", "--predicate", "T2_F_in_C", "--k", "0.5"),
    ("grid", "--predicate", "T4_G_in_S", "--m", "1", "--k", "0.5", "--points", "8")]
TAU_ROWS = [(("check", "--predicate", "T5_I_in_S", "--m", "0.3", "--k", "0.5",
              "--A", "1", "--B", "0"), "tau must be a finite complex number")] + [
    (argv, "--tau-re and --tau-im need --A and --B") for argv in NO_R_ROWS]


@pytest.mark.parametrize("argv, named", TAU_ROWS,
                         ids=["check-T5", "check", "crosscheck", "threshold", "grid"])
@pytest.mark.parametrize("flag", ["--tau-re", "--tau-im"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_non_finite_tau_exit_three(capsys, argv, named, flag, value):
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert named in err


def _numeric_flags(command):
    """The flags of command that take a number, --radii's comma-separated list
    among them, in the order --help lists them."""
    _, flags, _, _ = cli._COMMANDS[command]
    return [flag for flag, options in flags
            if options.get("type") in (float, int) or flag == "--radii"]


# the rows above without an R member, the same four commands on T5 with one,
# and identities; a flag given twice takes its last value
NON_FINITE_ROWS = NO_R_ROWS + [
    (*argv[:2], "T5_I_in_S", *argv[3:], "--A", "1", "--B", "-1") for argv in NO_R_ROWS] + [
    ("identities", "--m", "1")]


@pytest.mark.parametrize("argv", NON_FINITE_ROWS, ids=" ".join)
def test_each_non_finite_row_runs_as_given(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code != EXIT_USAGE and out != "" and err == ""


@pytest.mark.parametrize("argv, flag", [
    (argv, flag) for argv in NON_FINITE_ROWS for flag in _numeric_flags(argv[0])],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_every_numeric_flag_refuses_a_non_finite_value(capsys, argv, flag, value):
    code, out, _ = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (EXIT_USAGE, "")


# the scale (A-B)|tau| is inf, or |tau| itself is past the largest double
OVERFLOWING_SCALES = [
    (("--A", "1", "--B", "-1", "--tau-re", "1e308", "--tau-im", "1e308"),
     "A=1.0, B=-1.0, tau=(1e+308+1e+308j)"),
    (("--A", "1e-300", "--B", "0", "--tau-re", "1.7e308", "--tau-im", "1.7e308"),
     "A=1e-300, B=0.0, tau=(1.7e+308+1.7e+308j)")]


@pytest.mark.parametrize("command", ["check", "crosscheck", "threshold", "grid"])
@pytest.mark.parametrize("pid", ["T5_I_in_S", "T6_I_in_C"])
@pytest.mark.parametrize("r_args, named", OVERFLOWING_SCALES, ids=["scale", "tau"])
def test_a_scale_that_overflows_is_refused_by_every_command(capsys, command, pid,
                                                            r_args, named):
    # check once printed lhs Infinity with verdict Fails, threshold blamed a
    # crossing below the smallest double, crosscheck and grid refused the I
    # image's infinite tail, and an overflowing |tau| exited 4
    m = () if command == "threshold" else ("--m", "0.5")
    code, out, err = run_cli(capsys, command, "--predicate", pid, *m, "--k", "0.5", *r_args)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: the scale (A-B)|tau| must be finite, got {named}\n"


# (A-B)|tau| underflows to 0 though A > B and tau is nonzero
UNDERFLOWING_SCALES = [
    (("--A", "5e-324", "--B", "0", "--tau-re", "5e-324"), "A=5e-324, B=0.0, tau=(5e-324+0j)"),
    (("--A", "0.25", "--B", "0", "--tau-re", "0", "--tau-im", "5e-324"),
     "A=0.25, B=0.0, tau=5e-324j")]


@pytest.mark.parametrize("command", ["check", "crosscheck", "threshold", "grid"])
@pytest.mark.parametrize("pid", ["T5_I_in_S", "T6_I_in_C"])
@pytest.mark.parametrize("r_args, named", UNDERFLOWING_SCALES, ids=["A", "tau"])
def test_a_scale_that_underflows_is_refused_by_every_command(capsys, command, pid,
                                                             r_args, named):
    # threshold once ended in a ZeroDivisionError traceback, and check,
    # crosscheck and grid answered for an image that is identically z
    m = () if command == "threshold" else ("--m", "0.5")
    code, out, err = run_cli(capsys, command, "--predicate", pid, *m, "--k", "0.5", *r_args)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: the scale (A-B)|tau| must be nonzero, got {named}\n"


def test_grid_corollary_validates_lambda_like_check(capsys):
    argv = ("--predicate", "C1_F_in_Sk", "--m", "0.3", "--k", "0.5",
            "--lambda", "2")
    code, out, err = run_cli(capsys, "grid", *argv)
    _, _, check_err = run_cli(capsys, "check", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "lambda must be in [0,1)" in err
    assert err == check_err


def test_bad_radii_exit_three(capsys):
    code, _, err = run_cli(capsys, "grid", "--predicate", "T1_F_in_S",
                           "--m", "0.3", "--k", "1.0", "--radii", "0.5,zebra")
    assert code == EXIT_USAGE
    assert "--radii" in err


# ---- crosscheck ----

def test_crosscheck_reports_residual(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--predicate", "T5_I_in_S",
                           "--m", "1.0", "--k", "0.5", "--lambda", "0.25",
                           "--A", "1.0", "--B", "0.0",
                           "--tau-re", "1.0", "--tau-im", "1.0")
    d = json.loads(out)
    assert d["residual"] is not None
    assert d["residual"] < 1e-10
    assert d["N"] >= 12
    assert code in (EXIT_HOLDS, EXIT_FAILS, EXIT_MARGINAL)


def test_crosscheck_eps_flag_tightens_order(capsys):
    _, out1, _ = run_cli(capsys, "crosscheck", "--predicate", "T1_F_in_S",
                         "--m", "4.0", "--k", "1.0", "--eps", "1e-6")
    _, out2, _ = run_cli(capsys, "crosscheck", "--predicate", "T1_F_in_S",
                         "--m", "4.0", "--k", "1.0", "--eps", "1e-13")
    assert json.loads(out2)["N"] >= json.loads(out1)["N"]


def test_crosscheck_truncation_overflow_exit_four(capsys):
    code, _, err = run_cli(capsys, "crosscheck", "--predicate", "T1_F_in_S",
                           "--m", "9000", "--k", "1.0")
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err


# m e^{-m} is subnormal from m = 715 on; the series routes must refuse such an m
# rather than sample or sum coefficients that rounded to zero

def test_grid_subnormal_first_weight_exit_four(capsys):
    code, out, err = run_cli(capsys, "grid", "--predicate", "T1_F_in_S",
                             "--m", "800", "--k", "0.9")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric failure" in err
    # the closed form still decides the same point
    assert run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                   "--m", "800", "--k", "0.9")[0] == EXIT_FAILS


def test_crosscheck_subnormal_first_weight_exit_four(capsys):
    code, out, err = run_cli(capsys, "crosscheck", "--predicate", "T4_G_in_S",
                             "--m", "740", "--k", "0.5", "--lambda", "0.2")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "numeric failure" in err


# ---- threshold ----

def test_threshold_fixture(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--predicate", "T1_F_in_S",
                           "--k", "1.0")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["outcome"] == "finite"
    assert abs(d["m_star"] - 0.5671432904097838) < 1e-9
    assert d["bracket"] < 1e-10
    assert d["evals"] > 0


def test_threshold_always_holds(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--predicate", "T4_G_in_S",
                           "--k", "1.0")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["outcome"] == "always_holds"
    assert d["m_star"] is None


def test_threshold_tol_flag(capsys):
    _, out, _ = run_cli(capsys, "threshold", "--predicate", "T1_F_in_S",
                        "--k", "1.0", "--tol", "1e-4")
    assert json.loads(out)["bracket"] < 1e-4


# ---- grid ----

def test_grid_clean_run_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "grid", "--predicate", "T1_F_in_S",
                           "--m", "0.3", "--k", "1.0")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert set(d) == {"condition", "max", "argmax", "violations", "skipped"}
    assert d["condition"] == "S_cond"
    assert d["violations"] == 0
    assert 0 < d["max"] < 1


@pytest.mark.parametrize("predicate", [("T1_F_in_S",), ("T3_G_in_C",),
                                       ("T5_I_in_S", "--A", "1.0", "--B", "-1.0")],
                         ids=["F", "G", "I"])
def test_grid_builds_its_series_through_the_constructor(capsys, seq_inits, predicate):
    code, _, _ = run_cli(capsys, "grid", "--predicate", *predicate, "--m", "0.3",
                         "--k", "1.0", "--points", "8")
    assert code == EXIT_HOLDS
    assert len(seq_inits) == 1


def test_grid_violations_exit_one(capsys):
    code, out, _ = run_cli(capsys, "grid", "--predicate", "T1_F_in_S",
                           "--m", "2.0", "--k", "0.05")
    assert code == EXIT_FAILS
    assert json.loads(out)["violations"] > 0


def test_grid_refuses_a_count_it_cannot_use(capsys):
    # a count that fits no index once exited 4 as a numeric failure
    code, out, err = run_cli(capsys, "grid", "--predicate", "T1_F_in_S", "--m", "0.5",
                             "--k", "0.5", "--points", str(10 ** 20))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: need at most {MAX_POINTS} points per circle, got {10 ** 20}\n"


def test_grid_radii_and_points_flags(capsys):
    code, out, _ = run_cli(capsys, "grid", "--predicate", "T4_G_in_S",
                           "--m", "0.5", "--k", "1.0",
                           "--radii", "0.5,0.9", "--points", "64")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["violations"] == 0


def test_grid_operator_predicate(capsys):
    code, out, _ = run_cli(capsys, "grid", "--predicate", "T5_I_in_S",
                           "--m", "0.2", "--k", "1.0",
                           "--A", "1.0", "--B", "-1.0")
    assert code == EXIT_HOLDS
    assert json.loads(out)["violations"] == 0


def test_grid_csv_header(capsys):
    _, out, _ = run_cli(capsys, "grid", "--predicate", "T1_F_in_S",
                        "--m", "0.3", "--k", "1.0", "--format", "csv")
    assert out.splitlines()[0] == "condition,max,argmax_re,argmax_im,violations,skipped"


# ---- identities ----

def test_identities_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "identities", "--m", "1.0")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["m"] == 1
    assert len(d["identities"]) == 5
    assert all(e["pass"] for e in d["identities"])


def test_identities_csv(capsys):
    code, out, _ = run_cli(capsys, "identities", "--m", "2.5", "--format", "csv")
    assert code == EXIT_HOLDS
    lines = out.splitlines()
    assert lines[0] == "kind,closed,partial,abs_err,pass"
    assert len(lines) == 6
    assert all(line.endswith(",true") for line in lines[1:])


# Shift3's closed form m^2 e^m exceeds DBL_MAX past m = 696.69..., while the
# series routes accept every m up to 714
SHIFT3_LIMIT = "696.6900317052614"
SHIFT3_OVERFLOW = ("numeric failure: Shift3's m^2 e^m overflows above m = "
                   f"{SHIFT3_LIMIT}, the largest m identities accepts\n")


@pytest.mark.parametrize("m", ["696.6900317052615", "696.9"]
                         + [str(m) for m in range(697, 715)])
@pytest.mark.parametrize("fmt", ["json", "human"])
def test_identities_past_the_shift3_limit_exits_four_naming_it(capsys, m, fmt):
    code, out, err = run_cli(capsys, "identities", "--m", m, "--format", fmt)
    assert (code, out, err) == (EXIT_NUMERIC, "", SHIFT3_OVERFLOW)


def test_identities_at_the_shift3_limit_passes(capsys):
    code, out, _ = run_cli(capsys, "identities", "--m", SHIFT3_LIMIT)
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["identities"][2]["kind"] == "Shift3"
    assert d["identities"][2]["closed"] == 1.7976931348621626e+308


def test_the_shift3_limit_is_the_last_float_with_a_finite_closed_form():
    m = float(SHIFT3_LIMIT)
    assert series._SHIFT3_M_MAX == m
    p = series.PoissonParams(m)
    assert series.shifted_exp_sum(p, series.SumKind.SHIFT3) < float("inf")
    above = series.PoissonParams(math.nextafter(m, 1000.0))
    assert series.shifted_exp_sum(above, series.SumKind.SHIFT3) == float("inf")


def test_identities_past_the_series_limit_keeps_its_message(capsys):
    code, out, err = run_cli(capsys, "identities", "--m", "715")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("numeric failure: ") and "Shift3" not in err


# ---- each route's domain in m ----

MIN_NORMAL, BELOW_MIN_NORMAL = "2.2250738585072014e-308", "2.225073858507201e-308"
SERIES_M_MAX, ABOVE_SERIES_M_MAX = "714.9686572379665", "714.9686572379666"
T1 = ("--predicate", "T1_F_in_S", "--k", "0.5")
T6 = ("--predicate", "T6_I_in_C", "--k", "0.5", "--A", "1", "--B", "-1", "--tau-re")


# the table of README's exit-code section, one row per side of each edge
@pytest.mark.parametrize("argv,code", [
    (("check", *T1, "--m", "5e-324"), EXIT_HOLDS),
    (("check", *T1, "--m", "0"), EXIT_USAGE),
    (("check", *T1, "--m", "1.7976931348623157e+308"), EXIT_FAILS),
    (("check", *T1, "--m", "inf"), EXIT_USAGE),
    (("crosscheck", *T1, "--m", MIN_NORMAL), EXIT_HOLDS),
    (("crosscheck", *T1, "--m", BELOW_MIN_NORMAL), EXIT_NUMERIC),
    (("crosscheck", *T1, "--m", SERIES_M_MAX), EXIT_FAILS),
    (("crosscheck", *T1, "--m", ABOVE_SERIES_M_MAX), EXIT_NUMERIC),
    (("grid", *T1, "--m", MIN_NORMAL), EXIT_HOLDS),
    (("grid", *T1, "--m", BELOW_MIN_NORMAL), EXIT_NUMERIC),
    (("grid", *T1, "--m", SERIES_M_MAX), EXIT_HOLDS),
    (("grid", *T1, "--m", ABOVE_SERIES_M_MAX), EXIT_NUMERIC),
    (("identities", "--m", MIN_NORMAL), EXIT_HOLDS),
    (("identities", "--m", BELOW_MIN_NORMAL), EXIT_NUMERIC),
    (("identities", "--m", SHIFT3_LIMIT), EXIT_HOLDS),
    (("identities", "--m", "696.6900317052615"), EXIT_NUMERIC),
    (("threshold", "--predicate", "C2_F_in_Ck", "--k", "1e-323"), EXIT_HOLDS),
    (("threshold", "--predicate", "C2_F_in_Ck", "--k", "5e-324"), EXIT_USAGE),
    (("threshold", *T6, "1e-308"), EXIT_HOLDS),
    (("threshold", *T6, "1e-309"), EXIT_USAGE),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_each_route_accepts_its_domain_in_m_and_refuses_past_it(capsys, argv, code):
    assert run_cli(capsys, *argv)[0] == code


# ---- suite ----

def test_suite_json_all_pass(capsys, monkeypatch):
    monkeypatch.setenv("GFT_SEED", "0")
    code, out, _ = run_cli(capsys, "suite")
    assert code == EXIT_HOLDS
    d = json.loads(out)
    assert d["seed"] == 0
    assert d["failed"] == 0
    assert len(d["checks"]) == 7


def test_suite_bad_seed_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("GFT_SEED", "zebra")
    code, _, err = run_cli(capsys, "suite")
    assert code == EXIT_USAGE
    assert "GFT_SEED" in err


# ---- output plumbing ----

def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "check", "--predicate", "T1_F_in_S",
                           "--m", "0.1", "--k", "1.0", "--out", str(target))
    assert code == EXIT_HOLDS
    assert out == ""
    d = json.loads(target.read_text())
    assert d["verdict"] == "Holds"


@pytest.mark.parametrize("where, strerror", [
    (lambda tmp: tmp / "missing" / "x.json", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory")], ids=["no-directory", "a-directory"])
def test_an_out_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, where,
                                                             strerror):
    target = where(tmp_path)
    assert run_cli(capsys, "check", "--predicate", "T1_F_in_S", "--m", "0.3",
                   "--k", "1.0", "--out", str(target)) == (
        EXIT_USAGE, "", f"error: cannot write --out {target}: {strerror}\n")


def test_json_output_round_trips_canonically(capsys):
    from gftpoisson import dumps_canonical
    _, out, _ = run_cli(capsys, "crosscheck", "--predicate", "T2_F_in_C",
                        "--m", "2.0", "--k", "0.3", "--lambda", "0.7")
    assert dumps_canonical(json.loads(out)) + "\n" == out


def test_same_argv_same_bytes(capsys):
    argv = ("check", "--predicate", "T2_F_in_C", "--m", "0.7", "--k", "0.9",
            "--lambda", "0.3")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gftpoisson", "check", "--predicate",
         "T1_F_in_S", "--m", "0.1", "--k", "1.0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Holds"


# the standard modules the package imports by name; every one of its modules
# states `from __future__ import annotations`, which imports __future__
_NAMED_STDLIB = "__future__, argparse, cmath, collections.abc, enum, math, os, random, sys"


def _modules_after(statement: str) -> set:
    # -S keeps site hooks out; PYTHONPATH is the source tree under test
    code = f"import {_NAMED_STDLIB}; {statement}; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(series.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    return set(proc.stdout.split())


def test_the_cli_loads_no_module_but_its_own_beyond_the_stdlib_it_names():
    # whatever a stdlib version imports for those modules is in both sets, so
    # only what the package pulls in besides them shows; dataclasses brought
    # inspect, ast, dis and tokenize, about a third of the package's import
    extra = _modules_after("import gftpoisson.cli") - _modules_after("pass")
    assert sorted(m for m in extra if m.partition(".")[0] != "gftpoisson") == []


# the I image is built from one pass of the Poisson weight recurrence
@pytest.mark.parametrize("command", ["crosscheck", "grid"])
def test_t5_series_route_runs_the_weight_recurrence_once(capsys, monkeypatch, command):
    first, calls = series._first_weight, []
    monkeypatch.setattr(series, "_first_weight", lambda m: calls.append(m) or first(m))
    code = run_cli(capsys, command, "--predicate", "T5_I_in_S", "--m", "2",
                   "--k", "0.5", "--A", "1", "--B", "-1")[0]
    assert code in (EXIT_HOLDS, EXIT_FAILS)
    assert calls == [2.0]


# ---- which error each command names first ----

VALID_IDS = ", ".join(["T1_F_in_S", "T2_F_in_C", "T3_G_in_C", "T4_G_in_S", "T5_I_in_S",
                       "T6_I_in_C", "C1_F_in_Sk", "C2_F_in_Ck", "C3_I_in_Sk",
                       "C4_I_in_Ck", "C5_G_in_Ck", "C6_G_in_Sk"])
UNKNOWN = f"error: unknown predicate 'bogus'; valid ids: {VALID_IDS}\n"
BAD_M = "error: m must be a finite positive real, got -1.0\n"
BAD_K = "error: k must be in (0,1], got 2.0\n"
BAD_EPS = "error: eps must be finite and positive, got -1.0\n"
NEEDS_AB = "error: predicate T5_I_in_S requires --A and --B\n"


# each invocation holds two bad inputs, and the pinned message names the one
# its command refuses first: check, crosscheck, threshold and grid go
# predicate, m, (k, lambda), the R flags, then their own flags (--eps, --tol,
# --radii, --points); identities goes m, then --eps
@pytest.mark.parametrize("argv, err", [
    (("check", "--predicate", "bogus", "--m", "-1", "--k", "0.5"), UNKNOWN),
    (("check", "--predicate", "T5_I_in_S", "--m", "-1", "--k", "0.5"), BAD_M),
    (("check", "--predicate", "T5_I_in_S", "--m", "1", "--k", "2"), BAD_K),
    (("check", "--predicate", "T1_F_in_S", "--m", "1", "--k", "0.5", "--lambda", "1",
      "--A", "1"), "error: lambda must be in [0,1), got 1.0\n"),
    (("crosscheck", "--predicate", "bogus", "--m", "1", "--k", "0.5", "--eps", "-1"),
     UNKNOWN),
    (("crosscheck", "--predicate", "T1_F_in_S", "--m", "-1", "--k", "0.5", "--eps", "-1"),
     BAD_M),
    (("crosscheck", "--predicate", "T5_I_in_S", "--m", "1", "--k", "0.5", "--eps", "-1"),
     NEEDS_AB),
    (("crosscheck", "--predicate", "T1_F_in_S", "--m", "1", "--k", "0.5", "--eps", "-1"),
     BAD_EPS),
    (("threshold", "--predicate", "T5_I_in_S", "--k", "2", "--tol", "-1"), BAD_K),
    (("threshold", "--predicate", "T5_I_in_S", "--k", "0.5", "--tol", "-1"), NEEDS_AB),
    (("threshold", "--predicate", "T5_I_in_S", "--k", "0.5", "--A", "1", "--B", "2",
      "--tol", "-1"), "error: need -1 <= B < A <= 1, got A=1.0, B=2.0\n"),
    (("grid", "--predicate", "T5_I_in_S", "--m", "-1", "--k", "0.5"), BAD_M),
    (("grid", "--predicate", "T5_I_in_S", "--m", "1", "--k", "0.5", "--eps", "-1"),
     NEEDS_AB),
    (("grid", "--predicate", "T1_F_in_S", "--m", "1", "--k", "0.5", "--eps", "-1",
      "--radii", "x"), BAD_EPS),
    (("grid", "--predicate", "T1_F_in_S", "--m", "1", "--k", "0.5", "--radii", "x",
      "--points", "3"), "error: could not parse --radii 'x'\n"),
    (("identities", "--m", "-1", "--eps", "-1"), BAD_M),
    (("identities", "--m", "700", "--eps", "-1"), BAD_EPS),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_each_command_names_its_first_bad_input(capsys, argv, err):
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", err)


def test_suite_refuses_its_seed_before_it_opens_the_report_file(capsys, monkeypatch,
                                                                tmp_path):
    # the report file's directory does not exist, so opening it would fail
    monkeypatch.setenv("GFT_SEED", "zebra")
    out = tmp_path / "missing" / "report.json"
    assert run_cli(capsys, "suite", "--out", str(out)) == (
        EXIT_USAGE, "", "error: GFT_SEED must be an integer, got 'zebra'\n")
    assert not out.parent.exists()


# ---- the parser's structure ----

OUTPUT_FLAGS = [
    (("--format",), "format", None, "json", False, ("json", "csv", "human"), None),
    (("--out",), "out", None, None, False, None, "write the report to this file")]


def _class_flags(with_m):
    m = [(("--m",), "m", float, None, True, None, None)] if with_m else []
    return [(("--predicate",), "predicate", None, None, True, None, None), *m,
            (("--k",), "k", float, None, True, None, None),
            (("--lambda",), "lam", float, 0.0, False, None, None),
            (("--A",), "A", float, None, False, None, None),
            (("--B",), "B", float, None, False, None, None),
            (("--tau-re",), "tau_re", float, 1.0, False, None, None),
            (("--tau-im",), "tau_im", float, 0.0, False, None, None)]


EPS_FLAG = (("--eps",), "eps", float, 1e-12, False, None, None)

# name, help, then (option strings, dest, type, default, required, choices,
# help) for each argument after -h, in the order --help lists them
PARSER_TABLE = [
    ("check", "evaluate one membership predicate", _class_flags(True) + OUTPUT_FLAGS),
    ("crosscheck", "evaluate plus independent series recomputation",
     _class_flags(True) + [EPS_FLAG] + OUTPUT_FLAGS),
    ("threshold", "solve for the boundary parameter m*",
     _class_flags(False) + [(("--tol",), "tol", float, 1e-10, False, None, None)]
     + OUTPUT_FLAGS),
    ("grid", "sample the defining inequality on disk grids",
     _class_flags(True) + [EPS_FLAG,
                           (("--radii",), "radii", None, None, False, None,
                            "comma-separated radii in (0,1)"),
                           (("--points",), "points", int, None, False, None,
                            "points per circle")] + OUTPUT_FLAGS),
    ("identities", "closed forms of the shifted exponential sums vs direct partial "
                   "summation",
     [(("--m",), "m", float, None, True, None, None), EPS_FLAG] + OUTPUT_FLAGS),
    ("suite", "run the seeded property suite", OUTPUT_FLAGS),
]


def _arguments(parser):
    return [(tuple(a.option_strings), a.dest, a.type, a.default, a.required,
             None if a.choices is None else tuple(a.choices), a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_the_parser_has_the_pinned_subcommands_and_arguments():
    parser = cli._build_parser()
    assert (parser.prog, parser.description) == (
        "gftpoisson", "Membership predicates for Poisson-weighted series in starlike "
                      "and convex function classes.")
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert _arguments(parser) == [((), "command", None, None, True,
                                   tuple(name for name, _, _ in PARSER_TABLE), None)]
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help_text) for name, help_text, _ in PARSER_TABLE]
    assert [(name, _arguments(sp)) for name, sp in sub.choices.items()] == [
        (name, arguments) for name, _, arguments in PARSER_TABLE]
