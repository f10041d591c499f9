import json
import subprocess
import sys

import pytest

from gftpoisson import series
from gftpoisson.cli import (EXIT_FAILS, EXIT_HOLDS, EXIT_MARGINAL,
                            EXIT_NUMERIC, EXIT_USAGE, main)


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


@pytest.mark.parametrize("flag, value", [("--tau-re", "nan"), ("--tau-im", "inf")])
def test_non_finite_tau_exit_three(capsys, flag, value):
    code, out, err = run_cli(capsys, "check", "--predicate", "T5_I_in_S",
                             "--m", "0.3", "--k", "0.5", "--A", "1", "--B", "0",
                             flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert "tau must be a finite complex number" in err


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


def test_grid_violations_exit_one(capsys):
    code, out, _ = run_cli(capsys, "grid", "--predicate", "T1_F_in_S",
                           "--m", "2.0", "--k", "0.05")
    assert code == EXIT_FAILS
    assert json.loads(out)["violations"] > 0


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


# the I image is built from one pass of the Poisson weight recurrence
@pytest.mark.parametrize("command", ["crosscheck", "grid"])
def test_t5_series_route_runs_the_weight_recurrence_once(capsys, monkeypatch, command):
    first, calls = series._first_weight, []
    monkeypatch.setattr(series, "_first_weight", lambda m: calls.append(m) or first(m))
    code = run_cli(capsys, command, "--predicate", "T5_I_in_S", "--m", "2",
                   "--k", "0.5", "--A", "1", "--B", "-1")[0]
    assert code in (EXIT_HOLDS, EXIT_FAILS)
    assert calls == [2.0]
