"""Byte-level pins on every CLI subcommand.

Each digest is one sha256 over (argv, exit code, stdout, stderr, and the
text written by --out) for a fixed list of invocations of cli.main, run
in-process.  A digest that moves means a subcommand printed other bytes or
exited with another code.  When that change is intended, re-pin the digest
and say in CHANGES.md which output changed and why.

The floats are printed at 17 significant digits, so the pins also assume
IEEE-754 doubles and a libm whose exp/expm1 round as glibc's do.
"""

import hashlib
import json

import pytest

from gftpoisson.cli import main

PREDICATES = ("T1_F_in_S", "T2_F_in_C", "T3_G_in_C", "T4_G_in_S", "T5_I_in_S",
              "T6_I_in_C", "C1_F_in_Sk", "C2_F_in_Ck", "C3_I_in_Sk",
              "C4_I_in_Ck", "C5_G_in_Ck", "C6_G_in_Sk")
FORMATS = ("json", "csv", "human")

# (m, class and R flags): a point where most predicates hold and one where
# most fail; both carry (A, B, tau) so the operator predicates evaluate too
POINTS = (
    ("0.3", ("--k", "0.5", "--lambda", "0.25", "--A", "1", "--B", "-0.5",
             "--tau-re", "0.6", "--tau-im", "0.8")),
    ("2", ("--k", "0.9", "--lambda", "0.7", "--A", "0.5", "--B", "-1",
           "--tau-re", "-1.5")),
)
GRID_FLAGS = ("--radii", "0.5,0.9", "--points", "64")


def _predicate_cases(command: str, with_m: bool, extra: tuple = ()) -> list:
    cases = []
    for fmt in FORMATS:
        for m, flags in POINTS:
            for pid in PREDICATES:
                m_flags = ("--m", m) if with_m else ()
                cases.append((command, "--predicate", pid, *m_flags, *flags,
                              *extra, "--format", fmt))
    return cases


CASES = {
    "check": _predicate_cases("check", True) + [
        ("check", "--predicate", "T2_F_in_C", "--m", "0.7", "--k", "0.9",
         "--format", fmt, "--out", "report.txt") for fmt in FORMATS],
    "crosscheck": _predicate_cases("crosscheck", True),
    "threshold": _predicate_cases("threshold", False),
    "grid": _predicate_cases("grid", True, GRID_FLAGS),
    "identities": [("identities", "--m", m, "--format", fmt)
                   for m in ("0.7", "6.5") for fmt in FORMATS] + [
        ("identities", "--m", "0.7", "--format", "human", "--out", "report.txt")],
    "suite": [("suite", "--format", "json"), ("suite", "--format", "human"),
              ("suite", "--format", "human", "--out", "report.txt")],
}

GOLDEN = {
    "check": "d5ea35eed64f736144528cf7b816e5136fd14929149812d9bc4d8eb0b70c8a4d",
    "crosscheck": "40eea0dd00865fc8caeee5db63cac7a2ce7af68e9e80600fab1c784f8a1ddf09",
    "threshold": "907d5d8a7a5a1c483f178a5818d01080190d17bf5abda2146620600379275ce6",
    "grid": "2275183c3a8eb1dfac0f96c1f470b2c8fc68dc06b2999fe817cb94a976bf3008",
    "identities": "d79a1d5a56b3709bcfc63893532b7f54c45bbc52457dae535191c431c97eae3b",
    "suite": "b92b07a37ab95d39b545b5bf4516d3d9d0c693f74530bc3d9c97a68b9e60ebfe",
}


# the suite draws every parameter from GFT_SEED; seed 0 is pinned above with
# the other subcommands, these pin its JSON at nine more seeds
SUITE_SEEDS = {
    1: "d3844da213f1ad7bb39b86c66abf786b64c4057345a5d785e497c2b63c44ffa7",
    2: "7a27d2608c042e3e03ceda128275396222bd829927ef7ef898b00d8058c93f1e",
    3: "c8ac04a24f6f01ee22afda98238ce29d91dd44733870cf918d0aea952cda8135",
    4: "dc52bfe2410cc9013cb12a9d3974f44a263209d085b426a9c7a3d150a7f7d90e",
    5: "60684470fc297bcf977bc4c821b71846a4e14f9f46cbe55eed4abb9b1ac7476c",
    6: "71e3de15db3eb1792c5ee2b0545f8aeadb8d1cc360460c2d34db5b58d8f11357",
    7: "89d0b73c0018ac6c825a7e6b05f3881bc41bb0a6456927d813d2d3a58e2bb25d",
    8: "8a590018334f0f20c3d1f62c2e729fac458dccc79a685a45f1b2f7c450171dd3",
    9: "6771f55f54750742ff99b73bef7eeefe5d944f0601f96fc58163512766f54904",
}


def _digest(cases, tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for argv in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        written = None
        if "--out" in argv:
            target = tmp_path / argv[argv.index("--out") + 1]
            written = target.read_text()
            target.unlink()
        h.update(json.dumps([list(argv), code, captured.out, captured.err,
                             written]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_output_is_pinned(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GFT_SEED", "0")
    digest = _digest(CASES[command], tmp_path, capsys)
    assert digest == GOLDEN[command], f"{command} output digest is now {digest}"


@pytest.mark.parametrize("seed", sorted(SUITE_SEEDS))
def test_suite_output_is_pinned_at_more_seeds(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GFT_SEED", str(seed))
    digest = _digest([("suite", "--format", "json")], tmp_path, capsys)
    assert digest == SUITE_SEEDS[seed], f"seed {seed} suite digest is now {digest}"
