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
    "threshold": "e7befb7d628be21318fea70ea7c0c39a67dc1da8bb406c8e261af8adfba3ffbd",
    "grid": "2275183c3a8eb1dfac0f96c1f470b2c8fc68dc06b2999fe817cb94a976bf3008",
    "identities": "d79a1d5a56b3709bcfc63893532b7f54c45bbc52457dae535191c431c97eae3b",
    "suite": "598733f64064b8d4dcc0915fc0db3215e7e1548ef0f2e81cf7ee73ccf750cef1",
}


# the suite draws every parameter from GFT_SEED; seed 0 is pinned above with
# the other subcommands, these pin its JSON at nine more seeds
SUITE_SEEDS = {
    1: "2466ed4e564d3875edc83748b12257a02170b80554f989baa882c4213d5b37b0",
    2: "430338053546d8c01779bd598156d9d9882be32c6ccf7f15997ab6c06572248c",
    3: "8d9df54fa665aee035442234decb85fbe051411b367ec3cbfc7c4851d2fb5d42",
    4: "6f048e4b9caceb44af2047bb56b54649fba4ac407078684246d3ef171cf9c68a",
    5: "69857fd63e28a2a64f49839ab061657018d036af2b1c3f3ce3954a58cb785a07",
    6: "3cf782ce186b32f94e22835df101bba11b45b4e0cdf75b27af9fa685f7513cb9",
    7: "3aa04b454b6d9919bf63f1484f3097c3e0466306a6c57f74d7661d833f511973",
    8: "da7ad5ce88166783a127b980526fe960ce03952a9033b30b98fa7317c0f8f9c3",
    9: "c45d9cf58ba796bb732335ea90548141e300b5a3d22c970442cae89106b38b72",
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
