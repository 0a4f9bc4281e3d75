"""End-to-end tests of the command-line surface: output text and exit codes.

Commands run in-process through ``main(argv)`` so exit codes and streams are
asserted directly; one subprocess test covers the ``-m`` entry point.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwreduce import catalog, solvers
from bwreduce.certificates import (
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from bwreduce.cli import PROBLEMS, main
from bwreduce.core import DyadicInterval
from bwreduce.edges import EDGES
from bwreduce.instances import MAX_PROVENANCE_DEPTH, parse_instance, serialize_instance
from bwreduce.reductions import bw_to_swkl, bwweak_to_stcoh, separation_to_bw


def _write(tmp_path: Path, name: str, obj) -> str:
    p = tmp_path / name
    p.write_bytes(serialize_instance(obj))
    return str(p)


@pytest.fixture
def harmonic_file(tmp_path):
    return _write(tmp_path, "harmonic.json", catalog.SEQUENCES["harmonic"])


@pytest.fixture
def alternating_file(tmp_path):
    return _write(tmp_path, "alt.json", catalog.SEQUENCES["alternating-ends"])


# --- embed -----------------------------------------------------------------------


def test_embed_to_real(capsys):
    assert main(["embed", "--direction", "to-real", "1,(0)"]) == 0
    assert capsys.readouterr().out == "2/3\n"
    assert main(["embed", "--direction", "to-real", "(1)"]) == 0
    assert capsys.readouterr().out == "1/1\n"
    assert main(["embed", "--direction", "to-real", "01,(10)"]) == 0
    assert capsys.readouterr().out == "11/36\n"


def test_embed_dist(capsys):
    assert main(["embed", "--direction", "dist", "(0)", "(1)"]) == 0
    assert capsys.readouterr().out == "cantor 1/1\nreal 1/1\n"
    assert main(["embed", "--direction", "dist", "0010,(0)", "0011,(0)"]) == 0
    assert capsys.readouterr().out == "cantor 1/8\nreal 2/81\n"


def test_embed_usage_errors(capsys):
    assert main(["embed", "--direction", "to-real", "(0)", "(1)"]) == 3
    assert "usage error" in capsys.readouterr().err
    assert main(["embed", "--direction", "dist", "(0)"]) == 3
    capsys.readouterr()
    assert main(["embed", "--direction", "to-real", "2,(0)"]) == 3
    assert "error" in capsys.readouterr().err
    assert main(["embed", "--direction", "to-real", "1,()"]) == 3
    capsys.readouterr()


def test_embed_distance_pair_is_the_documented_wedge(capsys):
    # same Cantor distance, maximally different embedded gaps: the stems
    # 0010/0011 with 0-tails lie 1/8 apart in Cantor space but only 3^-4
    # apart on the real line
    main(["embed", "--direction", "dist", "0,(0)", "1,(1)"])
    out = capsys.readouterr().out
    assert "cantor 1/1" in out and "real 1/1" in out


# --- reduce ----------------------------------------------------------------------


def test_reduce_writes_derived_tree(tmp_path, capsys):
    src = _write(tmp_path, "third.json", catalog.SEQUENCES["constant-third"])
    out = tmp_path / "tree.json"
    assert main(["reduce", "--from", "bw", "--to", "swkl", "-i", src, "-o", str(out)]) == 0
    tree = parse_instance(out.read_bytes())
    assert tree.kind == "sigma_tree"
    assert tree.member_at_stage((0,), 8)
    # byte-determinism of the reduce artifact
    again = tmp_path / "tree2.json"
    main(["reduce", "--from", "bw", "--to", "swkl", "-i", src, "-o", str(again)])
    assert again.read_bytes() == out.read_bytes()


def test_reduce_stdout_default(tmp_path, capsys):
    src = _write(tmp_path, "x.json", catalog.SEQUENCES["alternating-ends"])
    assert main(["reduce", "--from", "bwweak", "--to", "stcoh", "-i", src]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "set_family"
    assert payload["repr"]["derived_by"] == "bwweak_to_stcoh"
    assert payload["repr"]["convention"] == "corrected"


def test_reduce_unsupported_edge(tmp_path, capsys):
    src = _write(tmp_path, "x.json", catalog.SEQUENCES["harmonic"])
    assert main(["reduce", "--from", "bw", "--to", "stcoh", "-i", src]) == 4
    assert "no reduction" in capsys.readouterr().err


def test_reduce_kind_mismatch(tmp_path, capsys):
    src = _write(tmp_path, "x.json", catalog.SEQUENCES["harmonic"])
    assert main(["reduce", "--from", "swkl", "--to", "separation", "-i", src]) == 3
    assert "needs a SigmaTree" in capsys.readouterr().err


# --- solve -----------------------------------------------------------------------


def test_solve_accumulation(harmonic_file, tmp_path, capsys):
    out = tmp_path / "acc.json"
    code = main(
        ["solve", "--problem", "accumulation", "-i", harmonic_file, "-o", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == "approx 0/1\n"
    acc = parse_instance(out.read_bytes())
    assert acc.approx == 0 and not acc.exact


def test_solve_branch(tmp_path, capsys):
    src = _write(tmp_path, "full.json", catalog.TREES["full"])
    assert main(["solve", "--problem", "branch", "-i", src]) == 0
    assert capsys.readouterr().out == "00000000\n"


def test_solve_slow_and_fast_cauchy(alternating_file, capsys):
    assert main(["solve", "--problem", "slow-cauchy", "-i", alternating_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("selector 0 2 4 6")
    assert main(["solve", "--problem", "fast-cauchy", "-i", alternating_file]) == 0
    assert capsys.readouterr().out == "selector 0 2 4 6 8 10 12 14 16\n"


def test_solve_budget_exhaustion_is_exit_2_with_json(harmonic_file, capsys):
    code = main(
        [
            "solve",
            "--problem",
            "accumulation",
            "-i",
            harmonic_file,
            "--horizon",
            "4",
            "--threshold",
            "8",
            "--depth",
            "2",
        ]
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "budget"
    assert payload["kind"] == "BudgetExhaustedError"
    assert "threshold" in payload["reason"]


@pytest.mark.parametrize("name", ["harmonic", "walk-third"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "accumulation", "--horizon", "100000000"],
        ["roundtrip", "--pair", "bw-swkl", "--stage", "100000000"],
    ],
    ids=["solve", "roundtrip"],
)
def test_tree_commands_at_stage_1e8(tmp_path, capsys, name, argv):
    """The derived tree of a walk or of the harmonic sequence counts a
    level-sized window of terms, so a stage of 10^8 costs what a small one does."""
    src = _write(tmp_path, "seq.json", catalog.SEQUENCES[name])
    assert main(argv + ["-i", src]) == 0
    capsys.readouterr()


def test_solve_rejects_wrong_instance_kind(tmp_path, capsys):
    src = _write(tmp_path, "tree.json", catalog.TREES["full"])
    assert main(["solve", "--problem", "accumulation", "-i", src]) == 3
    assert "needs a RationalSequence" in capsys.readouterr().err


def test_solve_unknown_problem_is_usage_error(harmonic_file, capsys):
    assert main(["solve", "--problem", "nonsense", "-i", harmonic_file]) == 3
    assert "usage error" in capsys.readouterr().err


# --- verify ----------------------------------------------------------------------


def test_verify_pass(alternating_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main(
        [
            "solve",
            "--problem",
            "slow-cauchy",
            "-i",
            alternating_file,
            "-o",
            str(cert_path),
        ]
    )
    capsys.readouterr()
    code = main(
        ["verify", "-i", alternating_file, "--certificate", str(cert_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == "pass\n"


def test_verify_fail_prints_least_counterexample(alternating_file, tmp_path, capsys):
    bad = CauchyCertificate(Selector((0, 1)), ((1, 0),), "slow")
    cert_path = _write(tmp_path, "bad.json", bad)
    code = main(["verify", "-i", alternating_file, "--certificate", cert_path])
    assert code == 1
    assert capsys.readouterr().err == "counterexample (n=1,v=0,w=1)\n"


@pytest.mark.parametrize(
    "name, code, err",
    [
        ("constant-third", 0, ""),
        ("alternating-ends", 1, f"counterexample (n={2**70},v=0,w=1)\n"),
    ],
)
def test_verify_reads_an_absurd_rate_as_equality(tmp_path, capsys, name, code, err):
    """A rate 2^-n past every nonzero gap between the terms asks that they
    be equal, without building 2^n."""
    inst = _write(tmp_path, "inst.json", catalog.SEQUENCES[name])
    cert = _write(tmp_path, "cert.json", CauchyCertificate(Selector((0, 1)), ((2**70, 0),), "slow"))
    assert main(["verify", "-i", inst, "--certificate", cert]) == code
    assert capsys.readouterr().err == err


def test_verify_an_absurd_selector_index_is_exit_3(tmp_path, capsys):
    inst = _write(tmp_path, "walk.json", catalog.SEQUENCES["walk-third"])
    selector = Selector((2, 3, 4, 2**70))
    cert = _write(tmp_path, "cert.json", CauchyCertificate(selector, ((0, 0), (1, 1)), "fast"))
    assert main(["verify", "-i", inst, "--certificate", cert]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("row", [2, 2**70])
def test_verify_a_cohesive_witness_at_a_huge_row(tmp_path, capsys, row):
    """The binary digits of 1/6 repeat with period 2 from the third on, so
    row 2^70 of constant-third's derived family reads like row 2: one
    modular power, not a shift by 2^70."""
    fam = _write(tmp_path, "fam.json", bwweak_to_stcoh(catalog.SEQUENCES["constant-third"]))
    witness = CohesiveWitness(Selector((0, 1, 5)), ((0, 0, "in"), (row, 0, "in")))
    cert = _write(tmp_path, "w.json", witness)
    assert main(["verify", "-i", fam, "--certificate", cert]) == 0
    assert capsys.readouterr().out.endswith("pass\n")


@pytest.mark.parametrize("side, code", [("out", 0), ("in", 1)])
def test_verify_a_periodic_rows_witness_at_a_huge_row(tmp_path, capsys, side, code):
    """Row 2^70 of prefix-noise is its period row, (0, 0, 1) from j = 0,
    which holds none of 3, 9 and 2^70; only that row is read."""
    fam = _write(tmp_path, "fam.json", catalog.FAMILIES["prefix-noise"])
    witness = CohesiveWitness(Selector((3, 9, 2**70)), ((2**70, 0, side),))
    cert = _write(tmp_path, "w.json", witness)
    assert main(["verify", "-i", fam, "--certificate", cert]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.endswith("pass\n")
    else:
        assert captured.err == f"counterexample (i={2**70},j=3)\n"


_SEQUENCES = {**catalog.SEQUENCES, **catalog.PERIODIC_SEQUENCES}


@pytest.mark.parametrize("name", sorted(_SEQUENCES))
def test_verify_accepts_every_solved_accumulation_point(tmp_path, capsys, name):
    inst = _write(tmp_path, "seq.json", _SEQUENCES[name])
    cert = str(tmp_path / "acc.json")
    assert main(["solve", "--problem", "accumulation", "-i", inst, "-o", cert]) == 0
    assert main(["verify", "-i", inst, "--certificate", cert]) == 0
    assert capsys.readouterr().out.endswith("pass\n")


@pytest.mark.parametrize(
    "name, change, err",
    [
        # the last cell shifted two places leaves its parent; shifted to its
        # sibling it loses the approximant, or (walk-third, whose approximant
        # is the shared endpoint 85/256) the terms
        ("harmonic", lambda a: replace(a, chain=a.chain[:-1] + (
            DyadicInterval(8, a.chain[-1].index + 2),)), "(level=8,check=chain)"),
        ("harmonic", lambda a: replace(a, chain=a.chain[:-1] + (
            DyadicInterval(8, a.chain[-1].index ^ 1),)), "(level=8,check=approx)"),
        ("walk-third", lambda a: replace(a, chain=a.chain[:-1] + (
            DyadicInterval(8, a.chain[-1].index ^ 1),)), "(level=8,check=count)"),
        # the approximant moved past the right end of its cell
        ("harmonic", lambda a: replace(a, approx=a.chain[-1].upper + Fraction(1, 512)),
         "(level=8,check=approx)"),
        ("period-three", lambda a: replace(a, approx=a.approx + Fraction(1, 256)),
         "(level=8,check=approx)"),
        # a heuristic cell claimed exact, and an exact one's approximant moved
        # inside its cell off the period values
        ("harmonic", lambda a: replace(a, exact=True), "(level=8,check=exact)"),
        ("period-three", lambda a: replace(a, approx=a.chain[-1].lower),
         "(level=8,check=exact)"),
        # the cell of 1 at level 8 holds a single harmonic term
        ("harmonic", lambda a: replace(a, chain=tuple(
            DyadicInterval(d, 2**d - 1) for d in range(1, 9)), approx=Fraction(1)),
         "(level=8,check=count)"),
        ("harmonic", lambda a: replace(a, chain=()), "(level=1,check=chain)"),
    ],
)
def test_verify_rejects_a_broken_accumulation_point(tmp_path, capsys, name, change, err):
    x = _SEQUENCES[name]
    good = solvers.find_accumulation_real(x, Budget())
    inst = _write(tmp_path, "seq.json", x)
    cert = _write(tmp_path, "acc.json", change(good))
    assert main(["verify", "-i", inst, "--certificate", cert]) == 1
    assert capsys.readouterr().err == f"counterexample {err}\n"


def test_verify_separator_files(tmp_path, capsys):
    inst = _write(tmp_path, "sep.json", catalog.SEPARATIONS["odds-vs-evens"])
    good = _write(tmp_path, "good.json", SeparatorSet(tuple(n % 2 for n in range(8))))
    assert main(["verify", "-i", inst, "--certificate", good]) == 0
    capsys.readouterr()
    flipped = _write(tmp_path, "bad.json", SeparatorSet((1,) + tuple(n % 2 for n in range(1, 8))))
    assert main(["verify", "-i", inst, "--certificate", flipped]) == 1
    assert "counterexample (n=0)" in capsys.readouterr().err


def test_verify_mismatched_kinds(tmp_path, alternating_file, capsys):
    cert = _write(tmp_path, "branch.json", SeparatorSet((0, 1)))
    assert main(["verify", "-i", alternating_file, "--certificate", cert]) == 3
    assert "does not verify against" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, cert",
    [
        (catalog.SEQUENCES["alternating-ends"],
         CauchyCertificate(Selector((0, 2, 4)), ((0, 0),), "slow")),
        (catalog.FAMILIES["stripes"], CohesiveWitness(Selector((0, 2)), ((0, 0, "in"),))),
        (catalog.TREES["branch-zero"], BranchPrefix((0, 0), 4)),
        (catalog.SEPARATIONS["odds-vs-evens"], SeparatorSet((0, 1))),
    ],
    ids=["cauchy", "cohesive", "branch", "separator"],
)
@pytest.mark.parametrize("flag", ["--depth", "--horizon", "--code-budget"])
def test_verify_rejects_a_negative_budget_flag_for_every_kind(
    tmp_path, capsys, instance, cert, flag
):
    inst = _write(tmp_path, "inst.json", instance)
    cert_path = _write(tmp_path, "cert.json", cert)
    assert main(["verify", "-i", inst, "--certificate", cert_path, flag, "-1"]) == 3
    assert capsys.readouterr().err.startswith("error: budget field ")


# --- roundtrip -------------------------------------------------------------------


def test_roundtrip_bw_swkl(tmp_path, capsys):
    src = _write(tmp_path, "third.json", catalog.SEQUENCES["constant-third"])
    assert main(["roundtrip", "--pair", "bw-swkl", "-i", src]) == 0
    out = capsys.readouterr().out
    assert "verdict    pass" in out
    assert "reduce" in out and "solve" in out and "back" in out and "verify" in out


def test_roundtrip_report_is_byte_stable(tmp_path, capsys):
    src = _write(tmp_path, "sep.json", catalog.SEPARATIONS["odds-vs-evens"])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert (
        main(["roundtrip", "--pair", "separation-bw", "-i", src, "--report", str(r1)])
        == 0
    )
    out = capsys.readouterr().out
    assert "note: stabilization bound 3" in out
    main(["roundtrip", "--pair", "separation-bw", "-i", src, "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_bytes())
    assert report["verdict"] == "pass"
    assert report["pair"] == "separation-bw"
    assert report["stages"][-1]["verifier"] == "pass"


# SHA-256 of the --report file of one catalog instance per edge, frozen so that
# a change to any report byte shows, not only a change between two reruns
_FROZEN_REPORTS = [
    ("bw-swkl", catalog.SEQUENCES, "constant-third", "corrected", 0,
     "7c9ae7763eb54ee5d640378bf4e88ad92270d3329158bc92785bdb63fbd029fe"),
    ("swkl-separation", catalog.TREES, "union-cluster", "corrected", 0,
     "4b9523b29df6e46005d9b17b83f4d5c1c599e866f502a75c3e5a3c424fe362de"),
    ("separation-bw", catalog.SEPARATIONS, "odds-vs-evens", "corrected", 0,
     "5715c376a23c913efe4ec633d621f65b496e94b9eac8812ed4efd427a5522fc8"),
    ("bwweak-stcoh", catalog.SEQUENCES, "alternating-ends", "corrected", 0,
     "557f122553638f6773f6cf6924e7fcd693db6a07e3ec65e53bf2abcc012e83cd"),
    ("bwweak-stcoh", catalog.SEQUENCES, "alternating-ends", "paper-literal", 1,
     "cc6dac8984a25cd1d3ce6f17a8a595bcff9237477932d8db9c5102861a6be514"),
    ("stcoh-bwweak", catalog.FAMILIES, "stripes", "corrected", 0,
     "7e29af450a895d82a2e58abecd59df66d7b240aa759cf6b4df5693c118d81397"),
]


@pytest.mark.parametrize(
    "pair, collection, name, convention, code, digest",
    _FROZEN_REPORTS,
    ids=[f"{row[0]}-{row[3]}" for row in _FROZEN_REPORTS],
)
def test_roundtrip_report_bytes_are_frozen(
    tmp_path, capsys, pair, collection, name, convention, code, digest
):
    src = _write(tmp_path, "src.json", collection[name])
    report = tmp_path / "report.json"
    argv = ["roundtrip", "--pair", pair, "-i", src, "--report", str(report),
            "--convention", convention]
    assert main(argv) == code
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_roundtrip_separation_bw_needs_depth_1(tmp_path, capsys):
    src = _write(tmp_path, "sep.json", catalog.SEPARATIONS["odds-vs-evens"])
    assert main(["roundtrip", "--pair", "separation-bw", "-i", src, "--depth", "0"]) == 3
    assert capsys.readouterr().err == "error: separator search needs depth >= 1\n"


def test_roundtrip_convention_changes_the_verdict(tmp_path, capsys):
    src = _write(tmp_path, "alt.json", catalog.SEQUENCES["alternating-ends"])
    assert (
        main(
            [
                "roundtrip",
                "--pair",
                "bwweak-stcoh",
                "-i",
                src,
                "--convention",
                "paper-literal",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "verdict    fail" in out
    assert "note: R_i = N for all i < 8" in out
    assert (
        main(
            [
                "roundtrip",
                "--pair",
                "bwweak-stcoh",
                "-i",
                src,
                "--convention",
                "corrected",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "verdict    pass" in out
    assert "note: R_i = N for i in {0, 2, 3, 4, 5, 6, 7}" in out


def test_roundtrip_stcoh_bwweak(tmp_path, capsys):
    src = _write(tmp_path, "fam.json", catalog.FAMILIES["stripes"])
    assert main(["roundtrip", "--pair", "stcoh-bwweak", "-i", src]) == 0
    out = capsys.readouterr().out
    assert "verdict    pass" in out
    assert "note: slow-cauchy depth 13 for 8 levels" in out


# --- error plumbing ----------------------------------------------------------------


def test_malformed_file_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{ not json")
    assert main(["solve", "--problem", "accumulation", "-i", str(bad)]) == 3
    assert "error" in capsys.readouterr().err


def test_missing_file_is_exit_3(capsys):
    assert main(["solve", "--problem", "accumulation", "-i", "/nope/missing.json"]) == 3
    capsys.readouterr()


def test_nonmonotone_stage_list_file_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "tree.json"
    bad.write_bytes(
        b'{"kind":"sigma_tree","repr":{"form":"stage_list","entries":['
        b'{"stage":3,"node":"01"},{"stage":4,"node":"1"}]}}'
    )
    assert main(["solve", "--problem", "branch", "-i", str(bad)]) == 3
    assert "absent at stage 4" in capsys.readouterr().err



@pytest.mark.parametrize(
    "b0",
    [
        {"rule": "y_eq_x_if", "cond": {"modulus": 3, "residues": 5, "test": "mod"}},
        {"rule": "y_eq_x_if", "cond": {"modulus": 3, "residues": [0, "2"], "test": "mod"}},
        {"rule": "y_eq_x_if", "cond": {"modulus": True, "residues": [0], "test": "mod"}},
        {"rule": "y_eq_x_if", "cond": {"modulus": "3", "residues": [0], "test": "mod"}},
        {"rule": "y_eq_x_if", "cond": {"bound": "4", "test": "lt"}},
        {"rule": "y_eq_x_if", "cond": {"bound": 2.5, "test": "ge"}},
        {"rule": "y_eq_x_if", "cond": {"test": "in", "values": 7}},
        {"rule": "y_eq_x_if", "cond": {"test": "not_in", "values": [True]}},
        {"rule": "y_eq_const", "value": True},
        {"rule": "y_eq_const", "value": "3"},
        {"rule": "y_eq_x_below", "bound": -1},
        {"rule": "y_eq_x_below", "bound": False},
        {"rule": "y_eq_x", "overrides": [{"x": "3", "y": 2, "n": 0, "value": True}]},
        {"rule": "y_eq_x", "overrides": [{"x": 3, "y": 2.7, "n": 0, "value": True}]},
        {"rule": "y_eq_x", "overrides": [{"x": 3, "y": 2, "n": True, "value": True}]},
        {"rule": "y_eq_x", "overrides": [{"x": 3, "y": 2, "n": 0, "value": "no"}]},
        {"rule": "y_eq_x", "overrides": [{"x": 3, "y": 2, "value": False}]},
    ],
)
def test_malformed_condition_fields_are_exit_3(tmp_path, capsys, b0):
    doc = {
        "kind": "separation",
        "meta": {},
        "repr": {
            "b0": b0,
            "b1": {"cond": {"modulus": 3, "residues": [1], "test": "mod"}, "rule": "y_eq_x_if"},
            "disjointness_promise": True,
            "form": "rules",
        },
    }
    src = tmp_path / "sep.json"
    src.write_text(json.dumps(doc))
    assert main(["roundtrip", "--pair", "separation-bw", "-i", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: $.repr.b0")
    assert "Traceback" not in err

@pytest.mark.parametrize("index", [True, -1, "0"])
@pytest.mark.parametrize(
    "pair, source",
    [
        ("bwweak-stcoh", catalog.SEQUENCES["table-spike"]),
        ("stcoh-bwweak", catalog.FAMILIES["table-two"]),
    ],
)
def test_table_index_must_be_a_natural(tmp_path, capsys, pair, source, index):
    doc = json.loads(serialize_instance(source))
    doc["repr"]["entries"][0]["index"] = index
    src = tmp_path / "table.json"
    src.write_text(json.dumps(doc))
    assert main(["roundtrip", "--pair", pair, "-i", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: $.repr.entries[0].index")
    assert "Traceback" not in err


@pytest.mark.parametrize("stage", [True, -1, "0"])
def test_stage_list_stage_must_be_a_natural(tmp_path, capsys, stage):
    doc = json.loads(serialize_instance(catalog.TREES["stage-ladder"]))
    doc["repr"]["entries"][0]["stage"] = stage
    src = tmp_path / "tree.json"
    src.write_text(json.dumps(doc))
    assert main(["solve", "--problem", "branch", "-i", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: $.repr.entries[0].stage")
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", [True, 0, "5"])
def test_derived_code_budget_must_be_a_positive_natural(tmp_path, capsys, budget):
    doc = json.loads(serialize_instance(separation_to_bw(catalog.SEPARATIONS["odds-vs-evens"])))
    doc["repr"]["code_budget"] = budget
    src = tmp_path / "hstream.json"
    src.write_text(json.dumps(doc))
    assert main(["roundtrip", "--pair", "bwweak-stcoh", "-i", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: $.repr.code_budget")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind", [["rational_sequence"], {"a": 1}, 5], ids=["list", "object", "number"]
)
def test_envelope_kind_of_the_wrong_type_is_exit_3(tmp_path, capsys, kind):
    doc = json.loads(serialize_instance(catalog.SEQUENCES["harmonic"]))
    doc["kind"] = kind
    src = tmp_path / "seq.json"
    src.write_text(json.dumps(doc))
    assert main(["reduce", "--from", "bw", "--to", "swkl", "-i", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: $.kind: unknown kind ")
    assert "Traceback" not in err
    derived = json.loads(serialize_instance(bw_to_swkl(catalog.SEQUENCES["harmonic"])))
    derived["repr"]["source"]["kind"] = kind
    src.write_text(json.dumps(derived))
    assert main(["roundtrip", "--pair", "swkl-separation", "-i", str(src)]) == 3
    assert capsys.readouterr().err.startswith("error: $.repr.source.kind: unknown kind ")


# What a mutated field may become: wrong types, bools, negatives, an absurd
# size, near-miss spellings and nesting.  Mid-sized integers stay out: a stage
# of 10^8 makes DerivedTree allocate 10^8 weights.
_MENU = (None, True, False, -1, 0, 3, 2**70, "x", "1/2", "01", [], {}, [1], 1.5)
_DELETE = object()


@functools.lru_cache(maxsize=None)
def _mutation_corpus() -> tuple[tuple[str, bytes, bytes | None], ...]:
    """(kind, file bytes, instance bytes) for every catalog instance and for
    each certificate ``solve`` writes for it; instance bytes only for a
    certificate, which is verified against them."""
    corpus = []
    collections = (catalog.SEQUENCES, catalog.PERIODIC_SEQUENCES, catalog.TREES,
                   catalog.SEPARATIONS, catalog.FAMILIES)
    for inst in (x for c in collections for x in c.values()):
        data = serialize_instance(inst)
        corpus.append((inst.kind, data, None))
        for cls, find in PROBLEMS.values():
            if isinstance(inst, cls):
                cert = find(inst, Budget(horizon=256, stage=256))  # quick to build
                corpus.append((cert.kind, serialize_instance(cert), data))
    return tuple(corpus)


def _field_paths(node, path=()):
    """Every key and index path inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_envelopes_never_escape_main(data):
    kind, raw, instance = data.draw(st.sampled_from(_mutation_corpus()))
    doc = json.loads(raw)
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    value = data.draw(st.sampled_from(_MENU + (_DELETE,)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "mutated.json"
        mutated.write_text(json.dumps(doc))
        if instance is None:
            edge = data.draw(st.sampled_from(
                [name for name, e in EDGES.items() if e.source.kind == kind]))
            src, dst = edge.split("-")
            argv = ["reduce", "--from", src, "--to", dst, "-i", str(mutated),
                    "-o", str(Path(tmp) / "out.json")]
            allowed = {0, 2, 3, 4}
        else:
            inst = Path(tmp) / "instance.json"
            inst.write_bytes(instance)
            argv = ["verify", "-i", str(inst), "--certificate", str(mutated)]
            allowed = {0, 1, 2, 3, 4}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in allowed, (argv[0], path, value, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _derived_chain(depth: int) -> str:
    """A derived file whose provenance alternates bwweak_to_stcoh and
    stcoh_to_bwweak ``depth`` times over a constant sequence, written as text
    because json.dumps itself overflows the stack on deep chains."""
    text = serialize_instance(catalog.SEQUENCES["constant-third"]).decode()
    for i in range(depth):
        kind, derived_by = (
            ("set_family", "bwweak_to_stcoh") if i % 2 == 0
            else ("rational_sequence", "stcoh_to_bwweak")
        )
        text = (
            f'{{"kind": "{kind}", "meta": {{}}, "repr": {{"form": "derived", '
            f'"derived_by": "{derived_by}", "source": {text}}}}}'
        )
    return text


_CAPPED_AT = "$.repr" + ".source.repr" * MAX_PROVENANCE_DEPTH + ".source"


@pytest.mark.parametrize(
    "depth, location",
    [
        (MAX_PROVENANCE_DEPTH, None),
        (MAX_PROVENANCE_DEPTH + 1, _CAPPED_AT),
        (340, _CAPPED_AT),
        (600, "$"),  # deeper than the JSON decoder's stack
    ],
    ids=["at-cap", "past-cap", "340", "600"],
)
def test_provenance_depth_is_capped(tmp_path, capsys, depth, location):
    src = tmp_path / "chain.json"
    src.write_text(_derived_chain(depth))
    src_kind, dst_kind = ("stcoh", "bwweak") if depth % 2 else ("bw", "swkl")
    out = str(tmp_path / "out.json")
    code = main(["reduce", "--from", src_kind, "--to", dst_kind, "-i", str(src), "-o", out])
    err = capsys.readouterr().err
    if location is None:
        assert code == 0
    else:
        assert code == 3
        assert err.startswith(f"error: {location}: ")


def test_main_leaves_no_cyclic_garbage(capsys):
    ops = (
        ["embed", "--direction", "to-real", "01,(10)"],
        ["embed", "--direction", "sideways", "(0)"],  # a usage error
    )
    for argv in ops:  # warm up: first calls fill caches and import lazily
        main(argv)
    gc.collect()
    gc.disable()
    try:
        for argv in ops:
            for _ in range(3):
                main(argv)
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
    assert "usage error" in capsys.readouterr().err


def _load_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_roundtrips.py"
    spec = importlib.util.spec_from_file_location("run_roundtrips", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_covers_every_edge(monkeypatch, capsys):
    sweep = _load_sweep()
    assert set(sweep.PAIR_CATALOGS) == set(EDGES)
    monkeypatch.delitem(sweep.PAIR_CATALOGS, "separation-bw")
    assert sweep.main([]) != 0
    assert "no catalog for edge separation-bw" in capsys.readouterr().err


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "bwreduce", "embed", "--direction", "to-real", "1,(0)"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "2/3\n"
