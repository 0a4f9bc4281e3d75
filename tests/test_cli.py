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
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwreduce import catalog, cli, reductions, solvers
from bwreduce.certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from bwreduce.cli import PROBLEMS, main
from bwreduce.core import MAX_WINDOW, CantorPoint, DyadicInterval
from bwreduce.edges import EDGES
from bwreduce.instances import (
    MAX_PROVENANCE_DEPTH,
    ConstantSequence,
    PeriodicRowsFamily,
    RulePredicate,
    SeparationInstance,
    TableRowsFamily,
    TableSequence,
    parse_instance,
    serialize_instance,
)
from bwreduce.reductions import (
    MAX_SEPARATOR_DEPTH,
    bw_to_swkl,
    bwweak_to_stcoh,
    separation_to_bw,
)


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


def test_embed_dist_of_long_coprime_periods(capsys):
    """Two all-zero points written with periods 9973 and 9967: their tails
    agree for 9973 + 9967 - 1 bits, so they are equal, found without
    scanning the lcm of about 10^8 bits."""
    zeros = ["(" + "0" * p + ")" for p in (9973, 9967)]
    assert main(["embed", "--direction", "dist", *zeros]) == 0
    assert capsys.readouterr().out == "cantor 0/1\nreal 0/1\n"


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


WALK_THIRD = str(Path(__file__).parent / "data" / "walk_third.json")


def test_walk_third_file_is_the_catalog_sequence():
    assert Path(WALK_THIRD).read_bytes() == serialize_instance(catalog.SEQUENCES["walk-third"])


def test_mixed_table_file_is_the_catalog_family():
    path = Path(__file__).parent / "data" / "mixed_table.json"
    assert path.read_bytes() == serialize_instance(catalog.FAMILIES["mixed-table"])


def test_solve_accumulation_past_the_recursion_limit(capsys):
    """An 1100-level chain, a depth past the interpreter's recursion limit,
    names the cell of walk-third's limit 1/3, whatever the horizon and
    threshold: its approximant is that cell's left end."""
    argv = ["solve", "--problem", "accumulation", "-i", WALK_THIRD,
            "--depth", "1100", "--horizon", "4", "--threshold", "2"]
    assert main(argv) == 0
    cell = Fraction(2**1100 // 3, 2**1100)
    assert capsys.readouterr().out == f"approx {cell.numerator}/{cell.denominator}\n"


WALK_501 = str(Path(__file__).parent / "data" / "walk_501.json")
WALK_501_CELL_127 = str(Path(__file__).parent / "data" / "walk_501_cell_127.json")


def test_walk_501_files_are_the_walk_and_its_cell_below_the_limit():
    """The certificate names [127/256, 1/2], which holds only the terms
    equal to 1/2 (j = 1 to 9), below the limit 501/1000.  A count of eight
    early terms passed it."""
    assert parse_instance(Path(WALK_501).read_bytes()).value == Fraction(501, 1000)
    cert = parse_instance(Path(WALK_501_CELL_127).read_bytes())
    assert cert.chain == tuple(DyadicInterval(d, 2 ** (d - 1) - 1) for d in range(1, 9))
    assert (cert.approx, cert.exact) == (Fraction(127, 256), False)


def test_accumulation_cells_below_the_limit_fail_the_window_check(tmp_path, capsys):
    """Walk 501/1000 certifies cell 128 at level 8, the cell of its limit,
    and the cell 127 below it fails; so does harmonic cell 1 of level 12,
    whose terms past 2^12 all lie in cell 0."""
    cert = str(tmp_path / "acc.json")
    assert main(["solve", "--problem", "accumulation", "-i", WALK_501, "-o", cert]) == 0
    assert capsys.readouterr().out == "approx 1/2\n"
    assert parse_instance(Path(cert).read_bytes()).chain[-1] == DyadicInterval(8, 128)
    assert main(["verify", "-i", WALK_501, "--certificate", WALK_501_CELL_127]) == 1
    assert capsys.readouterr().err == "counterexample (level=8,check=window)\n"
    harmonic = _write(tmp_path, "harmonic.json", catalog.SEQUENCES["harmonic"])
    assert main(["solve", "--problem", "accumulation", "-i", harmonic, "--depth", "12"]) == 0
    assert capsys.readouterr().out == "approx 0/1\n"
    below = AccumulationResult(
        tuple(DyadicInterval(d, 1 >> (12 - d)) for d in range(1, 13)), Fraction(1, 4096), False
    )
    bad = _write(tmp_path, "below.json", below)
    assert main(["verify", "-i", harmonic, "--certificate", bad, "--depth", "12"]) == 1
    assert capsys.readouterr().err == "counterexample (level=12,check=window)\n"


def test_accumulation_on_a_source_with_no_cell_window_is_refused(tmp_path, capsys):
    """walk-third's family read back as columns has no cell window, so no
    finite prefix shows a cell to hold infinitely many terms: the finder
    and the verifier of a non-exact chain both exit 4, at once."""
    family, columns = str(tmp_path / "family.json"), str(tmp_path / "columns.json")
    assert main(["reduce", "--from", "bwweak", "--to", "stcoh", "-i", WALK_THIRD, "-o", family]) == 0
    assert main(["reduce", "--from", "stcoh", "--to", "bwweak", "-i", family, "-o", columns]) == 0
    capsys.readouterr()
    assert main(["solve", "--problem", "accumulation", "-i", columns]) == 4
    assert capsys.readouterr().err == "error: the sequence has no cell window at level 8\n"
    cert = _write(tmp_path, "acc.json", AccumulationResult(
        tuple(DyadicInterval(d, 0) for d in range(1, 9)), Fraction(0), False))
    assert main(["verify", "-i", columns, "--certificate", cert]) == 4
    assert capsys.readouterr().err == "error: the sequence has no cell window at level 8\n"


HARMONIC_FAMILY = str(Path(__file__).parent / "data" / "harmonic_family.json")
HARMONIC_COHESIVE_14 = str(Path(__file__).parent / "data" / "harmonic_cohesive_14.json")


def test_harmonic_files_are_the_family_and_its_count_witness():
    """The committed witness is the one that the count below the horizon
    gave at depth 14: 2048 ... 4095, rows 0-12 in and row 13 out."""
    family = parse_instance(Path(HARMONIC_FAMILY).read_bytes())
    assert family.to_repr() == bwweak_to_stcoh(catalog.SEQUENCES["harmonic"]).to_repr()
    witness = parse_instance(Path(HARMONIC_COHESIVE_14).read_bytes())
    assert witness.selector.values == tuple(range(2048, 4096))
    assert witness.settle == tuple((i, 0, "out" if i == 13 else "in") for i in range(14))


def test_a_cohesive_witness_of_a_pattern_that_does_not_recur_fails(capsys):
    """1/(j+1) for j in 2048 ... 4095 is out of row 13, but every column from
    the one window slot 2^13 on is in it: no later column holds the settled
    pattern, so the window check names slot 8192 at row 13."""
    assert main(["verify", "-i", HARMONIC_FAMILY, "--certificate", HARMONIC_COHESIVE_14]) == 1
    assert capsys.readouterr().err == "counterexample (i=13,j=8192)\n"


def test_slow_cauchy_on_harmonic_needs_its_window_below_the_horizon(tmp_path, capsys):
    """At depth 12 the members over 14 rows start at 2^12: none lies below
    the default horizon, exit 2, and at horizon 20000 the selector is
    4096 ... 19999, which verifies."""
    src = _write(tmp_path, "harmonic.json", catalog.SEQUENCES["harmonic"])
    assert main(["solve", "--problem", "slow-cauchy", "--depth", "12", "-i", src]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "HorizonTooSmallError"
    cert = str(tmp_path / "slow.json")
    argv = ["--depth", "12", "--horizon", "20000", "-i", src]
    assert main(["solve", "--problem", "slow-cauchy", "-o", cert] + argv) == 0
    assert capsys.readouterr().out == "selector " + " ".join(map(str, range(4096, 20000))) + "\n"
    assert main(["verify", "--certificate", cert] + argv) == 0
    assert capsys.readouterr().out == "pass\n"


def test_cohesion_on_a_family_with_no_window_is_refused(tmp_path, capsys):
    """walk-third's family read back as columns has no cell window, so its
    derived family has none either: the cohesion finder, the round trip and
    the verifier exit 4, at once."""
    family, columns = str(tmp_path / "family.json"), str(tmp_path / "columns.json")
    assert main(["reduce", "--from", "bwweak", "--to", "stcoh", "-i", WALK_THIRD, "-o", family]) == 0
    assert main(["reduce", "--from", "stcoh", "--to", "bwweak", "-i", family, "-o", columns]) == 0
    again = str(tmp_path / "again.json")
    assert main(["reduce", "--from", "bwweak", "--to", "stcoh", "-i", columns, "-o", again]) == 0
    capsys.readouterr()
    refused = "error: the family has no window over rows < 10\n"
    assert main(["solve", "--problem", "slow-cauchy", "-i", columns]) == 4
    assert capsys.readouterr().err == refused
    assert main(["roundtrip", "--pair", "bwweak-stcoh", "-i", columns]) == 4
    assert capsys.readouterr().err == refused
    witness = _write(tmp_path, "w.json", CohesiveWitness(Selector((0,)), ((0, 0, "in"),)))
    assert main(["verify", "-i", again, "--certificate", witness]) == 4
    assert capsys.readouterr().err == "error: the family has no window over the settled rows\n"


@pytest.mark.parametrize("name", ["harmonic", "walk-third"])
def test_verify_a_cohesive_witness_past_the_row_limit(tmp_path, capsys, name):
    """A source with no period has its window at row 2^70 only from a cell
    window of level 2^70, which for the harmonic sequence starts at 2^(2^70):
    the level is refused before any window is built, exit 2."""
    fam = bwweak_to_stcoh(catalog.SEQUENCES[name])
    src = _write(tmp_path, "fam.json", fam)
    side = "in" if fam.member(2**70, 5) else "out"
    cert = _write(tmp_path, "w.json", CohesiveWitness(Selector((5,)), ((2**70, 0, side),)))
    assert main(["verify", "-i", src, "--certificate", cert]) == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {
        "error": "budget",
        "kind": "BudgetExceededError",
        "reason": f"the cell window of level {2**70} may start past 4300 digits; "
        f"the limit is level {solvers.MAX_ACCUMULATION_DEPTH}",
    }


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


_DENSE_ROWS = {
    "kind": "set_family",
    "repr": {"form": "periodic_rows", "row_period": [{"prefix": "", "period": "1"}]},
}


@pytest.mark.parametrize("horizon", [4096, 0])
@pytest.mark.parametrize("write", [False, True])
def test_solve_prints_and_writes_the_selector_once_rendered(tmp_path, capsys, horizon, write):
    """The summary line and the ``-o`` certificate come from one decimal
    rendering of a selector that holds every index below the horizon: the
    line is the values joined by spaces, the file is ``json.dumps``'s bytes.
    A horizon of 0 holds no member: exit 2, with nothing printed or
    written."""
    src = tmp_path / "dense.json"
    src.write_text(json.dumps(_DENSE_ROWS))
    cert = tmp_path / "cert.json"
    argv = ["solve", "--problem", "cohesive", "-i", str(src), "--horizon", str(horizon)]
    if horizon == 0:
        assert main(argv + ["-o", str(cert)] * write) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not cert.exists()
        assert json.loads(captured.err)["kind"] == "HorizonTooSmallError"
        return
    assert main(argv + ["-o", str(cert)] * write) == 0
    values = list(range(horizon))
    assert capsys.readouterr().out == "selector " + " ".join(map(str, values)) + "\n"
    if write:
        want = PROBLEMS["cohesive"][1](parse_instance(src.read_bytes()), Budget(horizon=horizon))
        assert list(want.selector.values) == values
        envelope = {"kind": want.kind, "meta": {}, "repr": want.to_repr()}
        assert cert.read_text() == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    else:
        assert not cert.exists()


def test_solve_budget_exhaustion_is_exit_2_with_json(tmp_path, capsys):
    """stage-ladder has only the node 0000 by stage 1, so no member reaches
    depth 8: the branch search is exhausted, exit 2 with its JSON reason."""
    src = _write(tmp_path, "ladder.json", catalog.TREES["stage-ladder"])
    assert main(["solve", "--problem", "branch", "-i", src, "--stage", "1"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload == {
        "error": "budget",
        "kind": "BudgetExhaustedError",
        "reason": "no member reaches depth 8 by stage 1",
    }


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
    """The derived tree of a walk counts a level-sized window of terms, and
    that of the harmonic sequence counts each cell off its run of indices, so
    a stage of 10^8 costs what a small one does."""
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
        # is the shared endpoint 85/256) the window term 341/1024
        ("harmonic", lambda a: replace(a, chain=a.chain[:-1] + (
            DyadicInterval(8, a.chain[-1].index + 2),)), "(level=8,check=chain)"),
        ("harmonic", lambda a: replace(a, chain=a.chain[:-1] + (
            DyadicInterval(8, a.chain[-1].index ^ 1),)), "(level=8,check=approx)"),
        ("walk-third", lambda a: replace(a, chain=a.chain[:-1] + (
            DyadicInterval(8, a.chain[-1].index ^ 1),)), "(level=8,check=window)"),
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
        # the cell of 1 at level 8 holds a single harmonic term, and not
        # the window term 1/257
        ("harmonic", lambda a: replace(a, chain=tuple(
            DyadicInterval(d, 2**d - 1) for d in range(1, 9)), approx=Fraction(1)),
         "(level=8,check=window)"),
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
     "4c084d1808055926588d81d3b229bb52918c0506ac5047a93e1a1c8f2ef7629d"),
    ("bwweak-stcoh", catalog.SEQUENCES, "alternating-ends", "paper-literal", 1,
     "4e6f57ff9cab3a41b175eeb87e6787ec63585d3204f3962177aca08b32f2c7d5"),
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


LATE_MILLION = str(Path(__file__).parent / "data" / "late_million.json")


@pytest.mark.parametrize("budget, code", [(810005, 2), (810009, 0)])
def test_roundtrip_separation_bw_budget_covers_the_finder_window(capsys, budget, code):
    """k* = 810001 at n = 5.  The separator is h at k*, and the
    stabilization check reads h again at k* + 8 = 810009, so 810009 is the
    least code budget that passes; a smaller one exits 2 with a reason that
    names k*, the window and the budget."""
    argv = ["roundtrip", "--pair", "separation-bw", "-i", LATE_MILLION,
            "--code-budget", str(budget)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        payload = json.loads(captured.err)
        assert payload["kind"] == "BudgetExceededError"
        assert payload["reason"] == (
            "stabilization bound 810001 plus finder window 8 exceeds code budget 810005"
        )
    else:
        assert "verdict    pass" in captured.out


LONG_DIGIT_PERIOD = str(Path(__file__).parent / "data" / "long_digit_period.json")


def test_long_digit_period_file_is_the_derived_constant():
    x = parse_instance(b'{"kind":"rational_sequence","repr":{"form":"constant",'
                       b'"value":"1/1000000000000000009"}}')
    assert Path(LONG_DIGIT_PERIOD).read_bytes() == serialize_instance(
        reductions.bwweak_to_stcoh(x, "corrected")
    )


def test_roundtrip_on_a_long_digit_period_is_a_budget_exit(capsys):
    """The column's binary digits of 1/(10^18 + 9) repeat only after the
    multiplicative order of 2, far past the walk's limit: exit 2, not an
    unbounded walk."""
    assert main(["roundtrip", "--pair", "stcoh-bwweak", "-i", LONG_DIGIT_PERIOD]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["kind"] == "BudgetExceededError"
    assert "within 65536 steps" in payload["reason"]


FAR_ROWS = str(Path(__file__).parent / "data" / "far_rows.json")


def test_far_rows_file_is_mixed_table_with_a_row_moved_far():
    family = catalog.FAMILIES["mixed-table"]
    far = TableRowsFamily({0: family.entries[0], 10**12: family.entries[3]}, family.period[0])
    assert Path(FAR_ROWS).read_bytes() == serialize_instance(far)


def test_roundtrip_on_a_far_listed_row_is_a_budget_exit(capsys):
    """A column of a table with a row listed at 10^12 has 10^12 + 1 prefix
    bits, past the digit walk's limit: exit 2, not an unbounded build."""
    assert main(["roundtrip", "--pair", "stcoh-bwweak", "-i", FAR_ROWS]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["kind"] == "BudgetExceededError"
    assert payload["reason"] == (
        "a column of a table with a row listed at 1000000000000 has "
        "1000000000001 prefix bits, past the limit of 65536"
    )


FAR_ENTRY = str(Path(__file__).parent / "data" / "table_far_entry.json")


def test_roundtrip_on_a_far_table_entry_reads_the_listed_columns(capsys):
    """The window of a table listed at 10^12 spans 10^12 + 1 columns, but
    an unlisted index holds the period term, so the ``R_i = N`` note reads
    the one listed column and the period column and the round trip passes."""
    assert main(["roundtrip", "--pair", "bwweak-stcoh", "-i", FAR_ENTRY]) == 0
    out = capsys.readouterr().out
    assert "verdict    pass" in out
    assert "note: R_i = N for i in {0, 2, 4, 6}" in out


def test_branch_round_trip_past_a_far_table_entry_weighs_the_listed_terms(capsys):
    """At stage 2·10^12 the derived tree of a table listed at 10^12 weighs
    10^12 + 1 indices below the window, but an unlisted index holds the
    default, so only the listed term and the default are evaluated."""
    args = ["roundtrip", "--pair", "bw-swkl", "-i", FAR_ENTRY, "--stage", str(2 * 10**12)]
    assert main(args) == 0
    assert "verdict    pass" in capsys.readouterr().out


def test_accumulation_past_a_far_table_entry_weighs_the_listed_terms(capsys):
    """The exact accumulation cell of the same table at a horizon of 2·10^12
    is counted on the listed term and the default alone."""
    args = ["solve", "--problem", "accumulation", "-i", FAR_ENTRY, "--horizon", str(2 * 10**12)]
    assert main(args) == 0
    assert capsys.readouterr().out == "approx 1/3\n"


PRIME_PERIODS = str(Path(__file__).parent / "data" / "prime_periods.json")
_PRIMES = [p for p in range(2, 72) if all(p % d for d in range(2, p))]


def test_prime_periods_file_is_one_row_per_prime_to_71():
    rows = [CantorPoint.periodic((), (1,) + (0,) * (p - 1)) for p in _PRIMES]
    assert len(rows) == 20
    assert Path(PRIME_PERIODS).read_bytes() == serialize_instance(PeriodicRowsFamily([], rows))


def _prime_columns(tmp_path) -> str:
    out = str(tmp_path / "columns.json")
    assert main(["reduce", "--from", "stcoh", "--to", "bwweak", "-i", PRIME_PERIODS, "-o", out]) == 0
    return out


def _window_refused(captured, q: int) -> None:
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "budget",
        "kind": "BudgetExceededError",
        "reason": f"a window of {q} period slots is past the limit of {MAX_WINDOW}",
    }


@pytest.mark.parametrize(
    "on_columns, argv, primes",
    [
        (False, ["solve", "--problem", "cohesive"], 8),
        (False, ["roundtrip", "--pair", "stcoh-bwweak"], 20),
        (True, ["solve", "--problem", "accumulation"], 20),
        (True, ["solve", "--problem", "slow-cauchy"], 20),
        (True, ["roundtrip", "--pair", "bwweak-stcoh"], 20),
    ],
)
def test_a_whole_window_past_the_limit_is_a_budget_exit(tmp_path, capsys, on_columns, argv, primes):
    """The rows of the prime periods 2 to 71 repeat jointly only after the
    product of their periods: 9,699,690 slots over the depth-8 rows, about
    5.6·10^26 over the columns.  A reader of every slot is refused before
    it reads one, at the default budget."""
    src = _prime_columns(tmp_path) if on_columns else PRIME_PERIODS
    capsys.readouterr()
    assert main([*argv, "-i", src]) == 2
    _window_refused(capsys.readouterr(), prod(_PRIMES[:primes]))


def test_an_exact_certificate_past_the_window_limit_is_a_budget_exit(tmp_path, capsys):
    """An exact accumulation value must be a period term: the verifier would
    read every slot of the columns' window to look for it."""
    src = _prime_columns(tmp_path)
    cert = _write(tmp_path, "exact.json", AccumulationResult((DyadicInterval(1, 0),), Fraction(0), True))
    capsys.readouterr()
    assert main(["verify", "-i", src, "--certificate", cert]) == 2
    _window_refused(capsys.readouterr(), prod(_PRIMES))


def test_a_window_below_the_limit_is_read_whole(tmp_path, capsys):
    """Over the first four rows the window is 2·3·5·7 = 210 slots: the
    selector is every multiple of 210 below the horizon, in all four rows,
    and it verifies.  The tree of the columns reads no whole window (its
    reads stop at the stage), so its round trip passes too."""
    cert = str(tmp_path / "cohesive.json")
    assert main(["solve", "--problem", "cohesive", "-i", PRIME_PERIODS, "--depth", "4", "-o", cert]) == 0
    want = range(0, Budget().horizon, 210)
    assert capsys.readouterr().out == "selector " + " ".join(map(str, want)) + "\n"
    assert main(["verify", "-i", PRIME_PERIODS, "--certificate", cert, "--depth", "4"]) == 0
    assert capsys.readouterr().out == "pass\n"
    assert main(["roundtrip", "--pair", "bw-swkl", "-i", _prime_columns(tmp_path)]) == 0


_H_STREAM_ERRORS = {
    "roundtrip": "term 0 of h-stream is rule-backed",
    "solve": "the sequence has no cell window at level 8",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["roundtrip", "--pair", "bw-swkl", "--stage"],
        ["solve", "--problem", "accumulation", "--horizon"],
    ],
)
@pytest.mark.parametrize("far", [100, 10**22])
def test_far_stage_on_an_h_stream_reads_term_0_first(tmp_path, capsys, argv, far):
    """The h-stream has no window, so the tree reads it as the one window
    (0, stage + 1); term 0 is read, and is rule-backed, before any weight
    list is sized, at any stage.  The accumulation finder reads no term: a
    source with no cell window is refused, at any horizon."""
    src = tmp_path / "separation.json"
    src.write_bytes(serialize_instance(catalog.SEPARATIONS["odds-vs-evens"]))
    hstream = str(tmp_path / "hstream.json")
    assert main(["reduce", "--from", "separation", "--to", "bw", "-i", str(src), "-o", hstream]) == 0
    capsys.readouterr()
    assert main([*argv, str(far), "-i", hstream]) == 4
    assert capsys.readouterr().err == f"error: {_H_STREAM_ERRORS[argv[0]]}\n"


FAR_LOW = str(Path(__file__).parent / "data" / "table_far_low.json")


def test_far_low_file_is_nine_tenths_with_low_entries_at_10_12():
    x = TableSequence({10**12 + i: Fraction(1, 10) for i in range(9)}, Fraction(9, 10))
    assert Path(FAR_LOW).read_bytes() == serialize_instance(x)


def test_branch_round_trip_picks_far_low_entries_off_the_listed_indices(capsys):
    """The leftmost branch runs through the cells of 1/10, whose terms sit
    at 10^12 and on; each pick of the back map is read off the listed
    indices, not found by a scan from index 0."""
    args = ["roundtrip", "--pair", "bw-swkl", "-i", FAR_LOW, "--stage", str(2 * 10**12)]
    assert main(args) == 0
    assert "verdict    pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--depth", "60", "--stage", str(2**61)],
        ["--stage", str(10**22)],
    ],
    ids=["depth-60", "stage-1e22"],
)
def test_harmonic_branch_round_trip_at_a_far_stage(harmonic_file, capsys, argv):
    """The harmonic tree counts each cell off its run of indices, and the
    back map picks each index off that run, so neither a 2^60-term window
    nor a run longer than an index can hold stops the round trip."""
    assert main(["roundtrip", "--pair", "bw-swkl", "-i", harmonic_file] + argv) == 0
    assert "verdict    pass" in capsys.readouterr().out


def test_harmonic_accumulation_at_a_far_horizon_verifies(harmonic_file, tmp_path, capsys):
    """At depth 22 and horizon 10^8 the descent and the verifier's count
    both read the harmonic cells' runs of indices."""
    cert = str(tmp_path / "acc.json")
    budget = ["--depth", "22", "--horizon", str(10**8)]
    solve = ["solve", "--problem", "accumulation", "-i", harmonic_file, "-o", cert]
    assert main(solve + budget) == 0
    assert main(["verify", "-i", harmonic_file, "--certificate", cert] + budget) == 0
    assert capsys.readouterr().out.endswith("pass\n")


def test_roundtrip_separation_bw_needs_depth_1(tmp_path, capsys):
    src = _write(tmp_path, "sep.json", catalog.SEPARATIONS["odds-vs-evens"])
    assert main(["roundtrip", "--pair", "separation-bw", "-i", src, "--depth", "0"]) == 3
    assert capsys.readouterr().err == "error: separator search needs depth >= 1\n"


WIDE_BOUND = str(Path(__file__).parent / "data" / "wide_bound.json")


def test_wide_bound_file_is_the_bound_3000_pair():
    assert Path(WIDE_BOUND).read_bytes() == serialize_instance(
        SeparationInstance(RulePredicate("y_eq_x_below", bound=3000), RulePredicate("y_eq_x"))
    )


@pytest.mark.parametrize(
    "pair",
    [
        (RulePredicate("y_eq_x_below", bound=100), RulePredicate("y_eq_x")),
        None,  # the bound-3000 pair of WIDE_BOUND
        (RulePredicate("y_eq_const", value=3 * 10**7), RulePredicate("y_eq_x_below", bound=2)),
    ],
    ids=["bound-100", "bound-3000", "value-3e7"],
)
def test_stabilization_code_past_the_budget_is_exit_2(tmp_path, capsys, pair):
    """Each k* here is a code of 12,703 to 23 million digits.  The
    least-witness prefix stops at the code budget, so the round trip exits 2
    at once, without writing that code down."""
    src = WIDE_BOUND if pair is None else _write(tmp_path, "sep.json", SeparationInstance(*pair))
    assert main(["roundtrip", "--pair", "separation-bw", "-i", src]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["kind"] == "BudgetExceededError"
    assert payload["reason"] == "stabilization bound exceeds code budget 1000000"


FREE_BIT = str(Path(__file__).parent / "data" / "free_bit.json")


@pytest.mark.parametrize(
    "flags, err",
    [
        (["--code-budget", "0"], "--code-budget: code_budget must be a positive integer"),
        (["--code-budget", "-3"], "budget field code_budget must be a natural"),
        (["--depth", "-1"], "budget field depth must be a natural"),
    ],
    ids=["code-budget-0", "code-budget-negative", "depth-negative"],
)
def test_reduce_checks_its_budget_flags_and_writes_nothing(tmp_path, capsys, flags, err):
    """A code budget below 1 would be written into a file that no command
    reads back, so reduce refuses it as every other command refuses a
    negative budget flag."""
    out = tmp_path / "hstream.json"
    argv = ["reduce", "--from", "separation", "--to", "bw", "-i", FREE_BIT, "-o", str(out)]
    assert main(argv + flags) == 3
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


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


class _ClosedStdout(io.StringIO):
    """A standard output whose reader has gone away: each ``write`` fails at
    once, or the text is buffered and the first ``flush`` fails."""

    def __init__(self, fails: str):
        super().__init__()
        self.fails = fails

    def write(self, s: str) -> int:
        if self.fails == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)

    def flush(self) -> None:
        if self.fails == "flush":
            self.fails = ""
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fails", ["write", "flush"])
def test_closed_stdout_is_exit_5(tmp_path, monkeypatch, capsys, fails):
    src = _write(tmp_path, "tree.json", catalog.TREES["union-cluster"])
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(fails))
    assert main(["roundtrip", "--pair", "swkl-separation", "-i", src]) == 5
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == "error: standard output closed\n"


def test_report_write_error_stays_exit_3(tmp_path, monkeypatch, capsys):
    src = _write(tmp_path, "tree.json", catalog.TREES["union-cluster"])
    monkeypatch.setattr(sys, "stdout", _ClosedStdout("write"))
    argv = ["roundtrip", "--pair", "swkl-separation", "-i", src, "--report", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21]") and err.count("\n") == 1


@pytest.mark.parametrize(
    "limit, depth, code", [(5, 5, 0), (5, 6, 2), (MAX_SEPARATOR_DEPTH, 40, 2)]
)
def test_roundtrip_separator_depth_is_bounded(tmp_path, monkeypatch, capsys, limit, depth, code):
    """The separator keeps 2^depth - 1 bits; a depth past the limit is an
    exceeded budget, refused before anything is allocated.  A lowered limit
    pins the boundary without allocating the largest allowed separator."""
    monkeypatch.setattr(reductions, "MAX_SEPARATOR_DEPTH", limit)
    src = _write(tmp_path, "tree.json", catalog.TREES["union-cluster"])
    argv = ["roundtrip", "--pair", "swkl-separation", "-i", src, "--depth", str(depth)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert json.loads(captured.err) == {
            "error": "budget",
            "kind": "BudgetExceededError",
            "reason": f"separator of depth {depth} needs 2^{depth} - 1 bits; "
            f"the limit is depth {limit}",
        }
    else:
        assert "verdict    pass" in captured.out


def test_accumulation_depth_is_bounded(tmp_path, capsys):
    """A chain one level past the limit is an exceeded budget, refused
    before any search and before ``approx`` is printed: its last cell's
    index could not be written under the default 4,300-digit limit."""
    src = _write(tmp_path, "third.json", ConstantSequence(Fraction(1, 3)))
    depth = solvers.MAX_ACCUMULATION_DEPTH + 1
    argv = ["solve", "--problem", "accumulation", "-i", src, "--depth", str(depth),
            "-o", str(tmp_path / "deep.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "budget",
        "kind": "BudgetExceededError",
        "reason": f"accumulation chain of depth {depth} has cell indices past 4300 "
        f"digits; the limit is depth {solvers.MAX_ACCUMULATION_DEPTH}",
    }
    assert not (tmp_path / "deep.json").exists()


def test_accumulation_depth_limit_is_the_last_writable_depth():
    """The largest index of a chain at the limit, 2^depth - 1, is written
    and read back under the default digit limit; one level deeper it is
    not."""
    widest = (1 << solvers.MAX_ACCUMULATION_DEPTH) - 1
    assert int(str(widest)) == widest
    with pytest.raises(ValueError, match="4300"):
        str(2 * widest + 1)


def test_an_internal_fault_is_exit_6_with_json(monkeypatch, capsys):
    def broken(point):
        raise RuntimeError("an internal fault")

    monkeypatch.setattr(cli, "embed_point_exact", broken)
    assert main(["embed", "--direction", "to-real", "1,(0)"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "internal", "kind": "RuntimeError", "reason": "an internal fault",
    }



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


def _point(prefix: str, period: str) -> dict:
    return {"prefix": prefix, "period": period}


_BROKEN_LISTED_FORMS = {
    "constant": ({"form": "constant", "value": "2/1"}, "$.repr: constant value 2/1 outside [0, 1]"),
    "walk": ({"form": "binary_walk", "value": "5/3"}, "$.repr: walk target 5/3 outside [0, 1]"),
    "periodic-prefix": (
        {"form": "periodic", "prefix": ["5/4"], "period": ["1/2"]},
        "$.repr: term 5/4 outside [0, 1]",
    ),
    "periodic-period": (
        {"form": "periodic", "prefix": [], "period": ["1/2", "9/8"]},
        "$.repr: term 9/8 outside [0, 1]",
    ),
    "periodic-empty": (
        {"form": "periodic", "prefix": ["5/4"], "period": []},
        "$.repr: period must be non-empty",
    ),
    "alternating-a": (
        {"form": "alternating", "a": "5/2", "b": "3/2"},
        "$.repr: term 5/2 outside [0, 1]",
    ),
    "alternating-b": (
        {"form": "alternating", "a": "1/2", "b": "3/2"},
        "$.repr: term 3/2 outside [0, 1]",
    ),
    "table-entry": (
        {"form": "table", "entries": [{"index": 2, "value": "7/3"}], "default": "3/2"},
        "$.repr: term 7/3 outside [0, 1]",
    ),
    "table-default": (
        {"form": "table", "entries": [{"index": 2, "value": "1/3"}], "default": "3/2"},
        "$.repr: default term 3/2 outside [0, 1]",
    ),
    "table-index": (
        {"form": "table", "entries": [{"index": -1, "value": "1/3"}], "default": "1/2"},
        "$.repr.entries[0].index: expected a natural, got -1",
    ),
    "rows-empty": (
        {"form": "periodic_rows", "row_prefix": [_point("1", "0")], "row_period": []},
        "$.repr: row period must be non-empty",
    ),
    "rows-point": (
        {"form": "periodic_rows", "row_prefix": [], "row_period": [_point("1", "")]},
        "$.repr.row_period[0].period: period must be non-empty",
    ),
    "table-rows-index": (
        {"form": "table_rows", "entries": [{"index": -1, "row": _point("", "1")}],
         "default": _point("", "0")},
        "$.repr.entries[0].index: expected a natural, got -1",
    ),
    "table-rows-default": (
        {"form": "table_rows", "entries": [], "default": _point("0", "")},
        "$.repr.default.period: period must be non-empty",
    ),
}


@pytest.mark.parametrize("name", sorted(_BROKEN_LISTED_FORMS) + ["far-rows"])
def test_broken_listed_forms_keep_their_error_texts(tmp_path, capsys, name):
    """Each listed form checks its own values with its own words: a
    constant's value, a table's default and a walk's target are named as
    such, every other listed value as a term, and an empty period by the
    form that needs it.  A table family listed at 10^12 is an exceeded
    budget once a column is asked for."""
    if name == "far-rows":
        path, code, pair = FAR_ROWS, 2, "stcoh-bwweak"
        want = json.dumps({
            "error": "budget",
            "kind": "BudgetExceededError",
            "reason": "a column of a table with a row listed at 1000000000000 has "
            "1000000000001 prefix bits, past the limit of 65536",
        })
    else:
        rep, reason = _BROKEN_LISTED_FORMS[name]
        rows = "rows" in rep["form"]
        kind, pair = ("set_family", "stcoh-bwweak") if rows else ("rational_sequence", "bwweak-stcoh")
        path, code, want = str(tmp_path / "broken.json"), 3, f"error: {reason}"
        Path(path).write_text(json.dumps({"kind": kind, "repr": rep}))
    assert main(["roundtrip", "--pair", pair, "-i", path]) == code
    assert capsys.readouterr().err == want + "\n"


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
                # quick to build; the depth-8 harmonic witness needs columns
                # from 2^8 on, and its fast thinning nine of them
                cert = find(inst, Budget(horizon=512, stage=256))
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


SWEEP_REPORTS = Path(__file__).parent / "data" / "sweep_reports.txt"


def _sweep_rows(sweep):
    """The (pair, instance, instance object, convention) rows of the two
    sweeps that CI runs: every pair in the corrected convention, then
    ``bwweak-stcoh`` in paper-literal (criterion 7's fixture)."""
    for convention, pairs in (("corrected", sorted(EDGES)), ("paper-literal", ["bwweak-stcoh"])):
        for pair, name, obj in sweep.sweep_instances(pairs, convention):
            yield pair, name, obj, convention


def _sweep_report_lines(tmp_path):
    """One line per sweep row: pair, instance, convention, exit code and the
    first 16 hex digits of the SHA-256 of its ``--report`` file."""
    sink = io.StringIO()
    for pair, name, obj, convention in _sweep_rows(_load_sweep()):
        src = _write(tmp_path, "src.json", obj)
        report = tmp_path / "report.json"
        report.unlink(missing_ok=True)
        argv = ["roundtrip", "--pair", pair, "-i", src, "--report", str(report),
                "--convention", convention]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        digest = hashlib.sha256(report.read_bytes()).hexdigest()[:16]
        yield f"{pair} {name} {convention} {code} {digest}"


def test_every_sweep_report_is_frozen(tmp_path):
    """Every report of the sweep, corrected and paper-literal, against the
    listing in ``tests/data/sweep_reports.txt``; a mismatch names its row."""
    expected = SWEEP_REPORTS.read_text().splitlines()
    got = list(_sweep_report_lines(tmp_path))
    assert len(got) == len(expected) == 130
    for line, want in zip(got, expected):
        assert line == want


def test_every_sweep_target_records_its_source():
    """Edge steps take only the target and read the source off its
    provenance: on every sweep row, the target that ``forward`` returns
    records that very source object, and the target read back from its file
    records a source with the source's bytes."""
    for pair, name, source, convention in _sweep_rows(_load_sweep()):
        edge = EDGES[pair]
        params = {"code_budget": Budget().code_budget, "convention": convention}
        target = edge.forward(source, **{k: params[k] for k in edge.params})
        assert target.provenance.source is source, (pair, name, convention)
        read = parse_instance(serialize_instance(target))
        assert serialize_instance(read.provenance.source) == serialize_instance(source), name


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
