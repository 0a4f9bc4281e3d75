"""Fixed, versioned example instances for the test suite and scripts.

Every entry is exact and deterministic; the tests freeze expected outputs
against these definitions, so editing an existing entry is a breaking
change — add a new name instead.

Collections:

* ``SEQUENCES`` — 20 rational sequences (periodic and not) for the
  tree-building round trips.
* ``PERIODIC_SEQUENCES`` — 30 eventually periodic sequences whose distinct
  values are pairwise at least 1/64 apart, so a shared level-8 membership
  pattern pins a single value (the cohesion round trip needs that slack).
* ``TREES`` — 10 stagewise trees with decidable ground truth.
* ``SEPARATIONS`` — 10 rule-backed separation instances.  Their conditions
  cover every n on at least one side (the disjointness promise), and any n
  where both sides are total uses the same rule on both, so the h-stream
  stabilizes pointwise.
* ``FAMILIES`` — 10 eventually periodic set families.
"""

from __future__ import annotations

from fractions import Fraction as F

from .core import CantorPoint, parse_bits
from .instances import (
    AlternatingSequence,
    BinaryWalkSequence,
    BranchUnionTree,
    Cond,
    ConstantSequence,
    FullBinaryTree,
    HarmonicSequence,
    PeriodicRowsFamily,
    PeriodicSequence,
    RationalSequence,
    RulePredicate,
    SeparationInstance,
    SetFamily,
    SigmaTree,
    SingleBranchTree,
    StageListTree,
    TableRowsFamily,
    TableSequence,
)

__all__ = ["SEQUENCES", "PERIODIC_SEQUENCES", "TREES", "SEPARATIONS", "FAMILIES"]


def _pt(prefix: str, period: str) -> CantorPoint:
    return CantorPoint.periodic(parse_bits(prefix), parse_bits(period))


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

SEQUENCES: dict[str, RationalSequence] = {
    "constant-zero": ConstantSequence(F(0)),
    "constant-one": ConstantSequence(F(1)),
    "constant-third": ConstantSequence(F(1, 3)),
    "harmonic": HarmonicSequence(),
    "alternating-ends": AlternatingSequence(F(0), F(1)),
    "alternating-thirds": AlternatingSequence(F(1, 3), F(2, 3)),
    "period-three": PeriodicSequence((), (F(1, 5), F(2, 5), F(4, 5))),
    "period-with-prefix": PeriodicSequence((F(1, 2),), (F(1, 3), F(2, 3))),
    "walk-third": BinaryWalkSequence(F(1, 3)),
    "walk-sevenths": BinaryWalkSequence(F(5, 7)),
    "walk-tenth": BinaryWalkSequence(F(1, 10)),
    "walk-half": BinaryWalkSequence(F(1, 2)),
    "table-spike": TableSequence({0: F(1), 5: F(3, 4)}, F(1, 4)),
    "table-tail-third": TableSequence({0: F(9, 10), 1: F(1, 10)}, F(1, 3)),
    "two-cluster": PeriodicSequence((), (F(1, 8), F(7, 8), F(1, 8), F(3, 4))),
    "three-cluster": PeriodicSequence((F(0), F(1)), (F(1, 2), F(1, 4), F(3, 4))),
    "ninths": PeriodicSequence((), (F(1, 9), F(4, 9), F(7, 9))),
    "sixteenths": PeriodicSequence((), (F(1, 16), F(5, 16), F(9, 16), F(13, 16))),
    "mixed-prefix": PeriodicSequence((F(1), F(0), F(1, 2)), (F(5, 8), F(3, 8))),
    "half-then-quarter": PeriodicSequence((F(1, 2),), (F(1, 4),)),
}

PERIODIC_SEQUENCES: dict[str, RationalSequence] = {
    **{
        name: SEQUENCES[name]
        for name in (
            "constant-zero", "constant-one", "constant-third", "alternating-ends",
            "alternating-thirds", "period-three", "period-with-prefix", "two-cluster",
            "three-cluster", "ninths", "sixteenths", "mixed-prefix", "walk-half",
            "table-spike", "table-tail-third",
        )
    },
    "eighth-grid": PeriodicSequence((), (F(0), F(1, 4), F(1, 2), F(3, 4))),
    "fifths": PeriodicSequence((), (F(1, 5), F(2, 5), F(3, 5), F(4, 5))),
    "sevenths": PeriodicSequence((), (F(1, 7), F(3, 7), F(6, 7))),
    "elevenths": PeriodicSequence((), (F(1, 11), F(5, 11), F(9, 11))),
    "quarter-pair": PeriodicSequence((F(1, 2),), (F(1, 4),)),
    "step-down": PeriodicSequence((F(1), F(3, 4), F(1, 2)), (F(0),)),
    "close-pair": PeriodicSequence((), (F(5, 32), F(9, 32))),
    "asym": PeriodicSequence((F(2, 3),), (F(1, 6), F(5, 6))),
    "near-one": PeriodicSequence((), (F(31, 32), F(1, 2))),
    "sevenths-pair": PeriodicSequence((), (F(2, 7), F(5, 7))),
    "dyadic-mix": PeriodicSequence((), (F(3, 16), F(11, 16), F(15, 16))),
    "prefix-heavy": PeriodicSequence((F(1, 8), F(7, 8), F(3, 8)), (F(5, 8),)),
    "fib-ish": PeriodicSequence((), (F(1, 2), F(1, 3), F(1, 5))),
    "ladder": PeriodicSequence((), (F(1, 10), F(3, 10), F(7, 10), F(9, 10))),
    "extremes": PeriodicSequence((), (F(1, 64), F(63, 64))),
}


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

TREES: dict[str, SigmaTree] = {
    "full": FullBinaryTree(),
    "branch-zero": SingleBranchTree(CantorPoint.constant(0)),
    "branch-one": SingleBranchTree(CantorPoint.constant(1)),
    "branch-alt": SingleBranchTree(_pt("", "01")),
    "branch-lopsided": SingleBranchTree(_pt("110", "0")),
    "union-pair": BranchUnionTree([CantorPoint.constant(0), CantorPoint.constant(1)]),
    "union-triple": BranchUnionTree([_pt("", "01"), _pt("", "10"), CantorPoint.constant(0)]),
    "union-cluster": BranchUnionTree([_pt("000", "1"), _pt("001", "0"), _pt("1", "01")]),
    "stage-ladder": StageListTree(
        [
            (0, parse_bits("0000")),
            (2, parse_bits("0000")),
            (2, parse_bits("00001111")),
        ]
    ),
    "stage-fork": StageListTree(
        [
            (1, parse_bits("10101010")),
            (3, parse_bits("10101010")),
            (3, parse_bits("110")),
            (3, parse_bits("0110")),
        ]
    ),
}


# ---------------------------------------------------------------------------
# separation instances
# ---------------------------------------------------------------------------

def _if(cond: Cond) -> RulePredicate:
    return RulePredicate("y_eq_x_if", cond=cond)


SEPARATIONS: dict[str, SeparationInstance] = {
    # A0 = odds, A1 = evens, S = odds
    "odds-vs-evens": SeparationInstance(_if(Cond("even")), _if(Cond("odd"))),
    # both limit sets empty: any S works, the h-stream ties at 0
    "both-empty-tie": SeparationInstance(
        RulePredicate("y_eq_x"), RulePredicate("y_eq_x")
    ),
    # A0 = N, A1 = empty, S = N
    "all-in": SeparationInstance(RulePredicate("never"), RulePredicate("y_eq_x")),
    # A0 = empty, A1 = N, S = empty
    "all-out": SeparationInstance(RulePredicate("y_eq_x"), RulePredicate("never")),
    # S = {n = 1 mod 3}
    "mod-three": SeparationInstance(
        _if(Cond("mod", modulus=3, residues=(0, 2))),
        _if(Cond("mod", modulus=3, residues=(1,))),
    ),
    # S = {n >= 4}
    "threshold-four": SeparationInstance(
        _if(Cond("lt", bound=4)), _if(Cond("ge", bound=4))
    ),
    # S = {2}
    "singleton-two": SeparationInstance(
        _if(Cond("not_in", values=(2,))), _if(Cond("in", values=(2,)))
    ),
    # overrides shift the n=0 choice value from 0 to 3; S stays empty
    "override-shift": SeparationInstance(
        RulePredicate("y_eq_x", overrides=((0, 0, 0, False), (0, 3, 0, True))),
        RulePredicate("never"),
    ),
    # S = {3, 5}
    "pair-in-eight": SeparationInstance(
        _if(Cond("not_in", values=(3, 5))), _if(Cond("in", values=(3, 5)))
    ),
    # side 0 runs out of witnesses at x = 2, so the h-stream flips to 1 only
    # once side 1 exhibits a length-3 choice prefix: stabilization at 2251
    "late-cutoff": SeparationInstance(
        RulePredicate("y_eq_x_below", bound=2), RulePredicate("y_eq_x")
    ),
}


# ---------------------------------------------------------------------------
# set families
# ---------------------------------------------------------------------------

FAMILIES: dict[str, SetFamily] = {
    "stripes": PeriodicRowsFamily([], [_pt("", "01"), _pt("", "0011")]),
    "all-ones": PeriodicRowsFamily([], [_pt("", "1")]),
    "checker": PeriodicRowsFamily([], [_pt("", "10")]),
    "prefix-noise": PeriodicRowsFamily([_pt("110", "01")], [_pt("", "001")]),
    "halves": PeriodicRowsFamily([], [_pt("", "0011"), _pt("", "1100")]),
    "thirds-rows": PeriodicRowsFamily([], [_pt("", "100"), _pt("", "010"), _pt("", "001")]),
    "drift": PeriodicRowsFamily([_pt("0", "1"), _pt("00", "1")], [_pt("", "1")]),
    "table-two": TableRowsFamily({0: _pt("", "01"), 2: _pt("1", "0")}, _pt("", "1")),
    "table-sparse": TableRowsFamily({1: _pt("", "0001")}, _pt("", "10")),
    "mixed-table": TableRowsFamily({0: _pt("1010", "1"), 3: _pt("", "011")}, _pt("", "101")),
}
