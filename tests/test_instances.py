"""Tests for instance representations, evaluation, and the file format.

The JSON corpus used for round-trip checks is the full built-in catalog
(sequences, trees, separations, set families).  Derived instances are
checked for replay: parsing a derived file re-runs the construction.
"""

from __future__ import annotations

import enum
import gc
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from scan_oracle import unique_minimal
from bwreduce import catalog, instances, solvers
from bwreduce.certificates import Budget
from bwreduce.core import CantorPoint, DyadicInterval, format_rational, leftmost_descent
from bwreduce.errors import (
    BudgetExceededError,
    ExactValueUnavailableError,
    InvariantViolationError,
    MalformedSyntaxError,
    NotANodeError,
    NotGroundTruthError,
    SchemaViolationError,
    UnserializableError,
    WitnessExhaustedError,
)
from bwreduce.instances import (
    AlternatingSequence,
    BinaryWalkSequence,
    ConstantSequence,
    Cond,
    DerivedFamily,
    DerivedTree,
    EmbeddedSequence,
    FullBinaryTree,
    HarmonicSequence,
    PeriodicRowsFamily,
    PeriodicSequence,
    RationalSequence,
    RowPattern,
    RulePredicate,
    SeparationInstance,
    SetFamily,
    SigmaTree,
    SingleBranchTree,
    StageListTree,
    TableRowsFamily,
    TableSequence,
    canonical_json,
    parse_instance,
    serialize_instance,
)
from bwreduce.edges import EDGES
from bwreduce.reductions import branch_to_point, bw_to_swkl, bwweak_to_stcoh, stcoh_to_bwweak

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)

# --- sequence evaluation -----------------------------------------------------------


def test_builtin_sequence_terms():
    assert HarmonicSequence().term(0) == 1
    assert HarmonicSequence().term(3) == Fraction(1, 4)
    alt = AlternatingSequence(Fraction(0), Fraction(1))
    assert [alt.term(i) for i in range(4)] == [0, 1, 0, 1]
    assert alt.term(7) == 1
    assert ConstantSequence(Fraction(1, 3)).term(10**6) == Fraction(1, 3)


def test_periodic_sequence_terms():
    x = PeriodicSequence([Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)])
    assert [x.term(i) for i in range(5)] == [
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(2, 3),
    ]
    assert x.periodic_structure() == (1, 2)


def test_binary_walk_terms_approach_target_from_below():
    x = BinaryWalkSequence(Fraction(1, 3))
    assert [x.term(i) for i in range(5)] == [
        Fraction(0),
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(5, 16),
    ]
    assert x.periodic_structure() is None
    dyadic = BinaryWalkSequence(Fraction(1, 2))
    assert dyadic.term(0) == 0
    assert dyadic.term(3) == Fraction(1, 2)
    assert dyadic.periodic_structure() == (1, 1)


def test_table_sequence_terms():
    x = TableSequence({0: Fraction(1), 5: Fraction(3, 4)}, Fraction(1, 4))
    assert x.term(0) == 1
    assert x.term(5) == Fraction(3, 4)
    assert x.term(1) == Fraction(1, 4)
    assert x.term(100) == Fraction(1, 4)
    assert x.periodic_structure() == (6, 1)


def test_terms_must_lie_in_unit_interval():
    with pytest.raises(ValueError):
        ConstantSequence(Fraction(3, 2))
    with pytest.raises(ValueError):
        PeriodicSequence([], [Fraction(-1, 2)])
    with pytest.raises(ValueError):
        PeriodicSequence([Fraction(1, 2)], [])


def test_embedded_sequence_exact_and_approximate():
    pts = [CantorPoint.constant(0), CantorPoint.periodic((1,), (0,))]
    x = EmbeddedSequence(pts.__getitem__, label="two-points")
    assert x.term(0) == 0
    assert x.term(1) == Fraction(2, 3)

    rule_backed = EmbeddedSequence(
        lambda i: CantorPoint.from_rule(lambda n: 0, label="zeros")
    )
    with pytest.raises(ExactValueUnavailableError):
        rule_backed.term(0)
    assert rule_backed.point(0).bits(8) == (0,) * 8  # only its bits are observable
    with pytest.raises(UnserializableError):
        serialize_instance(rule_backed)


# --- trees -----------------------------------------------------------------------


def test_full_binary_tree_membership():
    t = FullBinaryTree()
    assert t.member_at_stage((), 0)
    assert t.member_at_stage((0, 1, 1, 0), 0)
    assert t.has_extension((1, 0), 7, 0)
    assert not t.has_extension((1, 0), 1, 0)


def test_single_branch_tree_membership():
    t = SingleBranchTree(CantorPoint.constant(0))
    assert t.member_at_stage((1,), 10**6) is False
    assert t.member_at_stage((0, 0, 0), 0)
    assert t.limit_heights(()) == (None, 0)


def test_derived_tree_collects_witnesses():
    # For the constant sequence at 1/3 every term sits inside [0, 1/2], so
    # the left child accumulates witnesses and is enumerated once one index
    # has been seen; depth-k nodes on the branch of 1/3 appear by stage k.
    t = bw_to_swkl(ConstantSequence(Fraction(1, 3)))
    assert t.member_at_stage((0,), 64)
    assert t.member_at_stage((0, 1), 64)
    assert not t.member_at_stage((1,), 64)


def test_derived_tree_needs_enough_witnesses():
    t = DerivedTree(ConstantSequence(Fraction(1, 3)))
    # depth 3 needs three distinct indices inside the cell
    assert not t.member_at_stage((0, 1, 0), 1)
    assert t.member_at_stage((0, 1, 0), 2)
    assert t.witness_count((0, 1, 0), 2) == 3


def test_stage_list_tree_snapshots():
    t = StageListTree([(0, (0,)), (2, (0,)), (2, (0, 1))])
    assert t.member_at_stage((0, 1), 2)
    assert not t.member_at_stage((0, 1), 1)
    assert t.member_at_stage((0,), 0)
    assert not t.member_at_stage((1,), 10)
    # downward closure: the root is a member as soon as anything is
    assert t.member_at_stage((), 0)
    assert t.has_extension((0,), 2, 2)
    assert not t.has_extension((0,), 2, 1)
    assert t.limit_heights(()) == (2, 0)


def test_stage_list_tree_rejects_shrinking_snapshots():
    with pytest.raises(ValueError) as exc:
        StageListTree([(3, (0, 1)), (4, (1,))])
    msg = str(exc.value)
    assert "stage 3" in msg and "stage 4" in msg and "01" in msg


stage_trees = st.lists(
    st.lists(st.lists(st.integers(0, 1), max_size=4).map(tuple), max_size=3),
    min_size=1,
    max_size=4,
).map(
    lambda batches: StageListTree(
        [
            (s, node)
            for s, batch in enumerate(batches)
            for earlier in batches[: s + 1]
            for node in earlier
        ]
    )
)


@given(stage_trees, st.lists(st.integers(0, 1), max_size=5).map(tuple), st.integers(0, 6))
def test_stage_membership_is_monotone(tree, bits, stage):
    if tree.member_at_stage(bits, stage):
        assert tree.member_at_stage(bits, stage + 1)
        assert tree.member_at_stage(bits, stage + 7)


@given(
    st.lists(st.integers(0, 1), max_size=5).map(tuple),
    st.integers(0, 30),
)
def test_derived_tree_membership_is_monotone(bits, stage):
    t = DerivedTree(HarmonicSequence())
    if t.member_at_stage(bits, stage):
        assert t.member_at_stage(bits, stage + 1)


boundary_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(0, 45).flatmap(
        lambda m: st.builds(Fraction, st.integers(0, 2**m), st.just(2**m))
    ),
    st.fractions(0, 1, max_denominator=10**6),
)
tree_sources = st.one_of(
    st.builds(
        PeriodicSequence,
        st.lists(boundary_fractions, max_size=4),
        st.lists(boundary_fractions, min_size=1, max_size=5),
    ),
    st.builds(
        TableSequence,
        st.dictionaries(st.integers(0, 24), boundary_fractions, max_size=5),
        boundary_fractions,
    ),
    st.builds(BinaryWalkSequence, boundary_fractions),
    st.just(HarmonicSequence()),
    st.builds(ConstantSequence, boundary_fractions),
)


# tables listed on both sides of the stages drawn below
far_tables = st.builds(
    TableSequence,
    st.dictionaries(st.integers(0, 400), boundary_fractions, min_size=1, max_size=5),
    boundary_fractions,
)


def harmonic_run_edges(level: int, a: int) -> tuple[int, ...]:
    """The first j whose harmonic term lies in the closed level cell a, and
    the first past them (none for a = 0), from the Fraction bounds of the
    cell: 1/(j+1) <= (a+1)/2^L iff j + 1 >= 2^L/(a+1), and
    1/(j+1) >= a/2^L iff j + 1 <= 2^L/a."""
    first = math.ceil(Fraction(2**level, a + 1)) - 1
    return (first, math.floor(Fraction(2**level, a))) if a else (first,)


def harmonic_edge_stages(level: int) -> st.SearchStrategy[tuple[int, int]]:
    """(a, stage) with a a level cell and the stage within two of one end
    of the cell's run of harmonic terms."""
    return st.integers(0, 2**level - 1).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.sampled_from(harmonic_run_edges(level, a)).flatmap(
                lambda e: st.integers(max(e - 2, 0), e + 1)
            ),
        )
    )


def _bits_of(index: int, level: int) -> tuple[int, ...]:
    return tuple((index >> (level - 1 - i)) & 1 for i in range(level))


@settings(max_examples=300)
@given(st.one_of(tree_sources, far_tables), st.data())
def test_tree_witness_count_matches_the_sorted_terms(x, data):
    """Integer cell keys over the weighted window, or the harmonic
    sequence's run of indices, count exactly what the sorted Fraction list
    counts, and what the window that evaluates every index below j0 counts,
    on cells with a term on or near an endpoint, at levels up to 40 and at
    stages on both sides of each level's j0 + q (up to 2^12 + 1), and on
    harmonic cells at stages on both sides of each end of their run."""
    tree = DerivedTree(x)
    for _ in range(6):
        if isinstance(x, HarmonicSequence) and data.draw(st.booleans(), "run edge"):
            level = data.draw(st.integers(0, 12), "level")
            index, stage = data.draw(harmonic_edge_stages(level), "cell and stage")
        else:
            level = data.draw(st.integers(0, 40), "level")
            struct = x.cell_structure(level)
            edge = sum(struct) if struct is not None else 8
            stages = st.integers(0, 160)
            if edge <= 2**12 + 1:
                stages = st.one_of(st.integers(max(edge - 3, 0), edge + 2), stages)
            stage = data.draw(stages, "stage")
            t = x.term(data.draw(st.integers(0, stage), "j"))
            near = int(t * 2**level) + data.draw(st.integers(-1, 1), "shift")
            index = min(max(near, 0), 2**level - 1)
        bits = _bits_of(index, level)
        want = kernel_oracle.witness_count(x, bits, stage)
        assert tree.witness_count(bits, stage) == want
        assert kernel_oracle.window_witness_count(x, bits, stage) == want


@settings(max_examples=300)
@given(st.integers(0, 200), st.data())
def test_harmonic_cell_run_is_the_integer_inequality(level, data):
    """``cell_run`` is the run of j < stop with a(j + 1) <= 2^L <= (a + 1)(j + 1),
    the closed cell a holding 1/(j + 1): its ends and their neighbours are
    checked at stops up to 10^22, and the run's length, taken as
    max(0, stop - start), is the tree's witness count at stage stop - 1."""
    a = data.draw(st.integers(0, 2**level - 1), "a")
    stop = data.draw(st.one_of(st.integers(0, 10**22 + 1), st.integers(0, 2**level + 2)), "stop")
    run = HarmonicSequence().cell_run(level, a, stop)

    def inside(j: int) -> bool:
        return 0 <= j < stop and a * (j + 1) <= 2**level <= (a + 1) * (j + 1)

    assert 0 <= run.start
    if run.start < run.stop:  # the indices in a cell are one interval
        assert inside(run.start) and inside(run.stop - 1)
        assert not inside(run.start - 1) and not inside(run.stop)
    else:
        assert not any(inside(j) for j in harmonic_run_edges(level, a))
    count = max(0, run.stop - run.start)
    if stop:
        assert DerivedTree(HarmonicSequence()).witness_count(_bits_of(a, level), stop - 1) == count


# tables whose equal low entries sit at far indices, past every small stage
far_low_tables = st.builds(
    lambda base, k, low, default: TableSequence({base + i: low for i in range(k)}, default),
    st.integers(0, 1000),
    st.integers(1, 9),
    boundary_fractions,
    boundary_fractions,
)


def _back_map(fn, tree, bits, stage):
    try:
        return fn(tree, bits, stage)
    except (NotANodeError, WitnessExhaustedError) as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tree_sources, far_tables, far_low_tables), st.data())
def test_branch_to_point_matches_the_fraction_scan(x, data):
    """Each pick read off ``first_in_cell`` is the index the Fraction scan
    from the last pick finds, on every node of the leftmost branch and of a
    random descent over members, and on random nodes (so non-nodes raise
    alike), at stages near a table's last listed index and, for the
    harmonic sequence, near each end of the run of a drawn cell, whose bits
    are among the nodes."""
    tree = bw_to_swkl(x)
    nodes = [
        data.draw(st.lists(st.integers(0, 1), max_size=10).map(tuple), "node")
        for _ in range(3)
    ]
    if isinstance(x, HarmonicSequence):
        level = data.draw(st.integers(1, 10), "level")
        index, stage = data.draw(harmonic_edge_stages(level), "cell and stage")
        nodes.append(_bits_of(index, level))
        stage = data.draw(st.sampled_from([stage, stage + 2**level]), "stage")
    else:
        edge = max(x.entries, default=0) if isinstance(x, TableSequence) else 0
        stage = data.draw(
            st.one_of(st.integers(0, 160), st.integers(max(edge - 10, 0), edge + 10)), "stage"
        )
    depth = data.draw(st.integers(1, 10), "depth")
    branch = leftmost_descent(depth, lambda b: tree.member_at_stage(b, stage)) or ()
    nodes += [branch[:d] for d in range(len(branch) + 1)]
    walk: tuple[int, ...] = ()  # a random descent over members
    while len(walk) < depth:
        first = data.draw(st.integers(0, 1), "child")
        kids = [walk + (c,) for c in (first, 1 - first)]
        kids = [k for k in kids if tree.member_at_stage(k, stage)]
        if not kids:
            break
        walk = kids[0]
        nodes.append(walk)
    for bits in nodes:
        assert _back_map(branch_to_point, tree, bits, stage) == _back_map(
            kernel_oracle.branch_to_point, tree, bits, stage
        )


cell_sources = st.one_of(
    tree_sources,
    st.builds(AlternatingSequence, boundary_fractions, boundary_fractions),
    st.sampled_from(list(catalog.FAMILIES.values())).map(stcoh_to_bwweak),
)


@settings(max_examples=300)
@given(cell_sources, st.integers(0, 12), st.data())
def test_cell_structure_repeats_the_cell_key(x, level, data):
    """Past j0, term j keys at ``level`` as the window term j0 + (j - j0) mod q."""
    j0, q = x.cell_structure(level)
    j = data.draw(st.integers(j0, j0 + 3 * q + 5), "j")
    assert kernel_oracle.cell_key(x.term(j), level) == kernel_oracle.cell_key(
        x.term(j0 + (j - j0) % q), level
    )


@given(boundary_fractions, st.integers(0, 200))
def test_binary_walk_term_matches_the_fraction_formula(value, i):
    assert BinaryWalkSequence(value).term(i) == kernel_oracle.binary_walk_term(value, i)


def test_tree_work_on_a_periodic_source_is_one_window():
    """At stage 10^5 the derived tree of a periodic source evaluates only the
    j0 + q window terms, however many levels it counts."""
    x = PeriodicSequence(
        [Fraction(1, 3), Fraction(1, 2)], [Fraction(0), Fraction(1, 5), Fraction(3, 4)]
    )
    j0, q = x.periodic_structure()
    calls = 0

    def term(j: int) -> Fraction:
        nonlocal calls
        calls += 1
        if calls > j0 + q:
            raise AssertionError(f"term call {calls} passes the window of {j0 + q}")
        return PeriodicSequence.term(x, j)

    x.term = term
    tree = DerivedTree(x)
    stage = 10**5
    assert tree.witness_count((), stage) == stage + 1
    zeros = len(range(j0, stage + 1, q))
    for level in range(3, 41):  # below 1/8 only the zeros are left
        assert tree.witness_count((0,) * level, stage) == zeros
    assert tree.has_extension((), 12, stage)
    assert calls <= j0 + q


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(5, 7), Fraction(1, 1000003)])
def test_tree_work_on_a_binary_walk_is_a_level_window(value):
    """At stage 10^8 a walk's tree evaluates only the terms up to level + k,
    k <= bitlen(den) being the position of the next 1 digit past the level."""
    x = BinaryWalkSequence(value)
    calls = []
    x.term = lambda j: calls.append(j) or BinaryWalkSequence.term(x, j)
    tree = DerivedTree(x)
    for level in range(9):
        tree.witness_count((0,) * level, 10**8)
        assert len(calls) <= level + value.denominator.bit_length() + 1


def test_tree_work_on_the_harmonic_sequence_reads_no_term():
    """At stage 10^8 the harmonic sequence's tree counts each cell off its
    run of indices, ceil(2^L/(a+1)) <= j + 1 <= floor(2^L/a), and reads no
    term."""
    x = HarmonicSequence()
    calls = []
    x.term = lambda j: calls.append(j) or HarmonicSequence.term(x, j)
    tree = DerivedTree(x)
    stage = 10**8
    for level in range(9):
        assert tree.witness_count((0,) * level, stage) == stage + 2 - 2**level
    assert calls == []


# --- set families -----------------------------------------------------------------


def test_family_member_examples():
    all_ones = PeriodicRowsFamily([], [RowPattern((), (1,))])
    assert all_ones.member(0, 0)
    assert all_ones.member(17, 23)
    evens_row = PeriodicRowsFamily([], [RowPattern((), (1, 0))])
    assert evens_row.member(3, 4)
    assert not evens_row.member(3, 5)


def test_derived_family_conventions_on_constant_third():
    x = ConstantSequence(Fraction(1, 3))
    corrected = bwweak_to_stcoh(x, convention="corrected")
    literal = bwweak_to_stcoh(x, convention="paper-literal")
    for j in (0, 3, 50):
        assert [corrected.member(n, j) for n in range(5)] == [True, True, True, False, True]
        assert [literal.member(n, j) for n in range(5)] == [True, True, False, True, False]
    # in the paper-literal reading, 1/3 lies in no even cell at level 2
    assert all(not literal.member(2, j) for j in range(20))


def _in_even_closed_cell(q: Fraction, n: int) -> bool:
    # closed cells tile the whole line; the top point 1 also sits in the even
    # cell [1, 1 + 2^-n], so the index range must reach k = 2^n
    return any(
        DyadicInterval(n, k).contains(q) for k in range(0, 2**n + 1, 2)
    )


def _in_even_halfopen_cell(q: Fraction, n: int) -> bool:
    return any(
        kernel_oracle.contains_halfopen(DyadicInterval(n, k), q) for k in range(0, 2**n, 2)
    )


@given(unit_fractions, st.integers(0, 10))
def test_family_membership_matches_interval_evaluation(q, n):
    """Digit-parity membership agrees with direct dyadic-cell membership."""
    x = ConstantSequence(q)
    corrected = DerivedFamily(x, "corrected")
    literal = DerivedFamily(x, "paper-literal")
    assert corrected.member(n, 0) == _in_even_halfopen_cell(q / 2, n)
    assert literal.member(n, 0) == _in_even_closed_cell(q, n)


dyadic_fractions = st.integers(0, 90).flatmap(
    lambda m: st.builds(Fraction, st.integers(0, 2**m), st.just(2**m))
)
wide_fractions = st.integers(1, 10**30).flatmap(
    lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))
)


@settings(max_examples=300)
@given(
    st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), dyadic_fractions, wide_fractions),
    st.integers(0, 79),
)
def test_family_membership_matches_the_fraction_formula(q, n):
    """The integer-shift kernel agrees with the Fraction cell parity."""
    x = ConstantSequence(q)
    for convention in DerivedFamily.conventions:
        got = DerivedFamily(x, convention).member(n, 0)
        assert got == kernel_oracle.member(q, n, convention), convention


@given(st.one_of(dyadic_fractions, st.fractions(0, 1, max_denominator=1000)), st.integers(0, 79))
def test_family_column_digits_match_the_fraction_formula(q, n):
    """The column point's integer digit walk agrees with the Fraction cell
    parity.  (Its period can be as long as the denominator, so denominators
    stay small or dyadic.)"""
    x = ConstantSequence(q)
    for convention in DerivedFamily.conventions:
        bit = DerivedFamily(x, convention).column_point(0).bit(n)
        assert bit == kernel_oracle.member(q, n, convention), convention


@pytest.mark.parametrize("convention", DerivedFamily.conventions)
def test_column_digit_walk_is_bounded(monkeypatch, convention):
    """The walk takes as many steps as its digits take to repeat: exactly
    that many are allowed, one fewer is an exceeded budget, and a period
    near 10^18 is refused at the module limit."""
    pt = DerivedFamily(ConstantSequence(Fraction(5, 88)), convention).column_point(0)
    steps = len(pt.prefix) + len(pt.period) - 1  # bit 0 is no step
    monkeypatch.setattr(instances, "MAX_DIGIT_WALK", steps)
    again = DerivedFamily(ConstantSequence(Fraction(5, 88)), convention).column_point(0)
    assert (again.prefix, again.period) == (pt.prefix, pt.period)
    monkeypatch.setattr(instances, "MAX_DIGIT_WALK", steps - 1)
    with pytest.raises(BudgetExceededError):
        DerivedFamily(ConstantSequence(Fraction(5, 88)), convention).column_point(0)
    monkeypatch.undo()
    far = DerivedFamily(ConstantSequence(Fraction(1, 10**18 + 9)), convention)
    with pytest.raises(BudgetExceededError) as exc:
        far.column_point(0)
    assert str(exc.value).endswith("do not repeat within 65536 steps, the limit")


@given(unit_fractions, st.integers(0, 20))
def test_family_column_points_agree_with_membership(q, n):
    # column_point compresses the membership stream into a periodic point;
    # it must agree bit-for-bit with the direct member() arithmetic.
    x = ConstantSequence(q)
    for convention in ("corrected", "paper-literal"):
        fam = DerivedFamily(x, convention)
        assert fam.column_point(0).bit(n) == (1 if fam.member(n, 0) else 0)


pattern_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(0, 20).flatmap(
        lambda m: st.builds(Fraction, st.integers(0, 2**m), st.just(2**m))
    ),
    st.integers(0, 499_999).flatmap(
        lambda h: st.builds(Fraction, st.integers(0, 2 * h + 1), st.just(2 * h + 1))
    ),
)
pattern_rows = st.one_of(
    st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
        lambda t: range(t[0], min(t[0] + t[1], 200) + 1)
    ),
    st.sets(st.integers(0, 200), max_size=40).map(sorted),
    # one row short of a run: must not pass for a contiguous one
    st.tuples(st.integers(0, 190), st.integers(2, 10)).flatmap(
        lambda t: st.integers(t[0] + 1, t[0] + t[1] - 1).map(
            lambda gap: [i for i in range(t[0], t[0] + t[1] + 1) if i != gap]
        )
    ),
)


def _oracle_pattern(bit, rows) -> int:
    out = 0
    for i in rows:
        out = out << 1 | (not bit(i))
    return out


@settings(max_examples=300)
@given(pattern_values, pattern_rows, st.integers(0, 1))
def test_derived_pattern_matches_the_member_oracle(q, rows, period):
    """One integer per term over contiguous or sparse rows equals the
    Fraction cell parity asked row by row, in both conventions, whether the
    term comes from the constant (q = 0, period 0) or a one-term period, and
    whether the rows come as a range, a list or a tuple."""
    x = ConstantSequence(q) if period == 0 else PeriodicSequence([Fraction(1, 3)], [q])
    for convention in DerivedFamily.conventions:
        fam = DerivedFamily(x, convention)
        want = _oracle_pattern(lambda i: kernel_oracle.member(q, i, convention), rows)
        for given_rows in (rows, list(rows), tuple(rows)):
            assert fam.pattern(period, given_rows) == want, (convention, type(given_rows))
        if rows:
            assert fam.member(rows[-1], period) == kernel_oracle.member(q, rows[-1], convention)


row_patterns = st.builds(
    RowPattern,
    st.lists(st.integers(0, 1), max_size=3).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
)
listed_families = st.one_of(
    st.builds(PeriodicRowsFamily, st.lists(row_patterns, max_size=3),
              st.lists(row_patterns, min_size=1, max_size=3)),
    st.builds(TableRowsFamily, st.dictionaries(st.integers(0, 12), row_patterns, max_size=4),
              row_patterns),
)


@settings(max_examples=200)
@given(listed_families, pattern_rows, st.lists(st.integers(0, 10**4), min_size=1, max_size=6))
def test_listed_rows_pattern_matches_each_row(fam, rows, js):
    """periodic_rows and table_rows read each window slot once; the pattern
    equals the listed row looked up and read at j, row by row, also when the
    same j is asked again."""
    for j in js + js:
        want = _oracle_pattern(lambda i: kernel_oracle.listed_row(fam, i).bit(j), rows)
        assert fam.pattern(j, rows) == want


@settings(max_examples=200)
@given(listed_families, pattern_rows, st.lists(st.integers(0, 10**4), min_size=1, max_size=6))
def test_listed_families_round_trip_through_the_point_reader(fam, rows, js):
    """A row is written and read as a tree point: serialize ∘ parse keeps
    the bytes of every listed family, and the parsed family reads the same
    patterns."""
    data = serialize_instance(fam)
    again = parse_instance(data)
    assert serialize_instance(again) == data
    assert [again.pattern(j, rows) for j in js] == [fam.pattern(j, rows) for j in js]


far_or_near = st.one_of(st.integers(0, 40), st.integers(0, 10**12))
rational_texts = unit_fractions.map(format_rational)
bit_texts = st.lists(st.sampled_from("01"), max_size=3).map("".join)
point_reprs = st.fixed_dictionaries(
    {"prefix": bit_texts, "period": st.lists(st.sampled_from("01"), min_size=1, max_size=4).map("".join)}
)


def _table_reprs(values, key: str):
    """A table's canonical ``entries``: one record per index, ascending."""
    return st.dictionaries(far_or_near, values, max_size=4).map(
        lambda d: [{"index": i, key: v} for i, v in sorted(d.items())]
    )


listed_sequence_reprs = st.one_of(
    st.fixed_dictionaries({
        "form": st.just("periodic"),
        "prefix": st.lists(rational_texts, max_size=4),
        "period": st.lists(rational_texts, min_size=1, max_size=4),
    }),
    st.fixed_dictionaries({"form": st.just("constant"), "value": rational_texts}),
    st.fixed_dictionaries({"form": st.just("alternating"), "a": rational_texts, "b": rational_texts}),
    st.fixed_dictionaries({
        "form": st.just("table"),
        "entries": _table_reprs(rational_texts, "value"),
        "default": rational_texts,
    }),
)
listed_rows_reprs = st.one_of(
    st.fixed_dictionaries({
        "form": st.just("periodic_rows"),
        "row_prefix": st.lists(point_reprs, max_size=3),
        "row_period": st.lists(point_reprs, min_size=1, max_size=3),
    }),
    st.fixed_dictionaries({
        "form": st.just("table_rows"),
        "entries": _table_reprs(point_reprs, "row"),
        "default": point_reprs,
    }),
)


def _read_form(kind: str, rep: dict):
    """The instance a drawn file form denotes; it must write that form back."""
    x = parse_instance(json.dumps({"kind": kind, "repr": rep}))
    data = serialize_instance(x)
    assert json.loads(data)["repr"] == rep
    assert serialize_instance(parse_instance(data)) == data
    return x


@settings(max_examples=300, deadline=None)
@given(listed_sequence_reprs, st.integers(0, 10**15))
def test_listed_sequences_read_as_their_file_form(rep, far):
    """The one listed body gives each drawn form's terms, around j0 and far
    past it, its (j0, q) window and its listed indices below j0, as the
    oracle reads them off ``to_repr``, which writes the drawn form back."""
    x = _read_form("rational_sequence", rep)
    j0, q = kernel_oracle.listed_structure(x)
    assert x.periodic_structure() == (j0, q)
    near = range(max(0, j0 - 3), j0 + 2 * q + 3)
    for i in (*range(6), *near, far, j0 + far, *kernel_oracle.listed_prefix_indices(x, j0)):
        assert x.term(i) == kernel_oracle.listed_term(x, i), i
    for cut in {0, j0 // 2, j0}:
        want = kernel_oracle.listed_prefix_indices(x, cut)
        assert list(x.prefix_indices(cut)[: len(want) + 1]) == want  # one extra is enough


@settings(max_examples=300, deadline=None)
@given(listed_rows_reprs, st.integers(0, 10**15), st.lists(st.integers(0, 30), min_size=1, max_size=4))
def test_listed_rows_read_as_their_file_form(rep, far, columns):
    """The one listed row body gives each drawn form's rows, around j0 and
    far past it, and its columns, as the oracle reads them off ``to_repr``,
    which writes the drawn form back; a table listed past
    ``MAX_DIGIT_WALK`` refuses a column instead."""
    fam = _read_form("set_family", rep)
    listed = [e["index"] for e in rep.get("entries", [])]
    j0 = max(listed) + 1 if listed else len(rep.get("row_prefix", []))
    for n in (*range(6), *range(max(0, j0 - 3), j0 + 9), far, j0 + far, *listed):
        assert kernel_oracle.periodic_equal(fam.row(n), kernel_oracle.listed_row(fam, n)), n
    for i in (*columns, far):
        if j0 > instances.MAX_DIGIT_WALK:
            with pytest.raises(BudgetExceededError):
                fam.column_point(i)
        else:
            want = kernel_oracle.listed_column_point(fam, i)
            assert kernel_oracle.periodic_equal(fam.column_point(i), want), i


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: PeriodicSequence([Fraction(5, 4)], []), "period must be non-empty"),
        (lambda: ConstantSequence(Fraction(2)), "constant value 2/1 outside [0, 1]"),
        (lambda: AlternatingSequence(Fraction(1, 2), Fraction(3, 2)), "term 3/2 outside [0, 1]"),
        (lambda: TableSequence({-1: Fraction(3, 2)}, Fraction(2)), "term 3/2 outside [0, 1]"),
        (lambda: TableSequence({-1: Fraction(1, 2)}, Fraction(2)), "table indices must be naturals"),
        (lambda: TableSequence({1: Fraction(1, 2)}, Fraction(2)), "default term 2/1 outside [0, 1]"),
        (lambda: PeriodicRowsFamily([], []), "row period must be non-empty"),
        (lambda: TableRowsFamily({-1: RowPattern((), (1,))}, RowPattern((), (0,))),
         "row indices must be naturals"),
    ],
)
def test_listed_constructors_name_what_they_refuse(build, reason):
    """Each listed form's constructor checks its values in its own order and
    words, although all of them share one body."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == reason


def test_pattern_reads_a_huge_row_in_one_step():
    """Row 2^70 costs one modular power: 1/6 has binary digits 0010101...,
    so the corrected row 2^70 reads like row 2."""
    fam = DerivedFamily(ConstantSequence(Fraction(1, 3)), "corrected")
    assert fam.pattern(0, [0, 2**70, 2**70 + 1]) == fam.pattern(0, [0, 2, 3]) == 0b001
    literal = DerivedFamily(ConstantSequence(Fraction(3, 8)), "paper-literal")
    assert literal.pattern(0, [0, 1, 2, 2**70]) == 0b0010


fold_sources = st.one_of(
    st.builds(
        PeriodicSequence,
        st.lists(unit_fractions, max_size=4),
        st.lists(unit_fractions, min_size=1, max_size=4),
    ),
    st.builds(
        TableSequence, st.dictionaries(st.integers(0, 40), unit_fractions, max_size=4),
        unit_fractions,
    ),
    listed_families.map(stcoh_to_bwweak),
)


@settings(max_examples=300, deadline=None)
@given(
    fold_sources,
    pattern_rows,
    st.lists(st.one_of(st.integers(0, 60), st.integers(0, 10**18)), min_size=1, max_size=6),
)
def test_folded_pattern_matches_the_unfolded_column(x, rows, js):
    """A column far past the (j0, q) window, folded onto its slot and read
    from the memo, equals the column read at j itself, on periodic, table
    and embedded sources in both conventions, also when asked again and
    whether the rows come as a range or a list."""
    for convention in DerivedFamily.conventions:
        fam = DerivedFamily(x, convention)
        for j in js + js:
            want = kernel_oracle.derived_pattern(fam, j, rows)
            assert fam.pattern(j, rows) == fam.pattern(j, list(rows)) == want, (convention, j)


def test_pattern_keeps_no_memo_without_a_column_window():
    """A source with no periodic structure has no window to fold onto: each
    column is read afresh and nothing is kept per j."""
    fam = DerivedFamily(HarmonicSequence())
    for j in range(50):
        assert fam.pattern(j, range(6)) == kernel_oracle.derived_pattern(fam, j, range(6))
    assert fam._fold is None


def _catalog_columns() -> list[tuple[str, EmbeddedSequence]]:
    """The embedded columns of every catalog family and of the derived
    families of the periodic catalog sequences, in both conventions."""
    families = dict(catalog.FAMILIES)
    for name, x in sorted({**catalog.SEQUENCES, **catalog.PERIODIC_SEQUENCES}.items()):
        if x.periodic_structure() is not None:
            for convention in DerivedFamily.conventions:
                families[f"{name}/{convention}"] = DerivedFamily(x, convention)
    return [(name, stcoh_to_bwweak(fam)) for name, fam in sorted(families.items())]


def test_embedded_term_folds_into_the_column_window():
    """Past j0 + q an embedded column is read at its window slot, which the
    family's column structure promises is the same point."""
    columns = _catalog_columns()
    assert len(columns) == 10 + 2 * 31
    for name, x in columns:
        j0, q = x.periodic_structure()
        for i in range(j0 + 3 * q + 6):
            assert x.term(i) == kernel_oracle.embedded_term(x, i), (name, i)


def test_periodic_rows_family_structure():
    fam = PeriodicRowsFamily(
        [RowPattern((1, 1), (0,))],
        [RowPattern((), (1, 0)), RowPattern((0,), (1, 1, 0))],
    )
    assert fam.periodic_structure(range(3)) == (2, 6)
    assert fam.periodic_structure((1,)) == (0, 2)  # the window of exactly those rows
    assert fam.periodic_structure((0, 2)) == (2, 3)
    assert fam.column_structure() == (2, 6)
    pt = fam.column_point(4)
    assert pt.bit(0) == 0  # row 0 pattern (1,1)(0) has left the prefix by j=4
    assert pt.bit(1) == 1  # evens row
    assert pt.bit(2) == 1  # (0)(110) at j=4 -> period position 0 -> 1


@settings(max_examples=300)
@given(
    st.one_of(
        st.just(HarmonicSequence()),
        st.builds(BinaryWalkSequence, st.fractions(0, 1, max_denominator=2**12)),
        st.builds(
            PeriodicSequence,
            st.lists(st.fractions(0, 1, max_denominator=64), max_size=3),
            st.lists(st.fractions(0, 1, max_denominator=64), min_size=1, max_size=3),
        ),
    ),
    st.sampled_from(DerivedFamily.conventions),
    st.sets(st.integers(0, 11), min_size=1, max_size=6).map(sorted),
)
def test_derived_window_repeats_the_columns_of_its_rows(x, convention, rows):
    """A derived family's window over rows up to L is its source's cell
    window of level L: past j0, column j + q has column j's pattern over
    those rows, each read at the column itself."""
    fam = DerivedFamily(x, convention)
    j0, q = fam.periodic_structure(rows)
    assert (j0, q) == x.cell_structure(rows[-1])
    for j in range(j0, j0 + 3 * q + 4):
        slot = j0 + (j - j0) % q
        got = kernel_oracle.derived_pattern(fam, j, rows)
        assert got == kernel_oracle.derived_pattern(fam, slot, rows), (j, slot)


def test_table_rows_family():
    fam = TableRowsFamily(
        {2: RowPattern((), (0,))}, default=RowPattern((), (1,))
    )
    assert fam.member(0, 9)
    assert not fam.member(2, 9)
    assert fam.column_point(5).bits(4) == (1, 1, 0, 1)
    with pytest.raises(ValueError):
        TableRowsFamily({-1: RowPattern((), (1,))}, default=RowPattern((), (1,)))


def test_lcm_window_decides_infinitude():
    """One joint period past all prefixes decides which patterns recur.

    The patterns realized in [j0, j0+q) are exactly those realized infinitely
    often; counting over four extra periods finds each of them at least four
    times and never resurrects a prefix-only pattern.
    """
    for name, fam in sorted(catalog.FAMILIES.items()):
        for levels in (1, 2, 3):
            struct = fam.periodic_structure(range(levels))
            assert struct is not None, name
            j0, q = struct

            def pattern(j: int) -> tuple[int, ...]:
                return tuple(1 if fam.member(n, j) else 0 for n in range(levels))

            window = {pattern(j) for j in range(j0, j0 + q)}
            horizon = j0 + 4 * q
            counts: dict[tuple[int, ...], int] = {}
            for j in range(horizon):
                p = pattern(j)
                counts[p] = counts.get(p, 0) + 1
            for p, c in counts.items():
                tail_count = sum(
                    1 for j in range(j0, horizon) if pattern(j) == p
                )
                assert (p in window) == (tail_count >= 4)
                if p not in window:
                    assert tail_count == 0  # prefix-only patterns die out


# --- separation predicates ----------------------------------------------------------


def test_make_unique_minimal_examples():
    b_true = unique_minimal(lambda x, y, n: True)
    assert [y for y in range(5) if b_true(0, y, 0)] == [0]
    b_geq = unique_minimal(lambda x, y, n: y >= x)
    assert [y for y in range(8) if b_geq(3, y, 1)] == [3]
    b_gap = unique_minimal(lambda x, y, n: x != 2 and y == 0)
    assert [y for y in range(8) if b_gap(2, y, 0)] == []


def test_rule_predicate_witness_structure():
    p = RulePredicate("y_eq_x_if", cond=Cond("even"))
    assert p.minimal_witness(5, 2) == 5
    assert p.minimal_witness(5, 3) is None
    assert p.first_failure(2) is None
    assert p.first_failure(3) == 0


def test_rule_predicate_overrides_shift_minimal_witness():
    p = RulePredicate(
        "y_eq_x",
        overrides=((4, 4, 0, False), (4, 9, 0, True)),
    )
    assert p.minimal_witness(4, 0) == 9
    assert p.minimal_witness(4, 1) == 4  # overrides are n-specific
    assert p.first_failure(0) is None
    blocked = RulePredicate("y_eq_x", overrides=((4, 4, 0, False),))
    assert blocked.first_failure(0) == 4


def test_rule_predicate_bounded_rule():
    p = RulePredicate("y_eq_x_below", bound=2)
    assert p.first_failure(7) == 2
    assert p.minimal_witness(1, 7) == 1
    assert p.minimal_witness(2, 7) is None


def test_first_failure_past_a_far_bound_asks_only_the_pins(monkeypatch):
    """A bound of 10^7 is read, not stepped up to: ``minimal_witness`` is
    asked once per x pinned at n and never for an unpinned x."""
    calls = []
    real = RulePredicate.minimal_witness
    monkeypatch.setattr(
        RulePredicate, "minimal_witness",
        lambda self, x, n: calls.append(x) or real(self, x, n),
    )
    far = RulePredicate("y_eq_x_below", bound=10**7)
    assert far.first_failure(0) == 10**7
    pinned = RulePredicate(
        "y_eq_x_below", bound=10**7,
        overrides=((10**7, 3, 0, True), (10**7 + 1, 0, 1, True), (5, 5, 0, False)),
    )
    assert pinned.first_failure(0) == 5
    assert pinned.first_failure(1) == 10**7
    assert sorted(calls) == [5, 10**7, 10**7 + 1]


def test_rule_predicate_rejects_conflicting_overrides():
    with pytest.raises(ValueError):
        RulePredicate("y_eq_x", overrides=((0, 0, 0, True), (0, 0, 0, False)))


small_rule_predicates = st.one_of(
    st.just(RulePredicate("y_eq_x")),
    st.just(RulePredicate("always")),
    st.builds(
        lambda v: RulePredicate("y_eq_const", cond=Cond("odd"), value=v),
        st.integers(0, 3),
    ),
    st.builds(
        lambda b: RulePredicate("y_eq_x_below", bound=b), st.integers(0, 4)
    ),
    st.builds(
        lambda ov: RulePredicate("y_eq_x", overrides=tuple(ov)),
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 5), st.integers(0, 2), st.booleans()
            ),
            max_size=3,
            unique_by=lambda t: (t[0], t[1], t[2]),
        ),
    ),
)


@given(small_rule_predicates, st.integers(0, 4), st.integers(0, 3))
def test_minimal_witness_is_least_witness(p, x, n):
    witnesses = [y for y in range(64) if p.evaluate(x, y, n)]
    expected = witnesses[0] if witnesses else None
    got = p.minimal_witness(x, n)
    if expected is None:
        # no witness below 64; the closed menu caps rule witnesses well below
        assert got is None or got >= 64
    else:
        assert got == expected


@given(small_rule_predicates, st.integers(0, 2))
def test_first_failure_scans_to_the_rule_tail(p, n):
    ff = p.first_failure(n)
    probe = max([ox for ox, _, _, _ in p.overrides] + [p.bound or 0, 8]) + 2
    brute = next(
        (x for x in range(probe) if p.minimal_witness(x, n) is None), None
    )
    assert ff == brute


_RULES = ("never", "always", "y_eq_x", "y_eq_x_if", "y_eq_const", "y_eq_x_below")
_pin_conds = st.one_of(
    st.sampled_from([Cond("always"), Cond("never"), Cond("even"), Cond("odd")]),
    st.builds(lambda m, r: Cond("mod", modulus=m, residues=tuple(r)),
              st.integers(1, 4), st.sets(st.integers(0, 3), max_size=3)),
    st.builds(lambda t, b: Cond(t, bound=b), st.sampled_from(["lt", "ge"]), st.integers(0, 5)),
    st.builds(lambda t, v: Cond(t, values=tuple(v)),
              st.sampled_from(["in", "not_in"]), st.sets(st.integers(0, 5), max_size=3)),
)


@st.composite
def pinned_rule_predicates(draw):
    """Random rule predicates over every condition test, with random pins
    (some past the bound), false pins on the rule's own witness (a run of
    them from y = 0 for ``always``) and several true pins on one (x, n)."""
    rule = draw(st.sampled_from(_RULES))
    fields = dict(
        cond=draw(_pin_conds),
        value=draw(st.integers(0, 6)),
        bound=draw(st.integers(0, 5)),
    )
    bare = RulePredicate(rule, **fields)
    xyn = st.tuples(st.integers(0, 12), st.integers(0, 8), st.integers(0, 4))
    pins = dict(draw(st.lists(st.tuples(xyn, st.booleans()), max_size=8)))
    for x, n in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=3)):
        if rule == "always":
            for y in range(draw(st.integers(1, 3))):
                pins[x, y, n] = False
        elif (w := bare.minimal_witness(x, n)) is not None:
            pins[x, w, n] = False
    x, n = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    for y in draw(st.lists(st.integers(0, 8), max_size=4)):
        pins[x, y, n] = True
    overrides = tuple((x, y, n, v) for (x, y, n), v in pins.items())
    return RulePredicate(rule, overrides=overrides, **fields)


@settings(max_examples=200, deadline=None)
@given(pinned_rule_predicates())
def test_override_index_matches_the_linear_scan(p):
    for n in range(5):
        for x in range(7):
            for y in range(10):
                assert p.evaluate(x, y, n) == kernel_oracle.rule_evaluate(p, x, y, n)
            assert p.minimal_witness(x, n) == kernel_oracle.rule_minimal_witness(p, x, n)
        want = kernel_oracle.rule_first_failure(p, n)
        assert p.first_failure(n) == want
        assert SeparationInstance(p, p).totality(0, n) == (want is None)
    # the indexes are no fields: equality, hash, repr and the file form
    # read the fields alone, and a copy indexes the same pins
    twin = RulePredicate(
        p.rule, cond=p.cond, value=p.value, bound=p.bound, overrides=p.overrides[::-1]
    )
    assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
    assert "_pins" not in repr(p) and "_least_pin" not in repr(p)
    assert twin._pins == p._pins and twin._least_pin == p._least_pin
    assert RulePredicate.from_repr(p.to_repr(), "$").to_repr() == p.to_repr()


_MENU_CONDS = (
    Cond("always"), Cond("never"), Cond("even"), Cond("odd"),
    Cond("mod", modulus=3, residues=(1,)), Cond("lt", bound=3), Cond("ge", bound=3),
    Cond("in", values=(1, 3)), Cond("not_in", values=(1, 3)),
)


def test_rule_evaluation_matches_the_rule_menu():
    """``evaluate`` without pins is "always", or y equal to the rule's one
    witness: the menu, one case per rule, on every x, y, n < 8."""
    menu = [RulePredicate(rule) for rule in ("never", "always", "y_eq_x")]
    menu += [RulePredicate("y_eq_x_if", cond=c) for c in _MENU_CONDS]
    menu += [RulePredicate("y_eq_const", cond=c, value=v) for c in _MENU_CONDS for v in (0, 5)]
    menu += [RulePredicate("y_eq_x_below", bound=b) for b in (0, 4, 9)]
    for p in menu:
        for x in range(8):
            for y in range(8):
                for n in range(8):
                    assert p.evaluate(x, y, n) == kernel_oracle.rule_holds(p, x, y, n), (p, x, y, n)


def test_separation_unique_has_at_most_one_witness():
    for name, inst in catalog.SEPARATIONS.items():
        for i, pred in enumerate(inst.predicates):
            bprime = unique_minimal(pred.evaluate)
            for n in range(4):
                for x in range(6):
                    witnesses = [y for y in range(40) if bprime(x, y, n)]
                    assert len(witnesses) <= 1
                    w = pred.minimal_witness(x, n)
                    expected = [] if w is None or w >= 40 else [w]
                    assert witnesses == expected, (name, i, n, x)


def test_separation_ground_truth_api():
    inst = catalog.SEPARATIONS["odds-vs-evens"]
    assert inst.has_ground_truth()
    assert inst.totality(0, 0)  # B0 total at even n
    assert not inst.totality(0, 1)
    assert inst.first_failure(0, 1) == 0
    assert kernel_oracle.choice_values(inst, 0, 0, 4) == [0, 1, 2, 3]
    with pytest.raises(NotGroundTruthError):
        kernel_oracle.choice_values(inst, 0, 1, 2)


def test_callback_separation_has_no_ground_truth():
    from bwreduce.instances import CallbackPredicate

    inst = SeparationInstance(
        CallbackPredicate(lambda x, y, n: y == x),
        CallbackPredicate(lambda x, y, n: False),
    )
    assert not inst.has_ground_truth()
    with pytest.raises(NotGroundTruthError):
        inst.totality(0, 0)
    with pytest.raises(UnserializableError):
        serialize_instance(inst)


# --- file format -------------------------------------------------------------------


def test_parse_alternating_example():
    doc = b'{"kind":"rational_sequence","repr":{"form":"alternating","a":"0/1","b":"1/1"}}'
    x = parse_instance(doc)
    assert [x.term(i) for i in range(4)] == [0, 1, 0, 1]


def test_parse_full_binary_example():
    t = parse_instance(b'{"kind":"sigma_tree","repr":{"form":"full_binary"}}')
    assert t.member_at_stage((1, 0, 1), 0)


def test_parse_rejects_non_monotone_stage_list():
    doc = (
        b'{"kind":"sigma_tree","repr":{"form":"stage_list","entries":['
        b'{"stage":3,"node":"01"},{"stage":4,"node":"1"}]}}'
    )
    with pytest.raises(InvariantViolationError) as exc:
        parse_instance(doc)
    assert "stage 3" in str(exc.value)
    assert exc.value.location == "$.repr.entries"


def test_parse_rejects_out_of_range_rational():
    doc = b'{"kind":"rational_sequence","repr":{"form":"constant","value":"5/3"}}'
    with pytest.raises(InvariantViolationError) as exc:
        parse_instance(doc)
    assert "outside [0, 1]" in str(exc.value)


def test_parse_error_locations():
    with pytest.raises(MalformedSyntaxError):
        parse_instance(b"not json {")
    with pytest.raises(SchemaViolationError) as exc:
        parse_instance(b'{"kind":"mystery","repr":{}}')
    assert exc.value.location == "$.kind"
    with pytest.raises(SchemaViolationError) as exc:
        parse_instance(b'{"kind":"rational_sequence","repr":{"form":"nope"}}')
    assert exc.value.location == "$.repr.form"
    with pytest.raises(SchemaViolationError) as exc:
        parse_instance(
            b'{"kind":"rational_sequence","repr":{"form":"constant","value":"x"}}'
        )
    assert exc.value.location == "$.repr.value"
    with pytest.raises(MalformedSyntaxError):
        parse_instance(b"\xff\xfe")
    # a row is read as a tree point: the noun is its own, the period check the point's
    with pytest.raises(SchemaViolationError) as exc:
        parse_instance(
            b'{"kind":"set_family","repr":{"form":"table_rows",'
            b'"entries":[{"index":0,"row":3}],"default":{"period":"1"}}}'
        )
    assert (exc.value.location, exc.value.reason) == (
        "$.repr.entries[0].row", "row pattern must be an object"
    )
    with pytest.raises(InvariantViolationError) as exc:
        parse_instance(
            b'{"kind":"set_family","repr":{"form":"periodic_rows",'
            b'"row_period":[{"prefix":"1","period":""}]}}'
        )
    assert (exc.value.location, exc.value.reason) == (
        "$.repr.row_period[0].period", "period must be non-empty"
    )


@pytest.mark.parametrize("bad, shown", [(True, "True"), (-1, "-1"), (2.0, "2.0"), ("7", "'7'")])
@pytest.mark.parametrize("at", [0, 4000])
@pytest.mark.parametrize("last", [4001, "later"])
def test_selector_values_name_the_first_bad_value(bad, shown, at, last):
    """A long selector is read in C-level passes, but a bad value is still
    named, with its path, as the first one of the array."""
    values = list(range(4002))
    values[at] = bad
    values[4001] = last
    doc = {
        "kind": "cohesive_witness",
        "repr": {"selector": {"values": values, "extension_step": None}, "settle": []},
    }
    with pytest.raises(SchemaViolationError) as exc:
        parse_instance(json.dumps(doc).encode())
    assert exc.value.location == f"$.repr.selector.values[{at}]"
    assert exc.value.reason == f"expected a natural, got {shown}"


def test_parse_rejects_duplicate_table_indices():
    doc = (
        b'{"kind":"rational_sequence","repr":{"form":"table","default":"0/1",'
        b'"entries":[{"index":1,"value":"1/2"},{"index":1,"value":"1/3"}]}}'
    )
    with pytest.raises(InvariantViolationError) as exc:
        parse_instance(doc)
    assert "duplicate" in str(exc.value)


def test_serialization_normalizes_rationals():
    doc = b'{"kind":"rational_sequence","repr":{"form":"constant","value":"2/4"}}'
    out = serialize_instance(parse_instance(doc))
    assert b'"1/2"' in out
    assert serialize_instance(parse_instance(out)) == out


def _corpus() -> list[tuple[str, object]]:
    files: list[tuple[str, object]] = []
    files += sorted(catalog.SEQUENCES.items())
    files += [("tree:" + k, v) for k, v in sorted(catalog.TREES.items())]
    files += [("sep:" + k, v) for k, v in sorted(catalog.SEPARATIONS.items())]
    files += [("fam:" + k, v) for k, v in sorted(catalog.FAMILIES.items())]
    return files


def test_catalog_corpus_round_trips_byte_exactly():
    corpus = _corpus()
    assert len(corpus) == 50
    for name, inst in corpus:
        data = serialize_instance(inst)
        again = serialize_instance(parse_instance(data))
        assert again == data, name


def test_derived_instances_round_trip_through_replay():
    source = catalog.SEQUENCES["constant-third"]
    sources = {
        RationalSequence: source,
        SigmaTree: catalog.TREES["full"],
        SeparationInstance: catalog.SEPARATIONS["odds-vs-evens"],
        SetFamily: catalog.FAMILIES["stripes"],
    }
    for edge in EDGES.values():
        for convention in DerivedFamily.conventions:
            params = {"code_budget": 5000, "convention": convention}
            derived = edge.forward(
                sources[edge.source], **{name: params[name] for name in edge.params}
            )
            data = serialize_instance(derived)
            replayed = parse_instance(data)
            assert serialize_instance(replayed) == data, edge.name
            assert type(replayed) is type(derived)
            assert isinstance(replayed, edge.target)
    fam = parse_instance(serialize_instance(bwweak_to_stcoh(source, convention="paper-literal")))
    assert fam.convention == "paper-literal"


_MODULES = sorted(p.stem for p in Path(instances.__file__).parent.glob("*.py") if p.stem != "__init__")

# run in a fresh interpreter: import one module, then parse a derived file,
# whose replay imports ``edges`` on demand; print what was loaded before it
_IMPORT_FIRST = """
import sys
import bwreduce.{module}
from bwreduce.instances import parse_instance, serialize_instance
loaded = sorted(m for m in sys.modules if m.startswith("bwreduce."))
data = sys.stdin.buffer.read()
assert serialize_instance(parse_instance(data)) == data
print(" ".join(loaded))
"""


@pytest.mark.parametrize("module", _MODULES)
def test_each_module_imports_first_and_derived_files_replay(module):
    """The package imports none of its modules, so whichever one a caller
    imports first must load what it needs, and a derived file must replay
    after any of them: after ``instances`` alone, ``edges`` is not yet
    loaded when the file is parsed."""
    tree = bw_to_swkl(catalog.SEQUENCES["constant-third"])
    data = serialize_instance(EDGES["swkl-separation"].forward(tree))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIRST.format(module=module)],
        input=data,
        capture_output=True,
    )
    assert out.returncode == 0, out.stderr.decode()
    if module == "instances":
        assert "bwreduce.edges" not in out.stdout.decode().split()


def test_parse_rejects_wrong_derivation_direction():
    doc = serialize_instance(bw_to_swkl(catalog.SEQUENCES["constant-third"]))
    twisted = doc.replace(b'"sigma_tree"', b'"set_family"', 1)
    with pytest.raises(SchemaViolationError):
        parse_instance(twisted)


def test_meta_rides_along():
    doc = json.loads(serialize_instance(ConstantSequence(Fraction(1, 2))))
    doc["meta"] = {"note": "example"}
    out = parse_instance(serialize_instance(parse_instance(json.dumps(doc))))
    assert out.meta == {"note": "example"}
    assert format_rational(out.term(0)) == "1/2"


# --- the canonical writer ---------------------------------------------------------


def _oracle_bytes(envelope) -> bytes:
    return (json.dumps(envelope, sort_keys=True, indent=2) + "\n").encode("utf-8")


class _Text(str):
    pass


class _Count(enum.IntEnum):
    ONE = 1


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**70, -(2**70)]),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00", "é", "\U0001f600", " ", "%", "%d%%"]),
)
# keys the writer quotes, and puts into a record's % template
json_keys = st.one_of(
    st.text(max_size=5),
    st.sampled_from(['"', "\\", "%", "%s", "%%d", "é", "\U0001f600", "a\nb"]),
)
# flat lists of one scalar type, the writer's fast paths, and lists mixing
# bools and None into ints
flat_lists = st.one_of(
    st.lists(st.integers(-(2**70), 2**70)),
    st.lists(st.text()),
    st.lists(st.one_of(st.integers(), st.booleans(), st.none())),
)


def flat_records(columns):
    """Lists and tuples of records on one key set, the writer's template
    path: each key's column is drawn from one of ``columns``, so some
    columns are all ints or all strs and others mix in other scalars."""
    def rows(keys):
        picks = st.tuples(*[st.sampled_from(columns) for _ in keys])
        return picks.flatmap(
            lambda cells: st.lists(
                st.fixed_dictionaries(dict(zip(keys, cells))), min_size=1, max_size=4
            )
        )

    records = st.lists(json_keys, max_size=3, unique=True).flatmap(rows)
    return st.one_of(records, records.map(tuple))


json_columns = [st.integers(-(2**70), 2**70), st.text(), json_scalars]
json_values = st.recursive(
    st.one_of(json_scalars, flat_lists, flat_lists.map(tuple), flat_records(json_columns)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(json_keys, kids, max_size=4),
    ),
    max_leaves=20,
)
# meta may hold anything json.dumps writes: floats, infinities, NaN, str and
# int subclasses, non-string keys
meta_scalars = st.one_of(
    json_scalars,
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), 0.1, -0.0, 1e300]),
    st.text().map(_Text),
    st.just(_Count.ONE),
)
meta_values = st.recursive(
    st.one_of(meta_scalars, flat_records([*json_columns, meta_scalars])),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(json_keys, kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=3),
    ),
    max_leaves=20,
)


class _Envelope:
    def __init__(self, kind, rep, meta):
        self.kind, self._rep, self.meta = kind, rep, meta

    def to_repr(self):
        return self._rep


@settings(max_examples=300)
@given(
    st.text(max_size=8),
    st.dictionaries(json_keys, json_values, max_size=5),
    st.dictionaries(json_keys, meta_values, max_size=4),
    st.integers(0, 3),
)
def test_serialize_instance_matches_json_dumps(kind, rep, meta, depth):
    """The canonical writer is json.dumps(sort_keys=True, indent=2) byte for
    byte on generated envelopes, and on each value at nesting depths 0 to 4,
    where json.dumps's text is indented by two spaces a level.  One memo
    serves every value at two depths, so a flat tuple's text is reused only
    where its indent matches."""
    obj = _Envelope(kind, rep, meta)
    assert serialize_instance(obj) == _oracle_bytes({"kind": kind, "repr": rep, "meta": meta})
    memo: dict = {}
    for value in (*rep.values(), *meta.values()):
        text = json.dumps(value, sort_keys=True, indent=2)
        for d in (depth, depth + 1, depth):
            assert canonical_json(value, d, memo) == text.replace("\n", "\n" + "  " * d)


def test_serialize_instance_matches_json_dumps_on_the_catalog():
    """Every catalog instance, its targets along each edge in both
    conventions, and the cohesive witnesses and slow Cauchy certificates of
    the eventually periodic sequences."""
    objs = [x for name, x in _corpus()]
    for edge in EDGES.values():
        for x in (x for x in objs if isinstance(x, edge.source)):
            for convention in DerivedFamily.conventions:
                params = {"code_budget": 5000, "convention": convention}
                objs.append(edge.forward(x, **{name: params[name] for name in edge.params}))
    for x in catalog.PERIODIC_SEQUENCES.values():
        objs.append(solvers.extract_slow_cauchy(x, Budget()))
        objs.append(solvers.build_strongly_cohesive(bwweak_to_stcoh(x, "corrected"), 8, Budget()))
    for obj in objs:
        envelope = {"kind": obj.kind, "repr": obj.to_repr(), "meta": getattr(obj, "meta", {})}
        assert serialize_instance(obj) == _oracle_bytes(envelope), obj


def test_serialize_instance_leaves_no_cyclic_garbage():
    family = bwweak_to_stcoh(catalog.PERIODIC_SEQUENCES["period-three"], "corrected")
    witness = solvers.build_strongly_cohesive(family, 8, Budget())
    serialize_instance(witness)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            serialize_instance(witness)
        assert gc.collect() == 0
    finally:
        gc.enable()
