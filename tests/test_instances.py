"""Tests for instance representations, evaluation, and the file format.

The JSON corpus used for round-trip checks is the full built-in catalog
(sequences, trees, separations, set families).  Derived instances are
checked for replay: parsing a derived file re-runs the construction.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from scan_oracle import unique_minimal
from bwreduce import catalog
from bwreduce.core import CantorPoint, DyadicInterval, format_rational
from bwreduce.errors import (
    ExactValueUnavailableError,
    InvariantViolationError,
    MalformedSyntaxError,
    NotGroundTruthError,
    SchemaViolationError,
    UnserializableError,
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
    parse_instance,
    serialize_instance,
)
from bwreduce.edges import EDGES
from bwreduce.reductions import bw_to_swkl, bwweak_to_stcoh, stcoh_to_bwweak

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
    x = EmbeddedSequence(pts, label="two-points")
    assert x.term(0) == 0
    assert x.term(1) == Fraction(2, 3)
    approx, err = x.term_approx(1, 4)
    assert approx <= Fraction(2, 3) <= approx + err

    rule_backed = EmbeddedSequence(
        lambda i: CantorPoint.from_rule(lambda n: 0, label="zeros")
    )
    with pytest.raises(ExactValueUnavailableError):
        rule_backed.term(0)
    approx, err = rule_backed.term_approx(0, 8)
    assert approx == 0 and err == Fraction(1, 3**8)
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


@settings(max_examples=300)
@given(tree_sources, st.data())
def test_tree_witness_count_matches_the_sorted_terms(x, data):
    """Integer cell keys over the weighted window count exactly what the
    sorted Fraction list counts, on cells with a term on or near an endpoint,
    at levels up to 40 and at stages on both sides of each level's j0 + q
    (up to 2^12 + 1, harmonic's window at level 12)."""
    tree = DerivedTree(x)
    for _ in range(6):
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
        bits = tuple((index >> (level - 1 - i)) & 1 for i in range(level))
        assert tree.witness_count(bits, stage) == kernel_oracle.witness_count(x, bits, stage)


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


def test_tree_work_on_the_harmonic_sequence_is_a_level_window():
    """At stage 10^8 the harmonic sequence's tree evaluates the 2^level + 1
    terms j <= 2^level: every later term keys as 1 at that level."""
    x = HarmonicSequence()
    calls = []
    x.term = lambda j: calls.append(j) or HarmonicSequence.term(x, j)
    tree = DerivedTree(x)
    stage = 10**8
    for level in range(9):
        assert tree.witness_count((0,) * level, stage) == stage + 2 - 2**level
        assert len(calls) <= 2**level + 1
    assert len(calls) == 2**8 + 1


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
        DyadicInterval(n, k).contains_halfopen(q) for k in range(0, 2**n, 2)
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
    term comes from the constant (q = 0, period 0) or a one-term period."""
    x = ConstantSequence(q) if period == 0 else PeriodicSequence([Fraction(1, 3)], [q])
    for convention in DerivedFamily.conventions:
        fam = DerivedFamily(x, convention)
        want = _oracle_pattern(lambda i: kernel_oracle.member(q, i, convention), rows)
        assert fam.pattern(period, rows) == want, convention
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
        want = _oracle_pattern(lambda i: kernel_oracle.listed_row(fam, i).member(j), rows)
        assert fam.pattern(j, rows) == want


def test_pattern_reads_a_huge_row_in_one_step():
    """Row 2^70 costs one modular power: 1/6 has binary digits 0010101...,
    so the corrected row 2^70 reads like row 2."""
    fam = DerivedFamily(ConstantSequence(Fraction(1, 3)), "corrected")
    assert fam.pattern(0, [0, 2**70, 2**70 + 1]) == fam.pattern(0, [0, 2, 3]) == 0b001
    literal = DerivedFamily(ConstantSequence(Fraction(3, 8)), "paper-literal")
    assert literal.pattern(0, [0, 1, 2, 2**70]) == 0b0010


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
    assert fam.periodic_structure(3) == (2, 6)
    assert fam.column_structure() == (2, 6)
    pt = fam.column_point(4)
    assert pt.bit(0) == 0  # row 0 pattern (1,1)(0) has left the prefix by j=4
    assert pt.bit(1) == 1  # evens row
    assert pt.bit(2) == 1  # (0)(110) at j=4 -> period position 0 -> 1


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
            struct = fam.periodic_structure(levels)
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
    assert p.tail_shape(2) == ("ident",)
    assert p.tail_shape(3) is None


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
    assert inst.choice_values(0, 0, 4) == [0, 1, 2, 3]
    with pytest.raises(NotGroundTruthError):
        inst.choice_values(0, 1, 2)


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
