"""Tests for the instance-wise reductions and witness back-translations."""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
import scan_oracle
from bwreduce import catalog
from bwreduce.certificates import Budget, Selector, SeparatorSet
from bwreduce.core import DyadicInterval, seq_code, seq_decode, string_code
from bwreduce.edges import EDGES, roundtrip
from bwreduce.errors import (
    BudgetExceededError,
    ExactValueUnavailableError,
    NonMonotoneSelectorError,
    NotANodeError,
    SchemaViolationError,
)
from bwreduce.instances import (
    AlternatingSequence,
    CallbackPredicate,
    Cond,
    ConstantSequence,
    HarmonicSequence,
    PeriodicSequence,
    RulePredicate,
    SeparationInstance,
    SingleBranchTree,
    parse_instance,
    serialize_instance,
)
from bwreduce.core import CantorPoint
from bwreduce.reductions import (
    branch_to_point,
    bw_to_swkl,
    bwweak_to_stcoh,
    exact_separator,
    f_code,
    g_len,
    h_bit,
    separation_to_bw,
    separator_to_branch,
    stcoh_to_bwweak,
    swkl_to_separation,
)
from bwreduce.solvers import find_branch, stabilization_bound

# --- sequence -> tree -> point ------------------------------------------------------


def test_branch_to_point_on_constant_zero():
    x = ConstantSequence(Fraction(0))
    bp = branch_to_point(bw_to_swkl(x), (0,) * 5, stage=16)
    assert bp.approx == 0
    assert bp.err == Fraction(1, 32)
    assert bp.selector.values == (0, 1, 2, 3)


def test_branch_to_point_on_constant_third():
    x = ConstantSequence(Fraction(1, 3))
    bp = branch_to_point(bw_to_swkl(x), (0, 1, 0, 1), stage=16)
    assert bp.approx == Fraction(5, 16)
    assert bp.err == Fraction(1, 16)
    assert bp.selector.values == (0, 1, 2)


def test_branch_to_point_skips_terms_outside_cells():
    x = AlternatingSequence(Fraction(0), Fraction(1))
    bp = branch_to_point(bw_to_swkl(x), (1, 1, 1, 1), stage=7)
    assert bp.selector.values == (1, 3, 5)
    assert bp.approx == Fraction(15, 16)


def test_branch_to_point_picks_past_a_term_of_nested_cells():
    """1/8 (j = 7) is the first harmonic term of [0, 1/8] and of its right
    half [1/16, 1/8], whose pick is therefore the next term in it, 1/9."""
    bp = branch_to_point(bw_to_swkl(HarmonicSequence()), (0, 0, 0, 1, 0), stage=15)
    assert bp.selector.values == (1, 3, 7, 8)


def test_branch_to_point_rejects_non_nodes():
    x = ConstantSequence(Fraction(0))
    with pytest.raises(NotANodeError):
        branch_to_point(bw_to_swkl(x), (1,), stage=100)


@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=16),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 4),
)
def test_branch_to_point_postconditions(period, depth):
    """Any node reached by majority descent back-translates cleanly.

    The recovered selector is strictly increasing and its t-th term lies in
    the cell of the branch prefix of length t+1, giving the claimed pairwise
    bound |term(j_v) - term(j_w)| <= 2^-(min(v,w)+1).
    """
    x = PeriodicSequence([], period)
    stage = 2 * depth * 2**depth
    bits: tuple[int, ...] = ()
    tree = bw_to_swkl(x)
    for _ in range(depth):
        counts = [tree.witness_count(bits + (c,), stage) for c in (0, 1)]
        bits = bits + (0 if counts[0] >= counts[1] else 1,)
    assert tree.member_at_stage(bits, stage)
    bp = branch_to_point(tree, bits, stage)
    values = bp.selector.values
    assert all(a < b for a, b in zip(values, values[1:]))
    for t, j in enumerate(values):
        assert DyadicInterval.from_bits(bits[: t + 1]).contains(x.term(j))
    for v in range(len(values)):
        for w in range(v + 1, len(values)):
            gap = abs(x.term(values[v]) - x.term(values[w]))
            assert gap <= Fraction(1, 2 ** (v + 1))


def test_derived_tree_always_has_deep_members():
    # 4097 terms meet 256 depth-8 cells, so some cell collects >= 17 distinct
    # indices, comfortably past the 8 witnesses a depth-8 node needs.
    for name, x in sorted(catalog.SEQUENCES.items()):
        tree = bw_to_swkl(x)
        for depth in (1, 4, 8):
            stage = depth * 2**depth
            assert tree.has_extension((), depth, stage), (name, depth)


def test_derived_tree_pigeonhole_cell_is_a_member():
    for name, x in sorted(catalog.SEQUENCES.items()):
        stage = 8 * 2**8
        counts = [0] * 256
        for j in range(stage + 1):
            counts[min(int(x.term(j) * 256), 255)] += 1
        best = max(range(256), key=lambda c: counts[c])
        assert counts[best] >= 8, name
        bits = tuple(int(b) for b in format(best, "08b"))
        assert bw_to_swkl(x).member_at_stage(bits, stage), name


# --- tree <-> separation --------------------------------------------------------------


def test_tree_side_predicates_on_full_tree():
    p = swkl_to_separation(catalog.TREES["full"])
    # nothing ever dies in the full tree: both sides are total everywhere
    for n in range(7):
        for x in range(6):
            for i in (0, 1):
                assert any(p.predicates[i].evaluate(x, y, n) for y in range(4))


def test_exact_separator_walks_to_the_true_branch():
    y = SingleBranchTree(CantorPoint.periodic((1,), (0,)))
    s = exact_separator(y, 8)
    assert separator_to_branch(s, y, 8, stage=0) == (1, 0, 0, 0, 0, 0, 0, 0)


def test_exact_separator_rejects_zero_depth():
    with pytest.raises(ValueError):
        exact_separator(catalog.TREES["full"], 0)


def test_separator_walk_matches_leftmost_infinite_branch():
    """Steering by dies-first separators lands on the leftmost live branch."""
    budget = Budget()
    for name, tree in sorted(catalog.TREES.items()):
        s = exact_separator(tree, budget.depth)
        walked = separator_to_branch(s, tree, budget.depth, budget.stage)
        found = find_branch(tree, budget)
        assert walked == found.bits, name


def test_separator_walk_rejects_dead_turns():
    y = SingleBranchTree(CantorPoint.constant(0))
    all_in = SeparatorSet((), extension="all")
    with pytest.raises(NotANodeError):
        separator_to_branch(all_in, y, 4, stage=0)


def test_point_to_separator_reads_bits():
    s = SeparatorSet((0, 1, 1))
    assert not s.member(0)
    assert s.member(1)
    assert s.member(2)


# --- separation -> sequence (f/g/h) ----------------------------------------------------


def _identity_side() -> SeparationInstance:
    return SeparationInstance(RulePredicate("y_eq_x"), RulePredicate("never"))


def test_f_code_examples():
    p = _identity_side()
    n, budget = 0, 10**6
    assert f_code(p, 0, n, 0, budget) == 1
    assert f_code(p, 0, n, 1, budget) == 1
    assert f_code(p, 0, n, 3, budget) == 2
    assert f_code(p, 0, n, 19, budget) == 18
    assert g_len(p, 0, n, 19, budget) == 2
    assert f_code(p, 1, n, 500, budget) == 1  # "never" side: only the empty code


def test_f_code_monotone_and_budgeted():
    p = _identity_side()
    last = 0
    for k in range(0, 120):
        code = f_code(p, 0, 0, k, 10**6)
        assert code >= last
        last = code
    with pytest.raises(BudgetExceededError):
        f_code(p, 0, 0, 101, code_budget=100)


def test_valid_codes_are_exactly_course_of_values_prefixes():
    """The valid codes below k are the codes of initial segments of the
    minimal-witness stream, and nothing else (checked by brute force)."""
    inst = catalog.SEPARATIONS["odds-vs-evens"]
    bound = 2000
    for i, n in ((0, 0), (0, 1), (1, 1), (1, 4)):
        pred = inst.predicates[i]
        stream = []
        x = 0
        while True:
            w = pred.minimal_witness(x, n)
            if w is None or seq_code([v for v in stream] + [w]) > bound:
                break
            stream.append(w)
            x += 1
        expected = sorted(
            c
            for c in (seq_code(stream[:length]) for length in range(len(stream) + 1))
            if c < bound
        )
        assert scan_oracle.valid_codes_below(inst, i, n, bound) == expected


_CONDS = (
    Cond("always"),
    Cond("even"),
    Cond("odd"),
    Cond("mod", modulus=3, residues=(1,)),
    Cond("lt", bound=3),
    Cond("in", values=(0, 4)),
)

random_rule_predicates = st.builds(
    RulePredicate,
    rule=st.sampled_from(
        ("never", "always", "y_eq_x", "y_eq_x_if", "y_eq_const", "y_eq_x_below")
    ),
    cond=st.sampled_from(_CONDS),
    value=st.one_of(st.integers(0, 12), st.just(10**30)),
    bound=st.integers(0, 6),
    overrides=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 12), st.integers(0, 5), st.booleans()),
        max_size=6,
        unique_by=lambda t: t[:3],
    ).map(tuple),
)


def _callback(x: int, y: int, n: int) -> bool:
    # least witness (x * n) % 4 with a gap at x = n + 3
    return x != n + 3 and y >= (x * n) % 4


separations_under_test = st.one_of(
    st.builds(SeparationInstance, random_rule_predicates, random_rule_predicates),
    st.sampled_from(sorted(catalog.TREES)).map(
        lambda name: swkl_to_separation(catalog.TREES[name])
    ),
    st.just(
        SeparationInstance(
            CallbackPredicate(_callback), CallbackPredicate(lambda x, y, n: y == x % 2)
        )
    ),
)


def seq_len(code: int) -> int:
    """Length of the sequence that the valid code ``code`` codes."""
    return len(seq_decode(code))


@settings(max_examples=150, deadline=None)
@given(
    separations_under_test,
    st.integers(0, 5),
    st.lists(st.integers(0, 2999), min_size=1, max_size=6),
)
def test_f_g_h_match_the_linear_scan(p, n, ks):
    budget = 10**6
    top = 3000
    valid = [scan_oracle.valid_codes_below(p, i, n, top) for i in (0, 1)]
    # the answer changes only at a valid code c, between k = c and k = c + 1
    edges = {c + d for codes in valid for c in codes for d in (0, 1) if c + d < top}
    for k in sorted(set(ks) | edges):
        want = [max((c for c in codes if c < k), default=1) for codes in valid]
        for i in (0, 1):
            assert f_code(p, i, n, k, budget) == want[i]
            assert g_len(p, i, n, k, budget) == seq_len(want[i])
        want_h = 0 if seq_len(want[0]) >= seq_len(want[1]) else 1
        assert h_bit(p, k, n, budget) == want_h


def _callback_relation(a: int, b: int, m: int, gaps: frozenset):
    # least witness (a·x + b·n) % m, then every second y; none on the gaps
    def fn(x: int, y: int, n: int) -> bool:
        w = (a * x + b * n) % m
        return (x, n) not in gaps and y >= w and (y - w) % 2 == 0

    return fn


random_callback_predicates = st.builds(
    lambda a, b, m, gaps: CallbackPredicate(_callback_relation(a, b, m, gaps)),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(1, 6),
    st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 5)), max_size=3),
)

_either_predicate = st.one_of(random_rule_predicates, random_callback_predicates)


@settings(max_examples=150, deadline=None)
@given(
    st.builds(SeparationInstance, _either_predicate, _either_predicate),
    st.integers(0, 5),
    st.lists(st.integers(0, 3000) | st.integers(0, 120), max_size=10),
    st.sampled_from(("ascending", "descending", "as drawn")),
)
def test_shared_prefixes_match_the_per_cutoff_stream(p, n, ks, order):
    """One instance asked many cutoffs in any order (each asked again after
    larger and smaller ones, k in {0, 1}, k = budget) answers as a stream
    rebuilt for each cutoff and as the linear scan; k > budget raises."""
    budget = 3000
    ks = ks + [0, 1, budget]
    if order != "as drawn":
        ks.sort(reverse=order == "descending")
    ks += ks[::-1]
    valid = [scan_oracle.valid_codes_below(p, i, n, budget) for i in (0, 1)]
    for k in ks:
        want = [scan_oracle.f_code(p, i, n, k) for i in (0, 1)]
        assert want == [max((c for c in codes if c < k), default=1) for codes in valid]
        for i in (0, 1):
            assert f_code(p, i, n, k, budget) == want[i]
            assert g_len(p, i, n, k, budget) == seq_len(want[i])
        assert h_bit(p, k, n, budget) == (0 if seq_len(want[0]) >= seq_len(want[1]) else 1)
    for i in (0, 1):
        with pytest.raises(BudgetExceededError):
            f_code(p, i, n, budget + 1, budget)
        with pytest.raises(BudgetExceededError):
            g_len(p, i, n, budget + 1, budget)
    with pytest.raises(BudgetExceededError):
        h_bit(p, budget + 1, n, budget)


def test_f_code_work_is_logarithmic_in_the_cutoff():
    """Each position tries only witnesses whose code still fits below k, so
    a cutoff of 10^6 costs at most (L + 1) · ceil(log2 k) predicate calls."""
    k = 10**6
    cases = (
        (lambda x, y, n: y >= x, seq_code((0, 1, 2))),  # next factor 7^4 is too big
        (lambda x, y, n: False, 1),
        (lambda x, y, n: True, seq_code((0,) * 7)),  # 2·3·5·7·11·13·17
    )
    for fn, want in cases:
        calls = 0

        def counted(x: int, y: int, n: int, _fn=fn) -> bool:
            nonlocal calls
            calls += 1
            return _fn(x, y, n)

        p = SeparationInstance(CallbackPredicate(counted), RulePredicate("never"))
        code = f_code(p, 0, 0, k, k)
        assert code == want
        assert calls <= (seq_len(code) + 1) * (k - 1).bit_length()


@pytest.fixture
def late_million() -> SeparationInstance:
    """At n = 5 side 0's least witnesses are (3, 3, 3, ...) and side 1 runs
    out after (0, 1, 2), so h flips to 0 once k passes seq_code((3, 3, 3)) =
    810000; every other n settles at k = 3.  Kept out of catalog.SEPARATIONS,
    whose entries feed the acceptance sweep and the benchmark."""
    return SeparationInstance(
        RulePredicate("y_eq_const", cond=Cond("in", values=(5,)), value=3),
        RulePredicate(
            "y_eq_x_if",
            cond=Cond("not_in", values=(5,)),
            overrides=((0, 0, 5, True), (1, 1, 5, True), (2, 2, 5, True)),
        ),
    )


def test_late_stabilizing_separation_at_a_million(late_million):
    p = late_million
    assert stabilization_bound(p, 5) == 810001
    assert [stabilization_bound(p, n) for n in range(8) if n != 5] == [3] * 7
    assert h_bit(p, 810000, 5, 10**6) == 1
    assert h_bit(p, 810001, 5, 10**6) == 0
    t0 = time.perf_counter()
    bits = [h_bit(p, 10**6, n, 10**6) for n in range(8)]
    elapsed = time.perf_counter() - t0
    assert bits == [1, 1, 1, 1, 1, 0, 1, 1]
    assert elapsed < 1.0


LATE_MILLION_FILE = Path(__file__).parent / "data" / "late_million.json"


def test_late_million_file_is_the_fixture(late_million):
    assert LATE_MILLION_FILE.read_bytes() == serialize_instance(late_million)


def test_separation_bw_round_trip_evaluates_each_rule_pair_once(monkeypatch, late_million):
    """Every cutoff the round trip reads shares one least-witness stream per
    side and n, so no (side, x, y, n) is evaluated twice."""
    calls: Counter = Counter()
    evaluate = RulePredicate.evaluate

    def counted(self, x: int, y: int, n: int) -> bool:
        calls[id(self), x, y, n] += 1
        return evaluate(self, x, y, n)

    monkeypatch.setattr(RulePredicate, "evaluate", counted)
    for p in (*catalog.SEPARATIONS.values(), late_million):
        calls.clear()
        fresh = SeparationInstance(*p.predicates)
        _, bad = roundtrip(EDGES["separation-bw"], fresh, Budget(), [], "corrected")
        assert bad is None
        assert calls and max(calls.values()) == 1


def test_course_of_values_identity():
    p = _identity_side()
    stream = [0, 1, 2, 3]
    for m in range(4):
        fbar = seq_code(stream[:m])
        assert f_code(p, 0, 0, fbar + 1, 10**6) == fbar


@given(st.integers(0, 250), st.integers(0, 250))
def test_g_len_monotone_in_cutoff(k1, k2):
    p = catalog.SEPARATIONS["mod-three"]
    for i in (0, 1):
        for n in range(3):
            lo, hi = sorted((k1, k2))
            assert g_len(p, i, n, lo, 10**6) <= g_len(p, i, n, hi, 10**6)


def test_h_bit_stabilizes_to_separator_bit():
    p = catalog.SEPARATIONS["odds-vs-evens"]
    # even n: side 0 total, side 1 empty -> 0; odd n: the reverse -> 1
    for n in range(6):
        assert h_bit(p, 2500, n, 10**6) == n % 2
    # small cutoffs have not seen any non-empty valid code yet: ties give 0
    assert h_bit(p, 0, 1, 10**6) == 0
    assert h_bit(p, 2, 1, 10**6) == 0
    assert h_bit(p, 3, 1, 10**6) == 1


def test_h_bit_tie_rule_is_zero():
    p = SeparationInstance(RulePredicate("y_eq_x"), RulePredicate("y_eq_x"))
    for k in (0, 5, 100, 2500):
        for n in range(4):
            assert h_bit(p, k, n, 10**6) == 0


def test_separation_to_bw_stream():
    p = catalog.SEPARATIONS["odds-vs-evens"]
    x = separation_to_bw(p)
    assert x.point(0).bits(4) == (0, 0, 0, 0)
    assert x.point(3).bits(8) == (0, 1) * 4  # h_3 opens as (01)^ω, which embeds to 1/4
    with pytest.raises(ExactValueUnavailableError):
        x.term(3)  # h-stream points are rule-backed


def test_separation_to_bw_respects_code_budget():
    p = catalog.SEPARATIONS["odds-vs-evens"]
    x = separation_to_bw(p, code_budget=10)
    with pytest.raises(BudgetExceededError):
        x.point(11).bit(0)


# --- sequence <-> set family ------------------------------------------------------------


def test_closed_cells_cannot_separate_endpoints():
    # With closed cells at the sequence's own scale, both endpoint values 0
    # and 1 sit in an even cell at every level, so the alternating sequence
    # yields full rows everywhere and the family forgets the sequence.
    literal = bwweak_to_stcoh(
        AlternatingSequence(Fraction(0), Fraction(1)), convention="paper-literal"
    )
    for n in range(10):
        for j in range(10):
            assert literal.member(n, j)
        assert kernel_oracle.row_is_full(literal, n)


def test_halfopen_scaled_cells_do_separate_endpoints():
    corrected = bwweak_to_stcoh(
        AlternatingSequence(Fraction(0), Fraction(1)), convention="corrected"
    )
    assert corrected.member(1, 0)  # term 0 at level 1
    assert not corrected.member(1, 1)  # term 1 at level 1
    assert [corrected.member(0, j) for j in range(4)] == [True, True, True, True]


def test_cell_pattern_matches():
    fam = bwweak_to_stcoh(AlternatingSequence(Fraction(0), Fraction(1)))
    # term 0 is in R_0 and in R_1; term 1 is in R_0 only
    assert (fam.member(0, 0), fam.member(1, 0)) == (True, True)
    assert (fam.member(0, 1), fam.member(1, 1)) == (True, False)


def test_subsequence_from_cohesive_passthrough():
    assert Selector((1, 5, 9)).values == (1, 5, 9)
    with pytest.raises(NonMonotoneSelectorError):
        Selector((3, 3))


def _selector_error(values) -> str | None:
    """The per-value checks the selector made in Python loops: any value
    that is not an int (bools are ints) or is negative, then any pair out of
    strict order."""
    if any((not isinstance(v, int)) or v < 0 for v in values):
        return "selector values must be naturals"
    if any(a >= b for a, b in zip(values, values[1:])):
        return "selector values must strictly increase"
    return None


def _selector_outcome(values) -> str | None:
    try:
        Selector(values)
    except NonMonotoneSelectorError as e:
        return str(e)
    return None


@pytest.mark.parametrize(
    "values, error",
    [
        ((), None),
        ((True,), None),
        ((False, True), None),
        ((0, 2**70), None),
        ((True, True), "strictly increase"),
        ((2, 2), "strictly increase"),
        ((3, 1), "strictly increase"),
        ((-1,), "naturals"),
        ((3, -1), "naturals"),
        ((0, -1, 5), "naturals"),
        ((5, 3, -1), "naturals"),
        ((0, 1.5), "naturals"),
        (("1",), "naturals"),
        ((None,), "naturals"),
        ((Fraction(1),), "naturals"),
    ],
)
def test_selector_validation_errors_are_pinned(values, error):
    got = _selector_outcome(values)
    assert got == _selector_error(values)
    assert (got is None) if error is None else got.endswith(error)


@given(
    st.lists(
        st.one_of(st.integers(-3, 40), st.booleans(), st.just(1.0), st.just("2")), max_size=8
    ).map(tuple)
)
def test_selector_validation_matches_the_per_value_checks(values):
    assert _selector_outcome(values) == _selector_error(values)


_AT = "$.repr.selector."
_NAT = "SchemaViolationError", "expected a natural, got "
_RISE = "NonMonotoneSelectorError", "selector values must strictly increase", None


@pytest.mark.parametrize(
    "values, step, want",
    [
        ("[]", "null", None),
        ("[0, 3]", "2", None),
        ("[true]", "null", (*_NAT, "True", "values[0]")),
        ("[0, true]", "null", (*_NAT, "True", "values[1]")),
        ("[false, 1]", "null", (*_NAT, "False", "values[0]")),
        ("[1, 0]", "null", _RISE),
        ("[2, 2]", "null", _RISE),
        ("[-1]", "null", (*_NAT, "-1", "values[0]")),
        ('["a"]', "null", (*_NAT, "'a'", "values[0]")),
        ("[0, 1.0]", "null", (*_NAT, "1.0", "values[1]")),
        ("[null]", "null", (*_NAT, "None", "values[0]")),
        ("[3, -1]", "null", (*_NAT, "-1", "values[1]")),  # out of order too
        ("[0, -1, 5]", "null", (*_NAT, "-1", "values[1]")),
        ("[5, 3, -1]", "null", (*_NAT, "-1", "values[2]")),
        ("[-1]", '"x"', (*_NAT, "-1", "values[0]")),  # the values come first
        ("[true]", "-1", (*_NAT, "True", "values[0]")),
        ("[-1]", "0", (*_NAT, "-1", "values[0]")),
        ("[1, 0]", '"x"', (*_NAT, "'x'", "extension_step")),  # then the step
        ("[1, 0]", "-2", (*_NAT, "-2", "extension_step")),
        ("[0, 1]", "true", (*_NAT, "True", "extension_step")),
        ("[0, 1]", "1.0", (*_NAT, "1.0", "extension_step")),
        ("[0, 1]", "-1", (*_NAT, "-1", "extension_step")),
        ("[0, 1]", "0", ("NonMonotoneSelectorError", "extension step must be >= 1", None)),
        ("[1, 0]", "0", _RISE),  # then the order, then a zero step
    ],
)
def test_selector_reader_errors_are_pinned(values, step, want):
    """A certificate's selector read from JSON fails with the same exception,
    message and path as the reader that checked every value in a Python
    loop: a value that is not an exact natural first (a JSON ``true`` is
    refused, though a direct construction takes a bool), named at its index,
    then a step that is not a natural, then the order, then a zero step."""
    doc = (
        '{"kind": "cohesive_witness", "meta": {}, "repr": {"settle": [], '
        f'"selector": {{"values": {values}, "extension_step": {step}}}}}}}'
    )
    try:
        parse_instance(doc)
        got = None
    except (SchemaViolationError, NonMonotoneSelectorError) as e:
        got = type(e).__name__, str(e), getattr(e, "location", None)
    if want is not None and want[0] == "SchemaViolationError":
        kind, reason, value, where = want
        want = kind, f"{_AT}{where}: {reason}{value}", _AT + where
    assert got == want


@pytest.mark.parametrize("build", ["direct", "from_repr"])
def test_selector_checks_copy_no_values(build):
    """The order check pairs each value with the next through an iterator,
    so building a 10^6-value selector, from a tuple or from the JSON list
    of a certificate, peaks less than 1 MiB above the tuple it keeps (a
    sliced copy of the values is 7.6 MiB)."""
    values = tuple(range(10**6)) if build == "direct" else list(range(10**6))
    make = Selector if build == "direct" else lambda v: Selector.from_repr({"values": v})
    tracemalloc.start()
    try:
        selector = make(values)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(selector) == 10**6
    assert peak - kept < 2**20


def test_stcoh_to_bwweak_embeds_membership_columns():
    from bwreduce.instances import PeriodicRowsFamily, RowPattern

    fam = PeriodicRowsFamily(
        [], [RowPattern((), (1, 0)), RowPattern((), (1,))]
    )  # R_even = evens-style rows, R_odd = everything
    x = stcoh_to_bwweak(fam)
    assert x.term(0) == 1  # column (1,1,1,...) embeds to 1
    assert x.term(1) == Fraction(1, 4)  # column (0,1,0,1,...)
    assert x.term(2) == 1
    assert x.periodic_structure() == (0, 2)


@settings(max_examples=60)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=32),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 6),
    st.integers(0, 8),
)
def test_derived_family_round_trip_recovers_membership(period, n, i):
    """stcoh ∘ bwweak columns carry exactly the membership information."""
    fam = bwweak_to_stcoh(PeriodicSequence([], period))
    x = stcoh_to_bwweak(fam)
    pt = x.point(i)
    assert (pt.bit(n) == 1) == fam.member(n, i)
