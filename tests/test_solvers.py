"""Tests for the budgeted finders, the verifiers, and their interplay.

The recurring pattern: a finder produces a certificate, the matching
verifier re-checks it from scratch, and tampered certificates are rejected
with the least counterexample.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle
from bwreduce import catalog, instances
from bwreduce.certificates import (
    AccumulationResult,
    Budget,
    BranchPrefix,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from bwreduce.core import CantorPoint, DyadicInterval
from bwreduce.errors import (
    BudgetExceededError,
    BwreduceError,
    BudgetExhaustedError,
    EmptyTreeAtStageError,
    HorizonTooSmallError,
    InvalidCertificateError,
    NotGroundTruthError,
    SeparatorUndefinedError,
)
from bwreduce.instances import (
    AlternatingSequence,
    BinaryWalkSequence,
    Cond,
    ConstantSequence,
    DerivedFamily,
    HarmonicSequence,
    PeriodicRowsFamily,
    PeriodicSequence,
    RationalSequence,
    RowPattern,
    RulePredicate,
    SeparationInstance,
    SetFamily,
    SingleBranchTree,
    StageListTree,
    TableSequence,
    parse_instance,
    serialize_instance,
)
from bwreduce.reductions import (
    bw_to_swkl,
    bwweak_to_stcoh,
    branch_to_point,
    stcoh_to_bwweak,
)
from bwreduce.solvers import (
    MAX_ACCUMULATION_DEPTH,
    AccumulationViolation,
    BranchViolation,
    CauchyViolation,
    CohesiveViolation,
    SeparatorViolation,
    build_strongly_cohesive,
    extract_slow_cauchy,
    find_accumulation_real,
    find_branch,
    stabilization_bound,
    thin_to_fast,
    verify_branch,
    verify_cauchy,
    verify_cohesive,
    verify_accumulation,
    verify_separator,
    _suffix_extrema,
    witness_from_selector,
)
from bwreduce.edges import EDGES, roundtrip

periods = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=16),
    min_size=1,
    max_size=4,
)


def _assert_nested(chain) -> None:
    for prev, nxt in zip(chain, chain[1:]):
        assert nxt.level == prev.level + 1
        assert nxt.index in (2 * prev.index, 2 * prev.index + 1)


# --- accumulation search --------------------------------------------------------


def test_accumulation_exact_on_periodic_sequences():
    out = find_accumulation_real(
        AlternatingSequence(Fraction(0), Fraction(1)), Budget()
    )
    assert out.exact and out.approx == 0
    assert out.chain[0] == DyadicInterval(1, 0)
    assert out.chain[-1] == DyadicInterval(8, 0)

    out = find_accumulation_real(
        PeriodicSequence([Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]),
        Budget(depth=3),
    )
    assert out.exact and out.approx == Fraction(1, 3)
    assert tuple(out.chain) == (
        DyadicInterval(1, 0),
        DyadicInterval(2, 1),
        DyadicInterval(3, 2),
    )
    _assert_nested(out.chain)


def test_accumulation_prefers_left_cell_on_boundaries():
    out = find_accumulation_real(ConstantSequence(Fraction(1, 2)), Budget(depth=4))
    assert out.approx == Fraction(1, 2)
    assert out.chain[0] == DyadicInterval(1, 0)  # [0, 1/2], not [1/2, 1]
    assert all(cell.contains(Fraction(1, 2)) for cell in out.chain)
    _assert_nested(out.chain)


def test_accumulation_heuristic_on_harmonic():
    out = find_accumulation_real(HarmonicSequence(), Budget(depth=6))
    assert not out.exact
    assert out.approx == 0
    assert out.chain[-1] == DyadicInterval(6, 0)
    _assert_nested(out.chain)


def test_budget_fields_must_be_naturals():
    for field in ("horizon", "depth", "stage", "code_budget", "threshold"):
        for bad in (True, False, -1, 2.0, "8"):
            with pytest.raises(ValueError):
                Budget(**{field: bad})

def test_accumulation_budget_failures():
    """Only the depth bounds the finder; a horizon or threshold that the
    last cell's early terms do not meet changes nothing."""
    with pytest.raises(ValueError):
        find_accumulation_real(HarmonicSequence(), Budget(depth=0))
    with pytest.raises(BudgetExceededError):
        find_accumulation_real(HarmonicSequence(), Budget(depth=MAX_ACCUMULATION_DEPTH + 1))
    for x, depth in ((ConstantSequence(Fraction(1, 3)), 8), (HarmonicSequence(), 2)):
        starved = Budget(horizon=4, threshold=8, depth=depth)
        assert find_accumulation_real(x, starved) == find_accumulation_real(x, Budget(depth=depth))


class _HiddenStructure(RationalSequence):
    """Wrapper that withholds the periodicity of its base sequence, and so
    every cell window."""

    form = "hidden"

    def __init__(self, base: RationalSequence):
        super().__init__()
        self._base = base

    def term(self, i: int) -> Fraction:
        return self._base.term(i)


class _WindowOnly(_HiddenStructure):
    """Wrapper that withholds the periodicity of its base sequence but
    names its period as the cell window of every level."""

    def cell_structure(self, level: int) -> tuple[int, int]:
        return self._base.periodic_structure()


def test_accumulation_refuses_a_source_with_no_cell_window():
    """No finite prefix shows a cell to hold infinitely many terms, so with
    no cell window the finder and the verifier of a non-exact chain refuse,
    while an exact claim still fails as not a period value."""
    x = _HiddenStructure(ConstantSequence(Fraction(1, 3)))
    with pytest.raises(NotGroundTruthError, match="no cell window at level 8"):
        find_accumulation_real(x, Budget())
    chain = tuple(DyadicInterval(d, 0) for d in range(1, 9))
    with pytest.raises(NotGroundTruthError, match="no cell window at level 8"):
        verify_accumulation(AccumulationResult(chain, Fraction(0), False), x)
    assert verify_accumulation(AccumulationResult(chain, Fraction(0), True), x) == (
        AccumulationViolation(8, "exact")
    )


@settings(max_examples=80)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=16), max_size=3
    ),
    periods,
    st.integers(1, 5),
    st.integers(0, 40),
    st.integers(0, 10),
)
def test_accumulation_exact_and_window_chains_agree(prefix, period, depth, horizon, threshold):
    """A periodic sequence read through its period as a cell window alone
    gives the exact answer's chain, not exact and approximated by the last
    cell's left end, whatever the horizon and threshold."""
    x = PeriodicSequence(prefix, period)
    budget = Budget(horizon=horizon, depth=depth, threshold=threshold)
    exact = find_accumulation_real(x, budget)
    window = find_accumulation_real(_WindowOnly(x), budget)
    assert exact.exact and not window.exact
    assert exact.approx == min(period)
    assert window.chain == exact.chain
    assert window.approx == window.chain[-1].lower
    assert verify_accumulation(window, _WindowOnly(x)) is None


_boundary_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]),
    st.builds(lambda m, k: Fraction(k % (2**m + 1), 2**m), st.integers(0, 14), st.integers(0, 2**14)),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
)


def _holds_a_limit_point(cell: DyadicInterval, x: RationalSequence) -> bool:
    return any(kernel_oracle.contains_closed(cell, p) for p in kernel_oracle.limit_points(x))


@settings(max_examples=400)
@given(
    st.one_of(
        st.builds(
            PeriodicSequence,
            st.lists(_boundary_values, max_size=3),
            st.lists(_boundary_values, min_size=1, max_size=4),
        ),
        st.builds(BinaryWalkSequence, _boundary_values),
    ),
    st.integers(1, 14),
    st.integers(1, 40),
    st.integers(0, 10),
)
def test_accumulation_exact_chain_matches_the_per_level_cells(x, depth, horizon, threshold):
    """The last cell always holds a limit point, and the chain is the one
    that the oracle finder builds level by level (``Fraction`` cells for a
    periodic sequence, a descent that counts terms below the horizon for a
    non-dyadic walk) wherever the oracle's last cell holds a limit point.
    On periodic sequences, with values at dyadic boundaries, 0 and 1
    included, it is the oracle's chain at threshold 0, which starves no
    cell."""
    found = find_accumulation_real(x, Budget(horizon=horizon, depth=depth, threshold=threshold))
    assert _holds_a_limit_point(found.chain[-1], x)
    old = _outcome(
        kernel_oracle.find_accumulation_real,
        x,
        Budget(horizon=horizon, depth=depth, threshold=threshold),
    )
    if isinstance(old, AccumulationResult) and _holds_a_limit_point(old.chain[-1], x):
        assert found == old
    if x.periodic_structure() is not None:
        assert found == kernel_oracle.find_accumulation_real(x, Budget(depth=depth, threshold=0))


_accumulation_sources = st.one_of(
    st.builds(
        PeriodicSequence,
        st.lists(_boundary_values, max_size=3),
        st.lists(_boundary_values, min_size=1, max_size=4),
    ),
    st.builds(BinaryWalkSequence, _boundary_values),
    st.builds(
        TableSequence,
        st.dictionaries(st.integers(0, 80), _boundary_values, max_size=6),
        _boundary_values,
    ),
    st.just(HarmonicSequence()),
)


@settings(max_examples=400)
@given(
    _accumulation_sources,
    st.booleans(),
    st.integers(1, 10),
    st.data(),
)
def test_verify_accumulation_matches_the_fraction_window(x, hide, depth, data):
    """The chain, approximant and exact checks give the verdict of the
    ``Fraction`` verifier that counts the last cell (with no count asked),
    and a non-exact chain that passes them fails its window check iff its
    last cell holds no limit point of the form; with the window hidden it is
    refused.  On found results and on random chains (some broken at one
    cell) with approximants at the cell's ends or at a term, claimed exact
    or not."""
    source = _HiddenStructure(x) if hide else x
    found = _outcome(find_accumulation_real, source, Budget(depth=depth))
    if isinstance(found, AccumulationResult) and data.draw(st.booleans(), "found"):
        result = found
    else:
        index = data.draw(st.integers(0, 2**depth - 1), "index")
        chain = [DyadicInterval(d + 1, index >> (depth - 1 - d)) for d in range(depth)]
        if data.draw(st.booleans(), "break"):
            d = data.draw(st.integers(0, depth - 1), "broken level")
            chain[d] = DyadicInterval(d + 1 + data.draw(st.integers(0, 1)), chain[d].index ^ 2)
        last = chain[-1]
        approx = data.draw(
            st.sampled_from([last.lower, last.upper, x.term(data.draw(st.integers(0, 40)))]),
            "approx",
        )
        result = AccumulationResult(tuple(chain), approx, data.draw(st.booleans(), "exact"))
    want = kernel_oracle.verify_accumulation(result, source, Budget(threshold=0))
    if want is None and not result.exact:
        level = result.chain[-1].level
        if hide:
            want = (NotGroundTruthError, f"the sequence has no cell window at level {level}")
        elif not _holds_a_limit_point(result.chain[-1], x):
            want = AccumulationViolation(level, "window")
    assert _outcome(verify_accumulation, result, source) == want


_CATALOG_SEQUENCES = {**catalog.SEQUENCES, **catalog.PERIODIC_SEQUENCES}


@pytest.mark.parametrize("name", sorted(_CATALOG_SEQUENCES))
def test_every_catalog_accumulation_cell_holds_a_limit_point(name):
    """Over depths 1 to 16 and horizons 256 and 4096, the last cell of each
    accumulation certificate holds a limit point of the form, read off its
    file form alone, and the certificate verifies."""
    x = _CATALOG_SEQUENCES[name]
    for depth in range(1, 17):
        for horizon in (256, 4096):
            result = find_accumulation_real(x, Budget(depth=depth, horizon=horizon))
            assert _holds_a_limit_point(result.chain[-1], x), (depth, horizon)
            assert verify_accumulation(result, x) is None


def test_accumulation_cantor_prefix():
    pts = [CantorPoint.periodic((), (0, 1))] * 10 + [CantorPoint.constant(1)] * 2
    got = kernel_oracle.find_accumulation_cantor(
        pts.__getitem__, Budget(horizon=12, depth=6, threshold=8)
    )
    assert got == (0, 1, 0, 1, 0, 1)


def test_accumulation_cantor_threshold_failure():
    pts = [CantorPoint.constant(0)] * 7 + [CantorPoint.constant(1)] * 7
    with pytest.raises(BudgetExhaustedError):
        kernel_oracle.find_accumulation_cantor(
            pts.__getitem__, Budget(horizon=14, depth=3, threshold=8)
        )
    # lowering the bar makes the leftmost cluster win
    got = kernel_oracle.find_accumulation_cantor(
        pts.__getitem__, Budget(horizon=14, depth=3, threshold=7)
    )
    assert got == (0, 0, 0)


# --- branch search ----------------------------------------------------------------


def test_find_branch_examples():
    got = find_branch(catalog.TREES["full"], Budget())
    assert got.bits == (0,) * 8
    assert got.verified_at_stage == 4096
    assert find_branch(catalog.TREES["stage-ladder"], Budget()).bits == (
        0, 0, 0, 0, 1, 1, 1, 1,
    )


def test_find_branch_failures():
    with pytest.raises(EmptyTreeAtStageError):
        find_branch(StageListTree([(5, (0,))]), Budget(stage=0))
    with pytest.raises(BudgetExhaustedError):
        find_branch(catalog.TREES["stage-ladder"], Budget(stage=1, depth=8))


def test_find_branch_is_leftmost_and_verifies():
    budget = Budget()
    for name, tree in sorted(catalog.TREES.items()):
        got = find_branch(tree, budget)
        assert len(got.bits) == budget.depth, name
        assert verify_branch(got, tree) is None, name
        for t in range(budget.depth):
            if got.bits[t] == 1:
                flipped = got.bits[:t] + (0,)
                assert not tree.has_extension(flipped, budget.depth, budget.stage), name


def test_verify_branch_reports_shortest_bad_prefix():
    tree = SingleBranchTree(CantorPoint.constant(0))
    assert verify_branch(BranchPrefix((0, 0, 0), 5), tree) is None
    assert verify_branch(BranchPrefix((0, 1, 0), 5), tree) == BranchViolation(2)
    assert verify_branch(BranchPrefix((1, 0), 5), tree) == BranchViolation(1)


@settings(max_examples=40)
@given(periods, st.integers(1, 5))
def test_derived_tree_branches_never_exhaust(period, depth):
    """With stage = depth·2^depth the pigeonhole guarantees a deep member,
    and back-translation always finds its witnesses within the stage."""
    x = PeriodicSequence([], period)
    stage = depth * 2**depth
    tree = bw_to_swkl(x)
    got = find_branch(tree, Budget(depth=depth, stage=stage))
    assert verify_branch(got, tree) is None
    bp = branch_to_point(tree, got.bits, stage)  # must not exhaust witnesses
    assert len(bp.selector.values) == depth - 1


# --- cohesion ---------------------------------------------------------------------


def _evens_and_all() -> PeriodicRowsFamily:
    return PeriodicRowsFamily(
        [], [RowPattern((), (1, 0)), RowPattern((), (1,))]
    )


def test_build_strongly_cohesive_picks_least_infinite_pattern():
    witness = build_strongly_cohesive(_evens_and_all(), 2, Budget(horizon=10))
    assert witness.selector.values == (0, 2, 4, 6, 8)
    assert witness.settle == ((0, 0, "in"), (1, 0, "in"))
    assert verify_cohesive(witness, _evens_and_all(), strong_levels=2) is None


def test_build_strongly_cohesive_rejects_zero_levels():
    with pytest.raises(ValueError):
        build_strongly_cohesive(_evens_and_all(), 0, Budget())


def test_verify_cohesive_counterexamples():
    fam = _evens_and_all()
    lying = CohesiveWitness(Selector((0, 2, 4)), ((0, 0, "out"), (1, 0, "in")))
    assert verify_cohesive(lying, fam) == CohesiveViolation(0, 0)
    late = CohesiveWitness(Selector((1, 2, 4)), ((0, 2, "in"), (1, 0, "in")))
    assert verify_cohesive(late, fam) is None  # j=1 is before the settle point
    with pytest.raises(InvalidCertificateError):
        verify_cohesive(late, fam, strong_levels=3)  # row 2 not covered


def test_witness_from_selector_finds_settle_points():
    fam = _evens_and_all()
    w = witness_from_selector(Selector((1, 3, 5)), fam, 2)
    assert w.settle == ((0, 0, "out"), (1, 0, "in"))
    w = witness_from_selector(Selector((0, 1, 3)), fam, 2)
    assert w.settle == ((0, 1, "out"), (1, 0, "in"))
    assert verify_cohesive(w, fam, strong_levels=2) is None
    empty = witness_from_selector(Selector(()), fam, 2)
    assert empty.settle == ((0, 0, "in"), (1, 0, "in"))


def _cohesion_families() -> list[SetFamily]:
    out: list[SetFamily] = [fam for _, fam in sorted(catalog.FAMILIES.items())]
    for name in ("mixed-prefix", "three-cluster", "walk-half", "constant-one"):
        x = catalog.PERIODIC_SEQUENCES[name]
        out += [DerivedFamily(x, c) for c in DerivedFamily.conventions]
    return out


_COHESION_FAMILIES = _cohesion_families()


@settings(max_examples=300)
@given(
    st.sampled_from(range(len(_COHESION_FAMILIES))),
    st.sets(st.integers(0, 200), max_size=30).map(lambda v: Selector(tuple(sorted(v)))),
    st.lists(
        st.tuples(st.one_of(st.integers(0, 20), st.just(2**70)), st.integers(0, 200),
                  st.sampled_from(["in", "out"])),
        max_size=8,
    ),
    st.integers(0, 12),
)
def test_cohesion_kernels_match_the_member_oracle(k, selector, settle, levels):
    """One pattern per selected value gives the verdict and least violation
    of asking member once per row and value, and the same back-translation."""
    fam = _COHESION_FAMILIES[k]
    witness = CohesiveWitness(selector, tuple(settle))
    assert verify_cohesive(witness, fam) == kernel_oracle.verify_cohesive(witness, fam)
    assert witness_from_selector(selector, fam, levels) == kernel_oracle.witness_from_selector(
        selector, fam, levels
    )


class _CountingConstant(ConstantSequence):
    def __init__(self, value: Fraction):
        super().__init__(value)
        self.calls: list[int] = []

    def term(self, i: int) -> Fraction:
        self.calls.append(i)
        return super().term(i)


@pytest.mark.parametrize("rows", [range(1), range(8), range(40), (0, 3, 2**70)])
def test_verify_cohesive_evaluates_each_selected_term_once(rows):
    """One source term per window slot, however many settle rows and
    selected values: a constant's one slot is read once."""
    value = Fraction(5, 13)
    values = tuple(range(0, 90, 3))
    for convention in DerivedFamily.conventions:
        x = _CountingConstant(value)
        plain = DerivedFamily(ConstantSequence(value), convention)
        settle = tuple((i, 0, "in" if plain.member(i, 0) else "out") for i in rows)
        witness = CohesiveWitness(Selector(values), settle)
        assert verify_cohesive(witness, DerivedFamily(x, convention)) is None
        assert x.calls == [0]


def test_stcoh_bwweak_round_trip_embeds_each_window_slot_once(monkeypatch):
    """The back-translated sequence folds every index into its (j0, q)
    window, so a default-budget round trip embeds at most j0 + q columns."""
    calls = []
    real = instances.embed_point_exact
    monkeypatch.setattr(instances, "embed_point_exact", lambda pt: calls.append(pt) or real(pt))
    for fam in _COHESION_FAMILIES:
        calls.clear()
        _, bad = roundtrip(EDGES["stcoh-bwweak"], fam, Budget(), [], "corrected")
        assert bad is None
        j0, q = fam.column_structure()
        assert 0 < len(calls) <= j0 + q


_mixed = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 6), Fraction(1, 2), Fraction(1)]),
    st.fractions(0, 1, max_denominator=10**6),
)


@given(st.lists(_mixed, max_size=40))
def test_suffix_extrema_match_the_fraction_body(vals):
    """At every position s, the step of the step function built from the
    last position of each distinct term holds s and gives, as exact pairs,
    the suffix extrema of Fraction max/min."""
    steps = _suffix_extrema({v.as_integer_ratio(): t for t, v in enumerate(vals)})
    ends = [end for end, _, _ in steps]
    sufmax, sufmin = kernel_oracle.suffix_extrema(vals)
    assert ends == sorted(set(ends)) and ends[-1:] == ([len(vals) - 1] if vals else [])
    for s in range(len(vals)):
        _, hi, lo = steps[bisect_left(ends, s)]
        assert hi == sufmax[s].as_integer_ratio()
        assert lo == sufmin[s].as_integer_ratio()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BwreduceError as e:
        return type(e), str(e)


@settings(max_examples=300)
@given(
    st.lists(_mixed, max_size=30),
    st.lists(_mixed, min_size=1, max_size=4),
    st.sets(st.integers(0, 60), max_size=40),
    st.lists(
        st.tuples(st.one_of(st.integers(0, 24), st.just(2**70)), st.integers(0, 45)),
        max_size=12,
    ),
    st.integers(0, 12),
)
def test_cauchy_kernels_match_the_fraction_bodies(prefix, period, values, moduli, depth):
    """Verdict, least violation and thinned selector, or the error raised,
    are those of the Fraction bodies that step one position at a time, on
    passing and failing certificates with many distinct settle points."""
    x = PeriodicSequence(prefix, period)
    selector = Selector(tuple(sorted(values)))
    budget = Budget(depth=depth)
    for cert in (
        CauchyCertificate(selector, tuple(moduli), "slow"),
        CauchyCertificate(selector, (), "slow"),
    ):
        assert verify_cauchy(cert, x) == kernel_oracle.verify_cauchy(cert, x)
        assert _outcome(thin_to_fast, cert, x, budget) == _outcome(
            kernel_oracle.thin_to_fast, cert, x, budget
        )


# the cohesion families plus derived families without a column window
_PATTERN_FAMILIES = _COHESION_FAMILIES + [
    DerivedFamily(HarmonicSequence(), c) for c in DerivedFamily.conventions
]

_rows = st.one_of(
    st.builds(range, st.integers(0, 6), st.integers(0, 14)),
    st.sets(st.integers(0, 14), max_size=6).map(sorted),
    st.sets(st.integers(0, 14), max_size=6).map(lambda r: tuple(sorted(r))),
)


@settings(max_examples=300)
@given(
    st.sampled_from(range(len(_PATTERN_FAMILIES))),
    st.sets(st.one_of(st.integers(0, 40), st.integers(0, 3000)), max_size=40),
    _rows,
)
def test_patterns_match_one_read_per_value(k, values, rows):
    """The distinct patterns of a selector's values and the last position
    of each, slots folded or not, are those of reading every value at
    itself."""
    fam = _PATTERN_FAMILIES[k]
    values = tuple(sorted(values))
    last = fam.patterns(values, rows)
    assert last == kernel_oracle.patterns(fam, values, rows)
    assert last == {fam.pattern(j, rows): t for t, j in enumerate(values)}


@settings(max_examples=300)
@given(
    st.sampled_from(range(len(_COHESION_FAMILIES))),
    st.sets(st.integers(0, 200), max_size=40).map(lambda v: Selector(tuple(sorted(v)))),
    st.integers(1, 10),
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 200), st.sampled_from(["in", "out"])),
        max_size=3,
    ),
)
def test_verify_cohesive_matches_the_one_sweep(k, selector, levels, extra):
    """Segment by segment between distinct settle points, the verdict and
    least violation are those of one sweep over the values: on the
    back-translated witness, which passes its settle triples with a settle
    point per row and fails only where its pattern recurs in no window slot
    (never when its last value is past j0), and on it with a few triples
    added, which may fail."""
    fam = _COHESION_FAMILIES[k]
    passing = kernel_oracle.witness_from_selector(selector, fam, levels)
    recurs = kernel_oracle.window_violation(passing, fam)
    if selector.values and selector.values[-1] >= fam.periodic_structure(range(levels))[0]:
        assert recurs is None
    assert verify_cohesive(passing, fam) == recurs
    assert kernel_oracle.cohesive_sweep(passing, fam) == recurs
    tampered = CohesiveWitness(selector, passing.settle + tuple(extra))
    assert verify_cohesive(tampered, fam) == kernel_oracle.cohesive_sweep(tampered, fam)


def test_verify_cohesive_reads_each_window_slot_once(monkeypatch):
    """A 4096-value selector over a periodic family with a (j0, q) column
    window reads at most j0 + q column patterns, whatever its settle points:
    here one per row, 500 apart."""
    families = [
        parse_instance(serialize_instance(fam)) for _, fam in sorted(catalog.FAMILIES.items())
    ] + [
        DerivedFamily(catalog.PERIODIC_SEQUENCES[name], c)
        for name in ("mixed-prefix", "three-cluster") for c in DerivedFamily.conventions
    ]
    for fam in families:
        # found on a copy, so that the verifier starts from an empty memo
        found = build_strongly_cohesive(parse_instance(serialize_instance(fam)), 6,
                                        Budget(horizon=2**16))
        witness = CohesiveWitness(
            Selector(found.selector.values[:4096]),
            tuple((i, 500 * i, side) for i, _, side in found.settle),
        )
        assert len(witness.selector) == 4096
        reads = []
        real = type(fam)._pattern
        monkeypatch.setattr(
            type(fam), "_pattern", lambda self, j, rows: reads.append(j) or real(self, j, rows)
        )
        assert verify_cohesive(witness, fam, strong_levels=6) is None
        j0, q = fam.column_structure()
        assert 0 < len(reads) <= j0 + q, fam.form
        monkeypatch.undo()


MIXED_TABLE_FILE = Path(__file__).parent / "data" / "mixed_table.json"


def test_failing_cohesive_certificate_reads_what_its_pass_reads(monkeypatch):
    """The ``mixed-table`` certificate of a million-index horizon (333,333
    values, eight triples) with its last triple flipped fails at (7, 2),
    the first selected value.  Naming it costs the pass plus one scan of
    the failing triple's tail, which stops at that value: one more
    ``pattern`` call, served by the memo, and no column read beyond the
    pass's."""
    family = parse_instance(MIXED_TABLE_FILE.read_bytes())
    found = build_strongly_cohesive(family, 8, Budget(horizon=10**6))
    i, s, side = found.settle[-1]
    flipped = CohesiveWitness(
        found.selector, found.settle[:-1] + ((i, s, "in" if side == "out" else "out"),)
    )
    calls, reads = [], []
    pattern, read = SetFamily.pattern, type(family)._pattern
    monkeypatch.setattr(
        SetFamily, "pattern", lambda self, j, rows: calls.append(j) or pattern(self, j, rows)
    )
    monkeypatch.setattr(
        type(family), "_pattern", lambda self, j, rows: reads.append(j) or read(self, j, rows)
    )
    outcomes = []
    for witness in (found, flipped):
        calls.clear()
        reads.clear()
        fresh = parse_instance(MIXED_TABLE_FILE.read_bytes())
        outcomes.append((verify_cohesive(witness, fresh), len(calls), sorted(reads)))
    (passed, pass_calls, pass_reads), (failed, fail_calls, fail_reads) = outcomes
    assert len(found.selector) == 333_333 and found.selector.values[0] == 2
    assert passed is None
    assert failed == CohesiveViolation(7, 2)
    assert fail_calls == pass_calls + 1
    assert fail_reads == pass_reads


def test_build_strongly_cohesive_verifies_on_catalog():
    budget = Budget()
    for name, fam in sorted(catalog.FAMILIES.items()):
        for levels in (1, 3):
            w = build_strongly_cohesive(fam, levels, budget)
            assert len(w.selector.values) > 0, name
            assert verify_cohesive(w, fam, strong_levels=levels) is None, name


def _periodic_catalog_families() -> list[tuple[str, SetFamily]]:
    """Derived families of the periodic catalog sequences (both conventions),
    the catalog families, and the derived families of their columns."""
    out: list[tuple[str, SetFamily]] = []
    sequences = {**catalog.SEQUENCES, **catalog.PERIODIC_SEQUENCES}
    columns = {k: stcoh_to_bwweak(f) for k, f in catalog.FAMILIES.items()}
    for name, x in sorted(sequences.items()) + sorted(columns.items()):
        if x.periodic_structure() is not None:
            for convention in DerivedFamily.conventions:
                out.append((f"{name}/{convention}", DerivedFamily(x, convention)))
    return out + sorted(catalog.FAMILIES.items())


_NO_MEMBER = "no column below horizon {} holds the least recurring pattern"


def test_periodic_enumeration_matches_the_horizon_scan():
    """The one-window listing equals the scan of every j below the horizon,
    and an empty scan is a horizon too small.

    The scan costs levels·horizon membership queries, so the two large
    horizons are checked at the shallowest and deepest level only; every
    level meets every horizon around the window's edges.
    """
    families = _periodic_catalog_families()
    assert len(families) == 92
    for name, fam in families:
        for levels in range(1, 16):
            j0, q = fam.periodic_structure(range(levels))
            horizons = {0, 1, j0 - 1, j0, j0 + q - 1, j0 + q} - {-1}
            if levels in (1, 15):
                horizons.add(512)
            if levels == 1:
                horizons.add(4096)
            for horizon in sorted(horizons):
                budget = Budget(horizon=horizon)
                got = _outcome(build_strongly_cohesive, fam, levels, budget)
                want = kernel_oracle.build_strongly_cohesive(fam, levels, budget)
                if not want.selector.values:
                    want = (HorizonTooSmallError, _NO_MEMBER.format(horizon))
                assert got == want, (name, levels, horizon)


class _CountingFamily(SetFamily):
    def __init__(self, inner: SetFamily):
        super().__init__()
        self.inner, self.calls = inner, 0

    def member(self, n: int, j: int) -> bool:
        self.calls += 1
        return self.inner.member(n, j)

    def periodic_structure(self, rows) -> tuple[int, int] | None:
        return self.inner.periodic_structure(rows)


def test_periodic_enumeration_work_is_one_window():
    """Exactly levels·(min(j0, horizon) + q) membership queries: the q period
    slots and the prefix slots below the horizon, whatever the horizon, and
    as many when no member lies below it."""
    x = catalog.PERIODIC_SEQUENCES["mixed-prefix"]
    families = [DerivedFamily(x, c) for c in DerivedFamily.conventions]
    for fam in families + [catalog.FAMILIES["prefix-noise"]]:
        for levels in (1, 6, 15):
            j0, q = fam.periodic_structure(range(levels))
            for horizon in (0, 1, 512, 4096):
                counting = _CountingFamily(fam)
                budget = Budget(horizon=horizon)
                if kernel_oracle.build_strongly_cohesive(fam, levels, budget).selector.values:
                    build_strongly_cohesive(counting, levels, budget)
                else:
                    with pytest.raises(HorizonTooSmallError):
                        build_strongly_cohesive(counting, levels, budget)
                assert counting.calls == levels * (min(j0, horizon) + q)


@pytest.mark.parametrize("name", sorted(_CATALOG_SEQUENCES))
def test_every_catalog_slow_cauchy_selector_holds_a_limit_pattern(name):
    """Over depths 1 to 16 and horizons 256 and 4096, each slow Cauchy
    selector holds one pattern over its depth + 2 rows, the least limit
    pattern of the form read off its file form alone, and verifies; or the
    finder exits with a horizon too small, and no column below the horizon
    holds that pattern.  The harmonic members start at 2^depth, so 14 of
    its 32 cases exit."""
    x = _CATALOG_SEQUENCES[name]
    family = bwweak_to_stcoh(x, "corrected")
    refused = 0
    for depth in range(1, 17):
        rows = range(depth + 2)
        least = min(kernel_oracle.limit_patterns(x, rows))
        for horizon in (256, 4096):
            try:
                cert = extract_slow_cauchy(x, Budget(depth=depth, horizon=horizon))
            except HorizonTooSmallError:
                assert all(family.pattern(j, rows) != least for j in range(horizon))
                refused += 1
                continue
            assert set(family.patterns(cert.selector.values, rows)) == {least}, (depth, horizon)
            assert verify_cauchy(cert, x) is None
    assert refused == (14 if name == "harmonic" else 0)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(BinaryWalkSequence, st.fractions(0, 1, max_denominator=300)),
        st.just(HarmonicSequence()),
    ),
    st.integers(1, 10),
    st.integers(1, 700),
    st.sampled_from(DerivedFamily.conventions),
)
def test_window_witness_is_the_count_wherever_its_pattern_recurs(x, levels, horizon, convention):
    """On the one-slot windows of walks and the harmonic sequence, the
    window finder gives the witness of the retired count below the horizon
    wherever the count's pattern is the slot's; where it is not, that
    pattern recurs nowhere, and the finder picks the slot's or exits."""
    family = DerivedFamily(x, convention)
    rows = range(levels)
    j0, q = family.periodic_structure(rows)
    assert q == 1
    budget = Budget(horizon=horizon)
    old = kernel_oracle.most_populated_witness(family, levels, budget)
    got = _outcome(build_strongly_cohesive, family, levels, budget)
    slot = family.pattern(j0, rows)
    if family.pattern(old.selector.values[0], rows) == slot:
        assert got == old
    elif any(family.pattern(j, rows) == slot for j in range(horizon)):
        assert set(family.patterns(got.selector.values, rows)) == {slot}
    else:
        assert got == (HorizonTooSmallError, _NO_MEMBER.format(horizon))


def _walk_third_columns_family() -> DerivedFamily:
    """walk-third's derived family read back as columns and derived again:
    the columns have no window, so neither does this family."""
    columns = stcoh_to_bwweak(bwweak_to_stcoh(BinaryWalkSequence(Fraction(1, 3))))
    assert columns.periodic_structure() is None
    return DerivedFamily(columns)


def test_verify_cohesive_names_the_slot_that_agrees_longest():
    """Rows 0 (the evens) and 1 (all) have the window (0, 2): slot 0 is in
    both, slot 1 only in row 1.  A settled pattern that no slot holds fails
    at the slot agreeing on the most leading rows, the leftmost on a tie,
    and at its first wrong row; contradictory triples fail at the row they
    share.  A family with no window is refused."""
    fam = _evens_and_all()
    cases = [
        (Selector(()), ((0, 0, "in"), (1, 0, "in")), None),
        (Selector(()), ((0, 0, "in"), (1, 0, "out")), CohesiveViolation(1, 0)),
        (Selector(()), ((0, 0, "out"), (1, 0, "out")), CohesiveViolation(1, 1)),
        (Selector((0, 2)), ((0, 0, "in"), (0, 3, "out")), CohesiveViolation(0, 0)),
        (Selector((4,)), ((1, 9, "out"),), CohesiveViolation(1, 0)),
        (Selector((4,)), ((0, 4, "in"),), None),
    ]
    for selector, settle, want in cases:
        witness = CohesiveWitness(selector, settle)
        assert verify_cohesive(witness, fam) == want, settle
        assert kernel_oracle.verify_cohesive(witness, fam) == want, settle
    with pytest.raises(NotGroundTruthError):
        verify_cohesive(CohesiveWitness(Selector((0,)), ((0, 0, "in"),)), _walk_third_columns_family())
    with pytest.raises(NotGroundTruthError):
        build_strongly_cohesive(_walk_third_columns_family(), 3, Budget())


@pytest.mark.parametrize("source", [HarmonicSequence(), BinaryWalkSequence(Fraction(1, 3))])
def test_cohesive_window_rows_stop_at_the_level_limit(source):
    """A source with no period is read up to row
    ``MAX_ACCUMULATION_DEPTH``, whose harmonic window starts at a number of
    4,300 digits; one row more is an exceeded budget, before any window is
    built."""
    fam = DerivedFamily(source)
    for level in (MAX_ACCUMULATION_DEPTH, MAX_ACCUMULATION_DEPTH + 1, 2**70):
        side = "in" if fam.member(level, 5) else "out"
        witness = CohesiveWitness(Selector((5,)), ((level, 0, side),))
        if level > MAX_ACCUMULATION_DEPTH:
            with pytest.raises(BudgetExceededError):
                verify_cohesive(witness, fam)
        else:
            assert verify_cohesive(witness, fam) == kernel_oracle.verify_cohesive(witness, fam)


FAR_TABLE_FILE = Path(__file__).parent / "data" / "table_far_entry.json"


def test_slow_cauchy_on_a_far_table_entry_reads_below_the_horizon(monkeypatch):
    """One table entry at index 10^12 gives a window of 10^12 + 1 columns;
    the finder reads only the prefix columns below the horizon and the one
    period column, so the work is bounded by the horizon, not the index."""
    x = parse_instance(FAR_TABLE_FILE.read_bytes())
    assert x.periodic_structure() == (10**12 + 1, 1)
    reads = []
    real = DerivedFamily.pattern
    monkeypatch.setattr(
        DerivedFamily, "pattern", lambda self, j, rows: reads.append(j) or real(self, j, rows)
    )
    budget = Budget()
    cert = extract_slow_cauchy(x, budget)
    assert len(reads) <= budget.horizon + 1
    assert cert.selector.values == tuple(range(budget.horizon))
    assert verify_cauchy(cert, x) is None


# each source with whether its terms are cheap at indices near 10^12 (a
# walk's term j has j bits, an embedded term a column of j + 1 rows)
_KERNEL_SOURCES = [
    (PeriodicSequence([Fraction(1, 3), Fraction(1, 5)],
                      [Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)]), True),
    (ConstantSequence(Fraction(2, 7)), True),
    (AlternatingSequence(Fraction(0), Fraction(1)), True),
    (BinaryWalkSequence(Fraction(1, 2)), False),
    (BinaryWalkSequence(Fraction(3, 8)), False),
    (BinaryWalkSequence(Fraction(1, 3)), False),
    (HarmonicSequence(), True),
    (parse_instance(FAR_TABLE_FILE.read_bytes()), True),
] + [(stcoh_to_bwweak(fam), False) for fam in _COHESION_FAMILIES]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(range(len(_KERNEL_SOURCES))),
    st.sets(st.one_of(st.integers(0, 40), st.integers(0, 3000)), max_size=40),
    st.sets(st.integers(10**12 - 3, 10**12 + 3), max_size=4),
    st.lists(
        st.tuples(st.one_of(st.integers(0, 24), st.just(2**70)), st.integers(0, 45)),
        max_size=6,
    ),
    st.integers(0, 10),
    st.integers(0, 12),
)
def test_distinct_term_kernel_matches_one_read_per_value(k, values, far, moduli, depth, levels):
    """On periodic, constant and alternating sources, dyadic and non-dyadic
    walks, the harmonic sequence, a table with an entry at 10^12 and the
    embedded sequences of the cohesion families (derived ones in both
    conventions): the distinct terms and their last positions, and the
    distinct patterns of the derived families and theirs, are those of
    reading every value at itself.  The Cauchy verdict, the thinned
    selector or its error, and the back-translated cohesive witness are
    those of the oracle bodies."""
    x, far_ok = _KERNEL_SOURCES[k]
    values = tuple(sorted(values | far if far_ok else values))
    assert x.last_positions(values) == kernel_oracle.last_positions(x, values)
    selector = Selector(values)
    budget = Budget(depth=depth)
    for claimed in (tuple(moduli), tuple((n, 0) for n in range(depth + 1))):
        cert = CauchyCertificate(selector, claimed, "slow")
        assert verify_cauchy(cert, x) == kernel_oracle.verify_cauchy(cert, x)
        assert _outcome(thin_to_fast, cert, x, budget) == _outcome(
            kernel_oracle.thin_to_fast, cert, x, budget
        )
    for convention in DerivedFamily.conventions:
        fam = DerivedFamily(x, convention)
        rows = range(levels)
        assert fam.patterns(values, rows) == kernel_oracle.patterns(fam, values, rows)
        assert witness_from_selector(selector, fam, levels) == (
            kernel_oracle.witness_from_selector(selector, fam, levels)
        )


# --- Cauchy extraction and thinning --------------------------------------------------


def test_extract_slow_cauchy_on_alternating():
    x = AlternatingSequence(Fraction(0), Fraction(1))
    cert = extract_slow_cauchy(x, Budget())
    assert cert.rate == "slow"
    assert cert.selector.values[:3] == (0, 2, 4)
    assert len(cert.selector.values) == 2048
    assert cert.moduli == tuple((n, 0) for n in range(9))
    assert verify_cauchy(cert, x) is None


def test_thin_to_fast_on_alternating():
    x = AlternatingSequence(Fraction(0), Fraction(1))
    slow = extract_slow_cauchy(x, Budget())
    fast = thin_to_fast(slow, x, Budget())
    assert fast.rate == "fast"
    assert fast.moduli == tuple((n, n) for n in range(9))
    assert fast.selector.values == (0, 2, 4, 6, 8, 10, 12, 14, 16)
    assert verify_cauchy(fast, x) is None


def test_thin_to_fast_on_harmonic_via_window_cohesion():
    x = HarmonicSequence()
    slow = extract_slow_cauchy(x, Budget())
    assert verify_cauchy(slow, x) is None
    fast = thin_to_fast(slow, x, Budget())
    assert verify_cauchy(fast, x) is None
    assert len(fast.selector.values) == 9
    values = fast.selector.values
    assert all(a < b for a, b in zip(values, values[1:]))


class _CountingTerms(RationalSequence):
    """A sequence that records every index whose term is evaluated."""

    def __init__(self, inner: RationalSequence):
        self.inner, self.calls = inner, []

    def term(self, i: int) -> Fraction:
        self.calls.append(i)
        return self.inner.term(i)

    def periodic_structure(self):
        return self.inner.periodic_structure()


def test_thin_to_fast_reads_each_selected_term_once():
    """The input check and the thinning share one read of each distinct
    term: each selected term is read at most once, and a source with a
    (j0, q) window is read at most (selected values below j0) + q times.
    A failing certificate's walk reads the terms from the modulus's settle
    position through w, and none past w."""
    for x in (
        AlternatingSequence(Fraction(0), Fraction(1)),
        HarmonicSequence(),
        PeriodicSequence([Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 4)]),
        BinaryWalkSequence(Fraction(1, 2)),
    ):
        slow = extract_slow_cauchy(x, Budget())
        counting = _CountingTerms(x)
        thin_to_fast(slow, counting, Budget())
        values = slow.selector.values
        assert len(set(counting.calls)) == len(counting.calls) <= len(values)
        struct = x.periodic_structure()
        if struct is not None:
            j0, q = struct
            assert len(counting.calls) <= bisect_left(values, j0) + q
    x = TableSequence({50: Fraction(2, 5), 51: Fraction(3, 5)}, Fraction(1, 2))
    values = tuple(range(1000))
    bad = CauchyCertificate(Selector(values), ((3, 10),), "slow")
    counting = _CountingTerms(x)
    counting.last_positions(values)
    kernel = len(counting.calls)
    assert kernel <= 52 + 1  # the 52 values below j0 = 52, and q = 1
    with pytest.raises(InvalidCertificateError, match="n=3, v=50, w=51"):
        thin_to_fast(bad, counting, Budget())
    assert counting.calls[2 * kernel:] == list(range(10, 52))


def test_thin_to_fast_rejects_bad_input():
    x = AlternatingSequence(Fraction(0), Fraction(1))
    lying = CauchyCertificate(Selector((0, 1)), ((1, 0),), "slow")
    with pytest.raises(InvalidCertificateError) as exc:
        thin_to_fast(lying, x, Budget())
    assert "n=1" in str(exc.value)


def test_thin_to_fast_horizon_failures():
    x = ConstantSequence(Fraction(0))
    empty = CauchyCertificate(Selector(()), ((0, 0),), "slow")
    with pytest.raises(HorizonTooSmallError):
        thin_to_fast(empty, x, Budget())
    single = CauchyCertificate(Selector((5,)), ((0, 0),), "slow")
    with pytest.raises(HorizonTooSmallError):
        thin_to_fast(single, x, Budget(depth=1))


def test_verify_cauchy_least_counterexample():
    x = AlternatingSequence(Fraction(0), Fraction(1))
    cert = CauchyCertificate(Selector((0, 1)), ((1, 0),), "slow")
    assert verify_cauchy(cert, x) == CauchyViolation(1, 0, 1)
    ok = CauchyCertificate(Selector((0, 2)), ((1, 0),), "slow")
    assert verify_cauchy(ok, x) is None
    vacuous = CauchyCertificate(Selector((0, 1)), ((3, 10),), "slow")
    assert verify_cauchy(vacuous, x) is None  # settle point beyond the list


_cauchy_sources = st.one_of(
    periods.map(lambda period: PeriodicSequence((), period)),
    st.builds(
        TableSequence,
        st.dictionaries(st.integers(0, 59), periods.map(lambda p: p[0]), max_size=12),
        periods.map(lambda p: p[0]),
    ),
)


@settings(max_examples=300)
@given(
    _cauchy_sources,
    st.integers(1, 60),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 60)), max_size=4),
)
def test_verify_cauchy_agrees_with_every_rate_built_as_written(x, m, moduli):
    """Rates past the finest gap between the terms (2^-10 for denominators
    up to 16) are read as equality; verdict and counterexample stay those
    of checking every pair against 2^-n.  Periodic and table sources repeat
    their values across selectors of up to 60 terms, so the walk that names
    a failing modulus's least pair passes many values, repeated and not."""
    cert = CauchyCertificate(Selector(tuple(range(m))), tuple(moduli), "slow")
    vals = [x.term(t) for t in range(m)]
    literal = next(
        (
            CauchyViolation(n, v, w)
            for n, s in cert.moduli
            for v in range(s, m)
            for w in range(v + 1, m)
            if abs(vals[v] - vals[w]) >= Fraction(1, 2**n)
        ),
        None,
    )
    assert verify_cauchy(cert, x) == literal


def test_verify_cauchy_names_a_late_violation_in_one_walk():
    """20,000 terms of 1/2, then 2/5 and 3/5: the modulus (3, 0) fails
    only at the last pair, which comparing every pair reaches after 2·10^8
    comparisons.  One walk against the suffix extrema names it, and
    the thinning's input check names the same pair."""
    m = 20_000
    x = TableSequence({m: Fraction(2, 5), m + 1: Fraction(3, 5)}, Fraction(1, 2))
    cert = CauchyCertificate(Selector(tuple(range(m + 2))), ((3, 0),), "slow")
    assert verify_cauchy(cert, x) == CauchyViolation(3, m, m + 1)
    with pytest.raises(InvalidCertificateError, match=f"n=3, v={m}, w={m + 1}"):
        thin_to_fast(cert, x, Budget())


# --- separator verification -----------------------------------------------------------


def test_verify_separator_on_parity_instance():
    p = catalog.SEPARATIONS["odds-vs-evens"]
    good = SeparatorSet(tuple(n % 2 for n in range(8)))
    assert verify_separator(good, p, 8) is None
    flipped = SeparatorSet((0, 0) + tuple(n % 2 for n in range(2, 8)))
    assert verify_separator(flipped, p, 8) == SeparatorViolation(1)


def test_verify_separator_extension_rules():
    all_in = catalog.SEPARATIONS["all-in"]
    assert verify_separator(SeparatorSet((), "all"), all_in, 50) is None
    assert verify_separator(SeparatorSet((), "none"), all_in, 50) == SeparatorViolation(0)
    with pytest.raises(SeparatorUndefinedError):
        verify_separator(SeparatorSet((1, 1)), all_in, 8)


def test_verify_separator_needs_ground_truth():
    from bwreduce.instances import CallbackPredicate

    p = SeparationInstance(
        CallbackPredicate(lambda x, y, n: y == x),
        CallbackPredicate(lambda x, y, n: y == x),
    )
    with pytest.raises(NotGroundTruthError):
        verify_separator(SeparatorSet((0,) * 4), p, 4)


# --- stabilization ground truth --------------------------------------------------------


def test_stabilization_bound_examples():
    p = catalog.SEPARATIONS["odds-vs-evens"]
    assert stabilization_bound(p, 0) == 0
    assert stabilization_bound(p, 1) == 3
    late = catalog.SEPARATIONS["late-cutoff"]
    assert stabilization_bound(late, 0) == 2251
    ties = catalog.SEPARATIONS["both-empty-tie"]
    assert stabilization_bound(ties, 5) == 0


def test_stabilization_bound_failures():
    neither = SeparationInstance(RulePredicate("never"), RulePredicate("never"))
    with pytest.raises(NotGroundTruthError):
        stabilization_bound(neither, 0)
    # both sides total: n lies in neither limit set, so its bit is free
    free = SeparationInstance(RulePredicate("y_eq_x"), RulePredicate("always"))
    assert stabilization_bound(free, 0) == 0
    with pytest.raises(BudgetExceededError):
        stabilization_bound(catalog.SEPARATIONS["late-cutoff"], 0, code_budget=100)


_small_rules = st.builds(
    RulePredicate,
    rule=st.sampled_from(
        ("never", "always", "y_eq_x", "y_eq_x_if", "y_eq_const", "y_eq_x_below")
    ),
    cond=st.sampled_from((Cond("always"), Cond("even"), Cond("lt", bound=3))),
    value=st.integers(0, 20),
    bound=st.integers(0, 20),
    overrides=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 8), st.integers(0, 3), st.booleans()),
        max_size=4,
        unique_by=lambda t: t[:3],
    ).map(tuple),
)


def _bound_or_error(bound, p: SeparationInstance, n: int, code_budget: int):
    try:
        return bound(p, n, code_budget)
    except BwreduceError as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(_small_rules, _small_rules, st.integers(0, 3))
def test_stabilization_bound_matches_the_full_code_oracle(b0, b1, n):
    """k* read off the shared least-witness prefix equals the full
    course-of-values code plus one wherever that fits the code budget, and
    both refuse the same pairs with the same error.  A k* found at 10^40 is
    also tried as the budget and one below it, where the refusal starts."""
    p = SeparationInstance(b0, b1)
    assume(p.totality(0, n) or p.totality(1, n))
    kstar = _bound_or_error(kernel_oracle.stabilization_bound, p, n, 10**40)
    edge = (kstar, kstar - 1) if isinstance(kstar, int) and kstar > 1 else ()
    for code_budget in (10, 10**3, 10**6, 10**40, *edge):
        got = _bound_or_error(stabilization_bound, p, n, code_budget)
        want = _bound_or_error(
            kernel_oracle.stabilization_bound, SeparationInstance(b0, b1), n, code_budget
        )
        assert got == want, (p.to_repr(), n, code_budget)


def test_h_bit_is_constant_past_the_stabilization_bound():
    from bwreduce.reductions import h_bit

    for name, p in sorted(catalog.SEPARATIONS.items()):
        for n in range(6):
            kstar = stabilization_bound(p, n)
            expected = 0 if p.totality(0, n) else 1
            for k in (kstar, kstar + 1, kstar + 57, kstar + 400):
                assert h_bit(p, k, n, 10**6) == expected, (name, n, k)


# --- determinism ------------------------------------------------------------------------


def test_finders_are_deterministic():
    budget = Budget()
    x = catalog.SEQUENCES["two-cluster"]
    a = serialize_instance(find_accumulation_real(x, budget))
    b = serialize_instance(find_accumulation_real(x, budget))
    assert a == b
    fam = catalog.FAMILIES["drift"]
    wa = serialize_instance(build_strongly_cohesive(fam, 4, budget))
    wb = serialize_instance(build_strongly_cohesive(fam, 4, budget))
    assert wa == wb
