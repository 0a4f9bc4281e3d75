"""Tests for the budgeted finders, the verifiers, and their interplay.

The recurring pattern: a finder produces a certificate, the matching
verifier re-checks it from scratch, and tampered certificates are rejected
with the least counterexample.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from bwreduce import catalog, instances
from bwreduce.certificates import (
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
    BudgetExhaustedError,
    EmptyTreeAtStageError,
    HorizonTooSmallError,
    InvalidCertificateError,
    NotGroundTruthError,
    SeparatorUndefinedError,
)
from bwreduce.instances import (
    AlternatingSequence,
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
    serialize_instance,
)
from bwreduce.reductions import (
    bw_to_swkl,
    bwweak_to_stcoh,
    branch_to_point,
    stcoh_to_bwweak,
)
from bwreduce.solvers import (
    BranchViolation,
    CauchyViolation,
    CohesiveViolation,
    SeparatorViolation,
    build_strongly_cohesive,
    extract_slow_cauchy,
    find_accumulation_cantor,
    find_accumulation_real,
    find_branch,
    stabilization_bound,
    thin_to_fast,
    verify_branch,
    verify_cauchy,
    verify_cohesive,
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
    with pytest.raises(ValueError):
        find_accumulation_real(HarmonicSequence(), Budget(depth=0))
    with pytest.raises(BudgetExhaustedError):
        find_accumulation_real(
            ConstantSequence(Fraction(1, 3)), Budget(horizon=4, threshold=8)
        )
    with pytest.raises(BudgetExhaustedError):
        find_accumulation_real(
            HarmonicSequence(), Budget(horizon=4, threshold=5, depth=2)
        )


class _HiddenStructure(RationalSequence):
    """Wrapper that withholds the periodicity of its base sequence, forcing
    the horizon-counting path."""

    form = "hidden"

    def __init__(self, base: RationalSequence):
        super().__init__()
        self._base = base

    def term(self, i: int) -> Fraction:
        return self._base.term(i)


@settings(max_examples=80)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=16), max_size=3
    ),
    periods,
    st.integers(1, 5),
)
def test_accumulation_exact_and_heuristic_chains_agree(prefix, period, depth):
    """With enough horizon the two search paths return the same cell chain.

    Values occurring only in the finite prefix appear at most len(prefix)
    times, so a threshold of len(prefix)+1 starves every cell left of the
    true least-recurring value and horizon counting must land on it.
    """
    x = PeriodicSequence(prefix, period)
    threshold = len(prefix) + 1
    horizon = len(prefix) + len(period) * (threshold + 1)
    budget = Budget(horizon=horizon, depth=depth, threshold=threshold)
    exact = find_accumulation_real(x, budget)
    heuristic = find_accumulation_real(_HiddenStructure(x), budget)
    assert exact.exact and not heuristic.exact
    assert exact.approx == min(period)
    assert heuristic.chain == exact.chain
    assert heuristic.chain[-1].contains(exact.approx)


def test_accumulation_cantor_prefix():
    pts = [CantorPoint.periodic((), (0, 1))] * 10 + [CantorPoint.constant(1)] * 2
    got = find_accumulation_cantor(pts, Budget(horizon=12, depth=6, threshold=8))
    assert got == (0, 1, 0, 1, 0, 1)


def test_accumulation_cantor_threshold_failure():
    pts = [CantorPoint.constant(0)] * 7 + [CantorPoint.constant(1)] * 7
    with pytest.raises(BudgetExhaustedError):
        find_accumulation_cantor(pts, Budget(horizon=14, depth=3, threshold=8))
    # lowering the bar makes the leftmost cluster win
    got = find_accumulation_cantor(pts, Budget(horizon=14, depth=3, threshold=7))
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
    """One source term per selected value, however many settle rows."""
    value = Fraction(5, 13)
    values = tuple(range(0, 90, 3))
    for convention in DerivedFamily.conventions:
        x = _CountingConstant(value)
        plain = DerivedFamily(ConstantSequence(value), convention)
        settle = tuple((i, 0, "in" if plain.member(i, 0) else "out") for i in rows)
        witness = CohesiveWitness(Selector(values), settle)
        assert verify_cohesive(witness, DerivedFamily(x, convention)) is None
        assert x.calls == list(values)


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
    """Integer cross-products pick the same suffix extrema as Fraction max/min."""
    assert _suffix_extrema(vals) == kernel_oracle.suffix_extrema(vals)


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


def test_periodic_enumeration_matches_the_horizon_scan():
    """The one-window listing equals the scan of every j below the horizon.

    The scan costs levels·horizon membership queries, so the two large
    horizons are checked at the shallowest and deepest level only; every
    level meets every horizon around the window's edges.
    """
    families = _periodic_catalog_families()
    assert len(families) == 92
    for name, fam in families:
        for levels in range(1, 16):
            j0, q = fam.periodic_structure(levels)
            horizons = {0, 1, j0 - 1, j0, j0 + q - 1, j0 + q} - {-1}
            if levels in (1, 15):
                horizons.add(512)
            if levels == 1:
                horizons.add(4096)
            for horizon in sorted(horizons):
                budget = Budget(horizon=horizon)
                got = build_strongly_cohesive(fam, levels, budget)
                want = kernel_oracle.build_strongly_cohesive(fam, levels, budget)
                assert got == want, (name, levels, horizon)


class _CountingFamily(SetFamily):
    def __init__(self, inner: SetFamily):
        super().__init__()
        self.inner, self.calls = inner, 0

    def member(self, n: int, j: int) -> bool:
        self.calls += 1
        return self.inner.member(n, j)

    def periodic_structure(self, levels: int) -> tuple[int, int] | None:
        return self.inner.periodic_structure(levels)


def test_periodic_enumeration_work_is_one_window():
    """levels·(j0 + q) membership queries at most, whatever the horizon."""
    x = catalog.PERIODIC_SEQUENCES["mixed-prefix"]
    families = [DerivedFamily(x, c) for c in DerivedFamily.conventions]
    for fam in families + [catalog.FAMILIES["prefix-noise"]]:
        for levels in (1, 6, 15):
            j0, q = fam.periodic_structure(levels)
            counts = set()
            for horizon in (0, 512, 4096):
                counting = _CountingFamily(fam)
                build_strongly_cohesive(counting, levels, Budget(horizon=horizon))
                counts.add(counting.calls)
            assert len(counts) == 1
            assert counts.pop() <= levels * (j0 + q)


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


def test_thin_to_fast_on_harmonic_via_heuristic_cohesion():
    x = HarmonicSequence()
    slow = extract_slow_cauchy(x, Budget())
    assert verify_cauchy(slow, x) is None
    fast = thin_to_fast(slow, x, Budget())
    assert verify_cauchy(fast, x) is None
    assert len(fast.selector.values) == 9
    values = fast.selector.values
    assert all(a < b for a, b in zip(values, values[1:]))


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


@given(
    periods,
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 6)), max_size=4),
)
def test_verify_cauchy_agrees_with_every_rate_built_as_written(period, m, moduli):
    """Rates past the finest gap between the terms (2^-10 for denominators
    up to 16) are read as equality; verdict and counterexample stay those
    of checking every pair against 2^-n."""
    x = PeriodicSequence((), period)
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
    oscillating = SeparationInstance(RulePredicate("y_eq_x"), RulePredicate("always"))
    with pytest.raises(NotGroundTruthError):
        stabilization_bound(oscillating, 0)
    with pytest.raises(BudgetExceededError):
        stabilization_bound(catalog.SEPARATIONS["late-cutoff"], 0, code_budget=100)


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
