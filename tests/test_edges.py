"""The one round-trip loop of ``bwreduce.edges``: which checks it runs,
and what its steps read.

The catalog round trips pass both checks, so a loop that skipped one would
still pass them; this test hands the loop a wrong solution instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle
from bwreduce import catalog, reductions, solvers
from bwreduce.certificates import Budget, CohesiveWitness, Selector
from bwreduce.edges import EDGES, roundtrip
from bwreduce.errors import BudgetError, BwreduceError
from bwreduce.instances import (
    Cond,
    DerivedFamily,
    PeriodicSequence,
    RationalSequence,
    RulePredicate,
    SeparationInstance,
    TableSequence,
    parse_instance,
    serialize_instance,
)
from bwreduce.solvers import CohesiveViolation


def test_roundtrip_checks_the_target_solution():
    x = catalog.SEQUENCES["constant-third"]
    edge = EDGES["bwweak-stcoh"]
    assert roundtrip(edge, x, Budget(), [], "corrected")[1] is None
    # every row on the wrong side of the constant's one membership pattern
    family = edge.forward(x, "corrected")
    settle = tuple(
        (i, 0, "out" if family.member(i, 0) else "in") for i in range(Budget().depth)
    )
    wrong = CohesiveWitness(Selector((0, 1, 2)), settle)
    # the back step turns any selector of a constant sequence into a passing
    # Cauchy certificate, so only the target check can catch the wrong sides
    broken = replace(edge, solve=lambda family, budget, notes: wrong)
    stages, bad = roundtrip(broken, x, Budget(), [], "corrected")
    assert bad == CohesiveViolation(0, 0)
    assert [step for step, _ in stages] == ["reduce", "solve", "back"]


def test_full_row_note_reads_patterns_not_members(monkeypatch):
    """The ``R_i = N`` note of bwweak-stcoh lists the rows that ``member``
    reads as full over the source's window, in both conventions, while the
    round trip asks ``member`` of the family not once."""
    edge = EDGES["bwweak-stcoh"]
    budget = Budget()
    for x in catalog.PERIODIC_SEQUENCES.values():
        for convention in DerivedFamily.conventions:
            family = edge.forward(x, convention)
            full = [i for i in range(budget.depth) if kernel_oracle.row_is_full(family, i)]
            calls = []
            monkeypatch.setattr(DerivedFamily, "member", lambda *a: calls.append(a))
            notes: list[str] = []
            roundtrip(edge, x, budget, notes, convention)
            monkeypatch.undo()
            assert calls == []
            if len(full) == budget.depth:
                assert f"R_i = N for all i < {budget.depth}" in notes
            elif full:
                assert "R_i = N for i in {" + ", ".join(map(str, full)) + "}" in notes
            else:
                assert not any(note.startswith("R_i") for note in notes)


_table_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 39), _table_values, max_size=6),
    _table_values,
    st.integers(1, 8),
    st.sampled_from(DerivedFamily.conventions),
)
def test_full_row_note_reads_listed_columns_as_the_whole_window(entries, default, depth, convention):
    """On a table the note reads only the listed columns and the period
    column, and names the rows that reading every column below j0 + q
    names, in both conventions."""
    x = TableSequence(entries, default)
    edge = EDGES["bwweak-stcoh"]
    family = edge.forward(x, convention)
    notes: list[str] = []
    try:
        edge.solve(family, Budget(depth=depth), notes)
    except BwreduceError:
        pass  # the note is written before the witness is searched for
    want = kernel_oracle.full_row_note(family, depth)
    assert [n for n in notes if n.startswith("R_i")] == ([want] if want else [])


class _CountingSource(RationalSequence):
    """A sequence that records every index whose term is evaluated."""

    def __init__(self, inner: RationalSequence):
        self.inner, self.calls = inner, []

    def term(self, i: int):
        self.calls.append(i)
        return self.inner.term(i)

    def periodic_structure(self):
        return self.inner.periodic_structure()


def test_bwweak_stcoh_solve_evaluates_each_window_term_once():
    """The ``R_i = N`` note and the cohesive witness read the same window
    columns, so a solve evaluates each term j < j0 + q exactly once."""
    edge = EDGES["bwweak-stcoh"]
    budget = Budget()
    sources = {**catalog.SEQUENCES, **catalog.PERIODIC_SEQUENCES}
    periodic = {k: x for k, x in sources.items() if x.periodic_structure() is not None}
    assert len(periodic) >= 10
    for name, x in sorted(periodic.items()):
        for convention in DerivedFamily.conventions:
            counting = _CountingSource(x)
            family = edge.forward(counting, convention)
            edge.solve(family, budget, [])
            j0, q = x.periodic_structure()
            assert sorted(counting.calls) == list(range(j0 + q)), (name, convention)


def test_bwweak_stcoh_round_trips_every_catalog_sequence():
    """In the corrected convention the witness settles two rows more than
    the slow moduli claim, so the translated Cauchy certificate holds on
    every catalog sequence, binary walks and the harmonic sequence included,
    and the witness itself is strong for rows below the depth."""
    edge = EDGES["bwweak-stcoh"]
    budget = Budget()
    assert len(catalog.SEQUENCES) == 20
    for name, x in sorted(catalog.SEQUENCES.items()):
        family = edge.forward(x, "corrected")
        witness = edge.solve(family, budget, [])
        assert [i for i, _, _ in witness.settle] == list(range(budget.depth + 2)), name
        assert roundtrip(edge, x, budget, [], "corrected")[1] is None, name


# --- cohesion: stage digests and every target solution -------------------------


def _oracle_digest(obj) -> str:
    meta = dict(getattr(obj, "meta", {}) or {})
    envelope = {"kind": obj.kind, "repr": obj.to_repr(), "meta": meta}
    data = (json.dumps(envelope, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _recording(edge, seen: list):
    """``edge`` with every stage object appended to ``seen``; ``forward``
    keeps its signature, which names the parameters the edge records."""
    def step(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            seen.append(fn(*args, **kwargs))
            return seen[-1]

        return recorded

    return replace(edge, forward=step(edge.forward), solve=step(edge.solve), back=step(edge.back))


_COHESION_SOURCES = {
    "bwweak-stcoh": catalog.PERIODIC_SEQUENCES,
    "stcoh-bwweak": catalog.FAMILIES,
}


@pytest.mark.parametrize("pair", sorted(_COHESION_SOURCES))
@pytest.mark.parametrize("copy", ["shared", "equal", "shifted"])
def test_cohesion_stage_digests_hash_the_json_dumps_bytes(pair, copy):
    """Each stage digest of a cohesion round trip is the hash of json.dumps's
    bytes for that stage.  The solve and back stages hold one selector, so
    its values are written once; a back step that hands out a distinct
    selector of equal values, or of values one higher, gets its own bytes."""
    remake = {
        "shared": lambda sel: sel,
        "equal": lambda sel: Selector(tuple(list(sel.values)), sel.extension_step),
        "shifted": lambda sel: Selector(tuple(v + 1 for v in sel.values), sel.extension_step),
    }[copy]
    edge = EDGES[pair]

    def back(*args):
        answer = EDGES[pair].back(*args)
        return replace(answer, selector=remake(answer.selector))

    edge = replace(edge, back=back)
    for name, source in sorted(_COHESION_SOURCES[pair].items()):
        seen: list = []
        stages, _ = roundtrip(_recording(edge, seen), source, Budget(horizon=64), [], "corrected")
        solution, answer = seen[1], seen[2]
        assert (solution.selector is answer.selector) == (copy == "shared"), name
        assert solution.selector.values == answer.selector.values or copy == "shifted", name
        assert [digest for _, digest in stages] == [_oracle_digest(obj) for obj in seen], name


_unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=40)
_periodic_sources = st.one_of(
    st.builds(
        PeriodicSequence,
        st.lists(_unit_rationals, max_size=3),
        st.lists(_unit_rationals, min_size=1, max_size=4),
    ),
    st.builds(
        TableSequence,
        st.dictionaries(st.integers(0, 12), _unit_rationals, max_size=4),
        _unit_rationals,
    ),
)


@settings(max_examples=150, deadline=None)
@given(_periodic_sources, st.integers(1, 8), st.data())
def test_bwweak_stcoh_back_map_takes_every_infinite_pattern(x, depth, data):
    """Any target solution of bwweak-stcoh translates back: draw a pattern
    over depth + 2 rows whose member set is infinite (one held by a period
    slot of the family's window) and a selector of its members.  Its
    cohesive witness passes the target check, and the back map gives a
    Cauchy certificate that ``verify_cauchy`` passes and that carries the
    witness's selector unchanged."""
    edge = EDGES["bwweak-stcoh"]
    budget = Budget(depth=depth)
    family = edge.forward(x, "corrected")
    rows = range(depth + 2)
    j0, q = family.periodic_structure(rows)
    slot = data.draw(st.integers(j0, j0 + q - 1), label="slot")
    pattern = family.pattern(slot, rows)
    members = [j for j in range(j0 + 4 * q) if family.pattern(j, rows) == pattern]
    picked = data.draw(st.lists(st.sampled_from(members), min_size=1, unique=True), label="picked")
    witness = solvers.witness_from_selector(Selector(tuple(sorted(picked))), family, depth + 2)
    assert solvers.verify_cohesive(witness, family, strong_levels=depth) is None
    cert = edge.back(family, witness, budget)
    assert cert.selector is witness.selector
    assert solvers.verify_cauchy(cert, x) is None


# --- separation-bw: the separator is h at the stabilization bound ---------------

_RULES = ("never", "always", "y_eq_x", "y_eq_x_if", "y_eq_const", "y_eq_x_below")
_CONDS = (
    Cond("always"), Cond("never"), Cond("even"), Cond("odd"),
    Cond("mod", modulus=3, residues=(1,)), Cond("lt", bound=3), Cond("ge", bound=3),
    Cond("in", values=(1, 3)), Cond("not_in", values=(1, 3)),
)


def _rule_predicate(rng: random.Random) -> RulePredicate:
    """A menu rule with up to four random pins at x < 4, y < 6, n < 8."""
    pins = {}
    for _ in range(rng.randint(0, 4)):
        pins[rng.randrange(4), rng.randrange(6), rng.randrange(8)] = rng.random() < 0.5
    return RulePredicate(
        rng.choice(_RULES),
        cond=rng.choice(_CONDS),
        value=rng.randint(0, 4),
        bound=rng.randint(0, 4),
        overrides=tuple((x, y, n, v) for (x, y, n), v in pins.items()),
    )


def _promise_keeping_pair(rng: random.Random, depth: int = 8) -> SeparationInstance:
    """Random rule pairs, drawn until one side is total at every n < depth."""
    while True:
        p = SeparationInstance(_rule_predicate(rng), _rule_predicate(rng))
        if all(p.totality(0, n) or p.totality(1, n) for n in range(depth)):
            return p


def _free(p: SeparationInstance, depth: int) -> list[int]:
    """The n < depth with both sides total, whose separator bit is free."""
    return [n for n in range(depth) if p.totality(0, n) and p.totality(1, n)]


def _separator_outcome(solve, p: SeparationInstance, budget: Budget):
    x = reductions.separation_to_bw(p, budget.code_budget)
    notes: list[str] = []
    try:
        return serialize_instance(solve(x, budget, notes)), notes
    except BwreduceError as e:
        return type(e), str(e), notes


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_separator_at_kstar_matches_the_window_finder(seed):
    """Where every free n has equal least-witness streams, h ties at 0 there
    at every cutoff, so the window finder's points past k* are all h(k*):
    the same separator bytes and notes, or the same budget error."""
    p = _promise_keeping_pair(random.Random(seed))
    assume(all(kernel_oracle.choice_streams_equal(p, n) for n in _free(p, 8)))
    budget = Budget(code_budget=10**40)
    assert _separator_outcome(EDGES["separation-bw"].solve, p, budget) == (
        _separator_outcome(kernel_oracle.stable_separator, p, budget)
    )


@pytest.mark.parametrize("depth", [1, 4, 8, 12])
def test_catalog_separator_at_kstar_matches_the_window_finder(depth):
    budget = Budget(depth=depth)
    for name, p in sorted(catalog.SEPARATIONS.items()):
        got = _separator_outcome(EDGES["separation-bw"].solve, p, budget)
        assert isinstance(got[0], bytes), (name, got)
        assert got == _separator_outcome(kernel_oracle.stable_separator, p, budget), name


def test_promise_keeping_separations_pass_or_name_a_budget():
    """300 seeded rule pairs that keep the disjointness promise below depth
    8, at a code budget of 10^40: every round trip passes with no failed
    stabilization check, or is an exceeded budget that names the code
    budget (exit 2).  None stops at a free bit (exit 4), although some of
    them have both sides total with different streams at some n."""
    rng = random.Random(0)
    budget = Budget(code_budget=10**40)
    unequal = 0
    for _ in range(300):
        p = _promise_keeping_pair(rng)
        unequal += not all(kernel_oracle.choice_streams_equal(p, n) for n in _free(p, 8))
        notes: list[str] = []
        try:
            _, bad = roundtrip(EDGES["separation-bw"], p, budget, notes, "corrected")
        except BudgetError as e:
            assert "code budget" in e.reason, e.reason
            continue
        assert bad is None, p.to_repr()
        assert "stabilization check failed" not in notes, p.to_repr()
    assert unequal > 0


FREE_BIT = Path(__file__).parent / "data" / "free_bit.json"


def test_free_bit_file_is_the_both_total_pair():
    """Both sides are total at every n, so every separator bit is free: bit
    0 of h is 0 at k* = 0 and 1 at k* + 8, yet no check note follows."""
    p = parse_instance(FREE_BIT.read_bytes())
    assert serialize_instance(p) == serialize_instance(
        SeparationInstance(RulePredicate("y_eq_x"), RulePredicate("always"))
    )
    assert [reductions.h_bit(p, k, 0, 10**6) for k in (0, 8)] == [0, 1]
    notes: list[str] = []
    _, bad = roundtrip(EDGES["separation-bw"], p, Budget(), notes, "corrected")
    assert bad is None
    assert notes == ["stabilization bound 0"]


@pytest.mark.parametrize("depth", [1, 4, 8, 12])
def test_separation_bw_reads_h_once_per_bit(monkeypatch, depth):
    """h at k* gives every bit, and the stabilization check reads h once
    more at k* + window: 2·depth ``h_bit`` calls per round trip, where the
    window finder made (window + 2)·depth."""
    calls = []
    h_bit = reductions.h_bit

    def counted(p, k, n, code_budget):
        calls.append((k, n))
        return h_bit(p, k, n, code_budget)

    monkeypatch.setattr(reductions, "h_bit", counted)
    late = parse_instance((Path(__file__).parent / "data" / "late_million.json").read_bytes())
    budget = Budget(depth=depth)
    for name, p in [*sorted(catalog.SEPARATIONS.items()), ("late-million", late)]:
        calls.clear()
        _, bad = roundtrip(EDGES["separation-bw"], p, budget, [], "corrected")
        assert bad is None, name
        assert len(calls) == 2 * depth, name


@pytest.mark.parametrize("depth", [1, 4, 8, 12])
def test_separation_bw_asks_each_first_failure_once(monkeypatch, depth):
    """Each side's first failure at each n < depth is asked of its rule once,
    and the stabilization bound, its check and the verifier share it: at
    most 2·depth ``RulePredicate.first_failure`` calls per round trip."""
    calls = []
    first_failure = RulePredicate.first_failure
    monkeypatch.setattr(
        RulePredicate, "first_failure", lambda pred, n: calls.append(n) or first_failure(pred, n)
    )
    data = Path(__file__).parent / "data"
    files = {name: serialize_instance(p) for name, p in catalog.SEPARATIONS.items()}
    files.update({f: (data / f).read_bytes() for f in ("late_million.json", "free_bit.json")})
    for name, raw in sorted(files.items()):
        p = parse_instance(raw)  # a fresh instance, with nothing memoized
        calls.clear()
        _, bad = roundtrip(EDGES["separation-bw"], p, Budget(depth=depth), [], "corrected")
        assert bad is None, name
        assert len(calls) <= 2 * depth, (name, len(calls))


def test_edge_params_are_read_once(monkeypatch):
    """Each edge reads its ``forward`` signature once, not on every call."""
    from bwreduce import edges

    calls = []
    signature = edges.inspect.signature
    monkeypatch.setattr(
        edges.inspect, "signature", lambda fn: calls.append(fn) or signature(fn)
    )
    edge = replace(EDGES["separation-bw"])  # a copy that has not read it yet
    p = catalog.SEPARATIONS["odds-vs-evens"]
    for _ in range(3):
        assert edge.params == ("code_budget",)
        assert roundtrip(edge, p, Budget(), [], "corrected")[1] is None
    assert calls == [edge.forward]
