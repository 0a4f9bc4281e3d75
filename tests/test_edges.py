"""The one round-trip loop of ``bwreduce.edges``: which checks it runs.

The catalog round trips pass both checks, so a loop that skipped one would
still pass them; this test hands the loop a wrong solution instead.
"""

from __future__ import annotations

from dataclasses import replace

from bwreduce import catalog
from bwreduce.certificates import Budget, CohesiveWitness, Selector
from bwreduce.edges import EDGES, roundtrip
from bwreduce.instances import DerivedFamily, RationalSequence
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
    broken = replace(edge, solve=lambda x, family, budget, notes: wrong)
    stages, bad = roundtrip(broken, x, Budget(), [], "corrected")
    assert bad == CohesiveViolation(0, 0)
    assert [step for step, _ in stages] == ["reduce", "solve", "back"]


def test_full_row_note_reads_patterns_not_members(monkeypatch):
    """The ``R_i = N`` note of bwweak-stcoh lists the rows that
    ``row_pattern`` reads as full, in both conventions, while the round
    trip asks ``member`` of the family not once."""
    edge = EDGES["bwweak-stcoh"]
    budget = Budget()
    for x in catalog.PERIODIC_SEQUENCES.values():
        for convention in DerivedFamily.conventions:
            family = edge.forward(x, convention)
            full = [i for i in range(budget.depth) if family.row_pattern(i).is_full()]
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
            edge.solve(counting, family, budget, [])
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
        witness = edge.solve(x, family, budget, [])
        assert [i for i, _, _ in witness.settle] == list(range(budget.depth + 2)), name
        assert roundtrip(edge, x, budget, [], "corrected")[1] is None, name
