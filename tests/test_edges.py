"""The one round-trip loop of ``bwreduce.edges``: which checks it runs.

The catalog round trips pass both checks, so a loop that skipped one would
still pass them; this test hands the loop a wrong solution instead.
"""

from __future__ import annotations

from dataclasses import replace

from bwreduce import catalog
from bwreduce.certificates import Budget, CohesiveWitness, Selector
from bwreduce.edges import EDGES, roundtrip
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
