"""The five reduction edges of the paper, in one table, and one round trip.

Each edge is one uniform, instance-wise reduction: ``forward`` turns a
``source`` instance into a ``target`` instance, ``solve`` solves the target
and ``back`` translates that solution into one of the source.  ``roundtrip``
runs every edge through one loop (reduce, solve, back, check), and
``check``, shared with ``bwreduce verify``, runs the verifier of each
certificate kind.  ``EDGES`` drives ``bwreduce reduce`` and ``bwreduce
roundtrip``, the replay of derived instance files
(``instances.parse_instance``) and the sweep ``scripts/run_roundtrips.py``.

The steps reach ``reductions.*`` and ``solvers.*`` through the module
attributes, looked up at call time, so that a tracer that rebinds those
attributes sees every call.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Any, Callable

from . import reductions, solvers
from .certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    SeparatorSet,
)
from .core import window_slots
from .errors import BudgetExceededError, SchemaViolationError
from .instances import (
    RationalSequence,
    SeparationInstance,
    SetFamily,
    SigmaTree,
    serialize_instance,
)


@dataclass(frozen=True)
class Edge:
    """One reduction between two instance classes.

    ``forward`` is named after the ``derived_by`` its result records, and
    takes the source followed by the parameters that derivation records
    (see :attr:`params`).  ``solve(target, budget, notes)`` returns a
    solution of the target, and ``back(target, solution, budget)`` a
    solution of the source, which a step reads as the target's
    ``provenance.source``; ``back`` is None when the target's solution
    already solves the source.
    """

    name: str
    source: type
    target: type
    forward: Callable[..., Any]
    solve: Callable[[Any, Budget, list[str]], Any]
    back: Callable[[Any, Any, Budget], Any] | None

    @cached_property
    def params(self) -> tuple[str, ...]:
        """Names of the parameters ``forward`` takes after the source."""
        return tuple(inspect.signature(self.forward).parameters)[1:]


# ---------------------------------------------------------------------------
# steps: forward, and the solve and back steps longer than a lambda
# ---------------------------------------------------------------------------


def bw_to_swkl(x: RationalSequence) -> SigmaTree:
    return reductions.bw_to_swkl(x)


def swkl_to_separation(y: SigmaTree) -> SeparationInstance:
    return reductions.swkl_to_separation(y)


def separation_to_bw(p: SeparationInstance, code_budget: int) -> RationalSequence:
    return reductions.separation_to_bw(p, code_budget)


def bwweak_to_stcoh(x: RationalSequence, convention: str) -> SetFamily:
    return reductions.bwweak_to_stcoh(x, convention)


def stcoh_to_bwweak(r: SetFamily) -> RationalSequence:
    return reductions.stcoh_to_bwweak(r)


def _branch_to_cauchy(tree: SigmaTree, br: BranchPrefix, budget: Budget):
    bp = reductions.branch_to_point(tree, br.bits, budget.stage)
    return CauchyCertificate(
        bp.selector, tuple((n, n) for n in range(len(bp.selector))), "fast"
    )


def _stable_separator(x: RationalSequence, budget: Budget, notes):
    """The first depth bits of h at its stabilization bound k*, which already
    are a separator of x's source p: past k* every bit that one side's
    failure constrains is final, and a bit with both sides total lies in
    neither limit set, so either value separates there."""
    p, rng = x.provenance.source, budget.depth
    if rng < 1:
        raise ValueError("separator search needs depth >= 1")
    kstar = max(
        solvers.stabilization_bound(p, n, budget.code_budget) for n in range(rng)
    )
    notes.append(f"stabilization bound {kstar}")
    window = max(budget.threshold, 1)
    if kstar + window > budget.code_budget:  # the check reads h at k* + window
        raise BudgetExceededError(
            f"stabilization bound {kstar} plus finder window {window} "
            f"exceeds code budget {budget.code_budget}"
        )
    bits = x.point(kstar).bits(rng)
    later = x.point(kstar + window).bits(rng)
    # only a constrained bit, where exactly one side is total, must stay put;
    # a free one may still flip
    if any(
        b != c and p.totality(0, n) != p.totality(1, n)
        for n, (b, c) in enumerate(zip(bits, later))
    ):
        notes.append("stabilization check failed")  # unreachable for ground truth
    return SeparatorSet(bits)


def _strongly_cohesive(family: SetFamily, budget: Budget, notes):
    """A witness over depth + 2 rows: a shared pattern over L rows confines
    the terms to within 2^-(L-2), so that many rows back the slow moduli
    (n, 0) for every n <= depth that ``back`` claims."""
    x, levels = family.provenance.source, budget.depth
    full = []
    struct = family.column_structure()
    if struct is not None:
        # a 1 digit marks a column outside that row (see SetFamily.pattern);
        # rows < levels are read off the witness's own memoized patterns.  A
        # column depends only on its term, and the prefix indices that x
        # names and the period slots hold every term, so they read every column
        outside = 0
        for j in chain(x.prefix_indices(struct[0]), window_slots(struct)):
            outside |= family.pattern(j, range(levels + 2)) >> 2
        full = [i for i in range(levels) if not outside >> (levels - 1 - i) & 1]
    if len(full) == levels:
        notes.append(f"R_i = N for all i < {levels}")
    elif full:
        notes.append("R_i = N for i in {" + ", ".join(map(str, full)) + "}")
    return solvers.build_strongly_cohesive(family, levels + 2, budget)


def _slow_cauchy(x: RationalSequence, budget: Budget, notes):
    levels = budget.depth
    cauchy_depth = (3**levels).bit_length()  # the least d with 2^d > 3^levels
    notes.append(f"slow-cauchy depth {cauchy_depth} for {levels} levels")
    return solvers.extract_slow_cauchy(x, replace(budget, depth=cauchy_depth))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

EDGES: dict[str, Edge] = {
    edge.name: edge
    for edge in (
        Edge("bw-swkl", RationalSequence, SigmaTree, bw_to_swkl,
             lambda tree, budget, notes: solvers.find_branch(tree, budget),
             _branch_to_cauchy),
        Edge("swkl-separation", SigmaTree, SeparationInstance, swkl_to_separation,
             lambda p, budget, notes: reductions.exact_separator(p.provenance.source, budget.depth),
             lambda p, s, budget: BranchPrefix(
                 reductions.separator_to_branch(s, p.provenance.source, budget.depth, budget.stage),
                 budget.stage,
             )),
        Edge("separation-bw", SeparationInstance, RationalSequence, separation_to_bw,
             _stable_separator, None),
        # a strictly increasing enumeration of a strongly cohesive set is
        # already the Cauchy subsequence; the source check verifies the claim
        Edge("bwweak-stcoh", RationalSequence, SetFamily, bwweak_to_stcoh,
             _strongly_cohesive,
             lambda family, witness, budget: CauchyCertificate(
                 witness.selector, tuple((n, 0) for n in range(budget.depth + 1)), "slow"
             )),
        Edge("stcoh-bwweak", SetFamily, RationalSequence, stcoh_to_bwweak,
             _slow_cauchy,
             lambda x, cert, budget: solvers.witness_from_selector(
                 cert.selector, x.provenance.source, budget.depth
             )),
    )
}


# ---------------------------------------------------------------------------
# checking and the round trip
# ---------------------------------------------------------------------------


def check(cert: Any, instance: Any, budget: Budget, strong_levels: int | None = None):
    """Run the verifier of ``cert``'s kind against ``instance``: None on pass,
    the least violation on fail.  Separators are checked below
    ``budget.depth``, and accumulation points against the cell window of
    their last cell's level; ``strong_levels`` asks a cohesive witness to
    settle every row below it (the strong form)."""
    if isinstance(cert, CauchyCertificate) and isinstance(instance, RationalSequence):
        return solvers.verify_cauchy(cert, instance)
    if isinstance(cert, CohesiveWitness) and isinstance(instance, SetFamily):
        return solvers.verify_cohesive(cert, instance, strong_levels=strong_levels)
    if isinstance(cert, SeparatorSet) and isinstance(instance, SeparationInstance):
        return solvers.verify_separator(cert, instance, budget.depth)
    if isinstance(cert, BranchPrefix) and isinstance(instance, SigmaTree):
        return solvers.verify_branch(cert, instance)
    if isinstance(cert, AccumulationResult) and isinstance(instance, RationalSequence):
        return solvers.verify_accumulation(cert, instance)
    raise SchemaViolationError(
        f"certificate kind {type(cert).__name__} does not verify against "
        f"instance kind {type(instance).__name__}"
    )


def _digest(obj: Any, memo: dict) -> str:
    return hashlib.sha256(serialize_instance(obj, memo)).hexdigest()[:16]


def roundtrip(edge: Edge, source: Any, budget: Budget, notes: list[str], convention: str):
    """Reduce ``source`` along ``edge``, solve, translate back and check.

    Returns the ``(step, digest)`` rows of the report and the first
    violation, or None.  The target's solution is checked against the
    target unless ``back`` is None or the target is a separation without
    ground truth; the translated solution is checked against the source.
    """
    recorded = {"code_budget": budget.code_budget, "convention": convention}
    target = edge.forward(source, **{name: recorded[name] for name in edge.params})
    solution = answer = edge.solve(target, budget, notes)
    results = [("reduce", target), ("solve", solution)]
    if edge.back is not None:
        answer = edge.back(target, solution, budget)
        results.append(("back", answer))
    # one memo for this round trip's digests: the solve and back stages of
    # the cohesion edges hold one selector, whose values are written once
    memo: dict = {}
    stages = [(step, _digest(obj, memo)) for step, obj in results]
    bad = None
    checkable = not isinstance(target, SeparationInstance) or target.has_ground_truth()
    if edge.back is not None and checkable:
        bad = check(solution, target, budget, strong_levels=budget.depth)
    return stages, bad or check(answer, source, budget, strong_levels=budget.depth)
