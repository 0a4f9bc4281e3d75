"""The five reduction edges of the paper, in one table.

Each edge is one uniform, instance-wise reduction: ``forward`` turns a
``source`` instance into a ``target`` instance, and ``roundtrip`` reduces,
solves the derived instance, translates the witness back and verifies it.
``EDGES`` drives ``bwreduce reduce`` and ``bwreduce roundtrip``, the replay
of derived instance files (``instances.parse_instance``) and the catalog
sweep ``scripts/run_roundtrips.py``.

The forward steps and the runners reach ``reductions.*`` and ``solvers.*``
through the module attributes, looked up at call time, so that a tracer
that rebinds those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, replace
from typing import Any, Callable

from . import reductions, solvers
from .certificates import BranchPrefix, Budget, CauchyCertificate, SeparatorSet
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
    (see :attr:`params`).  ``roundtrip(source, budget, notes, convention)``
    returns the ``(step, digest)`` rows of the report and the first verifier
    violation, or None.
    """

    name: str
    source: type
    target: type
    forward: Callable[..., Any]
    roundtrip: Callable[[Any, Budget, list[str], str], tuple[list[tuple[str, str]], Any]]

    @property
    def params(self) -> tuple[str, ...]:
        """Names of the parameters ``forward`` takes after the source."""
        return tuple(inspect.signature(self.forward).parameters)[1:]


# ---------------------------------------------------------------------------
# forward steps
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


# ---------------------------------------------------------------------------
# round trips: reduce -> solve -> back-translate -> verify
# ---------------------------------------------------------------------------


def _digest(obj: Any) -> str:
    return hashlib.sha256(serialize_instance(obj)).hexdigest()[:16]


def _roundtrip_bw_swkl(
    x: RationalSequence, budget: Budget, notes: list[str], convention: str
):
    tree = reductions.bw_to_swkl(x)
    br = solvers.find_branch(tree, budget)
    bp = reductions.branch_to_point(tree, br.bits, budget.stage)
    cert = CauchyCertificate(
        bp.selector, tuple((n, n) for n in range(len(bp.selector))), "fast"
    )
    stages = [("reduce", _digest(tree)), ("solve", _digest(br)), ("back", _digest(cert))]
    bad = solvers.verify_branch(br, tree) or solvers.verify_cauchy(cert, x)
    return stages, bad


def _roundtrip_swkl_separation(
    y: SigmaTree, budget: Budget, notes: list[str], convention: str
):
    p = reductions.swkl_to_separation(y)
    s = reductions.exact_separator(y, budget.depth)
    bits = reductions.separator_to_branch(s, y, budget.depth, budget.stage)
    br = BranchPrefix(bits, budget.stage)
    stages = [("reduce", _digest(p)), ("solve", _digest(s)), ("back", _digest(br))]
    return stages, solvers.verify_branch(br, y)


def _roundtrip_separation_bw(
    p: SeparationInstance, budget: Budget, notes: list[str], convention: str
):
    rng = budget.depth
    x = reductions.separation_to_bw(p, budget.code_budget)
    kstar = max(
        solvers.stabilization_bound(p, n, budget.code_budget) for n in range(rng)
    )
    notes.append(f"stabilization bound {kstar}")
    window = max(budget.threshold, 1)
    finder_budget = replace(budget, horizon=window, threshold=window)
    bits = solvers.find_accumulation_cantor(
        lambda k: x.point(kstar + k), finder_budget
    )
    if tuple(x.point(kstar).bits(rng)) != tuple(x.point(kstar + window).bits(rng)):
        notes.append("stabilization check failed")  # unreachable for ground truth
    s = SeparatorSet(tuple(bits))
    stages = [("reduce", _digest(x)), ("solve", _digest(s))]
    return stages, solvers.verify_separator(s, p, rng, budget)


def _roundtrip_bwweak_stcoh(
    x: RationalSequence, budget: Budget, notes: list[str], convention: str
):
    family = reductions.bwweak_to_stcoh(x, convention)
    levels = budget.depth
    full = [
        i
        for i in range(levels)
        if (pat := family.row_pattern(i)) is not None and pat.is_full()
    ]
    if len(full) == levels:
        notes.append(f"R_i = N for all i < {levels}")
    elif full:
        notes.append("R_i = N for i in {" + ", ".join(map(str, full)) + "}")
    witness = solvers.build_strongly_cohesive(family, levels, budget)
    # a strictly increasing enumeration of a strongly cohesive set is already
    # the Cauchy subsequence; verify_cauchy checks the claim
    cert = CauchyCertificate(
        witness.selector, tuple((n, 0) for n in range(budget.depth + 1)), "slow"
    )
    stages = [
        ("reduce", _digest(family)),
        ("solve", _digest(witness)),
        ("back", _digest(cert)),
    ]
    bad = solvers.verify_cohesive(witness, family, strong_levels=levels)
    return stages, bad or solvers.verify_cauchy(cert, x)


def _roundtrip_stcoh_bwweak(
    family: SetFamily, budget: Budget, notes: list[str], convention: str
):
    x = reductions.stcoh_to_bwweak(family)
    levels = budget.depth
    cauchy_depth = 0
    while 2**cauchy_depth <= 3**levels:
        cauchy_depth += 1
    notes.append(f"slow-cauchy depth {cauchy_depth} for {levels} levels")
    cert = solvers.extract_slow_cauchy(x, replace(budget, depth=cauchy_depth))
    witness = solvers.witness_from_selector(cert.selector, family, levels)
    stages = [
        ("reduce", _digest(x)),
        ("solve", _digest(cert)),
        ("back", _digest(witness)),
    ]
    bad = solvers.verify_cauchy(cert, x)
    return stages, bad or solvers.verify_cohesive(witness, family, strong_levels=levels)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

EDGES: dict[str, Edge] = {
    edge.name: edge
    for edge in (
        Edge("bw-swkl", RationalSequence, SigmaTree,
             bw_to_swkl, _roundtrip_bw_swkl),
        Edge("swkl-separation", SigmaTree, SeparationInstance,
             swkl_to_separation, _roundtrip_swkl_separation),
        Edge("separation-bw", SeparationInstance, RationalSequence,
             separation_to_bw, _roundtrip_separation_bw),
        Edge("bwweak-stcoh", RationalSequence, SetFamily,
             bwweak_to_stcoh, _roundtrip_bwweak_stcoh),
        Edge("stcoh-bwweak", SetFamily, RationalSequence,
             stcoh_to_bwweak, _roundtrip_stcoh_bwweak),
    )
}
