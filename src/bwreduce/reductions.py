"""Instance-wise reductions between the four principles, in both directions.

Forward translations build derived instances (sequence -> tree -> separation,
sequence -> set family, set family -> sequence, separation -> sequence);
backward translations turn a witness for the derived instance into a witness
for the original (branch -> accumulation point, separator -> branch).  The
other two are the identity on the data, done in the round trips of
``edges``: an accumulation prefix is read as a separator, and a cohesive
selector already is the Cauchy subsequence.
All arithmetic is exact; search is bounded by explicit arguments and fails
loudly (budget-exceeded, witness-exhausted) rather than degrading.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .certificates import Budget, Selector, SeparatorSet
from .core import (
    Bits,
    CantorPoint,
    DyadicInterval,
    format_bits,
    string_code,
)
from .errors import BudgetExceededError, NotANodeError, WitnessExhaustedError
from .instances import (
    DerivedFamily,
    DerivedTree,
    EmbeddedSequence,
    Provenance,
    RationalSequence,
    SeparationInstance,
    SetFamily,
    SigmaTree,
    TreeSidePredicate,
)


# exact_separator keeps one bit per string code below its depth, 2^depth - 1
# in all; a deeper request is refused before anything is allocated
MAX_SEPARATOR_DEPTH = 22


class BranchPoint(NamedTuple):
    """Accumulation data recovered from a tree branch."""

    approx: Fraction
    err: Fraction
    selector: Selector


# ---------------------------------------------------------------------------
# sequence -> tree -> sequence
# ---------------------------------------------------------------------------


def bw_to_swkl(x: RationalSequence) -> DerivedTree:
    """Derived tree whose depth-d nodes need d distinct term indices inside
    their closed dyadic cell; infinite for every total sequence, and each
    infinite branch pins an accumulation point (see DerivedTree)."""
    return DerivedTree(x)


def branch_to_point(tree: DerivedTree, bits: Bits, stage: int) -> BranchPoint:
    """Back-translate a verified branch prefix of the tree ``bw_to_swkl(x)``
    (the one the branch was found in; x is its source) into an accumulation
    point of x.

    Returns the left endpoint of the final cell with error 2^-|bits|, plus a
    strictly increasing selector j_0 < ... < j_{|bits|-2}, j_t the least
    index past j_{t-1} whose term lies inside the cell of bits[:t+1] (read by
    ``x.first_in_cell``); consecutive cells nest, so
    |term(selector(v)) - term(selector(w))| <= 2^-(min(v,w)+1).
    """
    bits = tuple(bits)
    if not tree.member_at_stage(bits, stage):
        raise NotANodeError(
            f"{format_bits(bits)!r} is not a tree node at stage {stage}"
        )
    picks: list[int] = []
    a = 0
    for t, b in enumerate(bits[:-1]):
        a = (a << 1) | b
        j = tree.source.first_in_cell(t + 1, a, picks[-1] + 1 if picks else 0, stage + 1)
        if j is None:
            raise WitnessExhaustedError(
                f"stage {stage} holds no witness for cell {t + 1} of {format_bits(bits)!r}"
            )
        picks.append(j)
    cell = DyadicInterval.from_bits(bits)
    return BranchPoint(cell.lower, cell.width, Selector(tuple(picks)))


# ---------------------------------------------------------------------------
# tree <-> separation
# ---------------------------------------------------------------------------


def swkl_to_separation(y: SigmaTree) -> SeparationInstance:
    """Separation instance whose limit sets record which child side of each
    coded string dies first (A_0: the 0-side dies while the 1-side still
    reaches the same length; A_1 symmetric); disjoint by the dies-first
    argument."""
    return SeparationInstance(
        TreeSidePredicate(y, 0),
        TreeSidePredicate(y, 1),
        disjointness_promise=True,
        provenance=Provenance("swkl_to_separation", y),
    )


def exact_separator(y: SigmaTree, depth: int) -> SeparatorSet:
    """Separator over all string codes of length < depth, from the tree's
    decidable limit view: code(σ) is in iff the 0-side below σ dies strictly
    before the 1-side.  One walk of the limit tree asks ``limit_heights`` once
    per limit node; a node off it has both heights len(σ), hence bit 0.
    A depth past ``MAX_SEPARATOR_DEPTH`` is an exceeded budget."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > MAX_SEPARATOR_DEPTH:
        raise BudgetExceededError(
            f"separator of depth {depth} needs 2^{depth} - 1 bits; "
            f"the limit is depth {MAX_SEPARATOR_DEPTH}"
        )
    bits = bytearray(2**depth - 1)
    stack: list[Bits] = [()]
    while stack:
        sigma = stack.pop()
        h0, h1 = y.limit_heights(sigma)
        if h0 is not None and (h1 is None or h0 < h1):
            bits[string_code(sigma)] = 1
        if len(sigma) + 1 < depth:
            stack += [sigma + (c,) for c, h in enumerate((h0, h1)) if h is None or h > len(sigma)]
    return SeparatorSet(tuple(bits))


def separator_to_branch(
    s: SeparatorSet, y: SigmaTree, depth: int, stage: int
) -> Bits:
    """Walk the separator down the tree: from the root, go right when the
    current node's code is in S, else left.  Each visited prefix is checked
    for membership at the given stage (the decidable part of extendibility).
    """
    branch: Bits = ()
    for _ in range(depth):
        bit = 1 if s.member(string_code(branch)) else 0
        branch = branch + (bit,)
        if not y.member_at_stage(branch, stage):
            raise NotANodeError(
                f"separator steered into non-member {format_bits(branch)!r} "
                f"at stage {stage}"
            )
    return branch


# ---------------------------------------------------------------------------
# separation -> sequence (the f/g/h machinery)
# ---------------------------------------------------------------------------


def f_code(p: SeparationInstance, i: int, n: int, k: int, code_budget: int) -> int:
    """Largest valid code below k for side i at parameter n.

    A code is valid when it decodes and every decoded position x holds the
    least witness of x under B_i(x, ·; n).  The valid codes are therefore
    exactly the course-of-values codes of the prefixes of the least-witness
    stream x ↦ min{y : B_i(x, y; n)}, and they grow with the prefix length;
    the answer is the code of the longest prefix whose code is below k,
    read off the prefix codes that ``p.witness_prefix(i, n)`` shares across
    every cutoff.  Returns 1 (the empty sequence, vacuously valid) when no
    longer prefix fits, so the result is total and monotone nondecreasing
    in k.
    """
    return p.witness_prefix(i, n).codes[g_len(p, i, n, k, code_budget)]


def g_len(p: SeparationInstance, i: int, n: int, k: int, code_budget: int) -> int:
    """Length of the longest least-witness prefix of side i whose code is
    below k (0 when only the empty prefix fits), with no decoding; its range
    over all k is all of ℕ exactly when ∀x∃y B_i(x, y; n)."""
    if k > code_budget:
        raise BudgetExceededError(f"k = {k} exceeds code budget {code_budget}")
    return p.witness_prefix(i, n).length_below(k)


def h_bit(p: SeparationInstance, k: int, n: int, code_budget: int) -> int:
    """0 when side 0's valid-prefix length is >= side 1's at cutoff k (ties
    to 0), else 1; as k grows this stabilizes to the separator bit of n."""
    g0 = g_len(p, 0, n, k, code_budget)
    g1 = g_len(p, 1, n, k, code_budget)
    return 0 if g0 >= g1 else 1


def separation_to_bw(
    p: SeparationInstance, code_budget: int = Budget.code_budget
) -> EmbeddedSequence:
    """The sequence of embedded h_k points; the bits of an accumulation point
    of it, read as a SeparatorSet, separate the two limit sets.  Lazy: budget
    errors surface when terms are evaluated."""

    def points(k: int) -> CantorPoint:
        return CantorPoint.from_rule(
            lambda n, _k=k: h_bit(p, _k, n, code_budget), label=f"h_{k}"
        )

    return EmbeddedSequence(
        points,
        provenance=Provenance("separation_to_bw", p, (("code_budget", code_budget),)),
        structure=None,
        label="h-stream",
    )


# ---------------------------------------------------------------------------
# sequence <-> set family
# ---------------------------------------------------------------------------


def bwweak_to_stcoh(
    x: RationalSequence, convention: str = DerivedFamily.conventions[0]
) -> SetFamily:
    """Dyadic-cell membership family of the sequence (see DerivedFamily for
    the two cell conventions)."""
    return DerivedFamily(x, convention)


def stcoh_to_bwweak(r: SetFamily) -> EmbeddedSequence:
    """Embed the membership columns: term(i) is the real coding the 0/1
    column n -> [i ∈ R_n].  A selector that is slow-Cauchy for this sequence
    at precision n+1 must agree on membership in R_0..R_{n-1} from its
    settle point on."""
    return EmbeddedSequence(
        r.column_point,
        provenance=Provenance("stcoh_to_bwweak", r),
        structure=r.column_structure(),
        label="membership columns",
    )
