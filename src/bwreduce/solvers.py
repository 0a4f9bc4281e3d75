"""Budgeted, desk-scale witness finders and independent certificate verifiers.

Finders play the oracle role of each principle (accumulation point, infinite
branch, strongly cohesive set, Cauchy thinning) under an explicit Budget;
when a search space is exhausted they raise a budget error rather than
guessing.  Verifiers re-check finished certificates exhaustively with exact
arithmetic; a verifier returns None on pass and a small violation record on
fail, and shares nothing with the finders beyond the numeric kernel, of
which ``SetFamily.pattern`` (the membership of one j in many rows as one
integer) is part.

Tie-breaking is leftmost-first everywhere so identical budgets and instances
give byte-identical results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence

from .certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from .core import Bits, CantorPoint, DyadicInterval, seq_code
from .errors import (
    BudgetExceededError,
    BudgetExhaustedError,
    EmptyCellsError,
    EmptyTreeAtStageError,
    HorizonTooSmallError,
    InvalidCertificateError,
    NotGroundTruthError,
)
from .instances import (
    DerivedTree,
    EmbeddedSequence,
    RationalSequence,
    SeparationInstance,
    SetFamily,
    SigmaTree,
)
from .reductions import bwweak_to_stcoh


# ---------------------------------------------------------------------------
# violation records (verifier "fail" results)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyViolation:
    """Least (n, v, w) with |term(f(v)) - term(f(w))| >= 2^-n at a recorded
    modulus (n, s) with v, w >= s."""

    n: int
    v: int
    w: int


@dataclass(frozen=True)
class CohesiveViolation:
    """Selector value j >= s on the wrong side of row i."""

    i: int
    j: int


@dataclass(frozen=True)
class SeparatorViolation:
    """An n < range where one of the two separation implications fails."""

    n: int


@dataclass(frozen=True)
class AccumulationViolation:
    """The first failed check of an accumulation result, at the chain cell
    of ``level``: ``check`` is "chain" (cell not at its level or not nested
    in the one above), "approx" (approximant outside the last cell), "exact"
    (approximant not a period value) or "count" (too few terms in the last
    cell)."""

    level: int
    check: str


@dataclass(frozen=True)
class BranchViolation:
    """Length of the shortest prefix that is not a member at the recorded
    stage."""

    prefix_length: int


# ---------------------------------------------------------------------------
# accumulation-point search
# ---------------------------------------------------------------------------


def _leftmost_cell_at(value: Fraction, level: int) -> DyadicInterval:
    """The leftmost closed level-``level`` cell containing ``value``."""
    t = value * 2**level
    if t.denominator == 1:  # boundary point: prefer the cell on the left
        return DyadicInterval(level, max(t.numerator - 1, 0))
    return DyadicInterval(level, t.numerator // t.denominator)


def _leftmost_descent(depth: int, ok: Callable[[Bits], bool], bits: Bits = ()) -> Bits | None:
    """Leftmost ``depth``-bit extension of ``bits`` whose longer prefixes all
    pass ``ok``, or None.  Not a self-calling closure: that is a reference
    cycle, which keeps ``ok``'s data alive until the next collection."""
    if len(bits) == depth:
        return bits
    for c in (0, 1):
        child = bits + (c,)
        if ok(child):
            got = _leftmost_descent(depth, ok, child)
            if got is not None:
                return got
    return None


def find_accumulation_real(x: RationalSequence, budget: Budget) -> AccumulationResult:
    """Nested dyadic chain plus approximant for an accumulation point of x.

    Eventually periodic sequences get the exact answer: the least term value
    occurring infinitely often, with the (leftmost) chain of cells around it.
    Other sequences get a horizon-relative heuristic: the lexicographically
    least depth-level cell holding at least ``threshold`` of the first
    ``horizon`` terms, approximated by its left endpoint.  The terms j < horizon
    in a cell are counted as its witnesses in ``DerivedTree(x)`` at stage horizon - 1.
    """
    if budget.depth < 1:
        raise ValueError("accumulation search needs depth >= 1")
    cells, stage = DerivedTree(x), budget.horizon - 1
    struct = x.periodic_structure()
    if struct is not None:
        j0, q = struct
        approx = min(x.term(j) for j in range(j0, j0 + q))
        chain = tuple(
            _leftmost_cell_at(approx, d) for d in range(1, budget.depth + 1)
        )
        bits = tuple(cell.index & 1 for cell in chain)  # the chain is nested
        count = cells.witness_count(bits, stage)
        if count < budget.threshold:
            raise BudgetExhaustedError(
                f"exact accumulation cell at depth {budget.depth} holds only "
                f"{count} of the first {budget.horizon} terms "
                f"(threshold {budget.threshold})"
            )
        return AccumulationResult(chain, approx, True)

    best = _leftmost_descent(
        budget.depth, lambda bits: cells.witness_count(bits, stage) >= budget.threshold
    )
    if best is None:
        raise BudgetExhaustedError(
            f"no depth-{budget.depth} cell reaches threshold {budget.threshold} "
            f"below horizon {budget.horizon}"
        )
    chain = tuple(
        DyadicInterval.from_bits(best[: d + 1]) for d in range(budget.depth)
    )
    return AccumulationResult(chain, chain[-1].lower, False)


def _point_at(
    h: EmbeddedSequence | Callable[[int], CantorPoint] | Sequence[CantorPoint], k: int
) -> CantorPoint:
    if isinstance(h, EmbeddedSequence):
        return h.point(k)
    if callable(h):
        return h(k)
    return h[k]


def find_accumulation_cantor(
    h: EmbeddedSequence | Callable[[int], CantorPoint] | Sequence[CantorPoint],
    budget: Budget,
) -> Bits:
    """Lexicographically least depth-level bit prefix shared by at least
    ``threshold`` of the first ``horizon`` points — accumulation realized
    directly in Cantor space, no ternary decoding involved."""
    if budget.depth < 1:
        raise ValueError("accumulation search needs depth >= 1")
    pts = sorted(_point_at(h, k).bits(budget.depth) for k in range(budget.horizon))

    def count(prefix: Bits) -> int:
        return bisect_left(pts, prefix + (2,)) - bisect_left(pts, prefix)

    best = _leftmost_descent(budget.depth, lambda bits: count(bits) >= budget.threshold)
    if best is None:
        raise BudgetExhaustedError(
            f"no depth-{budget.depth} bit prefix reaches threshold "
            f"{budget.threshold} among the first {budget.horizon} points"
        )
    return best


# ---------------------------------------------------------------------------
# branch search
# ---------------------------------------------------------------------------


def find_branch(tree: SigmaTree, budget: Budget) -> BranchPrefix:
    """Leftmost depth-level member at stage ``budget.stage``; every prefix of
    the result has member extensions at all lengths up to the depth."""
    stage = budget.stage
    if not (
        tree.member_at_stage((0,), stage) or tree.member_at_stage((1,), stage)
    ):
        raise EmptyTreeAtStageError(f"no length-1 member by stage {stage}")
    if not tree.has_extension((), budget.depth, stage):
        raise BudgetExhaustedError(
            f"no member reaches depth {budget.depth} by stage {stage}"
        )
    bits: Bits = ()
    for _ in range(budget.depth):
        for c in (0, 1):
            if tree.has_extension(bits + (c,), budget.depth, stage):
                bits = bits + (c,)
                break
    return BranchPrefix(bits, stage)


# ---------------------------------------------------------------------------
# cohesion
# ---------------------------------------------------------------------------


def build_strongly_cohesive(
    family: SetFamily, levels: int, budget: Budget
) -> CohesiveWitness:
    """Witness for strong cohesion: pick the cell pattern over rows < levels
    whose member set is infinite and enumerate its members below the horizon.
    The settle points are all 0 — members of one cell never leave it.

    Jointly eventually periodic rows (prefix j0, period q) are decided by the
    patterns of one lcm window j < j0 + q: y is the least of window[j0:], and
    j is a member iff window[j if j < j0 else j0 + (j - j0) % q] == y, so the
    search reads j0 + q patterns whatever the horizon.
    Otherwise y is the most populated pattern below the horizon."""
    if levels < 1:
        raise ValueError("cohesion needs at least one row")
    rows = range(levels)
    struct = family.periodic_structure(levels)
    if struct is not None:
        j0, q = struct
        window = [family.pattern(j, rows) for j in range(j0 + q)]
        y = min(window[j0:])
        members = tuple(
            j for j in range(budget.horizon) if window[j if j < j0 else j0 + (j - j0) % q] == y
        )
    else:
        patterns = [family.pattern(j, rows) for j in range(budget.horizon)]
        counts: dict[int, int] = {}
        for pat in patterns:
            counts[pat] = counts.get(pat, 0) + 1
        if not counts:
            raise EmptyCellsError(
                f"every cell pattern is empty below horizon {budget.horizon}"
            )
        best = max(counts.values())
        y = min(pat for pat, c in counts.items() if c == best)
        members = tuple(j for j, pat in enumerate(patterns) if pat == y)
    settle = tuple(
        (i, 0, "out" if y >> (levels - 1 - i) & 1 else "in") for i in rows
    )
    return CohesiveWitness(Selector(members), settle)


def extract_slow_cauchy(x: RationalSequence, budget: Budget) -> CauchyCertificate:
    """Slow Cauchy subsequence via the cohesive route.

    Builds the corrected dyadic-cell family of x, takes a strongly cohesive
    selector for its first depth+2 rows, and records moduli (n, 0) for every
    n <= depth: a shared membership pattern through level L confines the
    terms to within 2^-(L-2) of each other, and L = depth+2 makes that
    strictly below 2^-depth.
    """
    family = bwweak_to_stcoh(x, "corrected")
    witness = build_strongly_cohesive(family, budget.depth + 2, budget)
    moduli = tuple((n, 0) for n in range(budget.depth + 1))
    return CauchyCertificate(witness.selector, moduli, "slow")


def witness_from_selector(
    selector: Selector, family: SetFamily, levels: int
) -> CohesiveWitness:
    """Back-translate a selector into a cohesive witness by scanning each row
    for the side its tail settles on and the first value from which it never
    leaves that side."""
    values = selector.values
    patterns = [family.pattern(j, range(levels)) for j in values]
    settle = []
    for i in range(levels):
        shift = levels - 1 - i
        want = patterns[-1] >> shift & 1 if patterns else 0
        s = 0
        for j, pat in zip(values, patterns):
            if pat >> shift & 1 != want:
                s = j + 1
        settle.append((i, s, "out" if want else "in"))
    return CohesiveWitness(selector, tuple(settle))


# ---------------------------------------------------------------------------
# Cauchy thinning
# ---------------------------------------------------------------------------


def _suffix_extrema(vals: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """(max(vals[t:]), min(vals[t:])) for every t, as two lists, compared
    by integer cross-products of (numerator, denominator)."""
    sufmax, sufmin = list(vals), list(vals)
    pairs = [(v.numerator, v.denominator) for v in vals]
    hi = lo = len(vals) - 1
    for t in range(len(vals) - 2, -1, -1):
        n, d = pairs[t]
        if n * pairs[hi][1] > pairs[hi][0] * d:
            hi = t
        if n * pairs[lo][1] < pairs[lo][0] * d:
            lo = t
        sufmax[t], sufmin[t] = vals[hi], vals[lo]
    return sufmax, sufmin


def thin_to_fast(
    certificate: CauchyCertificate, x: RationalSequence, budget: Budget
) -> CauchyCertificate:
    """Thin a verified Cauchy selector into one converging at rate 2^-n.

    For each n <= depth, bounded search finds the least position from which
    the remaining selected terms stay within 2^-n of each other (the finite
    shadow of the jump query "are there v, w >= s at distance >= 2^-n?");
    taking one position per n, strictly increasing, gives the fast selector.
    """
    bad = verify_cauchy(certificate, x)
    if bad is not None:
        raise InvalidCertificateError(
            f"input certificate fails at n={bad.n}, v={bad.v}, w={bad.w}"
        )
    f = certificate.selector
    m = len(f)
    if m == 0:
        raise HorizonTooSmallError("cannot thin an empty selector")
    sufmax, sufmin = _suffix_extrema([x.term(f.value(t)) for t in range(m)])
    positions: list[int] = []
    s = 0
    for n in range(budget.depth + 1):
        eps = Fraction(1, 2**n)
        while sufmax[s] - sufmin[s] >= eps:
            s += 1  # always terminates: a one-point suffix has diameter 0
        p = s if not positions else max(s, positions[-1] + 1)
        if p >= m:
            raise HorizonTooSmallError(
                f"selector of length {m} has no settle position left for "
                f"rate 2^-{n}"
            )
        positions.append(p)
    values = tuple(f.value(p) for p in positions)
    moduli = tuple((n, n) for n in range(budget.depth + 1))
    return CauchyCertificate(Selector(values), moduli, "fast")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_cauchy(
    certificate: CauchyCertificate, x: RationalSequence
) -> CauchyViolation | None:
    """Exhaustively re-check every recorded modulus with exact arithmetic;
    None on pass, least violating (n, v, w) otherwise."""
    f = certificate.selector
    m = len(f)
    vals = [x.term(f.value(t)) for t in range(m)]
    sufmax, sufmin = _suffix_extrema(vals)
    # with den the largest denominator, two terms that differ do so by at
    # least 1/den² > 2^-cap, so every rate n >= cap asks, as cap does, only
    # that they be equal; cap keeps an absurd n from building 2^n
    cap = 2 * max((v.denominator for v in vals), default=1).bit_length()
    for n, s in certificate.moduli:
        if s >= m:
            continue  # no two positions to compare
        eps = Fraction(1, 2 ** min(n, cap))
        if sufmax[s] - sufmin[s] < eps:
            continue
        for v in range(s, m):
            for w in range(v + 1, m):
                if abs(vals[v] - vals[w]) >= eps:
                    return CauchyViolation(n, v, w)
    return None


def verify_cohesive(
    witness: CohesiveWitness,
    family: SetFamily,
    strong_levels: int | None = None,
) -> CohesiveViolation | None:
    """Check every settle triple over the selector's values; with
    ``strong_levels`` additionally require that rows 0..strong_levels-1 are
    all covered (the strong form of cohesion)."""
    if strong_levels is not None:
        covered = {i for i, _, _ in witness.settle}
        for i in range(strong_levels):
            if i not in covered:
                raise InvalidCertificateError(f"no settle entry for row {i}")
    # one pattern per selected value over the distinct rows, read when first needed
    rows = sorted({i for i, _, _ in witness.settle})
    place = {i: len(rows) - 1 - k for k, i in enumerate(rows)}
    patterns: dict[int, int] = {}
    for i, s, side in witness.settle:
        shift, want = place[i], side == "out"
        for j in witness.selector.values:
            if j >= s:
                pat = patterns.get(j)
                if pat is None:
                    pat = patterns[j] = family.pattern(j, rows)
                if pat >> shift & 1 != want:
                    return CohesiveViolation(i, j)
    return None


def verify_separator(
    separator: SeparatorSet,
    p: SeparationInstance,
    upto: int,
    budget: Budget | None = None,
) -> SeparatorViolation | None:
    """Check both separation implications for every n < upto against the
    instance's exact totality oracle (closed rule predicates only; ground
    truth needs no search bound, so the budget is accepted for signature
    uniformity and unused)."""
    if not p.has_ground_truth():
        raise NotGroundTruthError(
            "separator verification needs rule-backed predicates"
        )
    for n in range(upto):
        if not p.totality(0, n) and not separator.member(n):
            return SeparatorViolation(n)
        if not p.totality(1, n) and separator.member(n):
            return SeparatorViolation(n)
    return None


def verify_accumulation(
    result: AccumulationResult, x: RationalSequence, budget: Budget
) -> AccumulationViolation | None:
    """Cell d of the chain must sit at level d + 1 inside cell d - 1 (cell 0
    inside [0, 1]) and ``approx`` in the last cell.  An exact result needs a
    periodic x with ``approx`` equal to a term j0 <= j < j0 + q; any other
    needs ``threshold`` of the terms j < ``horizon`` in the last cell, each
    compared as a ``Fraction``, counting stopped at the threshold."""
    last = DyadicInterval(0, 0)
    for cell in result.chain:
        if cell.level != last.level + 1 or cell.index >> 1 != last.index:
            return AccumulationViolation(last.level + 1, "chain")
        last = cell
    if last.level == 0:
        return AccumulationViolation(1, "chain")
    if not last.contains(result.approx):
        return AccumulationViolation(last.level, "approx")
    if result.exact:
        struct = x.periodic_structure()
        window = range(struct[0], sum(struct)) if struct is not None else ()
        if all(x.term(j) != result.approx for j in window):
            return AccumulationViolation(last.level, "exact")
        return None
    inside = (j for j in range(budget.horizon) if last.contains(x.term(j)))
    if sum(1 for _ in islice(inside, budget.threshold)) < budget.threshold:
        return AccumulationViolation(last.level, "count")
    return None


def verify_branch(
    branch: BranchPrefix, tree: SigmaTree
) -> BranchViolation | None:
    """Every prefix of the branch must be a member at its recorded stage."""
    for ell in range(1, len(branch.bits) + 1):
        if not tree.member_at_stage(branch.bits[:ell], branch.verified_at_stage):
            return BranchViolation(ell)
    return None


# ---------------------------------------------------------------------------
# stabilization ground truth
# ---------------------------------------------------------------------------


def stabilization_bound(
    p: SeparationInstance, n: int, code_budget: int = 10**6
) -> int:
    """Least cutoff k* (up to overshoot) past which h_bit(p, k, n, ·) is
    constant, computed from the ground-truth witness structure.

    When exactly one side is total, the other side's valid-prefix lengths
    cap at its first failure point L, and the total side's course-of-values
    code for length L (or L+1, when the total side must win) bounds the last
    flip.  Both sides total with identical minimal-witness streams tie
    forever (h stuck at 0, bound 0); different streams have no finite bound.
    """
    t0 = p.totality(0, n)
    t1 = p.totality(1, n)
    if t0 and t1:
        if _choice_streams_equal(p, n):
            return 0
        raise NotGroundTruthError(
            "both sides total with different choice streams: h oscillates"
        )
    if not t0 and not t1:
        raise NotGroundTruthError(
            "both sides fail totality: the disjointness promise is violated"
        )
    winner = 0 if t0 else 1
    cap = p.first_failure(1 - winner, n)
    assert cap is not None
    target = cap + 1 if winner == 1 else cap
    if target == 0:
        return 0
    code = seq_code(p.choice_values(winner, n, target))
    kstar = code + 1
    if kstar > code_budget:
        raise BudgetExceededError(
            f"stabilization bound {kstar} exceeds code budget {code_budget}"
        )
    return kstar


def _choice_streams_equal(p: SeparationInstance, n: int) -> bool:
    """Do both total sides produce the same minimal-witness stream?"""
    r0, r1 = p.predicates  # rule predicates, guaranteed by the totality calls
    if r0.tail_shape(n) != r1.tail_shape(n):
        return False
    scan = 1 + max(
        [x for x, _, on, _ in r0.overrides + r1.overrides if on == n]
        + [r0.bound or 0, r1.bound or 0]
    )
    return all(
        r0.minimal_witness(x, n) == r1.minimal_witness(x, n) for x in range(scan + 1)
    )
