"""Budgeted, desk-scale witness finders and independent certificate verifiers.

Finders play the oracle role of each principle (accumulation point, infinite
branch, strongly cohesive set, Cauchy thinning) under an explicit Budget and
raise a budget error rather than guess.  Verifiers re-check finished
certificates exhaustively with exact arithmetic, returning None on pass and
a small violation record on fail.  They share with the finders only the
numeric kernel: ``SetFamily.pattern`` (the membership of one j in many rows
as one integer) and the distinct-value kernels over a long ascending
selector, ``RationalSequence.last_positions`` and ``SetFamily.patterns``,
which fold its values onto the source's (j0, q) window by
``core.fold_last`` and so read each slot once.  The accumulation pair reads
the source's cell window (``_cell_window``), past which a cell holding a
slot's term holds infinitely many terms, and the cohesion pair the rows'
window (``SetFamily.periodic_structure``), whose period slots hold the
recurring patterns; with no window there is no decidable answer, and all
four refuse.

Tie-breaking is leftmost-first everywhere so identical budgets and instances
give byte-identical results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, cycle, islice
from operator import itemgetter, methodcaller
from typing import Sequence

from .certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from .core import MAX_ACCUMULATION_DEPTH, DyadicInterval, cell_key, leftmost_descent, window_slots
from .errors import (
    BudgetExceededError,
    BudgetExhaustedError,
    EmptyTreeAtStageError,
    HorizonTooSmallError,
    InvalidCertificateError,
    NotGroundTruthError,
)
from .instances import (
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
    """Selector value j >= s, or window slot j, on the wrong side of row i."""

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
    (approximant not a period value) or "window" (no term of the cell window
    of its level in the last cell)."""

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


def _cell_window(x: RationalSequence, level: int) -> range:
    """The slots of a (j0, q) window past which term j + q lies in the closed
    level cells of term j: the period of an eventually periodic x, else its
    ``cell_structure``, so a cell holding a slot's term holds infinitely many
    terms.  A sequence with no such window is refused."""
    window = x.periodic_structure() or x.cell_structure(level)
    if window is None:
        raise NotGroundTruthError(f"the sequence has no cell window at level {level}")
    return window_slots(window)


def find_accumulation_real(x: RationalSequence, budget: Budget) -> AccumulationResult:
    """Nested dyadic chain plus approximant for an accumulation point of x.

    The last cell is the leftmost closed depth-level cell holding the least
    term of the depth-level cell window, so it holds infinitely many terms;
    the cells above are its index shifted right.  A periodic x's least
    period value recurs itself and is the exact answer; any other x gets
    the last cell's left end.  A depth past ``MAX_ACCUMULATION_DEPTH`` or a
    window past ``core.MAX_WINDOW`` slots is an exceeded budget.
    """
    if budget.depth < 1:
        raise ValueError("accumulation search needs depth >= 1")
    if budget.depth > MAX_ACCUMULATION_DEPTH:
        raise BudgetExceededError(
            f"accumulation chain of depth {budget.depth} has cell indices past "
            f"4300 digits; the limit is depth {MAX_ACCUMULATION_DEPTH}"
        )
    least = min(map(x.term, _cell_window(x, budget.depth)))
    # the leftmost closed cell holding it (a boundary point takes the cell on
    # its left); the leading bits of its index name the cells above
    index = max(0, (cell_key(least.numerator, least.denominator, budget.depth) - 1) >> 1)
    chain = tuple(
        DyadicInterval(d + 1, index >> (budget.depth - 1 - d)) for d in range(budget.depth)
    )
    exact = x.periodic_structure() is not None
    return AccumulationResult(chain, least if exact else chain[-1].lower, exact)


# ---------------------------------------------------------------------------
# branch search
# ---------------------------------------------------------------------------


def find_branch(tree: SigmaTree, budget: Budget) -> BranchPrefix:
    """Leftmost depth-level member at stage ``budget.stage``, found by one
    leftmost depth-first descent over ``member_at_stage``: members are
    downward closed, so every prefix of it has member extensions at all
    lengths up to the depth, and no non-member's subtree is entered."""
    stage = budget.stage
    if not (
        tree.member_at_stage((0,), stage) or tree.member_at_stage((1,), stage)
    ):
        raise EmptyTreeAtStageError(f"no length-1 member by stage {stage}")
    bits = leftmost_descent(budget.depth, lambda b: tree.member_at_stage(b, stage))
    if bits is None:
        raise BudgetExhaustedError(f"no member reaches depth {budget.depth} by stage {stage}")
    return BranchPrefix(bits, stage)


# ---------------------------------------------------------------------------
# cohesion
# ---------------------------------------------------------------------------


def build_strongly_cohesive(
    family: SetFamily, levels: int, budget: Budget
) -> CohesiveWitness:
    """Witness for strong cohesion: the least cell pattern y over rows <
    levels that infinitely many columns hold, and its members below the
    horizon.  The settle points are all 0 — members of one cell never leave
    it.

    The rows' window (j0, q; ``SetFamily.periodic_structure``) decides:
    the recurring patterns are those of its period slots.  The prefix slots
    j < min(j0, horizon) of pattern y come first, and the j < horizon past
    them whose slot has pattern y follow, by a mask cycled over the period
    (one slot alone is one ``range``), so the search reads min(j0, horizon)
    + q patterns whatever the horizon (a q past ``core.MAX_WINDOW`` is an
    exceeded budget) and sorts nothing.  A family with no window is
    refused, and no member below the horizon is a horizon too small."""
    if levels < 1:
        raise ValueError("cohesion needs at least one row")
    rows = range(levels)
    struct = family.periodic_structure(rows)
    if struct is None:
        raise NotGroundTruthError(f"the family has no window over rows < {levels}")
    j0, q = struct
    period = [family.pattern(j, rows) for j in window_slots(struct)]
    y = min(period)
    head = [j for j in range(min(j0, budget.horizon)) if family.pattern(j, rows) == y]
    slots = [pat == y for pat in period]
    if head or slots.count(True) > 1:
        members = tuple(chain(head, compress(range(j0, budget.horizon), cycle(slots))))
    else:
        members = tuple(range(j0 + slots.index(True), budget.horizon, q))
    if not members:
        raise HorizonTooSmallError(
            f"no column below horizon {budget.horizon} holds the least recurring pattern"
        )
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
    """Back-translate a selector into a cohesive witness: each row settles on
    the side of the last value's pattern, from one past the last value whose
    pattern puts it on the other side.  Both are read off the last position
    of each distinct pattern (``SetFamily.patterns``), not off every value."""
    values = selector.values
    last = family.patterns(values, range(levels))
    final = max(last, key=last.__getitem__, default=0)
    settle = []
    for i in range(levels):
        shift = levels - 1 - i
        want = final >> shift & 1
        s = max((values[t] + 1 for pat, t in last.items() if pat >> shift & 1 != want), default=0)
        settle.append((i, s, "out" if want else "in"))
    return CohesiveWitness(selector, tuple(settle))


# ---------------------------------------------------------------------------
# Cauchy thinning
# ---------------------------------------------------------------------------


def _suffix_extrema(
    last: dict[tuple[int, int], int],
) -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    """The extrema of every suffix of the selected terms as a step function,
    from the last position of each distinct term
    (``RationalSequence.last_positions``).

    Step k is (end, high, low): ``end`` ascends through those last
    positions, and ``high``, ``low`` are the max and min of the terms from
    s on, as exact (numerator, denominator) pairs, for every s past the
    previous step's end up to this one's: those suffixes hold the same
    distinct terms.  The walk that compares integer cross-products visits
    each distinct term once."""
    steps = []
    hi = lo = None
    for pair, t in sorted(last.items(), key=itemgetter(1), reverse=True):
        n, d = pair
        if hi is None or n * hi[1] > hi[0] * d:
            hi = pair
        if lo is None or n * lo[1] < lo[0] * d:
            lo = pair
        steps.append((t, hi, lo))
    steps.reverse()
    return steps


def _diameter_below(hi: tuple[int, int], lo: tuple[int, int], n: int) -> bool:
    """Is hi - lo < 2^-n, for exact (numerator, denominator) pairs?

    Two values that differ do so by at least 1/(hd·ld) > 2^-c with c the bit
    length of hd·ld, so a rate n >= c asks, as c does, only that they be
    equal; c keeps an absurd n from shifting by 2^n."""
    (hn, hd), (ln, ld) = hi, lo
    den = hd * ld
    return (hn * ld - ln * hd) << min(n, den.bit_length()) < den


def thin_to_fast(
    certificate: CauchyCertificate, x: RationalSequence, budget: Budget
) -> CauchyCertificate:
    """Thin a verified Cauchy selector into one converging at rate 2^-n.

    For each n <= depth, bounded search finds the least position from which
    the remaining selected terms stay within 2^-n of each other (the finite
    shadow of the jump query "are there v, w >= s at distance >= 2^-n?");
    taking one position per n, strictly increasing, gives the fast selector.
    The suffix diameter is a step function of the position (see
    ``_suffix_extrema``), so the search steps from one distinct value's last
    position to the next rather than position by position.  The input check
    and the search share one step function, built from one read of each
    distinct term.
    """
    f = certificate.selector
    steps = _suffix_extrema(x.last_positions(f.values))
    bad = _cauchy_violation(certificate.moduli, f.values, x, steps)
    if bad is not None:
        raise InvalidCertificateError(
            f"input certificate fails at n={bad.n}, v={bad.v}, w={bad.w}"
        )
    m = len(f)
    if m == 0:
        raise HorizonTooSmallError("cannot thin an empty selector")
    rest = iter(steps)
    end, hi, lo = next(rest)
    positions: list[int] = []
    s = 0
    for n in range(budget.depth + 1):
        # always terminates: the last step is a one-point suffix, diameter 0
        while not _diameter_below(hi, lo, n):
            s = end + 1  # the diameter is constant up to the step's end
            end, hi, lo = next(rest)
        p = s if not positions else max(s, positions[-1] + 1)
        if p >= m:
            raise HorizonTooSmallError(
                f"selector of length {m} has no settle position left for "
                f"rate 2^-{n}"
            )
        positions.append(p)
    values = tuple(f.values[p] for p in positions)
    moduli = tuple((n, n) for n in range(budget.depth + 1))
    return CauchyCertificate(Selector(values), moduli, "fast")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_cauchy(
    certificate: CauchyCertificate, x: RationalSequence
) -> CauchyViolation | None:
    """Exhaustively re-check every recorded modulus with exact arithmetic;
    None on pass, least violating (n, v, w) otherwise.

    A modulus (n, s) passes iff the diameter of the terms from position s
    on is below 2^-n, read off the step function of ``_suffix_extrema`` by
    bisecting its last positions; it reads each distinct term once
    (``RationalSequence.last_positions``).

    That the selector extends to an infinite one meeting the moduli is not
    re-checked: it needs the source's limit points, and a cell window at one
    level, a sufficient test only, would reject valid certificates."""
    values = certificate.selector.values
    steps = _suffix_extrema(x.last_positions(values))
    return _cauchy_violation(certificate.moduli, values, x, steps)


def _cauchy_violation(
    moduli: Sequence[tuple[int, int]],
    values: Sequence[int],
    x: RationalSequence,
    steps: list[tuple[int, tuple[int, int], tuple[int, int]]],
) -> CauchyViolation | None:
    """The body of ``verify_cauchy`` over the selected values and the suffix
    extrema of their terms, which ``thin_to_fast`` builds once for both the
    check and its own search.

    A failing modulus names v by one walk from s: a position before the
    least v lies within 2^-n of every term after it, and so of every term
    from s on, so v is the least position whose term lies 2^-n or more
    from the max or min of those terms, the extrema that decided the
    modulus.  w is the least later position that far from v.  The walk
    reads the terms it passes, and none past w."""
    m = len(values)
    for n, s in moduli:
        if s >= m:
            continue  # no two positions to compare
        _, hi, lo = steps[bisect_left(steps, s, key=itemgetter(0))]
        if _diameter_below(hi, lo, n):
            continue
        terms = map(methodcaller("as_integer_ratio"), map(x.term, islice(values, s, None)))
        walk = enumerate(terms, s)
        v, a = next((v, t) for v, t in walk if _far(t, hi, lo, n))
        w = next(w for w, t in walk if _far(t, a, a, n))
        return CauchyViolation(n, v, w)
    return None


def _far(t: tuple[int, int], hi: tuple[int, int], lo: tuple[int, int], n: int) -> bool:
    """Does the pair t lie 2^-n or more below hi or above lo?"""
    return not (_diameter_below(hi, t, n) and _diameter_below(t, lo, n))


def verify_cohesive(
    witness: CohesiveWitness,
    family: SetFamily,
    strong_levels: int | None = None,
) -> CohesiveViolation | None:
    """Check every settle triple over the selector's values and that the
    settled pattern recurs; with ``strong_levels`` also require that rows
    0..strong_levels-1 are all covered (the strong form of cohesion).

    The distinct settle points cut the selector into segments, each bisected
    and read once by ``SetFamily.patterns`` (at most one column read per
    window slot); one pass from the last point back gives the patterns of
    each point's tail, the first triple one contradicts is the least
    violation, and one ``pattern`` scan of that tail names its value.

    The pattern recurs iff a period slot of the rows' window holds it.  A
    last value at or past j0 and every settle point holds it, and so does
    its slot: a pass with no read.  Else the slots are scanned, and a
    failure names the one agreeing on the most leading rows, at its first
    wrong row."""
    rows: Sequence[int] = sorted({i for i, _, _ in witness.settle})
    if rows and rows[-1] - rows[0] == len(rows) - 1:
        rows = range(rows[0], rows[-1] + 1)  # the memo key the finders read too
    place = {i: 1 << (len(rows) - 1 - k) for k, i in enumerate(rows)}
    for i in range(strong_levels or 0):
        if i not in place:
            raise InvalidCertificateError(f"no settle entry for row {i}")
    values = witness.selector.values
    tails: dict[int, frozenset[int]] = {}
    end, tail = len(values), frozenset()
    for s in sorted({s for _, s, _ in witness.settle}, reverse=True):
        start = bisect_left(values, s)
        tail = tails[s] = tail.union(family.patterns(values[start:end], rows))
        end = start
    need = {"in": 0, "out": 0}  # the rows each side is claimed for
    for i, s, side in witness.settle:  # sorted: the least violation first
        bit, want = place[i], side == "out"
        need[side] |= bit
        if any(bool(pat & bit) != want for pat in tails[s]):
            for j in values[bisect_left(values, s):]:
                if bool(family.pattern(j, rows) & bit) != want:
                    return CohesiveViolation(i, j)
    if not rows:
        return None
    window = family.periodic_structure(rows)
    if window is None:
        raise NotGroundTruthError("the family has no window over the settled rows")
    if values and values[-1] >= max(window[0], *tails):  # tails: one key per settle point
        return None
    # each slot's len(rows) - k for its first wrong row k (0 if none), least first
    slots = ((family.pattern(j, rows), j) for j in window_slots(window))
    depth, j = min(((pat & need["in"] | ~pat & need["out"]).bit_length(), j) for pat, j in slots)
    return None if depth == 0 else CohesiveViolation(rows[len(rows) - depth], j)


def verify_separator(
    separator: SeparatorSet,
    p: SeparationInstance,
    upto: int,
) -> SeparatorViolation | None:
    """Check both separation implications for every n < upto against the
    instance's exact totality oracle (closed rule predicates only; ground
    truth needs no search bound)."""
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
    result: AccumulationResult, x: RationalSequence
) -> AccumulationViolation | None:
    """Cell d of the chain must sit at level d + 1 inside cell d - 1 (cell 0
    inside [0, 1]) and ``approx`` in the last cell.  An exact result needs a
    periodic x with ``approx`` equal to a term j0 <= j < j0 + q; any other
    needs the last cell to hold a term of the cell window of its own level,
    and so infinitely many terms.  A window past ``core.MAX_WINDOW`` slots
    is an exceeded budget."""
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
        if struct is None or result.approx not in map(x.term, window_slots(struct)):
            return AccumulationViolation(last.level, "exact")
        return None
    if not any(map(last.contains, map(x.term, _cell_window(x, last.level)))):
        return AccumulationViolation(last.level, "window")
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
    p: SeparationInstance, n: int, code_budget: int = Budget.code_budget
) -> int:
    """Least cutoff k* (up to overshoot) past which h_bit(p, k, n, ·) is
    constant wherever the separator's bit at n is constrained, computed
    from the ground-truth witness structure.

    When exactly one side is total, the other side's valid-prefix lengths
    cap at its first failure point L, and the total side's course-of-values
    code for length L (or L+1, when the total side must win) bounds the last
    flip; it is read off ``p.witness_prefix``, which the h reads share.  When
    both sides are total, n lies in neither limit set and either bit
    separates: n is free, bound 0, whether or not h settles there.
    """
    t0 = p.totality(0, n)
    t1 = p.totality(1, n)
    if t0 and t1:
        return 0
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
    prefix = p.witness_prefix(winner, n)  # builds no code at or past the budget
    if prefix.length_below(code_budget) < target:
        raise BudgetExceededError(f"stabilization bound exceeds code budget {code_budget}")
    return prefix.codes[target] + 1
