"""Reference bodies of the cohesion, tree and rule-predicate kernels, in
plain ``Fraction`` arithmetic and linear scans.

``SetFamily.pattern`` reads the membership of j in many rows as one integer
(one modular power per run of rows for a derived family, one read per row
for listed rows), folding a column past the family's (j0, q) window onto its
slot and reading each slot once.  ``core.embed_point_exact`` computes in
base-3 integers, and ``solvers.build_strongly_cohesive`` lists the members
of a periodic family from one lcm window.  ``solvers._suffix_extrema``
gives the suffix extrema as a step function over the last positions of
distinct terms, compared by integer cross-products, and ``verify_cauchy``
and ``thin_to_fast`` read a step per modulus or rate; a failing modulus
names its least (v, w) by one walk against the extrema that decided it,
reading no term past w.  The last positions come from the distinct-term
kernel ``RationalSequence.last_positions``, and ``SetFamily.patterns``
maps each distinct pattern of many values to its last position; both fold
the values past the (j0, q) window onto its slots by one shared fold,
``core.fold_last``, so each slot is read once.  ``witness_from_selector``
reads each row's settle point off those last positions, and
``verify_cohesive`` gives its verdict and least violation from the
patterns of each settle point's tail, in one pass.
``EmbeddedSequence.term`` folds an
index past its (j0, q) window into the window.  ``DerivedTree.witness_count``
counts integer cell keys over a weighted window of terms, evaluating only
a table's listed terms below the window, or, for the harmonic sequence,
reads the cell's run of indices off ``cell_run``; and
``RationalSequence.first_in_cell``, through which ``reductions.branch_to_point``
picks each index, reads the same run, or the listed terms and the (j0, q) slots, on integer
keys.  ``BinaryWalkSequence.term`` shifts the target's numerator.
``RulePredicate.evaluate`` and ``minimal_witness`` look overrides up in two
dicts built once per predicate, ``evaluate`` reads the rule's one
witness, and ``first_failure`` reads the least failure off the pins at n
and the rule's tail.  ``solvers.stabilization_bound`` reads k* off the shared
least-witness prefix, which builds no code past the code budget.  ``separation-bw`` reads its separator off h at the
stabilization bound k*.  ``reductions.exact_separator`` walks the limit
tree once, and ``solvers.find_branch`` makes one leftmost depth-first
descent.
``SigmaTree.has_extension`` is one descent over ``member_at_stage`` for
every tree form, and ``core.leftmost_descent`` keeps its own stack.
``StageListTree.member_at_stage`` bisects the stages and a sorted snapshot,
``StageListTree.limit_heights`` bisects the last one for the run under each
child, ``solvers.find_accumulation_real`` reads its chain off one integer
cell index of the least term of a cell window, shifted right once per
level, and ``solvers.verify_accumulation`` asks the last cell for a window
term, the ``R_i = N`` note of
``bwweak-stcoh`` reads a table's listed columns and its period column, and ``core.format_bits``
writes a bit string as bytes in one step.
This module keeps the direct forms they must agree with: the dyadic-cell
parity of term(j)·2^n as a ``Fraction``; the derived column pattern read at
j itself, unfolded and unmemoized; each listed row looked up and read at j;
the terms, (j0, q) window and listed indices of the four listed sequence
forms, and the rows and columns of the two listed family forms, each read
off the form's ``to_repr`` by that form's own rule, never off the one
shared body's attributes, and the limit points of every catalog sequence
form read off its file form alone (``limit_points``), with the cohesion
patterns they give (``limit_patterns``);
the fold that keys every value past j0 in one pass, where ``core.fold_last``
reads the last q values first and the rest only if a slot is not among them;
the cohesion verifier and back-translation that ask ``member`` once per row
and selected value, the verifier's window check asking it once per settle
triple and window slot (``window_violation``); the geometric series summed
term by term; the enumeration that evaluates the membership pattern of
every j below the horizon, with the count that the window read replaced
(``most_populated_witness``, correct wherever its pattern recurs); one term per selected value, read at the value itself and keyed
to its last position; suffix extrema taken by ``max``/``min`` over
``Fraction``s, and
the Cauchy verifier and thinning that read one entry of them per position,
the verifier comparing the terms pair by pair on failure; one pattern per
value, read at the value itself and keyed to its last position; the
cohesion verdict of one sweep over the selected values, named on failure
by asking ``member``; the embedded term
read at its own index; the sorted list of every term j <= stage bisected
at the cell's ``Fraction`` endpoints; ``core.cell_key``, the one closed-cell
key of ``DerivedTree``, ``first_in_cell``, ``find_accumulation_real`` and
``DyadicInterval.contains``, as a ``Fraction`` product, and closed cell
membership as lower <= q <= upper in ``Fraction``s (``contains_closed``),
which this module's back map and accumulation verifier test; the walk term as a ``Fraction``
product; a rule predicate's overrides scanned in full for each lookup and
its rule menu, one case per rule, and its first failure found by a scan
of every x up to one past its last pin and bound; the stabilization bound
whose code is built in full before it meets the code budget; the window finder over the h-points
k* .. k* + window - 1 that the ``separation-bw`` separator replaced, with
the Cantor accumulation finder ``find_accumulation_cantor`` that it runs,
one ``core.leftmost_descent`` over the sorted prefixes of the points; the
separator asked at every string code below 2^depth - 1; the branch search
that asks ``has_extension`` from the root and again at every level;
``has_extension`` with one body per tree form; the self-calling leftmost
descent; the stage-list membership that
walks every stage and tests every node of the snapshot; the limit heights
that test every node of the last snapshot with ``is_prefix``; the leftmost
closed cell of the accumulation value computed in ``Fraction``s at every
level, and for other sources the chain cut level by level from the bits
of a descent that counts terms below the horizon (the finder that the
window read replaced, correct wherever its last cell holds a limit point);
the tree window that evaluates and weighs every index below j0; the
back map that scans the terms from each last pick on with a
``DyadicInterval`` per cell, and the accumulation verifier that counted the
last cell by one ``Fraction`` comparison per term from j = 0 (its chain,
approximant and exact checks are still the reference); the
full-row note read off every column of the (j0, q) window; and
the bit string joined from one str per bit.  It also keeps
five helpers that only tests use: half-open cell membership, the
bit-by-bit equality of eventually periodic points over the longer prefix
plus the lcm of the periods (``core.cantor_dist_exact`` scans only p + q −
gcd(p, q) bits past the prefixes, by Fine and Wilf), the equality of both
sides' least-witness streams, compared past every pin and bound, a
derived row read as full by ``member`` over its source's window, and a
side's minimal witnesses below a count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice, repeat
from math import lcm
from operator import itemgetter, mod

from bwreduce import core, solvers
from bwreduce.certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from bwreduce.core import (
    Bits,
    CantorPoint,
    DyadicInterval,
    seq_code,
    string_decode,
)
from bwreduce.errors import (
    BudgetExceededError,
    BudgetExhaustedError,
    EmptyTreeAtStageError,
    HorizonTooSmallError,
    InvalidCertificateError,
    NotANodeError,
    NotGroundTruthError,
    WitnessExhaustedError,
)
from bwreduce.instances import (
    BranchUnionTree,
    DerivedFamily,
    DerivedTree,
    EmbeddedSequence,
    FullBinaryTree,
    RationalSequence,
    RowPattern,
    RulePredicate,
    SeparationInstance,
    SetFamily,
    SigmaTree,
    StageListTree,
    _runs,
)
from bwreduce.reductions import BranchPoint
from bwreduce.solvers import AccumulationViolation, CauchyViolation, CohesiveViolation


def member(q: Fraction, n: int, convention: str) -> bool:
    """Is a term of value q in row n of the derived family?"""
    if convention == "corrected":
        t = q * 2**n / 2
        return (t.numerator // t.denominator) % 2 == 0
    t = q * 2**n
    whole, frac_num = divmod(t.numerator, t.denominator)
    return frac_num == 0 or whole % 2 == 0


def derived_pattern(family: DerivedFamily, j: int, rows) -> int:
    """``DerivedFamily.pattern`` of column j read at j itself: no fold onto
    the window and no memo, with an embedded source's term embedded from its
    own point too; one modular power per run of rows."""
    x = family.source
    q = embedded_term(x, j) if isinstance(x, EmbeddedSequence) else x.term(j)
    num, den = q.numerator, q.denominator
    literal = family.convention == "paper-literal"
    m = den if literal else den << 1
    # the rows from e on hold term(j)·2^i whole when den = 2^e
    e = den.bit_length() - 1 if literal and den & (den - 1) == 0 else None
    out = 0
    for a, b in _runs(rows):
        c = b - a + 1
        bits = num * pow(2, b, m << c) % (m << c) // m
        if e is not None and e <= b:
            bits &= -1 << (b - max(a, e) + 1)
        out = out << c | bits
    return out


def _repr_point(obj: dict) -> RowPattern:
    return CantorPoint.periodic(tuple(map(int, obj["prefix"])), tuple(map(int, obj["period"])))


def listed_term(x: RationalSequence, i: int) -> Fraction:
    """Term i of a ``periodic``, ``constant``, ``alternating`` or ``table``
    sequence, read off its file form by that form's own rule."""
    r = x.to_repr()
    if r["form"] == "constant":
        return Fraction(r["value"])
    if r["form"] == "alternating":
        return Fraction(r["b"] if i % 2 else r["a"])
    if r["form"] == "periodic":
        prefix, period = r["prefix"], r["period"]
        return Fraction(prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)])
    listed = {e["index"]: e["value"] for e in r["entries"]}
    return Fraction(listed.get(i, r["default"]))


def listed_structure(x: RationalSequence) -> tuple[int, int]:
    """(prefix length, period length) of a listed sequence's file form; a
    table's prefix runs to one past its last listed index."""
    r = x.to_repr()
    if r["form"] == "periodic":
        return len(r["prefix"]), len(r["period"])
    if r["form"] == "table":
        return max((e["index"] + 1 for e in r["entries"]), default=0), 1
    return 0, 1 if r["form"] == "constant" else 2


def limit_points(x: RationalSequence) -> set[Fraction]:
    """Every accumulation point of a catalog sequence form, read off its
    file form: the period values of a listed form (each recurs), the target
    v of a binary walk (its terms tend to v) and 0 for the harmonic
    sequence.  A closed cell holds infinitely many terms of these forms iff
    it holds one of these points: a non-dyadic v and the harmonic terms past
    2^level lie strictly inside one cell of each level."""
    r = x.to_repr()
    if r["form"] == "binary_walk":
        return {Fraction(r["value"])}
    if r["form"] == "harmonic":
        return {Fraction(0)}
    j0, q = listed_structure(x)
    return {listed_term(x, j) for j in range(j0, j0 + q)}


def limit_patterns(x: RationalSequence, rows) -> set[int]:
    """The corrected-convention pattern over ``rows`` (as ``SetFamily.pattern``
    orders it, a 1 digit outside the row) of every limit of a catalog
    sequence form, read off its file form: each period value of a listed
    form (each recurs); the target v of a binary walk as its terms approach
    it from below, which is v's own pattern (a dyadic walk reaches v, and a
    non-dyadic v·2^n is never whole, so nearby terms below v share its cell
    at every level); and for the harmonic sequence the all-in pattern 0 of
    0⁺, since floor(t·2^(n-1)) = 0 once t < 2^-(n-1).  A pattern over the
    rows is held by infinitely many columns iff it is one of these."""
    r = x.to_repr()
    if r["form"] == "harmonic":
        return {0}
    if r["form"] == "binary_walk":
        values = {Fraction(r["value"])}
    else:
        j0, q = listed_structure(x)
        values = {listed_term(x, j) for j in range(j0, j0 + q)}
    out = set()
    for v in values:
        pat = 0
        for n in rows:
            pat = pat << 1 | (not member(v, n, "corrected"))
        out.add(pat)
    return out


def listed_prefix_indices(x: RationalSequence, j0: int) -> list[int]:
    """Every index below j0, or for a table its listed indices below j0."""
    r = x.to_repr()
    if r["form"] == "table":
        return sorted(e["index"] for e in r["entries"] if e["index"] < j0)
    return list(range(j0))


def listed_row(family: SetFamily, n: int) -> RowPattern:
    """Row n of a ``periodic_rows`` or ``table_rows`` family, read off its
    file form by that form's own rule."""
    r = family.to_repr()
    if r["form"] == "periodic_rows":
        prefix, period = r["row_prefix"], r["row_period"]
        return _repr_point(prefix[n] if n < len(prefix) else period[(n - len(prefix)) % len(period)])
    listed = {e["index"]: e["row"] for e in r["entries"]}
    return _repr_point(listed.get(n, r["default"]))


def listed_column_point(family: SetFamily, i: int) -> CantorPoint:
    """Column i of a listed family: bit i of each row below the end of its
    file form's prefix (one past a table's last listed index), then of each
    period row."""
    r = family.to_repr()
    if r["form"] == "periodic_rows":
        prefix, period = r["row_prefix"], r["row_period"]
    else:
        listed = {e["index"]: e["row"] for e in r["entries"]}
        prefix = [listed.get(n, r["default"]) for n in range(max(listed, default=-1) + 1)]
        period = [r["default"]]
    return CantorPoint.periodic(
        tuple(_repr_point(p).bit(i) for p in prefix), tuple(_repr_point(p).bit(i) for p in period)
    )


def choice_values(p: SeparationInstance, i: int, n: int, count: int) -> list[int]:
    """Side i's minimal witnesses at n for x < count; a side with no
    witness at some x < count has no such list."""
    out = []
    for x in range(count):
        w = p.predicates[i].minimal_witness(x, n)
        if w is None:
            raise NotGroundTruthError(f"side {i} has no witness at x = {x}, n = {n}")
        out.append(w)
    return out


def row_is_full(family: DerivedFamily, n: int) -> bool:
    """Is row n of a derived family all of ℕ?  Asks ``member`` at every j
    of the source's (j0, q) window, past which columns repeat."""
    j0, q = family.source.periodic_structure()
    return all(family.member(n, j) for j in range(j0 + q))


def verify_cohesive(witness: CohesiveWitness, family: SetFamily) -> CohesiveViolation | None:
    """Every settle triple checked by one ``member`` query per selected value,
    then ``window_violation``."""
    for i, s, side in witness.settle:
        want = side == "in"
        for j in witness.selector.values:
            if j >= s and family.member(i, j) != want:
                return CohesiveViolation(i, j)
    return window_violation(witness, family)


def window_violation(witness: CohesiveWitness, family: SetFamily) -> CohesiveViolation | None:
    """Does a period slot of the settled rows' window hold the settled
    pattern?  Each slot is asked ``member`` once per settle triple; if none
    holds it, the violation is the slot whose first wrong row is last (the
    leftmost such slot) at that row.  No settle triple, no pattern to hold."""
    rows = sorted({i for i, _, _ in witness.settle})
    if not rows:
        return None
    window = family.periodic_structure(rows)
    if window is None:
        raise NotGroundTruthError("the family has no window over the settled rows")
    j0, q = window
    best = None
    for j in range(j0, j0 + q):
        wrong = [i for i, _, side in witness.settle if family.member(i, j) != (side == "in")]
        if not wrong:
            return None
        if best is None or min(wrong) > best.i:
            best = CohesiveViolation(min(wrong), j)
    return best


def witness_from_selector(selector: Selector, family: SetFamily, levels: int) -> CohesiveWitness:
    """Each row scanned by ``member`` for the side its tail settles on and
    the first value from which it never leaves that side."""
    settle = []
    for i in range(levels):
        values = selector.values
        if not values:
            settle.append((i, 0, "in"))
            continue
        want = family.member(i, values[-1])
        s = 0
        for j in values:
            if family.member(i, j) != want:
                s = j + 1
        settle.append((i, s, "in" if want else "out"))
    return CohesiveWitness(selector, tuple(settle))


def suffix_extrema(vals: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """(max(vals[t:]), min(vals[t:])) for every t, by ``Fraction`` comparison."""
    sufmax = list(vals)
    sufmin = list(vals)
    for t in range(len(vals) - 2, -1, -1):
        sufmax[t] = max(sufmax[t], sufmax[t + 1])
        sufmin[t] = min(sufmin[t], sufmin[t + 1])
    return sufmax, sufmin


def verify_cauchy(certificate: CauchyCertificate, x: RationalSequence) -> CauchyViolation | None:
    """Every modulus (n, s) decided by the ``Fraction`` diameter of the
    suffix from position s, read off one suffix-extrema entry per position;
    a failure compares the terms pair by pair."""
    f = certificate.selector
    m = len(f)
    vals = [x.term(j) for j in f.values]
    sufmax, sufmin = suffix_extrema(vals)
    cap = 2 * max((v.denominator for v in vals), default=1).bit_length()
    for n, s in certificate.moduli:
        if s >= m:
            continue
        eps = Fraction(1, 2 ** min(n, cap))
        if sufmax[s] - sufmin[s] < eps:
            continue
        for v in range(s, m):
            for w in range(v + 1, m):
                if abs(vals[v] - vals[w]) >= eps:
                    return CauchyViolation(n, v, w)
    return None


def thin_to_fast(
    certificate: CauchyCertificate, x: RationalSequence, budget: Budget
) -> CauchyCertificate:
    """The fast selector found by advancing the settle position one
    selected term at a time until the suffix's ``Fraction`` diameter is
    below 2^-n."""
    bad = verify_cauchy(certificate, x)
    if bad is not None:
        raise InvalidCertificateError(
            f"input certificate fails at n={bad.n}, v={bad.v}, w={bad.w}"
        )
    f = certificate.selector
    m = len(f)
    if m == 0:
        raise HorizonTooSmallError("cannot thin an empty selector")
    sufmax, sufmin = suffix_extrema([x.term(j) for j in f.values])
    positions: list[int] = []
    s = 0
    for n in range(budget.depth + 1):
        while sufmax[s] - sufmin[s] >= Fraction(1, 2**n):
            s += 1
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


def fold_last(values, window: tuple[int, int] | None) -> dict[int, int]:
    """The fold of every tail value in one pass: each j >= j0 keyed by
    j % q, later positions overwriting earlier ones, then the slots put in
    the order of their last positions after the columns below j0."""
    m = len(values)
    cut = m if window is None else bisect_left(values, window[0])
    last = dict(zip(values, range(cut)))
    if cut < m:
        j0, q = window
        tail = dict(zip(map(mod, values[cut:], repeat(q)), range(cut, m)))
        last.update(sorted(((j0 + (r - j0) % q, t) for r, t in tail.items()), key=itemgetter(1)))
    return last


def last_positions(x: RationalSequence, values) -> dict[tuple[int, int], int]:
    """Each selected term read at its own value (an embedded term at its own
    point), as an exact pair, mapped to the last position that holds it."""
    out = {}
    for t, j in enumerate(values):
        term = embedded_term(x, j) if isinstance(x, EmbeddedSequence) else x.term(j)
        out[term.as_integer_ratio()] = t
    return out


def patterns(family: SetFamily, values, rows) -> dict[int, int]:
    """The ``pattern`` of every value read at the value itself, mapped to
    the last position that has it: the derived column by
    ``derived_pattern``, a listed family's rows looked up one by one."""
    out = {}
    for t, j in enumerate(values):
        if isinstance(family, DerivedFamily):
            pat = derived_pattern(family, j, rows)
        else:
            pat = 0
            for i in rows:
                pat = pat << 1 | (not listed_row(family, i).bit(j))
        out[pat] = t
    return out


def cohesive_sweep(witness: CohesiveWitness, family: SetFamily) -> CohesiveViolation | None:
    """The cohesion verdict from one sweep over the selected values, each
    value's pattern read by ``patterns`` once it passes the least settle
    point; a failure is named by ``verify_cohesive``, and a sweep that
    passes ends in ``window_violation``."""
    rows = sorted({i for i, _, _ in witness.settle})
    place = {i: 1 << (len(rows) - 1 - k) for k, i in enumerate(rows)}
    pending = sorted(witness.settle, key=lambda t: t[1], reverse=True)
    need_out = need_in = 0
    for j in witness.selector.values:
        while pending and pending[-1][1] <= j:
            i, _, side = pending.pop()
            if side == "out":
                need_out |= place[i]
            else:
                need_in |= place[i]
        if need_out | need_in:
            (pat,) = patterns(family, (j,), rows)
            if need_out & ~pat | need_in & pat:
                return verify_cohesive(witness, family)
    return window_violation(witness, family)


def embedded_term(x: EmbeddedSequence, i: int) -> Fraction:
    """Term i of an embedded sequence: its own point, embedded by the series."""
    return embed_point_exact(x.point(i))


def embed_point_exact(x: CantorPoint) -> Fraction:
    """h(x) = Σ 2·b_i / 3^(i+1), the periodic tail summed as a geometric series."""
    assert x.prefix is not None and x.period is not None
    p, q = len(x.prefix), len(x.period)
    head = Fraction(0)
    for i, b in enumerate(x.prefix):
        if b:
            head += Fraction(2, 3 ** (i + 1))
    cycle = Fraction(0)
    for j, b in enumerate(x.period):
        if b:
            cycle += Fraction(2, 3 ** (j + 1))
    return head + Fraction(1, 3**p) * cycle * Fraction(3**q, 3**q - 1)


def _pattern(family: SetFamily, j: int, levels: int) -> tuple[int, ...]:
    return tuple(0 if family.member(i, j) else 1 for i in range(levels))


def build_strongly_cohesive(
    family: SetFamily, levels: int, budget: Budget
) -> CohesiveWitness:
    """The horizon scan of a family with a window over rows < levels: the
    least pattern of the window's period slots, then every j below the
    horizon whose own membership pattern equals it.  An empty member list
    is where the finder raises ``HorizonTooSmallError``."""
    struct = family.periodic_structure(range(levels))
    assert struct is not None, "the oracle covers periodic families only"
    j0, q = struct
    y = min(_pattern(family, j, levels) for j in range(j0, j0 + q))
    members = tuple(
        j for j in range(budget.horizon) if _pattern(family, j, levels) == y
    )
    settle = tuple((i, 0, "in" if y[i] == 0 else "out") for i in range(levels))
    return CohesiveWitness(Selector(members), settle)


def most_populated_witness(family: SetFamily, levels: int, budget: Budget) -> CohesiveWitness:
    """The retired count below the horizon: the most populated pattern over
    rows < levels among the j < horizon (the least one on a tie) and its
    members.  It needs no window, and its pattern need not recur: on the
    harmonic sequence it settles on cells that only finitely many terms
    reach."""
    patterns = [_pattern(family, j, levels) for j in range(budget.horizon)]
    counts = Counter(patterns)
    best = max(counts.values())
    y = min(pat for pat, c in counts.items() if c == best)
    members = tuple(j for j, pat in enumerate(patterns) if pat == y)
    settle = tuple((i, 0, "in" if y[i] == 0 else "out") for i in range(levels))
    return CohesiveWitness(Selector(members), settle)


def witness_count(x: RationalSequence, bits: Bits, stage: int) -> int:
    """How many j <= stage have x.term(j) in the closed cell of ``bits``:
    every term evaluated, sorted, and bisected at the cell's endpoints."""
    cell = DyadicInterval.from_bits(bits)
    terms = sorted(x.term(j) for j in range(stage + 1))
    return bisect_right(terms, cell.upper) - bisect_left(terms, cell.lower)


def window_witness_count(x: RationalSequence, bits: Bits, stage: int) -> int:
    """``DerivedTree.witness_count`` over a window that weighs every index
    below j0 by 1, a table's unlisted ones too: the j0 + q window terms when
    the window fits below the stage, else every term j <= stage."""
    level = len(bits)
    struct = x.cell_structure(level)
    if struct is not None and sum(struct) <= stage + 1:
        j0, q = struct
        weights = [1] * j0 + [len(range(j, stage + 1, q)) for j in range(j0, j0 + q)]
    else:
        weights = [1] * (stage + 1)
    a = DyadicInterval.from_bits(bits).index
    keys = (2 * a, 2 * a + 1, 2 * a + 2)
    return sum(w for j, w in enumerate(weights) if cell_key(x.term(j), level) in keys)


def cell_key(q: Fraction, level: int) -> int:
    """2·floor(q·2^level), plus 1 when q·2^level is not whole: the closed
    level cells holding q are the ones whose index a has key 2a, 2a + 1 or
    2a + 2."""
    t = q * 2**level
    whole = t.numerator // t.denominator
    return 2 * whole + (t != whole)


def binary_walk_term(value: Fraction, i: int) -> Fraction:
    """floor(value · 2^i) / 2^i."""
    scale = 2**i
    return Fraction(int(value * scale), scale)


def rule_override(pred: RulePredicate, x: int, y: int, n: int) -> bool | None:
    """The pinned value of (x, y, n), found by scanning every override."""
    for ox, oy, on, ov in pred.overrides:
        if (ox, oy, on) == (x, y, n):
            return ov
    return None


def rule_holds(pred: RulePredicate, x: int, y: int, n: int) -> bool:
    """The rule menu itself, one case per rule, overrides ignored."""
    if pred.rule == "never":
        return False
    if pred.rule == "always":
        return True
    if pred.rule == "y_eq_x":
        return y == x
    if pred.rule == "y_eq_x_if":
        return pred.cond.holds(n) and y == x
    if pred.rule == "y_eq_const":
        return pred.cond.holds(n) and y == pred.value
    return x < pred.bound and y == x  # y_eq_x_below


def rule_evaluate(pred: RulePredicate, x: int, y: int, n: int) -> bool:
    ov = rule_override(pred, x, y, n)
    return ov if ov is not None else rule_holds(pred, x, y, n)


def rule_minimal_witness(pred: RulePredicate, x: int, n: int) -> int | None:
    """The least of every true pin on (x, n) and the rule's own witness,
    unless a false pin covers it."""
    cands = [oy for ox, oy, on, ov in pred.overrides if ov and (ox, on) == (x, n)]
    if pred.rule == "always":
        y = 0
        while rule_override(pred, x, y, n) is False:
            y += 1
        cands.append(y)
    else:
        w = pred._rule_witness(x, n)
        if w is not None and rule_override(pred, x, w, n) is not False:
            cands.append(w)
    return min(cands) if cands else None


def rule_first_failure(pred: RulePredicate, n: int) -> int | None:
    """``RulePredicate.first_failure`` over ``rule_minimal_witness``."""
    scan_end = max(
        [ox for ox, _, on, _ in pred.overrides if on == n] + [pred.bound or 0]
    ) + 1
    for x in range(scan_end + 1):
        if rule_minimal_witness(pred, x, n) is None:
            return x
    return None


def choice_streams_equal(p: SeparationInstance, n: int) -> bool:
    """Do both sides' least-witness streams at n agree at every x?  Past
    every pin at n and each rule's bound a stream is its pure rule's, a
    constant or x itself, and two such tails that agree at two x agree at
    every x."""
    b0, b1 = p.predicates
    tail = 1 + max(
        [ox for b in (b0, b1) for ox, _, on, _ in b.overrides if on == n]
        + [b0.bound or 0, b1.bound or 0]
    )
    return all(
        rule_minimal_witness(b0, x, n) == rule_minimal_witness(b1, x, n)
        for x in range(tail + 2)
    )


def stabilization_bound(p: SeparationInstance, n: int, code_budget: int = 10**6) -> int:
    """``solvers.stabilization_bound`` with the winner's course-of-values
    code built in full by ``seq_code`` from its minimal witnesses, and only
    then compared with the code budget."""
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
    kstar = seq_code(choice_values(p, winner, n, target)) + 1
    if kstar > code_budget:
        raise BudgetExceededError(
            f"stabilization bound {kstar} exceeds code budget {code_budget}"
        )
    return kstar


def find_accumulation_cantor(h, budget: Budget) -> Bits:
    """Lexicographically least depth-level bit prefix shared by at least
    ``threshold`` of the points h(0), ..., h(horizon - 1) — accumulation
    realized directly in Cantor space, no ternary decoding involved — by
    one ``core.leftmost_descent`` over the sorted prefixes."""
    if budget.depth < 1:
        raise ValueError("accumulation search needs depth >= 1")
    pts = sorted(h(k).bits(budget.depth) for k in range(budget.horizon))

    def count(prefix: Bits) -> int:
        return bisect_left(pts, prefix + (2,)) - bisect_left(pts, prefix)

    best = core.leftmost_descent(budget.depth, lambda bits: count(bits) >= budget.threshold)
    if best is None:
        raise BudgetExhaustedError(
            f"no depth-{budget.depth} bit prefix reaches threshold "
            f"{budget.threshold} among the first {budget.horizon} points"
        )
    return best


def stable_separator(x: RationalSequence, budget: Budget, notes: list[str]) -> SeparatorSet:
    """The separator of ``separation-bw`` as the window finder read it: the
    leftmost depth-bit prefix that all ``threshold`` points h(k*), ...,
    h(k* + window - 1) share, found by the Cantor accumulation finder, with
    the stabilization check taken over every n below the depth.  The
    separation p is x's ``provenance.source``."""
    p, rng = x.provenance.source, budget.depth
    if rng < 1:
        raise ValueError("separator search needs depth >= 1")
    kstar = max(
        solvers.stabilization_bound(p, n, budget.code_budget) for n in range(rng)
    )
    notes.append(f"stabilization bound {kstar}")
    window = max(budget.threshold, 1)
    if kstar + window > budget.code_budget:
        raise BudgetExceededError(
            f"stabilization bound {kstar} plus finder window {window} "
            f"exceeds code budget {budget.code_budget}"
        )
    finder_budget = replace(budget, horizon=window, threshold=window)
    bits = find_accumulation_cantor(lambda k: x.point(kstar + k), finder_budget)
    if tuple(x.point(kstar).bits(rng)) != tuple(x.point(kstar + window).bits(rng)):
        notes.append("stabilization check failed")
    return SeparatorSet(tuple(bits))


def exact_separator(y: SigmaTree, depth: int) -> SeparatorSet:
    """The separator with ``limit_heights`` asked at every one of the
    2^depth - 1 string codes of length < depth, in code order."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    bits = []
    for n in range(2**depth - 1):
        sigma = string_decode(n)
        h0, h1 = y.limit_heights(sigma)
        dead0 = h0 is not None and (h1 is None or h0 < h1)
        bits.append(1 if dead0 else 0)
    return SeparatorSet(tuple(bits))


def leftmost_descent(depth: int, ok, bits: Bits = ()) -> Bits | None:
    """``core.leftmost_descent`` as a self-calling search."""
    if len(bits) == depth:
        return bits
    for c in (0, 1):
        child = bits + (c,)
        if ok(child):
            got = leftmost_descent(depth, ok, child)
            if got is not None:
                return got
    return None


def has_extension(tree: SigmaTree, bits: Bits, length: int, stage: int) -> bool:
    """Is some length-``length`` member extending ``bits`` present at
    ``stage``?  One body per form: the full tree's length test, a branch
    union's test of ``bits`` against each branch, every node of a stage
    list's snapshot tested as a long enough extension, and a derived tree's
    self-calling search over ``member_at_stage``."""
    if length < len(bits):
        return False
    if isinstance(tree, FullBinaryTree):
        return True
    if isinstance(tree, BranchUnionTree):
        return any(all(b == pt.bit(i) for i, b in enumerate(bits)) for pt in tree.points)
    if isinstance(tree, StageListTree):
        k = bisect_right(tree.stages, stage)
        nodes = tree.nodes[k - 1] if k else []
        return any(len(node) >= length and is_prefix(bits, node) for node in nodes)
    assert isinstance(tree, DerivedTree), "one body per tree form"
    if not tree.member_at_stage(bits, stage):
        return False
    return len(bits) == length or any(
        has_extension(tree, bits + (c,), length, stage) for c in (0, 1)
    )


def find_branch(tree: SigmaTree, budget: Budget) -> BranchPrefix:
    """The leftmost depth-level member, found by asking ``has_extension``
    from the root and then again for each child at every level."""
    stage = budget.stage
    if not (
        tree.member_at_stage((0,), stage) or tree.member_at_stage((1,), stage)
    ):
        raise EmptyTreeAtStageError(f"no length-1 member by stage {stage}")
    if not has_extension(tree, (), budget.depth, stage):
        raise BudgetExhaustedError(
            f"no member reaches depth {budget.depth} by stage {stage}"
        )
    bits: Bits = ()
    for _ in range(budget.depth):
        for c in (0, 1):
            if has_extension(tree, bits + (c,), budget.depth, stage):
                bits = bits + (c,)
                break
    return BranchPrefix(bits, stage)


def _leftmost_cell_at(value: Fraction, level: int) -> DyadicInterval:
    """The leftmost closed level-``level`` cell containing ``value``."""
    t = value * 2**level
    if t.denominator == 1:  # boundary point: prefer the cell on the left
        return DyadicInterval(level, max(t.numerator - 1, 0))
    return DyadicInterval(level, t.numerator // t.denominator)


def find_accumulation_real(x: RationalSequence, budget: Budget) -> AccumulationResult:
    """The accumulation finder that counted terms below the horizon, with
    each cell of its chain found on its own.  An eventually periodic
    sequence gets the least period value, with the leftmost closed cell
    containing it computed in ``Fraction``s at every level, and fails when
    that cell holds fewer than ``threshold`` of the first ``horizon`` terms;
    any other sequence gets the cell of the self-calling descent over the
    sorted-terms count, with the cell of each level cut from its bits.
    Where its last cell holds a limit point, ``solvers.find_accumulation_real``
    must give the same chain."""
    stage = budget.horizon - 1
    if x.periodic_structure() is None:
        best = leftmost_descent(
            budget.depth, lambda bits: witness_count(x, bits, stage) >= budget.threshold
        )
        if best is None:
            raise BudgetExhaustedError(
                f"no depth-{budget.depth} cell reaches threshold {budget.threshold} "
                f"below horizon {budget.horizon}"
            )
        chain = tuple(DyadicInterval.from_bits(best[: d + 1]) for d in range(budget.depth))
        return AccumulationResult(chain, chain[-1].lower, False)
    j0, q = x.periodic_structure()
    approx = min(x.term(j) for j in range(j0, j0 + q))
    chain = tuple(_leftmost_cell_at(approx, d) for d in range(1, budget.depth + 1))
    bits = tuple(cell.index & 1 for cell in chain)
    count = DerivedTree(x).witness_count(bits, stage)
    if count < budget.threshold:
        raise BudgetExhaustedError(
            f"exact accumulation cell at depth {budget.depth} holds only "
            f"{count} of the first {budget.horizon} terms "
            f"(threshold {budget.threshold})"
        )
    return AccumulationResult(chain, approx, True)


def verify_accumulation(
    result: AccumulationResult, x: RationalSequence, budget: Budget
) -> AccumulationViolation | None:
    """The accumulation verifier that counted ``threshold`` of the terms
    j < ``horizon`` in the last cell, by one ``Fraction`` comparison per
    term from j = 0; with a threshold of 0 it makes the chain, approximant
    and exact checks of ``solvers.verify_accumulation`` alone."""
    last = DyadicInterval(0, 0)
    for cell in result.chain:
        if cell.level != last.level + 1 or cell.index >> 1 != last.index:
            return AccumulationViolation(last.level + 1, "chain")
        last = cell
    if last.level == 0:
        return AccumulationViolation(1, "chain")
    if not contains_closed(last, result.approx):
        return AccumulationViolation(last.level, "approx")
    if result.exact:
        struct = x.periodic_structure()
        window = range(struct[0], sum(struct)) if struct is not None else ()
        if all(x.term(j) != result.approx for j in window):
            return AccumulationViolation(last.level, "exact")
        return None
    inside = (j for j in range(budget.horizon) if contains_closed(last, x.term(j)))
    if sum(1 for _ in islice(inside, budget.threshold)) < budget.threshold:
        return AccumulationViolation(last.level, "count")
    return None


def branch_to_point(tree: DerivedTree, bits: Bits, stage: int) -> BranchPoint:
    """``reductions.branch_to_point`` as a scan: each pick is the least index
    j <= stage past the last pick whose term the prefix's ``DyadicInterval``
    holds, every term from there on compared as a ``Fraction``."""
    bits = tuple(bits)
    if not tree.member_at_stage(bits, stage):
        raise NotANodeError(f"{format_bits(bits)!r} is not a tree node at stage {stage}")
    x = tree.source
    picks: list[int] = []
    j = -1
    for t in range(len(bits) - 1):
        cell = DyadicInterval.from_bits(bits[: t + 1])
        j += 1
        while j <= stage and not contains_closed(cell, x.term(j)):
            j += 1
        if j > stage:
            raise WitnessExhaustedError(
                f"stage {stage} holds no witness for cell {t + 1} of {format_bits(bits)!r}"
            )
        picks.append(j)
    cell = DyadicInterval.from_bits(bits)
    return BranchPoint(cell.lower, cell.width, Selector(tuple(picks)))


def full_row_note(family: SetFamily, levels: int) -> str | None:
    """The ``R_i = N`` note of ``bwweak-stcoh`` read off the pattern of
    every column of the family's (j0, q) column window, which holds for
    every row, prefix columns included."""
    struct = family.column_structure()
    if struct is None:
        return None
    outside = 0
    for j in range(sum(struct)):
        outside |= family.pattern(j, range(levels + 2)) >> 2
    full = [i for i in range(levels) if not outside >> (levels - 1 - i) & 1]
    if len(full) == levels:
        return f"R_i = N for all i < {levels}"
    if full:
        return "R_i = N for i in {" + ", ".join(map(str, full)) + "}"
    return None


def stage_list_member(tree: StageListTree, bits: Bits, stage: int) -> bool:
    """Membership at a stage: the latest snapshot at or below it found by a
    walk over every mentioned stage, then every node of it tested as an
    extension of ``bits``."""
    nodes: list[Bits] = []
    for s, snapshot in zip(tree.stages, tree.nodes):
        if s > stage:
            break
        nodes = snapshot
    return any(is_prefix(bits, node) for node in nodes)


def is_prefix(p: Bits, q: Bits) -> bool:
    """True when ``p`` is an initial segment of ``q`` (including p == q)."""
    return len(p) <= len(q) and q[: len(p)] == p


def limit_heights(tree: StageListTree, bits: Bits) -> tuple[int, int]:
    """Per child, the longest node of the last snapshot that the child is a
    prefix of (len(bits) when there is none), every node tested."""
    nodes = tree.nodes[-1] if tree.nodes else []
    out = []
    for c in (0, 1):
        child = bits + (c,)
        best = len(bits)
        for node in nodes:
            if is_prefix(child, node):
                best = max(best, len(node))
        out.append(best)
    return out[0], out[1]


def format_bits(bits: Bits) -> str:
    """One str per bit, joined."""
    return "".join(str(b) for b in bits)


def contains_closed(cell: DyadicInterval, q: Fraction) -> bool:
    """Closed cell membership: lower <= q <= upper, in ``Fraction``s."""
    return cell.lower <= q <= cell.upper


def contains_halfopen(cell: DyadicInterval, q: Fraction) -> bool:
    """Half-open cell membership: lower <= q < upper."""
    return cell.lower <= q < cell.upper


def periodic_equal(x: CantorPoint, y: CantorPoint) -> bool:
    """Equality of two eventually periodic points, bit by bit up to the
    longer prefix plus the lcm of the periods."""
    assert x.is_periodic and y.is_periodic
    bound = max(len(x.prefix), len(y.prefix)) + lcm(len(x.period), len(y.period))
    return all(x.bit(n) == y.bit(n) for n in range(bound))
