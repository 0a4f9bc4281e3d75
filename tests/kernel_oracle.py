"""Reference bodies of the cohesion and tree kernels, in plain ``Fraction``
arithmetic.

``SetFamily.pattern`` reads the membership of j in many rows as one integer
(one modular power per run of rows for a derived family, one read per window
slot for listed rows), ``core.embed_point_exact`` computes in base-3
integers, and ``solvers.build_strongly_cohesive`` lists the members of a
periodic family from one lcm window.  ``solvers._suffix_extrema`` compares
integer cross-products, and ``EmbeddedSequence.term`` folds an index past
its (j0, q) window into the window.  ``DerivedTree.witness_count`` counts
integer cell keys over a weighted window of terms, and
``BinaryWalkSequence.term`` shifts the target's numerator.  This module keeps
the direct forms they must agree with: the dyadic-cell parity of term(j)·2^n
as a ``Fraction``; each listed row looked up and read at j; the cohesion
verifier and back-translation that ask ``member`` once per row and selected
value; the geometric series summed term by term; the enumeration that
evaluates the membership pattern of every j below the horizon; suffix
extrema taken by ``max``/``min`` over ``Fraction``s; the embedded term read
at its own index; the sorted list of every term j <= stage bisected at the
cell's ``Fraction`` endpoints; the tree's cell key of a term as a
``Fraction`` product; and the walk term as a ``Fraction`` product.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from bwreduce.certificates import Budget, CohesiveWitness, Selector
from bwreduce.core import Bits, CantorPoint, DyadicInterval
from bwreduce.instances import (
    EmbeddedSequence,
    PeriodicRowsFamily,
    RationalSequence,
    RowPattern,
    SetFamily,
)
from bwreduce.solvers import CohesiveViolation


def member(q: Fraction, n: int, convention: str) -> bool:
    """Is a term of value q in row n of the derived family?"""
    if convention == "corrected":
        t = q * 2**n / 2
        return (t.numerator // t.denominator) % 2 == 0
    t = q * 2**n
    whole, frac_num = divmod(t.numerator, t.denominator)
    return frac_num == 0 or whole % 2 == 0


def listed_row(family: SetFamily, n: int) -> RowPattern:
    """Row n of a ``periodic_rows`` or ``table_rows`` family."""
    if isinstance(family, PeriodicRowsFamily):
        if n < len(family.row_prefix):
            return family.row_prefix[n]
        return family.row_period[(n - len(family.row_prefix)) % len(family.row_period)]
    return family.entries.get(n, family.default)


def verify_cohesive(witness: CohesiveWitness, family: SetFamily) -> CohesiveViolation | None:
    """Every settle triple checked by one ``member`` query per selected value."""
    for i, s, side in witness.settle:
        want = side == "in"
        for j in witness.selector.values:
            if j >= s and family.member(i, j) != want:
                return CohesiveViolation(i, j)
    return None


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
    """The horizon scan of a jointly periodic family: the least pattern of the
    lcm window, then every j below the horizon whose own membership pattern
    equals it.  (Families without periodic structure take a path that was
    not rewritten, so the oracle does not cover them.)"""
    struct = family.periodic_structure(levels)
    assert struct is not None, "the oracle covers periodic families only"
    j0, q = struct
    y = min(_pattern(family, j, levels) for j in range(j0, j0 + q))
    members = tuple(
        j for j in range(budget.horizon) if _pattern(family, j, levels) == y
    )
    settle = tuple((i, 0, "in" if y[i] == 0 else "out") for i in range(levels))
    return CohesiveWitness(Selector(members), settle)


def witness_count(x: RationalSequence, bits: Bits, stage: int) -> int:
    """How many j <= stage have x.term(j) in the closed cell of ``bits``:
    every term evaluated, sorted, and bisected at the cell's endpoints."""
    cell = DyadicInterval.from_bits(bits)
    terms = sorted(x.term(j) for j in range(stage + 1))
    return bisect_right(terms, cell.upper) - bisect_left(terms, cell.lower)


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
