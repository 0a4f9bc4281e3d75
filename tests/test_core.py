"""Tests for the exact numeric kernel.

Covers parsing/formatting, dyadic intervals, Cantor-space distance, the
middle-third embedding (including the exact two-sided separation bounds and
the boundary pairs that make them tight), and the prime-power sequence
coding checked against an independent factorization oracle.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle
from kernel_oracle import periodic_equal
from bwreduce.core import (
    CantorPoint,
    DyadicInterval,
    cantor_dist_exact,
    cell_key,
    embed_point_exact,
    fold_last,
    format_bits,
    format_rational,
    pair,
    parse_bits,
    parse_rational,
    seq_code,
    seq_decode,
    string_code,
    string_decode,
    unpair,
)
from bwreduce.errors import ExactValueUnavailableError, SchemaViolationError
from bwreduce.instances import parse_instance, serialize_instance
from bwreduce.reductions import exact_separator

# --- strategies ----------------------------------------------------------------

bits_st = st.lists(st.integers(0, 1), max_size=12).map(tuple)
nonempty_bits_st = st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple)


def periodic_points(max_prefix: int = 8, max_period: int = 4) -> st.SearchStrategy:
    return st.builds(
        CantorPoint.periodic,
        st.lists(st.integers(0, 1), max_size=max_prefix).map(tuple),
        st.lists(st.integers(0, 1), min_size=1, max_size=max_period).map(tuple),
    )


# --- rationals and bit strings ---------------------------------------------------


def test_rational_round_trip():
    for q in (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-1, 2)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(4, 6)) == "2/3"


@pytest.mark.parametrize("bad", ["3", "1/0", "a/b", "1/2/3", "", "1.5"])
def test_rational_rejects_non_canonical(bad):
    with pytest.raises(SchemaViolationError):
        parse_rational(bad)


def test_rational_error_carries_location():
    with pytest.raises(SchemaViolationError) as exc:
        parse_rational("nope", location="$.repr.a")
    assert exc.value.location == "$.repr.a"


def test_bits_round_trip():
    assert parse_bits("") == ()
    assert parse_bits("0110") == (0, 1, 1, 0)
    assert format_bits((1, 0, 1)) == "101"
    with pytest.raises(SchemaViolationError):
        parse_bits("012")


@given(st.lists(st.integers(0, 1), max_size=300).map(tuple))
def test_format_bits_matches_the_per_bit_join(bits):
    assert format_bits(bits) == kernel_oracle.format_bits(bits)
    assert parse_bits(format_bits(bits)) == bits


@st.composite
def _folds(draw):
    """Ascending values and a window (j0, q) or None.  The values past j0
    are drawn from a random subset of the q slots, so some slots may never
    be hit, and j0 falls anywhere from below the first value to past the
    last, so the fold cuts at every position, an empty tail among them."""
    values = sorted(draw(st.sets(st.integers(0, 80), max_size=48)))
    if draw(st.integers(0, 5)) == 0:
        return tuple(values), None
    q = draw(st.integers(1, 7))
    j0 = draw(st.one_of(st.integers(0, 90), st.sampled_from(values or [0])))
    hit = draw(st.sets(st.integers(0, q - 1), min_size=1))
    return tuple(v for v in values if v < j0 or (v - j0) % q in hit), (j0, q)


@settings(max_examples=400)
@given(_folds())
@example(((0, 5, 6, 8, 10, 12), (2, 2)))  # slot 3 is hit only by 5, before the last q
@example(((0, 5, 6, 8, 10, 12), (2, 1)))
@example(((0, 5, 6), (13, 4)))  # an empty tail
@example(((), (0, 3)))
def test_fold_last_matches_the_one_pass_fold(case):
    """Reading the last q values first gives the one-pass fold's columns,
    positions and order: items are compared as lists, since dict equality
    ignores order."""
    values, window = case
    got = fold_last(values, window)
    assert list(got.items()) == list(kernel_oracle.fold_last(values, window).items())


def test_serializing_a_deep_separator_stays_near_its_text_size():
    """The depth-20 separator of ``union_cluster.json`` is 2^20 - 1 bits, about
    1 MiB of text; writing it takes a few copies of that, not one str per
    bit (59 MiB under the per-bit join)."""
    tree = parse_instance((Path(__file__).parent / "data" / "union_cluster.json").read_bytes())
    separator = exact_separator(tree, 20)
    tracemalloc.start()
    try:
        text = serialize_instance(separator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2**20 < len(text) < 2**20 + 4096
    assert peak < 6 * 2**20
    assert format_bits(separator.bits) == kernel_oracle.format_bits(separator.bits)


# --- string and pair codings ------------------------------------------------------


def test_string_code_level_lex_layout():
    # "" -> 0, then length-L strings occupy [2^L - 1, 2^(L+1) - 2] in lex order.
    assert string_code(()) == 0
    assert string_code((0,)) == 1
    assert string_code((1,)) == 2
    assert string_code((0, 0)) == 3
    assert string_code((1, 1)) == 6
    for length in range(7):
        block = [string_code(bits) for bits in product((0, 1), repeat=length)]
        assert block == list(range(2**length - 1, 2 ** (length + 1) - 1))


@given(bits_st)
def test_string_code_round_trip(bits):
    assert string_decode(string_code(bits)) == bits


def test_string_decode_rejects_negative():
    with pytest.raises(ValueError):
        string_decode(-1)


def test_pair_examples():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2
    assert pair(2, 1) == 7


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_pair_round_trip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(0, 10**6))
def test_unpair_round_trip(z):
    a, b = unpair(z)
    assert pair(a, b) == z


# --- dyadic intervals -------------------------------------------------------------


def test_dyadic_interval_examples():
    assert DyadicInterval(1, 0).lower == 0
    assert DyadicInterval(1, 0).upper == Fraction(1, 2)
    assert DyadicInterval(0, 0).lower == 0
    assert DyadicInterval(0, 0).upper == 1
    assert DyadicInterval(2, 2).lower == Fraction(1, 2)
    assert DyadicInterval(2, 2).upper == Fraction(3, 4)


def test_dyadic_interval_membership_is_closed():
    cell = DyadicInterval(2, 2)
    assert cell.contains(Fraction(1, 2))
    assert cell.contains(Fraction(3, 4))
    assert not kernel_oracle.contains_halfopen(cell, Fraction(3, 4))
    assert cell.width == Fraction(1, 4)


@st.composite
def _cell_cases(draw):
    """(level, index, q): a level up to 300, an index below 2^level or past
    it (a parsed certificate can hold one), and q an endpoint of a cell at
    or next to the index, such a point nudged by a little, or any rational
    in [-3, 3], so negative and above 1."""
    level = draw(st.integers(0, 300), label="level")
    index = draw(st.one_of(st.integers(0, 2**level - 1), st.integers(2**level, 2 ** (level + 2))))
    endpoint = Fraction(index + draw(st.integers(-1, 2)), 2**level)
    nudge = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2 ** (level + 4))))
    q = draw(st.sampled_from([endpoint, endpoint + nudge]) | st.fractions(-3, 3), label="q")
    return level, index, q


@settings(max_examples=500, deadline=None)
@given(_cell_cases(), st.integers(1, 50))
def test_cell_key_and_closed_membership_match_the_fraction_oracle(case, scale):
    """``core.cell_key`` of num/den, reduced or not, is the oracle's key of
    the ``Fraction``, and ``DyadicInterval.contains`` is lower <= q <= upper."""
    level, index, q = case
    num, den = q.numerator * scale, q.denominator * scale
    assert cell_key(num, den, level) == kernel_oracle.cell_key(q, level)
    cell = DyadicInterval(level, index)
    assert cell.contains(q) == kernel_oracle.contains_closed(cell, q)


def test_dyadic_interval_from_bits():
    assert DyadicInterval.from_bits(()) == DyadicInterval(0, 0)
    assert DyadicInterval.from_bits((1,)) == DyadicInterval(1, 1)
    assert DyadicInterval.from_bits((0, 1, 1)) == DyadicInterval(3, 3)


def test_dyadic_interval_rejects_negative():
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)
    with pytest.raises(ValueError):
        DyadicInterval(2, -1)


# --- Cantor points and distance -----------------------------------------------------


def test_cantor_point_bit_evaluation():
    x = CantorPoint.periodic((1, 0), (0, 1))
    assert x.bits(8) == (1, 0, 0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        x.bit(-1)
    with pytest.raises(ValueError):
        CantorPoint.periodic((), ())


def test_cantor_dist_examples():
    zero = CantorPoint.constant(0)
    one = CantorPoint.constant(1)
    assert cantor_dist_exact(zero, zero) == 0
    assert cantor_dist_exact(zero, one) == 1
    x = CantorPoint.periodic((0, 0, 1, 0), (0,))
    y = CantorPoint.periodic((0, 0, 1, 1), (0,))
    assert cantor_dist_exact(x, y) == Fraction(1, 8)
    late = CantorPoint.periodic((0,) * 10 + (1,), (0,))
    assert cantor_dist_exact(late, zero) == Fraction(1, 2**10)
    r = CantorPoint.from_rule(lambda n: 0, label="zeros")
    with pytest.raises(ExactValueUnavailableError):
        cantor_dist_exact(r, zero)


def test_cantor_dist_detects_equality_across_representations():
    # 1(0^ω) written two ways: prefix (1,) and prefix (1,0,0) over period (0,0).
    x = CantorPoint.periodic((1,), (0,))
    y = CantorPoint.periodic((1, 0, 0), (0, 0))
    assert periodic_equal(x, y)
    assert cantor_dist_exact(x, y) == 0


@given(periodic_points(), periodic_points())
def test_cantor_dist_agrees_with_exact(x, y):
    # the exact distance against a scan for the first disagreement below 64;
    # the strategy's points are equal once they agree that far
    d = cantor_dist_exact(x, y)
    first = next((m for m in range(64) if x.bit(m) != y.bit(m)), None)
    if first is None:
        assert d == 0 and periodic_equal(x, y)
    else:
        assert d == Fraction(1, 2**first) and not periodic_equal(x, y)


@st.composite
def rewritten_points(draw) -> tuple[CantorPoint, CantorPoint]:
    """x, and y whose prefix is a longer prefix of x and whose period is the
    next bits of x: a whole number of x's period words (equal points, unless
    one bit of y's period is flipped) or any other length up to 30, whose
    tail agrees with x's for at least that many bits."""
    word = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=5)))
    head = tuple(draw(st.lists(st.integers(0, 1), max_size=6)))
    x = CantorPoint.periodic(head, word * draw(st.integers(1, 6)))
    start = len(head) + draw(st.integers(0, 8))
    whole = draw(st.booleans())
    length = len(word) * draw(st.integers(1, 6)) if whole else draw(st.integers(1, 30))
    period = [x.bit(start + i) for i in range(length)]
    if whole and draw(st.booleans()):
        period[draw(st.integers(0, len(period) - 1))] ^= 1
    return x, CantorPoint.periodic(x.bits(start), period)


@given(
    st.one_of(
        rewritten_points(),
        st.tuples(periodic_points(max_period=12), periodic_points(max_period=12)),
    )
)
def test_cantor_dist_agrees_with_the_lcm_scan(points):
    # the distance scans max prefix + p + q - gcd(p, q) bits; the scan of
    # the longer prefix plus lcm(p, q) bits must find the same first
    # difference, and none exactly when the points are equal
    x, y = points
    d = cantor_dist_exact(x, y)
    bound = max(len(x.prefix), len(y.prefix)) + lcm(len(x.period), len(y.period))
    first = next((m for m in range(bound) if x.bit(m) != y.bit(m)), None)
    assert periodic_equal(x, y) == (first is None)
    assert d == (0 if first is None else Fraction(1, 2**first))


# --- middle-third embedding ----------------------------------------------------------


def test_embedding_endpoint_values():
    assert embed_point_exact(CantorPoint.constant(0)) == 0
    assert embed_point_exact(CantorPoint.constant(1)) == 1
    assert embed_point_exact(CantorPoint.periodic((1,), (0,))) == Fraction(2, 3)
    # alternating 0101... sums the odd-position geometric series to 1/4
    assert embed_point_exact(CantorPoint.periodic((), (0, 1))) == Fraction(1, 4)
    assert embed_point_exact(CantorPoint.periodic((), (1, 0))) == Fraction(3, 4)


def _bit_strings(min_len: int, max_len: int) -> st.SearchStrategy[list[int]]:
    """0/1 lists whose length is drawn uniformly from [min_len, max_len]."""
    return st.integers(min_len, max_len).flatmap(
        lambda k: st.lists(st.integers(0, 1), min_size=k, max_size=k)
    )


@settings(max_examples=300)
@given(_bit_strings(0, 40), _bit_strings(1, 40))
def test_embedding_matches_the_fraction_series(prefix, period):
    """The base-3 integer form equals the geometric series summed in Fractions."""
    x = CantorPoint.periodic(prefix, period)
    assert embed_point_exact(x) == kernel_oracle.embed_point_exact(x)


def test_partial_embedding_needs_no_periodicity():
    x = CantorPoint.from_rule(lambda n: 1 if n % 3 == 0 else 0, label="thirds")
    with pytest.raises(ExactValueUnavailableError):
        embed_point_exact(x)


def _first_disagreement(x: CantorPoint, y: CantorPoint, bound: int = 256) -> int:
    for m in range(bound):
        if x.bit(m) != y.bit(m):
            return m
    raise AssertionError("expected distinct points")


@settings(max_examples=300)
@given(periodic_points(), periodic_points())
def test_embedding_separation_bounds(x, y):
    """First disagreement at m forces 3^-(m+1) <= |h(x)-h(y)| <= 3^-m."""
    if periodic_equal(x, y):
        assert embed_point_exact(x) == embed_point_exact(y)
        return
    m = _first_disagreement(x, y)
    gap = abs(embed_point_exact(x) - embed_point_exact(y))
    assert Fraction(1, 3 ** (m + 1)) <= gap <= Fraction(1, 3**m)


def test_separation_bounds_are_attained():
    # Both bounds are tight.  With a shared stem s of length m: continuing
    # 0,0,0,... versus 1,1,1,... realizes the upper bound 3^-m exactly, while
    # 0,1,1,... versus 1,0,0,... realizes the lower bound 3^-(m+1) exactly.
    for stem_len in range(9):
        for stem_bits in product((0, 1), repeat=stem_len):
            wide_gap = abs(
                embed_point_exact(CantorPoint.periodic(stem_bits, (0,)))
                - embed_point_exact(CantorPoint.periodic(stem_bits, (1,)))
            )
            assert wide_gap == Fraction(1, 3**stem_len)
            narrow_gap = abs(
                embed_point_exact(CantorPoint.periodic(stem_bits + (0,), (1,)))
                - embed_point_exact(CantorPoint.periodic(stem_bits + (1,), (0,)))
            )
            assert narrow_gap == Fraction(1, 3 ** (stem_len + 1))


def test_distance_correspondence_small_exhaustive():
    """Exhaustive check of the distance correspondence on short prefixes.

    For all pairs of length-7 prefixes with constant tails and all n < 10:
      (a) cantor_dist < 2^-n implies |h(x)-h(y)| <= 3^-(n+1), and
      (b) |h(x)-h(y)| < 3^-(n+1) implies cantor_dist < 2^-n.
    Shorter prefixes with constant tails are special cases of length-7 ones.
    """
    points: list[tuple[Fraction, CantorPoint]] = []
    for tail in (0, 1):
        for prefix in product((0, 1), repeat=7):
            pt = CantorPoint.periodic(prefix, (tail,))
            points.append((embed_point_exact(pt), pt))
    for hx, x in points:
        for hy, y in points:
            dist = cantor_dist_exact(x, y)
            gap = abs(hx - hy)
            for n in range(10):
                if dist < Fraction(1, 2**n):
                    assert gap <= Fraction(1, 3 ** (n + 1))
                if gap < Fraction(1, 3 ** (n + 1)):
                    assert dist < Fraction(1, 2**n)


def test_two_sided_strictness_fails_on_boundary_pairs():
    # The correspondence cannot be sharpened to a strict inequality in (a):
    # with a stem of length n+1 the continuations 0,0,... and 1,1,... agree
    # below 2^-n in Cantor distance yet their images differ by exactly
    # 3^-(n+1), witnessing that "<=" is the best possible bound.
    for n in range(6):
        stem = (1, 0) * ((n + 1) // 2) + (1,) * ((n + 1) % 2)
        assert len(stem) == n + 1
        x = CantorPoint.periodic(stem, (0,))
        y = CantorPoint.periodic(stem, (1,))
        assert cantor_dist_exact(x, y) < Fraction(1, 2**n)
        assert abs(embed_point_exact(x) - embed_point_exact(y)) == Fraction(
            1, 3 ** (n + 1)
        )


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=10).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=10).map(tuple),
    st.integers(0, 1),
)
def test_embedding_preserves_lexicographic_order(p, q, tail):
    x = CantorPoint.periodic(p, (tail,))
    y = CantorPoint.periodic(q, (tail,))
    if periodic_equal(x, y):
        return
    m = _first_disagreement(x, y)
    if x.bit(m) < y.bit(m):
        assert embed_point_exact(x) < embed_point_exact(y)
    else:
        assert embed_point_exact(x) > embed_point_exact(y)


# --- sequence coding ------------------------------------------------------------------


def test_seq_code_examples():
    assert seq_code(()) == 1
    assert seq_code((0,)) == 2
    assert seq_code((1, 0)) == 12
    assert seq_code((0, 1, 2)) == 2250
    assert seq_decode(1) == ()
    assert seq_decode(12) == (1, 0)
    assert seq_decode(5) is None
    assert seq_decode(0) is None
    assert seq_decode(-3) is None


def test_seq_code_rejects_negative_entries():
    with pytest.raises(ValueError):
        seq_code((0, -1))


def _oracle_decode(n: int) -> tuple[int, ...] | None:
    """Independent decoder via sympy's factorization.

    A positive integer codes a sequence exactly when its prime support is an
    initial segment of the primes; the entries are the exponents minus one.
    """
    from sympy import factorint, prime

    if n <= 0:
        return None
    if n == 1:
        return ()
    factors = factorint(n)
    expected = [prime(i + 1) for i in range(len(factors))]
    if sorted(factors) != expected:
        return None
    return tuple(factors[p] - 1 for p in expected)


def test_seq_decode_matches_factorization_oracle():
    for n in range(0, 30_000):
        assert seq_decode(n) == _oracle_decode(n), n


def test_seq_round_trip_on_small_grid():
    for length in range(4):
        for values in product(range(4), repeat=length):
            code = seq_code(values)
            assert seq_decode(code) == values


@given(st.lists(st.integers(0, 30), max_size=8))
def test_seq_round_trip_property(values):
    assert seq_decode(seq_code(values)) == tuple(values)


@given(st.lists(st.integers(0, 10), max_size=5), st.integers(0, 10))
def test_seq_code_strictly_grows_under_extension(values, extra):
    assert seq_code(list(values) + [extra]) > seq_code(values)


@given(st.lists(st.integers(0, 10), min_size=1, max_size=5), st.data())
def test_seq_code_monotone_in_each_entry(values, data):
    i = data.draw(st.integers(0, len(values) - 1))
    bumped = list(values)
    bumped[i] += 1
    assert seq_code(bumped) > seq_code(values)
