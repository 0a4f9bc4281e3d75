"""Exact numeric kernel.

Rationals, dyadic intervals, finite bit strings, points of Cantor space, the
middle-third embedding of Cantor space into [0, 1], and a prime-power coding
of finite natural-number sequences.  Everything is exact — no floats — and
every value is immutable after construction, so the module is safe to use
from concurrent verifiers.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import itemgetter, mod
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, ExactValueUnavailableError, SchemaViolationError

#: A finite binary string; () is the root/empty string.
Bits = tuple[int, ...]

_RATIONAL_RE = re.compile(r"^(-?\d+)/(\d+)$")


def parse_rational(text: str, *, location: str = "$") -> Fraction:
    """Parse the canonical ``p/q`` spelling into an always-reduced rational."""
    if not isinstance(text, str):
        raise SchemaViolationError(f"expected rational string, got {text!r}", location)
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise SchemaViolationError(f"not a p/q rational: {text!r}", location)
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise SchemaViolationError("zero denominator", location)
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical ``p/q`` spelling (denominator always present: 0 -> ``0/1``)."""
    return f"{q.numerator}/{q.denominator}"


# --- bit strings -------------------------------------------------------------


def parse_bits(text: str, *, location: str = "$") -> Bits:
    """Parse a string of 0s and 1s ("" denotes the empty string)."""
    if not isinstance(text, str) or any(c not in "01" for c in text):
        raise SchemaViolationError(f"not a bit string: {text!r}", location)
    return tuple(int(c) for c in text)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def format_bits(bits: Bits) -> str:
    """The 0/1 string of ``bits``, written in one step as bytes, so a long
    string costs about its own size rather than one str per bit."""
    return bytes(bits).translate(_BIT_DIGITS).decode("ascii")


def leftmost_descent(depth: int, ok: Callable[[Bits], bool], bits: Bits = ()) -> Bits | None:
    """Leftmost ``depth``-bit extension of ``bits`` (len(bits) <= depth)
    whose longer prefixes all pass ``ok``, or None.  An explicit stack, so
    any depth is safe: ``ok`` is asked of each prefix as it is popped, the
    0 child's subtree before the 1 child, which is the order of a recursive
    depth-first search."""
    if len(bits) == depth:
        return bits
    stack = [bits + (1,), bits + (0,)]
    while stack:
        node = stack.pop()
        if ok(node):
            if len(node) == depth:
                return node
            stack += (node + (1,), node + (0,))
    return None


def string_code(bits: Bits) -> int:
    """Level-lexicographic code of a finite binary string.

    "" -> 0, "0" -> 1, "1" -> 2, "00" -> 3, ...; strings of length L occupy
    the contiguous block [2^L - 1, 2^(L+1) - 2].
    """
    n = 1
    for b in bits:
        n = (n << 1) | b
    return n - 1


def string_decode(code: int) -> Bits:
    """Inverse of :func:`string_code`."""
    if code < 0:
        raise ValueError("string codes are naturals")
    n = code + 1
    return tuple(int(c) for c in bin(n)[3:])


# --- diagonal pairing ---------------------------------------------------------


def pair(a: int, b: int) -> int:
    """Cantor diagonal pairing ⟨a, b⟩ = (a+b)(a+b+1)/2 + b."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(z: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    if z < 0:
        raise ValueError("pair codes are naturals")
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


# --- dyadic intervals ---------------------------------------------------------


def cell_key(num: int, den: int, level: int) -> int:
    """2·floor(num/den·2^level), plus 1 when num/den·2^level is not whole:
    the closed level cell of index a holds num/den (den > 0) iff its key is
    2a, 2a + 1 or 2a + 2."""
    whole, rem = divmod(num << level, den)
    return 2 * whole + (rem != 0)


@dataclass(frozen=True)
class DyadicInterval:
    """The closed interval [index/2^level, (index+1)/2^level]."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0 or self.index < 0:
            raise ValueError("level and index must be naturals")

    @property
    def lower(self) -> Fraction:
        return Fraction(self.index, 2**self.level)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.index + 1, 2**self.level)

    @property
    def width(self) -> Fraction:
        return Fraction(1, 2**self.level)

    def contains(self, q: Fraction) -> bool:
        """Closed membership: lower <= q <= upper."""
        return 0 <= cell_key(q.numerator, q.denominator, self.level) - 2 * self.index <= 2

    @staticmethod
    def from_bits(bits: Bits) -> "DyadicInterval":
        """Cell of the binary prefix ``bits``: left endpoint Σ bits[i]·2^-(i+1)."""
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return DyadicInterval(len(bits), idx)


# --- points of Cantor space ---------------------------------------------------


class CantorPoint:
    """An infinite binary sequence.

    Two representations: eventually periodic (finite prefix + non-empty
    period, supporting exact equality and exact embedding values) and
    rule-backed (a total evaluator n -> {0,1}; only finitely many bits are
    ever observable, so an exact distance or embedding value of one raises
    ExactValueUnavailableError).  A set of naturals is the periodic point
    of its characteristic pattern: the rows of a set family are such points.
    """

    __slots__ = ("prefix", "period", "_rule", "label")

    def __init__(
        self,
        prefix: Bits | None,
        period: Bits | None,
        rule: Callable[[int], int] | None = None,
        label: str = "",
    ):
        if rule is None:
            if period is None or len(period) == 0:
                raise ValueError("periodic point needs a non-empty period")
            if any(b not in (0, 1) for b in (prefix or ()) + period):
                raise ValueError("bits must be 0/1")
        self.prefix: Bits | None = prefix
        self.period: Bits | None = period
        self._rule = rule
        self.label = label

    @staticmethod
    def periodic(prefix: Iterable[int], period: Iterable[int]) -> "CantorPoint":
        return CantorPoint(tuple(prefix), tuple(period))

    @staticmethod
    def constant(bit: int) -> "CantorPoint":
        return CantorPoint((), (bit,))

    @staticmethod
    def from_rule(rule: Callable[[int], int], label: str = "rule") -> "CantorPoint":
        return CantorPoint(None, None, rule, label)

    @property
    def is_periodic(self) -> bool:
        return self._rule is None

    def bit(self, n: int) -> int:
        if n < 0:
            raise ValueError("bit positions are naturals")
        if self._rule is not None:
            b = self._rule(n)
            if b not in (0, 1):
                raise ValueError(f"rule produced non-bit {b!r} at {n}")
            return b
        assert self.prefix is not None and self.period is not None
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def bits(self, count: int) -> Bits:
        return tuple(self.bit(n) for n in range(count))

    def __repr__(self) -> str:  # debugging aid only
        if self.is_periodic:
            return f"CantorPoint({format_bits(self.prefix)},({format_bits(self.period)}))"
        return f"CantorPoint<rule:{self.label}>"


def joint_window(points: Sequence[CantorPoint]) -> tuple[int, int]:
    """(longest prefix, lcm of the periods) of periodic points: past that
    prefix, their bits at m repeat jointly with that period."""
    prefix = max((len(pt.prefix) for pt in points), default=0)
    return prefix, lcm(*(len(pt.period) for pt in points))


# a cell index at level d has up to d·log10(2) + 1 digits, and the harmonic cell
# window of level d starts at 2^d; past this level either passes the 4,300-digit
# limit of int-to-str conversion, so a deeper chain or derived window is refused
MAX_ACCUMULATION_DEPTH = 14_284


# a whole-window reader reads all q slots of (j0, q), and an lcm of periods soon
# passes any count of reads; reads below j0 stop at a horizon, stage or listing
MAX_WINDOW = 1 << 16


def window_slots(window: tuple[int, int]) -> range:
    """The slots j0, ..., j0 + q - 1 of a (j0, q) window, for a reader of
    each one; past ``MAX_WINDOW`` slots, an exceeded budget."""
    j0, q = window
    if q > MAX_WINDOW:
        raise BudgetExceededError(f"a window of {q} period slots is past the limit of {MAX_WINDOW}")
    return range(j0, j0 + q)


def fold_last(values: Sequence[int], window: tuple[int, int] | None) -> dict[int, int]:
    """Each column that the ascending ``values`` fold onto (a j < j0 is its
    own), mapped to the last position folding there, in position order: with
    a window (j0, q), C-level passes key each j >= j0 by j % q, naming its slot
    j0 + (j - j0) % q, the last q values first and the rest if a slot is missing."""
    m = len(values)
    cut = m if window is None else bisect_left(values, window[0])
    last = dict(zip(values, range(cut)))
    if cut < m:
        j0, q = window
        lo = max(cut, m - q)
        tail = dict(zip(map(mod, values[lo:], repeat(q)), range(lo, m)))
        if len(tail) < q < m - cut:  # a slot not in the last q: later positions win
            tail = dict(zip(map(mod, values[cut:], repeat(q)), range(cut, m)))
        last.update(sorted(((j0 + (r - j0) % q, t) for r, t in tail.items()), key=itemgetter(1)))
    return last


def cantor_dist_exact(x: CantorPoint, y: CantorPoint) -> Fraction:
    """Exact distance of two eventually periodic points (no budget needed)."""
    if not (x.is_periodic and y.is_periodic):
        raise ExactValueUnavailableError(
            "exact Cantor distance needs eventually periodic points"
        )
    # tails that agree for p + q - gcd(p, q) bits are equal (Fine and Wilf)
    p, q = len(x.period), len(y.period)
    for m in range(max(len(x.prefix), len(y.prefix)) + p + q - gcd(p, q)):
        if x.bit(m) != y.bit(m):
            return Fraction(1, 2**m)
    return Fraction(0)


# --- middle-third embedding ----------------------------------------------------
#
# h(x) = Σ_i 2·x(i)/3^(i+1) sends Cantor space onto the middle-third set in
# [0, 1].  Key exact facts used throughout (and pinned in tests): if x and y
# first disagree at index m then 3^-(m+1) <= |h(x)-h(y)| <= 3^-m, whence the
# corrected correspondence pair, for the Cantor distance d(x,y) = 2^-m
#   (a) d(x,y) < 2^-n            =>  |h(x)-h(y)| <= 3^-(n+1)
#   (b) |h(x)-h(y)| < 3^-(n+1)   =>  d(x,y) < 2^-n
# (the two-sided strict version fails on tail boundaries: σ⌢0⌢0^ω vs σ⌢1⌢1^ω
# attains 3^-(n+1) exactly).


def embed_point_exact(x: CantorPoint) -> Fraction:
    """Exact h(x) for an eventually periodic point (geometric series).

    With the prefix (length p) and the period (length q) read as base-3
    integers H and C of digits 2·b, h(x) = (H·(3^q − 1) + C) / (3^p·(3^q − 1)).
    """
    if not x.is_periodic:
        raise ExactValueUnavailableError("exact embedding needs a periodic point")
    assert x.prefix is not None and x.period is not None
    head = cycle = 0
    for b in x.prefix:
        head = 3 * head + 2 * b
    for b in x.period:
        cycle = 3 * cycle + 2 * b
    repeat = 3 ** len(x.period) - 1
    return Fraction(head * repeat + cycle, 3 ** len(x.prefix) * repeat)


# --- sequence coding ------------------------------------------------------------
#
# A finite sequence ⟨v_0, ..., v_{L-1}⟩ is coded as Π_x p_x^(v_x + 1) with
# p_0 = 2 < p_1 = 3 < ... the primes; the empty sequence is 1.  Valid codes
# are exactly the positive integers whose prime support is a contiguous
# initial segment of the primes.  The coding is strictly monotone under
# extension and monotone in each component.

_PRIMES: list[int] = [2, 3, 5, 7, 11, 13]


def _prime(i: int) -> int:
    """The i-th prime (0-based), growing the cache on demand."""
    while len(_PRIMES) <= i:
        c = _PRIMES[-1] + 2
        while any(c % p == 0 for p in _PRIMES if p * p <= c):
            c += 2
        _PRIMES.append(c)
    return _PRIMES[i]


def seq_code(values: Sequence[int]) -> int:
    """Code of a finite sequence of naturals (empty sequence -> 1)."""
    n = 1
    for x, v in enumerate(values):
        if v < 0:
            raise ValueError("sequence entries must be naturals")
        n *= _prime(x) ** (v + 1)
    return n


def seq_decode(n: int) -> tuple[int, ...] | None:
    """Decode a code back to its sequence; None when ``n`` codes nothing."""
    if n <= 0:
        return None
    out: list[int] = []
    m = n
    x = 0
    while m > 1:
        p = _prime(x)
        if p * p > m and m != p:
            # every untried prime factor is >= p, so m is prime; unless it is
            # exactly p the support skips a prime and n codes nothing.
            return None
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e == 0:
            return None  # support skips p: not contiguous
        out.append(e - 1)
        x += 1
    return tuple(out)
