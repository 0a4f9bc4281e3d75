"""References for the f/g/h machinery: the per-cutoff stream and the
linear code scan.

``reductions.f_code`` reads the largest valid code below k off the prefix
codes that ``SeparationInstance.witness_prefix`` builds once per (side, n)
and shares across every cutoff.  This module keeps the two forms it must
agree with.  ``f_code`` rebuilds the least-witness stream from scratch for
one cutoff, trying each candidate y only while its code still fits below
k, so it costs O(L · log k) predicate calls per cutoff.  ``valid_codes_below``
is the definition itself: decode every s < k and keep the codes whose every
position x holds the least witness of x, found by brute force from
``evaluate`` alone; the largest kept code is f_code's answer.  The scan
costs O(k) decodes, so tests call it only with small k.
"""

from __future__ import annotations

from typing import Callable

from bwreduce.core import _prime, seq_decode
from bwreduce.instances import SeparationInstance

Relation = Callable[[int, int, int], bool]


def unique_minimal(b: Relation) -> Relation:
    """Minimize witnesses: B'(x, y; n) holds iff y is the least witness of x.

    After the wrapper, at most one y satisfies B' for each (x, n).
    """

    def b_min(x: int, y: int, n: int) -> bool:
        return b(x, y, n) and not any(b(x, yy, n) for yy in range(y))

    return b_min


def valid_codes_below(p: SeparationInstance, i: int, n: int, k: int) -> list[int]:
    """Sorted codes s < k whose decoded sequence satisfies B'_i at every
    position (1, the empty sequence, is always valid)."""
    bprime = unique_minimal(p.predicates[i].evaluate)
    codes = []
    for s in range(1, k):
        vals = seq_decode(s)
        if vals is not None and all(bprime(x, v, n) for x, v in enumerate(vals)):
            codes.append(s)
    return codes


def f_code(p: SeparationInstance, i: int, n: int, k: int) -> int:
    """Largest valid code below k for side i at n, from a stream built for
    this cutoff alone (no budget check)."""
    pred = p.predicates[i]
    code, x = 1, 0
    while True:
        q = _prime(x)
        step, y = code * q, 0  # step = code · q^(y+1)
        while step < k and not pred.evaluate(x, y, n):
            step, y = step * q, y + 1
        if step >= k:
            return code
        code, x = step, x + 1
