"""Small-k reference for the f/g/h machinery: the linear code scan.

``reductions.f_code`` builds the largest valid code below k directly from
the least-witness stream.  This module keeps the definition it must agree
with: decode every s < k and keep the codes whose every position x holds
the least witness of x, found by brute force from ``evaluate`` alone.  The
largest kept code is f_code's answer.  The scan costs O(k) decodes, so tests
call it only with small k.
"""

from __future__ import annotations

from typing import Callable

from bwreduce.core import seq_decode
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
