"""Seeded instance generators and the op lists of the four workloads.

Every op is one ``bwreduce`` CLI command with a known expected outcome:
the exit code, and for ``roundtrip`` the report verdict.  Catalog entries
keep the outcomes the sweep and the acceptance suite already pin (the
paper-literal cohesion round trips fail on 7 of the 30 periodic sequences);
generated instances are built so that their outcome follows from how they
were built:

* cohesion sequences keep distinct values at least 1/64 apart, which the
  level-8 cohesion round trip needs;
* separations keep the disjointness promise (one side is total at every n),
  use the same rule on both sides wherever both are total, and put their
  stabilisation bound k* on a stratified log-uniform grid from 10^3 to
  3*10^4, well inside the default code budget of 10^6.  The top is 3*10^4
  and not higher because one op costs about 15 us per unit of k*: the tail
  percentile needs at least eleven largest-k* ops within one run;
* trees always hold a node of depth 8 at the default stage, and every
  sequence has a depth-8 branch in its derived tree.

The generators import ``bwreduce`` when they are called, not when this
module is imported, so that the set-up timing can re-import the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("cohesion", "late-separation", "tree-branch", "solve-verify")

LEVELS = 8  # the default --depth of every command
MIN_GAP = F(1, 64)
KSTAR_LOW = 10**3
KSTAR_HIGH = 3 * 10**4
KSTAR_STRATA = 16
KSTAR_TOP_EXTRA = 3  # more draws from the top stratum, so the tail is the largest k*
KSTAR_JITTER = 0.05  # relative spread of k* inside one stratum


@dataclass
class Op:
    """One CLI command and the outcome it must have."""

    key: str  # stable identity: the same instance bytes give the same key
    argv: list[str]
    expect_exit: int
    category: str
    report: str | None = None  # roundtrip report path, when the op writes one
    output: str | None = None  # certificate path, when the op writes one
    kstar: int | None = None


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def _spaced_values(rng: random.Random, count: int) -> list[F]:
    """Up to ``count`` distinct rationals in [0, 1], pairwise >= the gap.

    The denominator band and the spacing are drawn per call, so one seed
    mixes small and large denominators, dyadic and non-dyadic values.
    """
    band = rng.choice(((2, 16), (17, 96), (97, 640)))
    den = rng.randint(*band)
    gap = rng.choice((MIN_GAP, MIN_GAP, 2 * MIN_GAP, 4 * MIN_GAP))
    values: list[F] = []
    for _ in range(200):
        if len(values) == count:
            break
        v = F(rng.randint(0, den), den)
        if all(abs(v - w) >= gap for w in values):
            values.append(v)
    return values


def periodic_sequence(rng: random.Random):
    """Eventually periodic sequence whose distinct values are >= 1/64 apart."""
    from bwreduce.instances import PeriodicSequence, TableSequence

    pool = _spaced_values(rng, rng.randint(1, 5))
    if rng.random() < 0.2:
        entries = {i: rng.choice(pool) for i in rng.sample(range(8), rng.randint(1, 3))}
        return TableSequence(entries, rng.choice(pool))
    prefix = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
    period = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
    return PeriodicSequence(prefix, period)


BRANCH_SHAPES = ("periodic", "table", "walk", "harmonic-like")


def branch_sequence(rng: random.Random, shape: str):
    """Periodic or non-periodic sequence of one shape, for the bw-swkl round
    trip."""
    from bwreduce.instances import (
        BinaryWalkSequence,
        PeriodicSequence,
        TableSequence,
    )

    if shape == "periodic":
        den = rng.randint(2, 200)
        period = [F(rng.randint(0, den), den) for _ in range(rng.randint(1, 6))]
        prefix = [F(rng.randint(0, den), den) for _ in range(rng.randint(0, 3))]
        return PeriodicSequence(prefix, period)
    if shape == "table":
        den = rng.randint(2, 200)
        entries = {
            i: F(rng.randint(0, den), den) for i in rng.sample(range(64), rng.randint(1, 8))
        }
        return TableSequence(entries, F(rng.randint(0, den), den))
    if shape == "walk":  # a non-dyadic target: the walk never settles
        den = rng.choice((3, 5, 7, 9, 11, 13, 97))
        return BinaryWalkSequence(F(rng.randint(1, den - 1), den) * rng.choice((1, F(1, 2))))
    # harmonic-like: a decaying table c/(i+a) towards a limit, then constant
    length = rng.randint(16, 48)
    a = rng.randint(1, 4)
    limit = F(rng.randint(0, 8), 16)
    entries = {}
    for i in range(length):
        entries[i] = min(F(1), limit + F(1, i + a) * (1 - limit))
    return TableSequence(entries, limit)


# ---------------------------------------------------------------------------
# trees and families
# ---------------------------------------------------------------------------


def _bits(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(lo, hi)))


def tree(rng: random.Random):
    """Branch-union or stage-list tree with a member of depth >= 8."""
    from bwreduce.core import CantorPoint
    from bwreduce.instances import BranchUnionTree, StageListTree

    if rng.random() < 0.5:
        points = [
            CantorPoint.periodic(_bits(rng, 0, 4), _bits(rng, 1, 4))
            for _ in range(rng.randint(1, 4))
        ]
        return BranchUnionTree(points)
    stages = sorted(rng.sample(range(4000), rng.randint(1, 4)))
    nodes: set[tuple[int, ...]] = set()
    entries = []
    for stage in stages:
        for _ in range(rng.randint(1, 3)):
            nodes.add(_bits(rng, 1, 12))
        entries.extend((stage, node) for node in sorted(nodes))
    deep = _bits(rng, LEVELS, LEVELS + 4)
    entries.append((stages[-1], deep))
    return StageListTree(entries)


def _row(rng: random.Random):
    from bwreduce.instances import RowPattern

    return RowPattern(_bits(rng, 0, 3), _bits(rng, 1, 4))


def family(rng: random.Random):
    """Periodic-rows or table-rows family with short row periods."""
    from bwreduce.instances import PeriodicRowsFamily, TableRowsFamily

    if rng.random() < 0.6:
        prefix = [_row(rng) for _ in range(rng.randint(0, 2))]
        period = [_row(rng) for _ in range(rng.randint(1, 3))]
        return PeriodicRowsFamily(prefix, period)
    entries = {n: _row(rng) for n in rng.sample(range(6), rng.randint(1, 3))}
    return TableRowsFamily(entries, _row(rng))


# ---------------------------------------------------------------------------
# separations with a chosen stabilisation bound
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _choice_codes(limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every non-empty course-of-values code below ``limit``, with its values.

    A code is prod p_x^(v_x + 1) over a contiguous run of primes from 2.
    """
    out: list[tuple[int, tuple[int, ...]]] = []

    def grow(code: int, values: tuple[int, ...]) -> None:
        if values:
            out.append((code, values))
        x = len(values)
        if x == len(_PRIMES):
            return
        c = code * _PRIMES[x]
        e = 0
        while c < limit:
            grow(c, values + (e,))
            c *= _PRIMES[x]
            e += 1

    grow(1, ())
    out.sort()
    return out


def kstar_grid(rng: random.Random) -> list[float]:
    """k* targets: one per log-uniform stratum of [KSTAR_LOW, KSTAR_HIGH],
    plus KSTAR_TOP_EXTRA more in the top stratum."""
    span = math.log(KSTAR_HIGH / KSTAR_LOW)
    strata = list(range(KSTAR_STRATA)) + [KSTAR_STRATA - 1] * KSTAR_TOP_EXTRA
    return [
        KSTAR_LOW * math.exp(span * (i + 0.5) / KSTAR_STRATA)
        * (1 + rng.uniform(-KSTAR_JITTER, KSTAR_JITTER))
        for i in strata
    ]


def separation(rng: random.Random, target: float, codes) -> tuple[object, int]:
    """Rule-backed separation whose k* (max over n < 8) is close to ``target``.

    At one parameter n* the winning side's least-witness stream codes to
    k* - 1 and the losing side has witnesses exactly below its cap; at up to
    two other parameters the loser is given a short cap (k* stays below the
    n* one); at some further parameters both sides are total with the same
    constant stream (a tie, k* = 0); everywhere else the loser has no
    witness at all.  Returns the instance and its k*.
    """
    from bwreduce.core import seq_code
    from bwreduce.instances import Cond, RulePredicate, SeparationInstance

    # the nearest code: below 4*10^4 codes lie up to 15 % apart, so a random
    # neighbour would make the cost of one stratum vary by seed
    code, values = min(codes, key=lambda c: abs(c[0] + 1 - target))
    winner = rng.randint(0, 1)
    params = list(range(LEVELS))
    rng.shuffle(params)
    nstar, others, ties = params[0], params[1:3], params[3 : 3 + rng.randint(0, 3)]

    use_const = rng.random() < 0.5
    top = max(values)
    base = top if use_const else 0  # the winner's stream away from n*
    win_over: list[tuple[int, int, int, bool]] = []
    for x, v in enumerate(values):
        if use_const and v < top:
            win_over.append((x, v, nstar, True))
        if not use_const:
            win_over.extend((x, y, nstar, False) for y in range(v))

    # k* at n is one past the code of the winner's first `cap + winner`
    # witnesses, where `cap` is the loser's first x without a witness
    kstar = code + 1
    caps = {nstar: len(values) - winner}
    for n in others:
        cap = rng.randint(0, 2)
        if seq_code((base,) * (cap + winner)) + 1 < kstar:
            caps[n] = cap
    lose_over: list[tuple[int, int, int, bool]] = []
    for n, cap in caps.items():
        lose_over.extend((x, rng.randint(0, 3), n, True) for x in range(cap))

    win = RulePredicate(
        "y_eq_const" if use_const else "always",
        value=top if use_const else None,
        overrides=tuple(win_over),
    )
    if ties:
        lose = RulePredicate(
            "y_eq_const",
            cond=Cond("in", values=tuple(sorted(ties))),
            value=base,
            overrides=tuple(lose_over),
        )
    else:
        lose = RulePredicate("never", overrides=tuple(lose_over))
    b0, b1 = (win, lose) if winner == 0 else (lose, win)
    return SeparationInstance(b0, b1), kstar


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Writer:
    """Writes instance files once per distinct content and names ops."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, str] = {}

    def write(self, label: str, obj) -> str:
        import hashlib

        from bwreduce.instances import serialize_instance

        data = serialize_instance(obj)
        digest = hashlib.sha256(data).hexdigest()[:16]
        path = self.files.get(digest)
        if path is None:
            path = str(self.root / f"{label}-{digest}.json")
            Path(path).write_bytes(data)
            self.files[digest] = path
        return path


def _digest_of(path: str) -> str:
    return Path(path).stem.rsplit("-", 1)[-1]


def _roundtrip(w: _Writer, pair: str, label: str, obj, expect: int, category: str,
               convention: str = "corrected", kstar: int | None = None,
               flags: tuple[str, ...] = ()) -> list[Op]:
    path = w.write(label, obj)
    digest = _digest_of(path)
    report = str(w.root / f"report-{pair}-{convention}-{digest}.json")
    argv = ["roundtrip", "--pair", pair, "-i", path, "--report", report,
            "--convention", convention, *flags]
    op = Op(" ".join(["roundtrip", pair, convention, *flags, digest]), argv, expect,
            category, report=report, kstar=kstar)
    return [op]


def _solve(w: _Writer, problem: str, label: str, obj) -> list[Op]:
    """A solve op that writes its certificate, then the verify op that reads
    it back when the problem has a verifier."""
    path = w.write(label, obj)
    digest = _digest_of(path)
    cert = str(w.root / f"cert-{problem}-{digest}.json")
    unit = [Op(f"solve {problem} {digest}",
               ["solve", "--problem", problem, "-i", path, "-o", cert], 0, problem,
               output=cert)]
    if problem != "accumulation":
        unit.append(Op(f"verify {problem} {digest}",
                       ["verify", "-i", path, "--certificate", cert], 0, problem))
    return unit


# Cohesion round trips scan the first --horizon indices; an eighth of the
# default 4096 makes one pass over the workload's 100 ops short enough (about
# 3 s) to repeat eight times or more within a run, so that each op's median
# is steady, and keeps the membership kernel the dominant cost.
COHESION_FLAGS = ("--horizon", "512")

# The seven paper-literal failures of the 30 periodic catalog sequences: the
# documented convention defect, kept as the expected exit 1.
PAPER_LITERAL_FAILS = frozenset(
    {"alternating-ends", "three-cluster", "walk-half", "table-spike",
     "eighth-grid", "quarter-pair", "step-down"}
)


def build(workload: str, seed: int, root: Path) -> list[list[Op]]:
    """Write the workload's instance files under ``root``; return its units.

    A unit is one op, or a solve op and the verify op that reads its
    certificate back; the scheduler never splits a unit.
    """
    from bwreduce import catalog

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    root.mkdir(parents=True, exist_ok=True)
    w = _Writer(root)
    units: list[list[Op]] = []
    add = units.append

    if workload == "cohesion":
        def cohesion(pair, label, obj, expect, category, convention="corrected"):
            return _roundtrip(w, pair, label, obj, expect, category, convention,
                              flags=COHESION_FLAGS)

        for name, x in catalog.PERIODIC_SEQUENCES.items():
            add(cohesion("bwweak-stcoh", "seq", x, 0, "catalog-corrected"))
            expect = 1 if name in PAPER_LITERAL_FAILS else 0
            add(cohesion("bwweak-stcoh", "seq", x, expect, "catalog-paper-literal",
                         "paper-literal"))
        for fam in catalog.FAMILIES.values():
            add(cohesion("stcoh-bwweak", "family", fam, 0, "catalog-family"))
        for _ in range(20):
            add(cohesion("bwweak-stcoh", "seq", periodic_sequence(rng), 0, "generated-seq"))
        for _ in range(10):
            add(cohesion("stcoh-bwweak", "family", family(rng), 0, "generated-family"))

    elif workload == "late-separation":
        for p in catalog.SEPARATIONS.values():
            add(_roundtrip(w, "separation-bw", "sep", p, 0, "catalog-separation"))
        codes = _choice_codes(int(KSTAR_HIGH * 1.3))
        for target in kstar_grid(rng):
            p, kstar = separation(rng, target, codes)
            add(_roundtrip(w, "separation-bw", "sep", p, 0, "generated-separation",
                           kstar=kstar))

    elif workload == "tree-branch":
        for x in catalog.SEQUENCES.values():
            add(_roundtrip(w, "bw-swkl", "seq", x, 0, "catalog-seq"))
        for y in catalog.TREES.values():
            add(_roundtrip(w, "swkl-separation", "tree", y, 0, "catalog-tree"))
        for i in range(20):
            x = branch_sequence(rng, BRANCH_SHAPES[i % len(BRANCH_SHAPES)])
            add(_roundtrip(w, "bw-swkl", "seq", x, 0, "generated-seq"))
        for _ in range(10):
            add(_roundtrip(w, "swkl-separation", "tree", tree(rng), 0, "generated-tree"))

    else:  # solve-verify
        # the ten sequences of acceptance criterion 8; fast-cauchy ops carry
        # most of a pass, so seeded ones would make its length vary by seed
        for x in list(catalog.PERIODIC_SEQUENCES.values())[:10]:
            add(_solve(w, "fast-cauchy", "seq", x))
        for x in catalog.SEQUENCES.values():
            add(_solve(w, "accumulation", "seq", x))
        for y in catalog.TREES.values():
            add(_solve(w, "branch", "tree", y))
        for _ in range(30):
            add(_solve(w, "branch", "tree", tree(rng)))
        for fam in catalog.FAMILIES.values():
            add(_solve(w, "cohesive", "family", fam))
        for _ in range(5):
            add(_solve(w, "cohesive", "family", family(rng)))
    return units
