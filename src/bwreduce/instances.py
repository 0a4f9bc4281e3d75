"""Problem instances and their file format.

Four instance kinds, all closed unions of finitely-describable forms plus
caller-supplied evaluator callbacks (API only, never serialized):

* rational sequences in [0, 1] (accumulation-point search),
* stagewise-enumerated binary trees, downward closed by membership semantics
  (branch search),
* separation problems given by two decidable three-place predicates
  B_i(x, y; n) whose limit behaviour carves out disjoint sets A_0, A_1,
* countable set families R_0, R_1, ... over the naturals (cohesion).

Files use one JSON envelope ``{"kind": ..., "repr": ..., "meta": ...}``.
Each file form reads and writes itself: its class has ``to_repr`` and a
static ``from_repr(obj, path)`` side by side, as the certificates do.  One
table maps (kind, form) to that class, or a certificate kind alone to its
class, and the envelope reader dispatches through it and attaches ``meta``
to whatever it parsed.  Parsing reports malformed syntax, schema violations
and invariant violations separately, each with a dotted location.
The listed forms share one body per kind: ``periodic``, ``constant``,
``alternating`` and ``table`` sequences are a ``_ListedSequence``, and
``periodic_rows`` and ``table_rows`` families a ``_ListedRowsFamily``.
Serialization is canonical (sorted keys, two-space indent, trailing newline)
and ``serialize ∘ parse`` is the identity on canonical bytes.  Derived
instances (built by reductions) carry their source and are re-derived on
parse, so round trips are replayable.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import methodcaller
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
    _expect_array,
    _expect_nat,
    _expect_object,
    _expect_records,
)
from .core import (
    MAX_ACCUMULATION_DEPTH,
    Bits,
    CantorPoint,
    _prime,
    cell_key,
    embed_point_exact,
    fold_last,
    format_bits,
    format_rational,
    joint_window,
    leftmost_descent,
    parse_bits,
    parse_rational,
    string_decode,
    unpair,
)
from .errors import (
    BudgetExceededError,
    ExactValueUnavailableError,
    InvariantViolationError,
    MalformedSyntaxError,
    NotGroundTruthError,
    SchemaViolationError,
    UnserializableError,
)


def _check_unit(q: Fraction, what: str) -> Fraction:
    if not 0 <= q.numerator <= q.denominator:
        raise ValueError(f"{what} {format_rational(q)} outside [0, 1]")
    return q


def _units(values: Iterable[Fraction], what: str) -> tuple[Fraction, ...]:
    return tuple(_check_unit(Fraction(q), what) for q in values)


@dataclass(frozen=True)
class Provenance:
    """How a derived instance was produced: reduction name, source instance,
    and any convention/budget parameters needed to replay it."""

    derived_by: str
    source: Any
    params: tuple[tuple[str, Any], ...] = ()

    def to_repr(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "form": "derived",
            "derived_by": self.derived_by,
            "source": _envelope_dict(self.source),
        }
        out.update(dict(self.params))
        return out


# ---------------------------------------------------------------------------
# rational sequences
# ---------------------------------------------------------------------------


class RationalSequence:
    """Base class: a total map i -> exact rational in [0, 1].

    ``term`` is exact; an embedded sequence over rule-backed points has no
    exact terms and raises ExactValueUnavailableError from ``term``.
    """

    kind = "rational_sequence"
    form: str = ""

    def term(self, i: int) -> Fraction:
        raise NotImplementedError

    def periodic_structure(self) -> tuple[int, int] | None:
        """(prefix length, period length) when i -> term(i) is eventually
        periodic by construction, else None."""
        return None

    def last_positions(self, values: Sequence[int]) -> dict[tuple[int, int], int]:
        """Each distinct term of the ascending ``values``, as its exact
        (numerator, denominator) pair, mapped to its last position.  Values
        are folded onto the ``periodic_structure`` window by
        ``core.fold_last``, so each distinct slot's term is read once."""
        last = fold_last(values, self.periodic_structure())
        pairs = map(methodcaller("as_integer_ratio"), map(self.term, last))
        return dict(zip(pairs, last.values()))

    def prefix_indices(self, j0: int) -> Sequence[int]:
        """Indices below j0 whose terms, with those of the period from j0 on,
        take every value of the sequence.  An index left out holds term(j0),
        so only a form of period 1 leaves any out."""
        return range(j0)

    def cell_structure(self, level: int) -> tuple[int, int] | None:
        """(j0, q) such that term(j) and term(j + q) lie in the same closed
        level-``level`` cells (the same ``DerivedTree`` key) for every
        j >= j0, else None."""
        return self.periodic_structure()

    def cell_run(self, level: int, a: int, stop: int) -> range | None:
        """The j < stop with term(j) in the closed level cell a, when the
        form names them as one run in integers, else None."""
        return None

    def first_in_cell(self, level: int, a: int, start: int, stop: int) -> int | None:
        """Least j in [start, stop) with term(j) in the closed level cell a,
        else None: off ``cell_run``, or off the listed ``prefix_indices``
        below j0 (a left-out index holds term(j0)) and the q slots of
        ``cell_structure(level)``, each tested on its ``core.cell_key``;
        at most listed + q term reads, or every j from start with no window."""
        run = self.cell_run(level, a, stop)
        if run is not None:
            j = max(start, run.start)
            return j if j < run.stop else None

        def inside(j: int) -> bool:
            return 0 <= cell_key(*self.term(j).as_integer_ratio(), level) - 2 * a <= 2

        j0, q = self.cell_structure(level) or (0, stop)  # else each j < stop is a slot
        listed = self.prefix_indices(j0)
        held = len(listed) < j0 and inside(j0)
        rest = start  # the least index not listed below it: held or a slot
        for j in listed[bisect_left(listed, start) : bisect_left(listed, stop)]:
            if held and rest < j:
                return rest
            if inside(j):
                return j
            rest = j + 1
        for j in range(rest, min(rest + q, stop)):
            if inside(j0 + (j - j0) % q):
                return j
        return None

    def to_repr(self) -> dict[str, Any]:
        raise UnserializableError(f"{self.form or type(self).__name__} has no file form")


class _ListedSequence(RationalSequence):
    """The one body of the ``periodic``, ``constant``, ``alternating`` and
    ``table`` forms: below j0, one past the last listed index, term(i) is
    listed; from j0 on it is period[(i - j0) % q].  Only a table leaves an
    index below j0 unlisted, and its q = 1, so such an index holds the
    default, period[0]."""

    def __init__(self, entries: dict[int, Fraction], period: Sequence[Fraction]):
        self.entries = entries  # sorted by index
        self.period = tuple(period)
        self._j0 = next(reversed(entries)) + 1 if entries else 0

    def term(self, i: int) -> Fraction:
        if i < self._j0:
            return self.entries.get(i, self.period[0])
        return self.period[(i - self._j0) % len(self.period)]

    def periodic_structure(self) -> tuple[int, int]:
        return self._j0, len(self.period)

    def prefix_indices(self, j0: int) -> Sequence[int]:
        listed = list(self.entries)
        return listed[: bisect_left(listed, j0)]


class PeriodicSequence(_ListedSequence):
    """Explicit eventually periodic list of rationals."""

    form = "periodic"

    def __init__(self, prefix: Sequence[Fraction], period: Sequence[Fraction]):
        if len(period) == 0:
            raise ValueError("period must be non-empty")
        super().__init__(dict(enumerate(_units(prefix, "term"))), _units(period, "term"))

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "periodic",
            "prefix": [format_rational(q) for q in self.entries.values()],
            "period": [format_rational(q) for q in self.period],
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "PeriodicSequence":
        return PeriodicSequence(
            _rationals(obj.get("prefix", []), f"{path}.prefix"),
            _rationals(obj.get("period"), f"{path}.period"),
        )


class ConstantSequence(_ListedSequence):
    form = "constant"

    def __init__(self, value: Fraction):
        super().__init__({}, _units((value,), "constant value"))

    def to_repr(self) -> dict[str, Any]:
        return {"form": "constant", "value": format_rational(self.period[0])}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "ConstantSequence":
        return ConstantSequence(parse_rational(obj.get("value"), location=f"{path}.value"))


class HarmonicSequence(RationalSequence):
    """term(i) = 1/(i+1)."""

    form = "harmonic"

    def term(self, i: int) -> Fraction:
        return Fraction(1, i + 1)

    def cell_structure(self, level: int) -> tuple[int, int]:
        return 1 << level, 1  # terms j >= 2^level lie inside (0, 2^-level): key 1

    def cell_run(self, level: int, a: int, stop: int) -> range:
        """1/(j+1) lies in [a/2^L, (a+1)/2^L] iff
        ceil(2^L/(a+1)) <= j + 1 <= floor(2^L/a), with no upper bound at a = 0."""
        top = (1 << level) // a if a else stop
        return range(-(-(1 << level) // (a + 1)) - 1, min(top, stop))

    def to_repr(self) -> dict[str, Any]:
        return {"form": "harmonic"}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "HarmonicSequence":
        return HarmonicSequence()


class AlternatingSequence(_ListedSequence):
    """term(2i) = a, term(2i+1) = b."""

    form = "alternating"

    def __init__(self, a: Fraction, b: Fraction):
        super().__init__({}, _units((a, b), "term"))

    def to_repr(self) -> dict[str, Any]:
        a, b = self.period
        return {"form": "alternating", "a": format_rational(a), "b": format_rational(b)}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "AlternatingSequence":
        return AlternatingSequence(
            parse_rational(obj.get("a"), location=f"{path}.a"),
            parse_rational(obj.get("b"), location=f"{path}.b"),
        )


class BinaryWalkSequence(RationalSequence):
    """Dyadic approximations from below: term(i) = floor(value * 2^i) / 2^i.

    Converges to ``value``; eventually constant exactly when ``value`` is
    dyadic.
    """

    form = "binary_walk"

    def __init__(self, value: Fraction):
        self.value = _check_unit(Fraction(value), "walk target")

    def term(self, i: int) -> Fraction:
        v = self.value
        return Fraction((v.numerator << i) // v.denominator, 1 << i)

    def periodic_structure(self) -> tuple[int, int] | None:
        d = self.value.denominator
        if d & (d - 1) == 0:  # dyadic target: constant from level log2(d)
            return d.bit_length() - 1, 1
        return None

    def cell_structure(self, level: int) -> tuple[int, int] | None:
        """Terms j >= level share floor(value·2^level).  They sit on the
        boundary of its cell up to the first 1 digit of value past position
        ``level``, at level + k, and strictly inside from there on."""
        v = self.value
        r, den = v.numerator * pow(2, level, v.denominator) % v.denominator, v.denominator
        if r == 0:  # value·2^level is whole: a dyadic walk, constant from log2(den)
            return self.periodic_structure()
        k = den.bit_length() - r.bit_length()
        k += (r << k) < den  # now the least k with r << k >= den
        return level + k, 1

    def to_repr(self) -> dict[str, Any]:
        return {"form": "binary_walk", "value": format_rational(self.value)}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "BinaryWalkSequence":
        return BinaryWalkSequence(parse_rational(obj.get("value"), location=f"{path}.value"))


class TableSequence(_ListedSequence):
    """Finitely many listed terms, a fixed default everywhere else."""

    form = "table"

    def __init__(self, entries: Mapping[int, Fraction], default: Fraction):
        listed = {int(i): _check_unit(q, "term") for i, q in sorted(entries.items())}
        if any(i < 0 for i in listed):
            raise ValueError("table indices must be naturals")
        super().__init__(listed, (_check_unit(default, "default term"),))

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "table",
            "entries": [
                {"index": i, "value": format_rational(q)} for i, q in self.entries.items()
            ],
            "default": format_rational(self.period[0]),
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "TableSequence":
        return TableSequence(
            {
                idx: parse_rational(entry.get("value"), location=f"{at}.value")
                for idx, entry, at in _table_entries(obj, path, "table")
            },
            parse_rational(obj.get("default"), location=f"{path}.default"),
        )


class EmbeddedSequence(RationalSequence):
    """Image of a sequence of Cantor points under the middle-third embedding.

    term(i) is exact whenever the i-th point is eventually periodic; points
    are produced lazily by ``point`` and each exact term is memoized.
    """

    form = "embedded"

    def __init__(
        self,
        points: Callable[[int], CantorPoint],
        provenance: Provenance | None = None,
        structure: tuple[int, int] | None = None,
        label: str = "embedded",
    ):
        self.point = points
        self.provenance = provenance
        self._structure = structure
        self.label = label
        self._values: dict[int, Fraction] = {}

    def term(self, i: int) -> Fraction:
        if self._structure is not None:
            j0, q = self._structure
            if i >= j0 + q:
                i = j0 + (i - j0) % q  # the column of i repeats that of its slot
        value = self._values.get(i)
        if value is None:
            pt = self.point(i)
            if not pt.is_periodic:
                raise ExactValueUnavailableError(f"term {i} of {self.label} is rule-backed")
            value = embed_point_exact(pt)
            self._values[i] = value
        return value

    def periodic_structure(self) -> tuple[int, int] | None:
        return self._structure

    def to_repr(self) -> dict[str, Any]:
        if self.provenance is None:
            raise UnserializableError("embedded sequence without provenance has no file form")
        return self.provenance.to_repr()


# ---------------------------------------------------------------------------
# stagewise-enumerated binary trees
# ---------------------------------------------------------------------------


class SigmaTree:
    """A binary tree enumerated in stages.

    The denoted tree at stage s is the downward closure of the nodes
    enumerated by stage s; enumeration is monotone in s.  Each representation
    gives ``member_at_stage``, total and decidable, and ``has_extension`` is
    the one leftmost descent over it for every representation;
    ``limit_heights`` is the ground-truth view (maximal length of a limit
    node extending each child, None meaning unbounded) and exists only for
    representations whose limit is decidable.
    """

    kind = "sigma_tree"
    form: str = ""

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        raise NotImplementedError

    def has_extension(self, bits: Bits, length: int, stage: int) -> bool:
        """Is some member of exactly ``length`` bits, extending ``bits``,
        present at ``stage``?  (False whenever length < len(bits).)  Members
        are downward closed, so a descent over ``member_at_stage`` from
        ``bits`` finds one iff there is one."""
        return (
            length >= len(bits)
            and self.member_at_stage(bits, stage)
            and leftmost_descent(length, lambda b: self.member_at_stage(b, stage), bits)
            is not None
        )

    def limit_heights(self, bits: Bits) -> tuple[int | None, int | None]:
        """Ground truth per child c: the largest length of a limit node
        extending bits⌢c (len(bits) when that side is immediately dead,
        None when unbounded)."""
        raise NotGroundTruthError(f"{self.form} tree has no decidable limit view")

    def to_repr(self) -> dict[str, Any]:
        raise UnserializableError(f"{self.form or type(self).__name__} has no file form")


class FullBinaryTree(SigmaTree):
    form = "full_binary"

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        return True

    def limit_heights(self, bits: Bits) -> tuple[int | None, int | None]:
        return None, None

    def to_repr(self) -> dict[str, Any]:
        return {"form": "full_binary"}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "FullBinaryTree":
        return FullBinaryTree()


def _point_repr(pt: CantorPoint) -> dict[str, str]:
    if not pt.is_periodic:
        raise UnserializableError("rule-backed branch point has no file form")
    return {"prefix": format_bits(pt.prefix), "period": format_bits(pt.period)}


def _point_from_repr(obj: Any, path: str, noun: str = "point") -> CantorPoint:
    obj = _expect_object(obj, f"{noun} must be an object", path)
    prefix = parse_bits(obj.get("prefix", ""), location=f"{path}.prefix")
    period = parse_bits(obj.get("period", None), location=f"{path}.period")
    if len(period) == 0:
        raise InvariantViolationError("period must be non-empty", f"{path}.period")
    return CantorPoint.periodic(prefix, period)


class BranchUnionTree(SigmaTree):
    """Union of finitely many infinite branches."""

    form = "branch_union"

    def __init__(self, points: Sequence[CantorPoint]):
        if len(points) == 0:
            raise ValueError("branch union needs at least one branch")
        self.points = tuple(points)

    def _on_some_branch(self, bits: Bits) -> bool:
        return any(
            all(b == pt.bit(i) for i, b in enumerate(bits)) for pt in self.points
        )

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        return self._on_some_branch(bits)

    def limit_heights(self, bits: Bits) -> tuple[int | None, int | None]:
        return tuple(
            None if self._on_some_branch(bits + (c,)) else len(bits) for c in (0, 1)
        )  # type: ignore[return-value]

    def to_repr(self) -> dict[str, Any]:
        return {"form": "branch_union", "points": [_point_repr(pt) for pt in self.points]}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "BranchUnionTree":
        points = [_point_from_repr(p, at) for p, at in _expect_records(obj, "points", "point", path)]
        try:
            return BranchUnionTree(points)
        except ValueError as e:
            raise InvariantViolationError(str(e), f"{path}.points") from e


class SingleBranchTree(BranchUnionTree):
    """Exactly one infinite branch; members are its prefixes at every stage.
    A one-point branch union with a file form of its own."""

    form = "single_branch"

    def __init__(self, point: CantorPoint):
        super().__init__((point,))

    def to_repr(self) -> dict[str, Any]:
        return {"form": "single_branch", "point": _point_repr(self.points[0])}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "SingleBranchTree":
        return SingleBranchTree(_point_from_repr(obj.get("point"), f"{path}.point"))


class StageListTree(SigmaTree):
    """Explicit per-stage snapshots of the enumerated node set.

    Entries (stage, node) list the full snapshot at each mentioned stage;
    snapshots must be inclusion-increasing, membership between mentioned
    stages uses the latest one at or below the query.  ``nodes[k]`` is the
    snapshot of ``stages[k]`` as one sorted list.
    """

    form = "stage_list"

    def __init__(self, entries: Sequence[tuple[int, Bits]]):
        snapshots: dict[int, set[Bits]] = {}
        for stage, node in entries:
            if stage < 0:
                raise ValueError("stages are naturals")
            snapshots.setdefault(stage, set()).add(tuple(node))
        self.stages = tuple(sorted(snapshots))
        self.nodes = [sorted(snapshots[s]) for s in self.stages]
        for earlier, later in zip(self.stages, self.stages[1:]):
            missing = snapshots[earlier] - snapshots[later]
            if missing:
                node = min(missing)
                raise ValueError(
                    f"node {format_bits(node)!r} enumerated at stage {earlier} "
                    f"is absent at stage {later}"
                )

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        """σ is a member iff the least node >= σ of the latest snapshot at or
        below ``stage`` starts with σ: the nodes extending σ sort right after
        it."""
        k = bisect_right(self.stages, stage)
        if not k:
            return False
        nodes = self.nodes[k - 1]
        at = bisect_left(nodes, bits)
        return at < len(nodes) and nodes[at][: len(bits)] == bits

    def limit_heights(self, bits: Bits) -> tuple[int | None, int | None]:
        """The longest node of the last snapshot in the run that starts with
        each child: the run sorts from the child up to child⌢2."""
        nodes = self.nodes[-1] if self.nodes else []
        heights = []
        for child in (bits + (0,), bits + (1,)):
            run = nodes[bisect_left(nodes, child) : bisect_left(nodes, child + (2,))]
            heights.append(max(map(len, run), default=len(bits)))
        return heights[0], heights[1]

    def to_repr(self) -> dict[str, Any]:
        entries = [
            {"stage": s, "node": format_bits(node)}
            for s, nodes in zip(self.stages, self.nodes)
            for node in nodes
        ]
        return {"form": "stage_list", "entries": entries}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "StageListTree":
        entries = [
            (
                _expect_nat(entry.get("stage"), f"{at}.stage"),
                parse_bits(entry.get("node", None), location=f"{at}.node"),
            )
            for entry, at in _expect_records(obj, "entries", "stage entry", path)
        ]
        try:
            return StageListTree(entries)
        except ValueError as e:
            raise InvariantViolationError(str(e), f"{path}.entries") from e


class DerivedTree(SigmaTree):
    """Tree derived from a rational sequence: the node of bits b (depth d) is
    enumerated at stage s iff d distinct indices j <= s have term(j) inside
    the closed dyadic cell of b.  The enumerated set is downward closed and
    stage-monotone by construction.

    Cells are counted on integers: at level L the term num/den has the key
    ``core.cell_key(num, den, L)``, and the closed cell with index a holds
    exactly the keys 2a, 2a + 1 and 2a + 2.
    The terms j <= s form a weighted multiset.  At level L the source's
    ``cell_structure(L)`` = (j0, q) says term j + q keys as term j does for
    j >= j0, so only the terms j < min(j0 + q, s + 1) are evaluated, window
    term j >= j0 weighing len(range(j, s + 1, q)).  Below j0, a source whose
    ``prefix_indices`` leave indices out (a table) has only its listed terms
    evaluated; the others hold term(j0) and weigh on it.  A periodic source
    has one window for every level and a binary walk's is about
    L + bitlen(den) terms, and a source with none is the one window
    (0, s + 1).  Terms evaluated index by index are read before any weight
    is sized and kept, whatever the stage.  A source whose ``cell_run`` names the indices in a
    cell (the harmonic sequence) is counted off that run, reading no term."""

    form = "derived"

    def __init__(self, source: RationalSequence):
        self.source = source
        self.provenance = Provenance("bw_to_swkl", source)
        self._terms: list[tuple[int, int]] = []
        self._keys: dict[tuple[int, int], dict[int, int]] = {}

    def _weighted_terms(self, stage: int, level: int) -> Iterator[tuple[tuple[int, int], int]]:
        """((numerator, denominator), weight) of the terms j <= stage, as
        keyed at ``level``.  Left-out indices weigh on term(j0) unless the
        terms below them are kept already."""
        j0, q = self.source.cell_structure(level) or (0, stage + 1)  # else each j <= stage is a slot
        below = j0 if j0 <= stage else stage + 1
        if below > len(self._terms) and len(listed := self.source.prefix_indices(below)) < below:
            terms = [self.source.term(j) for j in (*listed, j0)]
            weights = [1] * len(listed) + [below - len(listed) + len(range(j0, stage + 1))]
            return zip([(t.numerator, t.denominator) for t in terms], weights)
        laps, part = divmod(stage + 1 - below, q)
        for j in range(len(self._terms), below + (q if laps else part)):
            t = self.source.term(j)  # read before any weight list is sized
            self._terms.append((t.numerator, t.denominator))
        weights = [1] * below + [laps + 1] * part + ([laps] * (q - part) if laps else [])
        return zip(self._terms, weights)

    def witness_count(self, bits: Bits, stage: int) -> int:
        level, a = len(bits), 0
        for b in bits:
            a = (a << 1) | b
        run = self.source.cell_run(level, a, stage + 1)
        if run is not None:
            return max(0, run.stop - run.start)
        keys = self._keys.get((stage, level))
        if keys is None:
            keys = {}
            for (num, den), w in self._weighted_terms(stage, level):
                key = cell_key(num, den, level)
                keys[key] = keys.get(key, 0) + w
            self._keys[stage, level] = keys
        return keys.get(2 * a, 0) + keys.get(2 * a + 1, 0) + keys.get(2 * a + 2, 0)

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        if stage < 0:
            return False
        return self.witness_count(bits, stage) >= len(bits)

    def to_repr(self) -> dict[str, Any]:
        return self.provenance.to_repr()


# ---------------------------------------------------------------------------
# separation instances
# ---------------------------------------------------------------------------


def _optional_nat(obj: Mapping[str, Any], key: str, path: str) -> int | None:
    return _expect_nat(obj[key], f"{path}.{key}") if key in obj else None


def _nat_list(obj: Mapping[str, Any], key: str, path: str) -> tuple[int, ...]:
    raw = _expect_array(obj.get(key, []), "expected an array of naturals", f"{path}.{key}")
    return tuple(_expect_nat(v, f"{path}.{key}[{j}]") for j, v in enumerate(raw))


@dataclass(frozen=True)
class Cond:
    """A decidable condition on the parameter n, from a closed menu."""

    test: str  # always|never|even|odd|mod|lt|ge|in|not_in
    modulus: int | None = None
    residues: tuple[int, ...] = ()
    bound: int | None = None
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.test not in ("always", "never", "even", "odd", "mod", "lt", "ge", "in", "not_in"):
            raise ValueError(f"unknown condition test {self.test!r}")
        if self.test == "mod" and (self.modulus is None or self.modulus < 1):
            raise ValueError("mod condition needs modulus >= 1")
        if self.test in ("lt", "ge") and self.bound is None:
            raise ValueError(f"{self.test} condition needs a bound")

    def holds(self, n: int) -> bool:
        if self.test == "always":
            return True
        if self.test == "never":
            return False
        if self.test == "even":
            return n % 2 == 0
        if self.test == "odd":
            return n % 2 == 1
        if self.test == "mod":
            return n % self.modulus in self.residues
        if self.test == "lt":
            return n < self.bound
        if self.test == "ge":
            return n >= self.bound
        if self.test == "in":
            return n in self.values
        return n not in self.values

    def to_repr(self) -> dict[str, Any]:
        out: dict[str, Any] = {"test": self.test}
        if self.test == "mod":
            out["modulus"] = self.modulus
            out["residues"] = sorted(self.residues)
        elif self.test in ("lt", "ge"):
            out["bound"] = self.bound
        elif self.test in ("in", "not_in"):
            out["values"] = sorted(self.values)
        return out

    @staticmethod
    def from_repr(obj: Any, path: str) -> "Cond":
        if not isinstance(obj, dict) or "test" not in obj:
            raise SchemaViolationError("condition must be an object with a test", path)
        test = obj["test"]
        try:
            return Cond(
                test,
                modulus=_optional_nat(obj, "modulus", path),
                residues=_nat_list(obj, "residues", path),
                bound=_optional_nat(obj, "bound", path),
                values=_nat_list(obj, "values", path),
            )
        except ValueError as e:
            raise SchemaViolationError(str(e), path) from e


@dataclass(frozen=True)
class RulePredicate:
    """A decidable B(x, y; n) from a closed rule menu plus finite overrides.

    Rules: ``never``, ``always``, ``y_eq_x`` (y = x), ``y_eq_x_if`` (cond(n)
    and y = x), ``y_eq_const`` (cond(n) and y = value), ``y_eq_x_below``
    (x < bound and y = x).  ``overrides`` pins individual (x, y, n) triples.
    The closed menu keeps witness structure — and hence totality of
    ∀x∃y B(x, y; n) — exactly decidable, which is what ground-truth
    verification needs.
    """

    rule: str
    cond: Cond = Cond("always")
    value: int | None = None
    bound: int | None = None
    overrides: tuple[tuple[int, int, int, bool], ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in ("never", "always", "y_eq_x", "y_eq_x_if", "y_eq_const", "y_eq_x_below"):
            raise ValueError(f"unknown predicate rule {self.rule!r}")
        if self.rule == "y_eq_const" and (self.value is None or self.value < 0):
            raise ValueError("y_eq_const needs a natural value")
        if self.rule == "y_eq_x_below" and (self.bound is None or self.bound < 0):
            raise ValueError("y_eq_x_below needs a natural bound")
        norm = tuple(sorted(set((int(x), int(y), int(n), bool(v)) for x, y, n, v in self.overrides)))
        if any(x < 0 or y < 0 or n < 0 for x, y, n, _ in norm):
            raise ValueError("override coordinates must be naturals")
        seen: set[tuple[int, int, int]] = set()
        for x, y, n, _ in norm:
            if (x, y, n) in seen:
                raise ValueError(f"conflicting overrides at ({x}, {y}, {n})")
            seen.add((x, y, n))
        object.__setattr__(self, "overrides", norm)
        pins = {(x, y, n): v for x, y, n, v in norm}
        least = {(x, n): y for x, y, n, v in reversed(norm) if v}  # least y wins
        object.__setattr__(self, "_pins", pins)  # not fields: ==, hash, repr skip them
        object.__setattr__(self, "_least_pin", least)

    def evaluate(self, x: int, y: int, n: int) -> bool:
        ov = self._pins.get((x, y, n))
        if ov is not None:
            return ov
        return self.rule == "always" or y == self._rule_witness(x, n)

    # -- exact witness structure ----------------------------------------------

    def _rule_witness(self, x: int, n: int) -> int | None:
        """The unique rule witness y for (x, n), ignoring overrides: every
        rule but "always" holds exactly at it, and "never" has none."""
        if self.rule == "never" or self.rule == "always":
            return None
        if self.rule == "y_eq_x":
            return x
        if self.rule == "y_eq_x_if":
            return x if self.cond.holds(n) else None
        if self.rule == "y_eq_const":
            return self.value if self.cond.holds(n) else None
        return x if x < self.bound else None

    def minimal_witness(self, x: int, n: int) -> int | None:
        """Least y with B(x, y; n), or None when there is none."""
        if self.rule == "always":
            y = 0
            while self._pins.get((x, y, n)) is False:
                y += 1
            return y  # every y' < y is pinned false, so no true pin is below y
        w, pinned = self._rule_witness(x, n), self._least_pin.get((x, n))
        if w is None or self._pins.get((x, w, n)) is False:
            return pinned
        return w if pinned is None else min(w, pinned)

    def first_failure(self, n: int) -> int | None:
        """Least x with no witness at all, or None when ∀x∃y B(x, y; n).

        An x with no override at n has a witness iff the rule gives it one,
        and the rule leaves none, every x, or every x >= its bound without
        one; so the answer is the least of the pinned x without a witness
        and the least unpinned x of that tail."""
        if self.rule == "always":
            return None  # finitely many false pins leave some y
        pinned = {ox for ox, _, on, _ in self.overrides if on == n}
        bad = [x for x in pinned if self.minimal_witness(x, n) is None]
        x = self.bound if self.rule == "y_eq_x_below" else 0
        if self._rule_witness(x, n) is None:
            while x in pinned:
                x += 1
            bad.append(x)
        return min(bad, default=None)

    def to_repr(self) -> dict[str, Any]:
        out: dict[str, Any] = {"rule": self.rule}
        if self.rule in ("y_eq_x_if", "y_eq_const"):
            out["cond"] = self.cond.to_repr()
        if self.rule == "y_eq_const":
            out["value"] = self.value
        if self.rule == "y_eq_x_below":
            out["bound"] = self.bound
        if self.overrides:
            out["overrides"] = [
                {"x": x, "y": y, "n": n, "value": v} for x, y, n, v in self.overrides
            ]
        return out

    @staticmethod
    def from_repr(obj: Any, path: str) -> "RulePredicate":
        if not isinstance(obj, dict) or "rule" not in obj:
            raise SchemaViolationError("predicate must be an object with a rule", path)
        cond = Cond("always")
        if "cond" in obj:
            cond = Cond.from_repr(obj["cond"], f"{path}.cond")
        overrides = []
        for entry, at in _expect_records(obj, "overrides", "override", path, []):
            if not isinstance(entry.get("value"), bool):
                raise SchemaViolationError("override value must be a boolean", f"{at}.value")
            xyn = (_expect_nat(entry.get(c), f"{at}.{c}") for c in "xyn")
            overrides.append((*xyn, entry["value"]))
        try:
            return RulePredicate(
                obj["rule"],
                cond=cond,
                value=_optional_nat(obj, "value", path),
                bound=_optional_nat(obj, "bound", path),
                overrides=tuple(overrides),
            )
        except (ValueError, TypeError) as e:
            raise InvariantViolationError(str(e), path) from e


class CallbackPredicate:
    """Caller-supplied decidable B(x, y; n); API only, never serialized."""

    def __init__(self, fn: Callable[[int, int, int], bool]):
        self.fn = fn

    def evaluate(self, x: int, y: int, n: int) -> bool:
        return bool(self.fn(x, y, n))


class TreeSidePredicate:
    """The separation predicate of a stagewise tree, for one child side.

    With σ the string coded by n and x = ⟨ℓ, s0⟩, B(x, y; n) denies the
    conjunction "no length-ℓ member extends σ⌢side at stage y" and "some
    length-ℓ member extends σ⌢(1-side) by stage s0"; the least refuting y is
    the first stage at which the σ⌢side part reaches length ℓ.
    """

    def __init__(self, tree: SigmaTree, side: int):
        if side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        self.tree = tree
        self.side = side

    def evaluate(self, x: int, y: int, n: int) -> bool:
        sigma = string_decode(n)
        ell, s0 = unpair(x)
        dead_here = not self.tree.has_extension(sigma + (self.side,), ell, y)
        alive_other = self.tree.has_extension(sigma + (1 - self.side,), ell, s0)
        return not (dead_here and alive_other)


Predicate = RulePredicate | CallbackPredicate | TreeSidePredicate


class WitnessPrefix:
    """The least-witness stream x ↦ min{y : B(x, y; n)} of one predicate at
    one n, read as far as the largest cutoff asked so far: ``codes[L]``
    codes the length-L prefix, and the first ``refuted`` candidates y at
    position len(codes) - 1 are known to fail, so each (x, y) is evaluated
    at most once whatever cutoffs are asked, in whatever order."""

    def __init__(self, pred: Predicate, n: int):
        self.pred, self.n = pred, n
        self.codes, self.refuted = [1], 0

    def length_below(self, k: int) -> int:
        """Length of the longest prefix coded below k (0 when only the empty
        one fits); a new position tries y only while code · p_x^(y+1) < k."""
        codes = self.codes
        while codes[-1] < k:
            x, y = len(codes) - 1, self.refuted
            q = _prime(x)
            step = codes[-1] * q ** (y + 1)
            while step < k and not self.pred.evaluate(x, y, self.n):
                step, y = step * q, y + 1
            if step >= k:
                self.refuted = y
                break
            codes.append(step)
            self.refuted = 0
        return bisect_left(codes, k, 1) - 1


class SeparationInstance:
    """Two decidable predicates B_0, B_1 with the promise that the limit sets
    A_i = {n : ¬∀x∃y B_i(x, y; n)} are disjoint; a separator S must satisfy
    A_0 ⊆ S ⊆ complement(A_1)."""

    kind = "separation"
    form = "rules"  # a derived instance writes its provenance instead

    def __init__(
        self,
        b0: Predicate,
        b1: Predicate,
        disjointness_promise: bool = True,
        provenance: Provenance | None = None,
    ):
        self.predicates: tuple[Predicate, Predicate] = (b0, b1)
        self.disjointness_promise = bool(disjointness_promise)
        self.provenance = provenance
        self._prefixes: dict[tuple[int, int], WitnessPrefix] = {}
        self._failures: dict[tuple[int, int], int | None] = {}

    def witness_prefix(self, i: int, n: int) -> WitnessPrefix:
        """Side i's least-witness prefixes at n, built once on first use and
        shared by every cutoff k that f/g/h read."""
        prefix = self._prefixes.get((i, n))
        if prefix is None:
            prefix = self._prefixes[i, n] = WitnessPrefix(self.predicates[i], n)
        return prefix

    # -- ground truth (closed rule forms only) --------------------------------

    def has_ground_truth(self) -> bool:
        return all(isinstance(p, RulePredicate) for p in self.predicates)

    def totality(self, i: int, n: int) -> bool:
        """Ground truth for ∀x∃y B_i(x, y; n) (iff rng(g_i(n, ·)) = ℕ)."""
        return self.first_failure(i, n) is None

    def first_failure(self, i: int, n: int) -> int | None:
        """Side i's least x with no witness at n, asked of its rule once."""
        key = (i, n)
        if key not in self._failures:
            pred = self.predicates[i]
            if not isinstance(pred, RulePredicate):
                raise NotGroundTruthError("totality oracle exists only for closed rule predicates")
            self._failures[key] = pred.first_failure(n)
        return self._failures[key]

    def to_repr(self) -> dict[str, Any]:
        if self.provenance is not None:
            return self.provenance.to_repr()
        b0, b1 = self.predicates
        if not (isinstance(b0, RulePredicate) and isinstance(b1, RulePredicate)):
            raise UnserializableError("callback predicates have no file form")
        return {
            "form": "rules",
            "b0": b0.to_repr(),
            "b1": b1.to_repr(),
            "disjointness_promise": self.disjointness_promise,
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "SeparationInstance":
        promise = obj.get("disjointness_promise", True)
        if not isinstance(promise, bool):
            raise SchemaViolationError(
                "disjointness_promise must be a boolean", f"{path}.disjointness_promise"
            )
        return SeparationInstance(
            RulePredicate.from_repr(obj.get("b0"), f"{path}.b0"),
            RulePredicate.from_repr(obj.get("b1"), f"{path}.b1"),
            promise,
        )


# ---------------------------------------------------------------------------
# set families
# ---------------------------------------------------------------------------


#: A row of a set family: the periodic point of its characteristic pattern.
RowPattern = CantorPoint


class SetFamily:
    """A countable family (R_n) of decidable sets of naturals."""

    kind = "set_family"
    form: str = ""

    def member(self, n: int, j: int) -> bool:
        raise NotImplementedError

    def pattern(self, j: int, rows: Iterable[int]) -> int:
        """Membership of j in the listed rows as one integer: the first row is
        the most significant bit and a 0 digit means j ∈ R_i (cell-pattern
        orientation), so over range(L) the integer order is the order of the
        patterns as tuples.  The rows must be strictly ascending: a derived
        family reads a range, list or tuple whose last row is its first plus
        its length minus 1 as one contiguous run.

        With a ``column_structure`` (j0, q), column j >= j0 + q repeats that
        of its window slot j0 + (j - j0) % q, so j is folded onto its slot
        and each (slot, rows) is read once per family: a range is its own
        memo key and any other ``rows`` becomes a tuple.  A family without
        one reads every j afresh and keeps no memo."""
        fold = self._fold
        if fold is None:
            return self._pattern(j, rows)
        j0, q, memo = fold
        if j >= j0 + q:
            j = j0 + (j - j0) % q
        key = (j, rows if isinstance(rows, range) else tuple(rows))
        out = memo.get(key)
        if out is None:
            out = memo[key] = self._pattern(j, key[1])
        return out

    def patterns(self, values: Sequence[int], rows: Iterable[int]) -> dict[int, int]:
        """Each distinct ``pattern`` of the ascending ``values`` over ``rows``,
        mapped to the last position of a value that has it.  Values are
        folded onto the ``column_structure`` window by ``core.fold_last``, so
        each distinct slot is read once, through the memo of ``pattern``."""
        last = fold_last(values, self.column_structure())
        return dict(zip(map(self.pattern, last, repeat(rows)), last.values()))

    @cached_property
    def _fold(self) -> tuple[int, int, dict[tuple[int, Any], int]] | None:
        window = self.column_structure()
        return None if window is None else (*window, {})

    def _pattern(self, j: int, rows: Iterable[int]) -> int:
        """``pattern`` of column j itself, unfolded and unmemoized."""
        out = 0
        for i in rows:
            out = out << 1 | (not self.member(i, j))
        return out

    def periodic_structure(self, rows: Sequence[int]) -> tuple[int, int] | None:
        """(J0, Q) such that, jointly for the ascending ``rows``, membership of
        j is periodic in j with period Q beyond J0: the column window, unless
        a form knows a tighter one; None when unknown."""
        return self.column_structure()

    def column_point(self, i: int) -> CantorPoint:
        """The Cantor point n -> [i ∈ R_n]."""
        raise NotImplementedError

    def column_structure(self) -> tuple[int, int] | None:
        """(prefix, period) such that column_point(i) is periodic in i beyond
        the prefix; None when the columns have no known structure."""
        return None

    def to_repr(self) -> dict[str, Any]:
        raise UnserializableError(f"{self.form or type(self).__name__} has no file form")


class _ListedRowsFamily(SetFamily):
    """The one body of the ``periodic_rows`` and ``table_rows`` forms: row n
    is read as term n of a ``_ListedSequence`` is, listed below j0 and
    period[(n - j0) % q] from j0 on."""

    def __init__(self, entries: dict[int, CantorPoint], period: Sequence[CantorPoint]):
        self.entries = entries  # sorted by index
        self.period = tuple(period)
        self._j0 = next(reversed(entries)) + 1 if entries else 0
        self._window = joint_window([*entries.values(), *self.period])

    def row(self, n: int) -> CantorPoint:
        if n < self._j0:
            return self.entries.get(n, self.period[0])
        return self.period[(n - self._j0) % len(self.period)]

    def member(self, n: int, j: int) -> bool:
        return self.row(n).bit(j) == 1

    def periodic_structure(self, rows: Sequence[int]) -> tuple[int, int]:
        return joint_window([self.row(n) for n in rows])

    def column_structure(self) -> tuple[int, int]:
        return self._window

    def column_point(self, i: int) -> CantorPoint:
        return CantorPoint.periodic(
            [self.row(n).bit(i) for n in range(self._j0)], [r.bit(i) for r in self.period]
        )


class PeriodicRowsFamily(_ListedRowsFamily):
    """Rows cycle through finitely many patterns beyond a finite prefix."""

    form = "periodic_rows"

    def __init__(self, row_prefix: Sequence[CantorPoint], row_period: Sequence[CantorPoint]):
        if len(row_period) == 0:
            raise ValueError("row period must be non-empty")
        super().__init__(dict(enumerate(row_prefix)), row_period)

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "periodic_rows",
            "row_prefix": [_point_repr(r) for r in self.entries.values()],
            "row_period": [_point_repr(r) for r in self.period],
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "PeriodicRowsFamily":
        raw_prefix = _expect_array(obj.get("row_prefix", []), "row lists must be arrays", path)
        raw_period = _expect_array(obj.get("row_period"), "row lists must be arrays", path)
        prefix, period = (
            [_point_from_repr(r, f"{path}.{key}[{i}]", "row pattern") for i, r in enumerate(raw)]
            for key, raw in (("row_prefix", raw_prefix), ("row_period", raw_period))
        )
        return PeriodicRowsFamily(prefix, period)


class TableRowsFamily(_ListedRowsFamily):
    """Finitely many listed rows, a fixed default row everywhere else."""

    form = "table_rows"

    def __init__(self, entries: Mapping[int, CantorPoint], default: CantorPoint):
        listed = {int(n): r for n, r in sorted(entries.items())}
        if any(n < 0 for n in listed):
            raise ValueError("row indices must be naturals")
        super().__init__(listed, (default,))

    def column_point(self, i: int) -> CantorPoint:
        if self._j0 > MAX_DIGIT_WALK:
            raise BudgetExceededError(
                f"a column of a table with a row listed at {self._j0 - 1} has "
                f"{self._j0} prefix bits, past the limit of {MAX_DIGIT_WALK}"
            )
        return super().column_point(i)

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "table_rows",
            "entries": [
                {"index": n, "row": _point_repr(r)} for n, r in self.entries.items()
            ],
            "default": _point_repr(self.period[0]),
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "TableRowsFamily":
        return TableRowsFamily(
            {
                idx: _point_from_repr(entry.get("row"), f"{at}.row", "row pattern")
                for idx, entry, at in _table_entries(obj, path, "row")
            },
            _point_from_repr(obj.get("default"), f"{path}.default", "row pattern"),
        )


# the digit walk of _binary_digit_point takes as many steps as the
# multiplicative order of 2 modulo the odd part of the denominator, which a
# denominator of a few dozen digits puts out of reach; a longer walk is
# refused, and so is a table_rows column prefix longer than this (its
# length is the last listed index, not a count of the file's rows)
MAX_DIGIT_WALK = 1 << 16


def _binary_digit_point(r: Fraction, paper_literal: bool) -> CantorPoint:
    """Eventually periodic membership stream from binary-digit parities.

    Corrected convention (r = x/2 < 1): bit(n) = 1 iff floor(r·2^n) is even,
    which for n >= 1 is 1 - (n-th binary digit of r); bit(0) = 1.
    Paper-literal (r = x <= 1): bit(n) = 1 iff r·2^n is an integer or
    floor(r·2^n) is even.  Digits that do not repeat within
    ``MAX_DIGIT_WALK`` steps are an exceeded budget.
    """
    if r == 1:  # only reachable in the paper-literal mode
        return CantorPoint.constant(1)
    bits = [1]  # n = 0: floor(r) = 0 is even
    seen: dict[int, int] = {}
    num, den = r.numerator, r.denominator  # frac(r·2^n) = num/den
    while num not in seen:
        if len(bits) > MAX_DIGIT_WALK:
            raise BudgetExceededError(
                f"the binary digits of a term with a {den.bit_length()}-bit "
                f"denominator do not repeat within {MAX_DIGIT_WALK} steps, "
                f"the limit"
            )
        seen[num] = len(bits)
        digit, num = divmod(num << 1, den)
        bits.append(1 if digit == 0 or (paper_literal and num == 0) else 0)
    start = seen[num]
    return CantorPoint.periodic(tuple(bits[:start]), tuple(bits[start:]))


def _runs(rows: Iterable[int]) -> list[list[int]]:
    """The maximal runs [a, b] of consecutive values in ascending ``rows``;
    a range, list or tuple spanning exactly its length is one run."""
    if isinstance(rows, (range, list, tuple)) and rows and rows[-1] - rows[0] == len(rows) - 1:
        return [[rows[0], rows[-1]]]
    runs: list[list[int]] = []
    for i in rows:
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


class DerivedFamily(SetFamily):
    """Family derived from a rational sequence by dyadic-cell parities.

    corrected: j ∈ R_n iff floor((term(j)/2)·2^n) is even (half-open cells of
    the scaled value — parities read off binary digits, so a shared pattern
    through level L confines the terms to within 2^-(L-2) of each other).
    paper-literal: j ∈ R_n iff term(j) lies in some closed cell
    [k/2^n, (k+1)/2^n] with k even — every boundary point qualifies, which is
    the known defect (e.g. both 0 and 1 land in every R_n).

    A column's ``pattern`` (folded onto the source's window by the base
    class) reads both from one term(j) = num/den: with x = num/m (m =
    2·den corrected, den paper-literal) j ∉ R_i iff floor(x·2^i) is odd, and
    paper-literal also puts j in each row i with den | 2^i.  Rows a..b read
    the low b - a + 1 bits of floor(x·2^b) by one modular power.
    """

    form = "derived"
    conventions = ("corrected", "paper-literal")  # the first is the default

    def __init__(self, source: RationalSequence, convention: str = conventions[0]):
        if convention not in self.conventions:
            raise ValueError(f"unknown convention {convention!r}")
        self.source = source
        self.convention = convention
        self.provenance = Provenance(
            "bwweak_to_stcoh", source, (("convention", convention),)
        )

    def member(self, n: int, j: int) -> bool:
        return self.pattern(j, (n,)) == 0

    def _pattern(self, j: int, rows: Iterable[int]) -> int:
        q = self.source.term(j)
        num, den = q.numerator, q.denominator
        literal = self.convention == "paper-literal"
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

    def periodic_structure(self, rows: Sequence[int]) -> tuple[int, int] | None:
        """The source's ``cell_structure(L)``, L = rows[-1]: rows up to L read
        only the closed-cell key k_L (``core.cell_key``) of t = term(j) at L.
        For i <= L, floor(t·2^i) = floor(t·2^L) >> (L - i), whole iff t·2^L
        is and those low bits are 0, so k_L fixes k_i.  Corrected row i holds
        j iff k_(i-1) >> 1 is even (row 0 every j), paper-literal row i iff
        k_i or k_i >> 1 is even.  A source with no period is refused past
        level ``core.MAX_ACCUMULATION_DEPTH``: its window may start at 2^L."""
        level = rows[-1]
        if level > MAX_ACCUMULATION_DEPTH and self.source.periodic_structure() is None:
            raise BudgetExceededError(
                f"the cell window of level {level} may start past 4300 digits; "
                f"the limit is level {MAX_ACCUMULATION_DEPTH}"
            )
        return self.source.cell_structure(level)

    def column_structure(self) -> tuple[int, int] | None:
        return self.source.periodic_structure()

    def column_point(self, i: int) -> CantorPoint:
        q = self.source.term(i)
        if self.convention == "corrected":
            return _binary_digit_point(q / 2, paper_literal=False)
        return _binary_digit_point(q, paper_literal=True)

    def to_repr(self) -> dict[str, Any]:
        return self.provenance.to_repr()


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------


def _envelope_dict(obj: Any) -> dict[str, Any]:
    meta = getattr(obj, "meta", {}) or {}
    return {"kind": obj.kind, "repr": obj.to_repr(), "meta": dict(meta)}


def canonical_json(value: Any, depth: int = 0, memo: dict | None = None) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at nesting ``depth``,
    byte for byte, without the pure-Python encoder that ``indent`` selects.

    One loop writes the value, keeping a stack of the open containers.
    Dicts with string keys, lists and tuples are opened in place, and the
    exact ints and strs, bools and None inside them are written inline.  A
    flat list of ints is one ``%`` template (``join_ints``, given ``memo``),
    and so is each record of a list of records (see ``_records``).  Any
    other value (floats, int or str subclasses, other keys) is handed to
    ``json.dumps`` and re-indented: its strings hold no raw newline, so
    every newline it writes starts a line."""
    out: list[str] = []
    stack = []
    # the pending items are (head, value) pairs, the head being the opener or
    # a separator, then the key; ``indent`` starts the items' lines
    items: Iterator[tuple[str, Any]] = iter((("", value),))
    indent = "\n" + "  " * depth
    close = ""
    while True:
        for head, v in items:
            out.append(head)
            kind = type(v)
            if kind is str:
                out.append(_quote(v))
            elif kind is int:
                out.append(int.__repr__(v))
            elif v is None:
                out.append("null")
            elif kind is bool:
                out.append("true" if v else "false")
            elif kind is dict and set(map(type, v)) <= {str}:
                if not v:
                    out.append("{}")
                    continue
                inner = indent + "  "
                keys = sorted(v)
                heads = [f",{inner}{_quote(k)}: " for k in keys]
                heads[0] = "{" + heads[0][1:]
                stack.append((items, close, indent))
                items, close, indent = zip(heads, map(v.__getitem__, keys)), indent + "}", inner
                break
            elif kind is list or kind is tuple:
                inner = indent + "  "
                if not v:
                    out.append("[]")
                elif (text := join_ints(v, "," + inner, memo)) is not None:
                    out += ("[", inner, text, indent, "]")
                elif (text := _records(v, indent)) is not None:
                    out.append(text)
                else:
                    stack.append((items, close, indent))
                    heads = chain(("[" + inner,), repeat("," + inner))
                    items, close, indent = zip(heads, v), indent + "]", inner
                    break
            else:
                out.append(json.dumps(v, sort_keys=True, indent=2).replace("\n", indent))
        else:
            out.append(close)
            if not stack:
                return "".join(out)
            items, close, indent = stack.pop()


def join_ints(values: Sequence[Any], sep: str, memo: dict | None = None) -> str | None:
    """The ``%d`` digits of exact ints joined by ``sep`` (None for any other
    values).  ``memo`` keeps each tuple's last text by its identity, so a tuple
    written twice (``edges.roundtrip``) or printed too (``cli.cmd_solve``) is
    converted once: another ``sep`` is one ``replace`` of the kept text."""
    seen = memo.get(id(values)) if memo is not None else None
    if seen is not None and seen[0] is values:
        if seen[1] == sep:
            return seen[2]
        text = seen[2].replace(seen[1], sep)
    elif set(map(type, values)) <= {int}:
        text = (("%d" + sep) * len(values) % tuple(values))[: -len(sep)]
    else:
        return None
    if memo is not None and type(values) is tuple:
        memo[id(values)] = (values, sep, text)  # holding values keeps its id unique
    return text


def _column(values: Sequence[Any]) -> tuple[str, Sequence[Any]] | None:
    """The ``%`` slot and fill of values that are all exact ints (``%d``, the
    ints) or all exact strs (``%s``, quoted); None for any other mix."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", values
    if kinds == {str}:
        return "%s", tuple(map(_quote, values))
    return None


def _records(rows: Sequence[Any], indent: str) -> str | None:
    """The text of a list of records at ``indent``, when the records are
    dicts on the same string keys and each key's column has a ``_column``
    slot: one template, filled once per record.  None for any other list."""
    keys = rows[0].keys() if type(rows[0]) is dict else ()
    if (not keys or set(map(type, rows)) != {dict} or not set(map(type, keys)) <= {str}
            or not all(map(keys.__eq__, map(dict.keys, rows)))):
        return None
    inner = indent + "  "
    deep = "," + inner + "  "
    slots, cols = [], []
    for k in sorted(keys):
        run = _column([row[k] for row in rows])
        if run is None:
            return None
        slots.append(_quote(k).replace("%", "%%") + ": " + run[0])
        cols.append(run[1])
    template = "{" + deep[1:] + deep.join(slots) + inner + "}"
    return "[" + inner + ("," + inner).join(map(template.__mod__, zip(*cols))) + indent + "]"


def serialize_instance(obj: Any, memo: dict | None = None) -> bytes:
    """Canonical UTF-8 bytes of the instance/certificate envelope; ``memo``
    is handed to :func:`canonical_json`."""
    return (canonical_json(_envelope_dict(obj), memo=memo) + "\n").encode("utf-8")


def _rationals(raw: Any, path: str) -> tuple[Fraction, ...]:
    raw = _expect_array(raw, "expected an array of rationals", path)
    return tuple(parse_rational(v, location=f"{path}[{i}]") for i, v in enumerate(raw))


def _table_entries(
    repr_obj: Mapping[str, Any], path: str, what: str
) -> Iterator[tuple[int, Mapping[str, Any], str]]:
    """(index, entry, location) for each entry of a table's ``entries`` array;
    every index is a natural, listed once."""
    seen: set[int] = set()
    for entry, at in _expect_records(repr_obj, "entries", f"{what} entry", path):
        idx = _expect_nat(entry.get("index"), f"{at}.index")
        if idx in seen:
            raise InvariantViolationError(f"duplicate {what} index {idx}", at)
        seen.add(idx)
        yield idx, entry, at


# Nested derived sources a file may hold: each level costs a few stack frames
# to parse, replay and serialize, so a deeper chain would run out of stack.
MAX_PROVENANCE_DEPTH = 64


def _code_budget(value: Any, path: str) -> int:
    if _expect_nat(value, path) < 1:
        raise SchemaViolationError("code_budget must be a positive integer", path)
    return value


def _convention(value: Any, path: str) -> str:
    if value not in DerivedFamily.conventions:
        raise SchemaViolationError(f"unknown convention {value!r}", path)
    return value


# the parameters a derivation may record, by name (see edges.Edge.params):
# each one's reader and its value when a file leaves it out; the CLI's
# ``reduce`` checks its flags with the same readers, so what it writes reads back
DERIVED_PARAMS = {
    "code_budget": (_code_budget, Budget.code_budget),
    "convention": (_convention, DerivedFamily.conventions[0]),
}


def _parse_derived(repr_obj: Mapping[str, Any], path: str, expected_kind: str) -> Any:
    from .edges import EDGES  # deferred: edges imports this module

    derived_by = repr_obj.get("derived_by")
    edge = next((e for e in EDGES.values() if e.forward.__name__ == derived_by), None)
    if edge is None:
        raise SchemaViolationError(
            f"unknown derivation {derived_by!r}", f"{path}.derived_by"
        )
    if edge.target.kind != expected_kind:
        raise SchemaViolationError(
            f"{derived_by} derives a {edge.target.kind}, not a {expected_kind}",
            f"{path}.derived_by",
        )
    source_path = f"{path}.source"
    if source_path.count(".source") > MAX_PROVENANCE_DEPTH:  # one per enclosing level
        raise SchemaViolationError(
            f"provenance nested deeper than {MAX_PROVENANCE_DEPTH} derivations",
            source_path,
        )
    source = _parse_envelope(repr_obj.get("source"), source_path)
    if source.kind != edge.source.kind:
        raise SchemaViolationError(
            f"{derived_by} needs a {edge.source.kind} source, got {source.kind}",
            f"{path}.source.kind",
        )
    params = {name: DERIVED_PARAMS[name] for name in edge.params}
    return edge.forward(source, **{
        name: read(repr_obj.get(name, default), f"{path}.{name}")
        for name, (read, default) in params.items()
    })


# (kind, form) -> the class whose from_repr reads that form; a certificate
# kind has no forms and maps to its class alone.  A "derived" form is not
# listed: _parse_derived replays it along its edge.
_FORMS: dict[str | tuple[str, str], type] = {
    **{
        (cls.kind, cls.form): cls
        for cls in (
            PeriodicSequence, ConstantSequence, HarmonicSequence, AlternatingSequence,
            BinaryWalkSequence, TableSequence, FullBinaryTree, SingleBranchTree,
            BranchUnionTree, StageListTree, SeparationInstance, PeriodicRowsFamily,
            TableRowsFamily,
        )
    },
    **{
        cls.kind: cls
        for cls in (
            Selector, CauchyCertificate, CohesiveWitness, BranchPrefix, SeparatorSet,
            AccumulationResult,
        )
    },
}

# every kind the table reads, so a new form or certificate needs one entry
_KINDS = {key if isinstance(key, str) else key[0] for key in _FORMS}


def _parse_envelope(doc: Any, path: str) -> Any:
    doc = _expect_object(doc, "envelope must be an object", path)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is unhashable
        raise SchemaViolationError(f"unknown kind {kind!r}", f"{path}.kind")
    repr_path = f"{path}.repr"
    repr_obj = _expect_object(doc.get("repr"), "repr must be an object", repr_path)
    meta = dict(_expect_object(doc.get("meta", {}), "meta must be an object", f"{path}.meta"))
    form = repr_obj.get("form")
    cls = _FORMS.get(kind)  # a certificate reads no form
    if cls is None and isinstance(form, str):  # a list form is unhashable
        cls = _FORMS.get((kind, form))
    try:
        if cls is not None:
            obj = cls.from_repr(repr_obj, repr_path)
        elif form == "derived":
            obj = _parse_derived(repr_obj, repr_path, kind)
        else:
            noun = kind.rpartition("_")[2]  # sequence, tree, separation, family
            raise SchemaViolationError(f"unknown {noun} form {form!r}", f"{repr_path}.form")
    except ValueError as e:
        raise InvariantViolationError(str(e), repr_path) from e
    object.__setattr__(obj, "meta", meta)  # certificates are frozen dataclasses
    return obj


def parse_instance(data: bytes | str) -> Any:
    """Parse one instance or certificate file.

    Raises MalformedSyntaxError (not JSON), SchemaViolationError (JSON of the
    wrong shape) or InvariantViolationError (denoted object is broken), each
    carrying a dotted location.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedSyntaxError(f"not UTF-8: {e}", "$") from e
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise MalformedSyntaxError(
            f"invalid JSON: {e.msg}", f"$ (line {e.lineno} col {e.colno})"
        ) from e
    except RecursionError as e:  # nested deeper than the decoder's stack
        raise MalformedSyntaxError("JSON nested too deeply", "$") from e
    return _parse_envelope(doc, "$")
