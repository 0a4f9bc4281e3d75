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
Serialization is canonical (sorted keys, two-space indent, trailing newline)
and ``serialize ∘ parse`` is the identity on canonical bytes.  Derived
instances (built by reductions) carry their source and are re-derived on
parse, so round trips are replayable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .certificates import (
    AccumulationResult,
    BranchPrefix,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
    _expect_array,
    _expect_nat,
    _expect_object,
)
from .core import (
    Bits,
    CantorPoint,
    embed_point,
    embed_point_exact,
    format_bits,
    format_rational,
    is_prefix,
    parse_bits,
    parse_rational,
    string_decode,
    unpair,
)
from .errors import (
    ExactValueUnavailableError,
    InvariantViolationError,
    MalformedSyntaxError,
    NotGroundTruthError,
    SchemaViolationError,
    UnserializableError,
)

_UNIT = (Fraction(0), Fraction(1))


def _check_unit(q: Fraction, what: str) -> Fraction:
    if not _UNIT[0] <= q <= _UNIT[1]:
        raise ValueError(f"{what} {format_rational(q)} outside [0, 1]")
    return q


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

    ``term`` is exact; representations that can only be approximated (embedded
    sequences over rule-backed points) raise ExactValueUnavailableError from
    ``term`` and support ``term_approx`` instead.
    """

    kind = "rational_sequence"
    form: str = ""

    def term(self, i: int) -> Fraction:
        raise NotImplementedError

    def term_approx(self, i: int, precision: int) -> tuple[Fraction, Fraction]:
        """(value, error-bound); exact representations return error 0."""
        return self.term(i), Fraction(0)

    def periodic_structure(self) -> tuple[int, int] | None:
        """(prefix length, period length) when i -> term(i) is eventually
        periodic by construction, else None."""
        return None

    def cell_structure(self, level: int) -> tuple[int, int] | None:
        """(j0, q) such that term(j) and term(j + q) lie in the same closed
        level-``level`` cells (the same ``DerivedTree`` key) for every
        j >= j0, else None."""
        return self.periodic_structure()

    def to_repr(self) -> dict[str, Any]:
        raise UnserializableError(f"{self.form or type(self).__name__} has no file form")


class PeriodicSequence(RationalSequence):
    """Explicit eventually periodic list of rationals."""

    form = "periodic"

    def __init__(self, prefix: Sequence[Fraction], period: Sequence[Fraction]):
        if len(period) == 0:
            raise ValueError("period must be non-empty")
        self.prefix = tuple(_check_unit(Fraction(q), "term") for q in prefix)
        self.period = tuple(_check_unit(Fraction(q), "term") for q in period)

    def term(self, i: int) -> Fraction:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def periodic_structure(self) -> tuple[int, int]:
        return len(self.prefix), len(self.period)

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "periodic",
            "prefix": [format_rational(q) for q in self.prefix],
            "period": [format_rational(q) for q in self.period],
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "PeriodicSequence":
        return PeriodicSequence(
            _rationals(obj.get("prefix", []), f"{path}.prefix"),
            _rationals(obj.get("period"), f"{path}.period"),
        )


class ConstantSequence(RationalSequence):
    form = "constant"

    def __init__(self, value: Fraction):
        self.value = _check_unit(Fraction(value), "constant value")

    def term(self, i: int) -> Fraction:
        return self.value

    def periodic_structure(self) -> tuple[int, int]:
        return 0, 1

    def to_repr(self) -> dict[str, Any]:
        return {"form": "constant", "value": format_rational(self.value)}

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

    def to_repr(self) -> dict[str, Any]:
        return {"form": "harmonic"}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "HarmonicSequence":
        return HarmonicSequence()


class AlternatingSequence(RationalSequence):
    """term(2i) = a, term(2i+1) = b."""

    form = "alternating"

    def __init__(self, a: Fraction, b: Fraction):
        self.a = _check_unit(Fraction(a), "term")
        self.b = _check_unit(Fraction(b), "term")

    def term(self, i: int) -> Fraction:
        return self.a if i % 2 == 0 else self.b

    def periodic_structure(self) -> tuple[int, int]:
        return 0, 2

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "alternating",
            "a": format_rational(self.a),
            "b": format_rational(self.b),
        }

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
        r, den = (v.numerator << level) % v.denominator, v.denominator
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


class TableSequence(RationalSequence):
    """Finitely many listed terms, a fixed default everywhere else."""

    form = "table"

    def __init__(self, entries: Mapping[int, Fraction], default: Fraction):
        self.entries = {
            int(i): _check_unit(Fraction(q), "term") for i, q in sorted(entries.items())
        }
        if any(i < 0 for i in self.entries):
            raise ValueError("table indices must be naturals")
        self.default = _check_unit(Fraction(default), "default term")

    def term(self, i: int) -> Fraction:
        return self.entries.get(i, self.default)

    def periodic_structure(self) -> tuple[int, int]:
        bound = max(self.entries) + 1 if self.entries else 0
        return bound, 1

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "table",
            "entries": [
                {"index": i, "value": format_rational(q)} for i, q in self.entries.items()
            ],
            "default": format_rational(self.default),
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
    are produced lazily and memoized (the memo behaves as if absent).
    """

    form = "embedded"

    def __init__(
        self,
        points: Callable[[int], CantorPoint] | Sequence[CantorPoint],
        provenance: Provenance | None = None,
        structure: tuple[int, int] | None = None,
        label: str = "embedded",
    ):
        if callable(points):
            self._points_fn = points
        else:
            seq = list(points)

            def _points_fn(i: int, _seq=seq) -> CantorPoint:
                return _seq[i]

            self._points_fn = _points_fn
        self.provenance = provenance
        self._structure = structure
        self.label = label
        self._memo: dict[int, CantorPoint] = {}
        self._values: dict[int, Fraction] = {}

    def point(self, i: int) -> CantorPoint:
        pt = self._memo.get(i)
        if pt is None:
            pt = self._points_fn(i)
            self._memo[i] = pt
        return pt

    def term(self, i: int) -> Fraction:
        if self._structure is not None:
            j0, q = self._structure
            if i >= j0 + q:
                i = j0 + (i - j0) % q  # the column of i repeats that of its slot
        value = self._values.get(i)
        if value is None:
            pt = self.point(i)
            if not pt.is_periodic:
                raise ExactValueUnavailableError(
                    f"term {i} of {self.label} is rule-backed; use term_approx"
                )
            value = embed_point_exact(pt)
            self._values[i] = value
        return value

    def term_approx(self, i: int, precision: int) -> tuple[Fraction, Fraction]:
        return embed_point(self.point(i), precision)

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
    enumerated by stage s; enumeration is monotone in s.  ``member_at_stage``
    and ``has_extension`` are total and decidable for every representation;
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
        present at ``stage``?  (False whenever length < len(bits).)"""
        raise NotImplementedError

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

    def has_extension(self, bits: Bits, length: int, stage: int) -> bool:
        return length >= len(bits)

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


def _point_from_repr(obj: Any, path: str) -> CantorPoint:
    obj = _expect_object(obj, "point must be an object", path)
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

    def has_extension(self, bits: Bits, length: int, stage: int) -> bool:
        return length >= len(bits) and self._on_some_branch(bits)

    def limit_heights(self, bits: Bits) -> tuple[int | None, int | None]:
        return tuple(
            None if self._on_some_branch(bits + (c,)) else len(bits) for c in (0, 1)
        )  # type: ignore[return-value]

    def to_repr(self) -> dict[str, Any]:
        return {"form": "branch_union", "points": [_point_repr(pt) for pt in self.points]}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "BranchUnionTree":
        raw = _expect_array(obj.get("points"), "points must be an array", f"{path}.points")
        points = [_point_from_repr(p, f"{path}.points[{i}]") for i, p in enumerate(raw)]
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
        self.point = point

    def to_repr(self) -> dict[str, Any]:
        return {"form": "single_branch", "point": _point_repr(self.point)}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "SingleBranchTree":
        return SingleBranchTree(_point_from_repr(obj.get("point"), f"{path}.point"))


class StageListTree(SigmaTree):
    """Explicit per-stage snapshots of the enumerated node set.

    Entries (stage, node) list the full snapshot at each mentioned stage;
    snapshots must be inclusion-increasing, membership between mentioned
    stages uses the latest one at or below the query.
    """

    form = "stage_list"

    def __init__(self, entries: Sequence[tuple[int, Bits]]):
        snapshots: dict[int, set[Bits]] = {}
        for stage, node in entries:
            if stage < 0:
                raise ValueError("stages are naturals")
            snapshots.setdefault(stage, set()).add(tuple(node))
        self.stages = tuple(sorted(snapshots))
        self.snapshots = {s: frozenset(snapshots[s]) for s in self.stages}
        for earlier, later in zip(self.stages, self.stages[1:]):
            missing = self.snapshots[earlier] - self.snapshots[later]
            if missing:
                node = min(missing)
                raise ValueError(
                    f"node {format_bits(node)!r} enumerated at stage {earlier} "
                    f"is absent at stage {later}"
                )

    def snapshot(self, stage: int) -> frozenset[Bits]:
        best: frozenset[Bits] = frozenset()
        for s in self.stages:
            if s > stage:
                break
            best = self.snapshots[s]
        return best

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        return any(is_prefix(bits, node) for node in self.snapshot(stage))

    def has_extension(self, bits: Bits, length: int, stage: int) -> bool:
        if length < len(bits):
            return False
        return any(
            len(node) >= length and is_prefix(bits, node) for node in self.snapshot(stage)
        )

    def _limit(self) -> frozenset[Bits]:
        return self.snapshots[self.stages[-1]] if self.stages else frozenset()

    def limit_heights(self, bits: Bits) -> tuple[int | None, int | None]:
        out: list[int | None] = []
        for c in (0, 1):
            child = bits + (c,)
            best = len(bits)
            for node in self._limit():
                if is_prefix(child, node):
                    best = max(best, len(node))
            out.append(best)
        return out[0], out[1]

    def to_repr(self) -> dict[str, Any]:
        entries = [
            {"stage": s, "node": format_bits(node)}
            for s in self.stages
            for node in sorted(self.snapshots[s])
        ]
        return {"form": "stage_list", "entries": entries}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "StageListTree":
        raw = _expect_array(obj.get("entries"), "entries must be an array", f"{path}.entries")
        entries = []
        for i, entry in enumerate(raw):
            at = f"{path}.entries[{i}]"
            entry = _expect_object(entry, "stage entry must be an object", at)
            entries.append(
                (
                    _expect_nat(entry.get("stage"), f"{at}.stage"),
                    parse_bits(entry.get("node", None), location=f"{at}.node"),
                )
            )
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
    2·whole + (rem != 0), where whole, rem = divmod(num << L, den), and the
    closed cell with index a holds exactly the keys 2a, 2a + 1 and 2a + 2.
    The terms j <= s form a weighted multiset.  At level L the source's
    ``cell_structure(L)`` = (j0, q) says term j + q keys as term j does for
    j >= j0, so when j0 + q <= s + 1 only the j0 + q window terms are
    evaluated, window term j weighing len(range(j, s + 1, q)); otherwise each
    j <= s is evaluated once.  A periodic source has one window for every
    level; a binary walk's is about L + bitlen(den) terms and the harmonic
    sequence's 2^L + 1.  Terms are evaluated once each, whatever the stage."""

    form = "derived"

    def __init__(self, source: RationalSequence):
        self.source = source
        self.provenance = Provenance("bw_to_swkl", source)
        self._terms: list[tuple[int, int]] = []
        self._keys: dict[tuple[int, int], dict[int, int]] = {}

    def _weighted_terms(self, stage: int, level: int) -> Iterator[tuple[tuple[int, int], int]]:
        """((numerator, denominator), weight) of the terms j <= stage, as
        keyed at ``level``."""
        struct = self.source.cell_structure(level)
        if struct is not None and sum(struct) <= stage + 1:
            j0, q = struct
            weights = [1] * j0 + [len(range(j, stage + 1, q)) for j in range(j0, j0 + q)]
        else:
            weights = [1] * (stage + 1)
        for j in range(len(self._terms), len(weights)):
            t = self.source.term(j)
            self._terms.append((t.numerator, t.denominator))
        return zip(self._terms, weights)

    def witness_count(self, bits: Bits, stage: int) -> int:
        level = len(bits)
        keys = self._keys.get((stage, level))
        if keys is None:
            keys = {}
            for (num, den), w in self._weighted_terms(stage, level):
                whole, rem = divmod(num << level, den)
                key = 2 * whole + (rem != 0)
                keys[key] = keys.get(key, 0) + w
            self._keys[stage, level] = keys
        a = 0
        for b in bits:
            a = (a << 1) | b
        return keys.get(2 * a, 0) + keys.get(2 * a + 1, 0) + keys.get(2 * a + 2, 0)

    def member_at_stage(self, bits: Bits, stage: int) -> bool:
        if stage < 0:
            return False
        return self.witness_count(bits, stage) >= len(bits)

    def has_extension(self, bits: Bits, length: int, stage: int) -> bool:
        if length < len(bits) or not self.member_at_stage(bits, stage):
            return False
        if length == len(bits):
            return True
        return any(
            self.has_extension(bits + (c,), length, stage) for c in (0, 1)
        )

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
        if not isinstance(obj, Mapping) or "test" not in obj:
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

    # -- raw evaluation ------------------------------------------------------

    def _override(self, x: int, y: int, n: int) -> bool | None:
        for ox, oy, on, ov in self.overrides:
            if (ox, oy, on) == (x, y, n):
                return ov
        return None

    def _rule_holds(self, x: int, y: int, n: int) -> bool:
        if self.rule == "never":
            return False
        if self.rule == "always":
            return True
        if self.rule == "y_eq_x":
            return y == x
        if self.rule == "y_eq_x_if":
            return self.cond.holds(n) and y == x
        if self.rule == "y_eq_const":
            return self.cond.holds(n) and y == self.value
        return x < self.bound and y == x  # y_eq_x_below

    def evaluate(self, x: int, y: int, n: int) -> bool:
        ov = self._override(x, y, n)
        return ov if ov is not None else self._rule_holds(x, y, n)

    # -- exact witness structure ----------------------------------------------

    def _rule_witness(self, x: int, n: int) -> int | None:
        """The unique rule witness y for (x, n), ignoring overrides
        ("always" is handled separately)."""
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
        cands = [oy for ox, oy, on, ov in self.overrides if ov and (ox, on) == (x, n)]
        if self.rule == "always":
            y = 0
            while self._override(x, y, n) is False:
                y += 1
            cands.append(y)
        else:
            w = self._rule_witness(x, n)
            if w is not None and self._override(x, w, n) is not False:
                cands.append(w)
        return min(cands) if cands else None

    def first_failure(self, n: int) -> int | None:
        """Least x with no witness at all, or None when ∀x∃y B(x, y; n)."""
        scan_end = max(
            [ox for ox, _, on, _ in self.overrides if on == n] + [self.bound or 0]
        ) + 1
        for x in range(scan_end + 1):
            if self.minimal_witness(x, n) is None:
                return x
        # x = scan_end is already in the pure-rule regime and has a witness;
        # witness existence there is constant in x, so all larger x do too.
        return None

    def tail_shape(self, n: int) -> tuple[Any, ...] | None:
        """Shape of the minimal witness beyond all overrides (total rules)."""
        if self.rule == "always":
            return ("const", 0)
        if self.rule == "y_eq_x" or (self.rule == "y_eq_x_if" and self.cond.holds(n)):
            return ("ident",)
        if self.rule == "y_eq_const" and self.cond.holds(n):
            return ("const", self.value)
        return None

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
        if not isinstance(obj, Mapping) or "rule" not in obj:
            raise SchemaViolationError("predicate must be an object with a rule", path)
        cond = Cond("always")
        if "cond" in obj:
            cond = Cond.from_repr(obj["cond"], f"{path}.cond")
        overrides = []
        raw = _expect_array(
            obj.get("overrides", []), "overrides must be an array", f"{path}.overrides"
        )
        for i, entry in enumerate(raw):
            at = f"{path}.overrides[{i}]"
            entry = _expect_object(entry, "override must be an object", at)
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

    def __init__(self, fn: Callable[[int, int, int], bool], label: str = "callback"):
        self.fn = fn
        self.label = label

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

    def evaluate(self, i: int, x: int, y: int, n: int) -> bool:
        return self.predicates[i].evaluate(x, y, n)

    # -- ground truth (closed rule forms only) --------------------------------

    def has_ground_truth(self) -> bool:
        return all(isinstance(p, RulePredicate) for p in self.predicates)

    def _rule(self, i: int) -> RulePredicate:
        pred = self.predicates[i]
        if not isinstance(pred, RulePredicate):
            raise NotGroundTruthError(
                "totality oracle exists only for closed rule predicates"
            )
        return pred

    def totality(self, i: int, n: int) -> bool:
        """Ground truth for ∀x∃y B_i(x, y; n) (iff rng(g_i(n, ·)) = ℕ)."""
        return self._rule(i).first_failure(n) is None

    def first_failure(self, i: int, n: int) -> int | None:
        return self._rule(i).first_failure(n)

    def choice_values(self, i: int, n: int, count: int) -> list[int]:
        """Minimal witnesses for x < count (requires totality through count)."""
        rule = self._rule(i)
        out = []
        for x in range(count):
            w = rule.minimal_witness(x, n)
            if w is None:
                raise NotGroundTruthError(f"side {i} has no witness at x = {x}, n = {n}")
            out.append(w)
        return out

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


@dataclass(frozen=True)
class RowPattern:
    """One set of naturals as an eventually periodic characteristic pattern."""

    prefix: Bits
    period: Bits

    def __post_init__(self) -> None:
        if len(self.period) == 0:
            raise ValueError("row period must be non-empty")
        if any(b not in (0, 1) for b in self.prefix + self.period):
            raise ValueError("row bits must be 0/1")

    def member(self, j: int) -> bool:
        if j < len(self.prefix):
            return self.prefix[j] == 1
        return self.period[(j - len(self.prefix)) % len(self.period)] == 1

    def is_full(self) -> bool:
        """Does this pattern denote all of ℕ?"""
        return all(b == 1 for b in self.prefix + self.period)

    def to_repr(self) -> dict[str, str]:
        return {"prefix": format_bits(self.prefix), "period": format_bits(self.period)}

    @staticmethod
    def from_repr(obj: Any, path: str) -> "RowPattern":
        obj = _expect_object(obj, "row pattern must be an object", path)
        prefix = parse_bits(obj.get("prefix", ""), location=f"{path}.prefix")
        period = parse_bits(obj.get("period", None), location=f"{path}.period")
        try:
            return RowPattern(prefix, period)
        except ValueError as e:
            raise InvariantViolationError(str(e), path) from e


def _joint_structure(rows: Sequence[RowPattern]) -> tuple[int, int]:
    """(longest row prefix, lcm of the row periods): past that prefix, the
    joint membership of j in all the rows is periodic with that period."""
    return max((len(r.prefix) for r in rows), default=0), lcm(*(len(r.period) for r in rows))


class SetFamily:
    """A countable family (R_n) of decidable sets of naturals."""

    kind = "set_family"
    form: str = ""

    def member(self, n: int, j: int) -> bool:
        raise NotImplementedError

    def pattern(self, j: int, rows: Iterable[int]) -> int:
        """Membership of j in the listed rows (ascending) as one integer: the
        first row is the most significant bit and a 0 digit means j ∈ R_i
        (cell-pattern orientation), so over range(L) the integer order is
        the order of the patterns as tuples."""
        out = 0
        for i in rows:
            out = out << 1 | (not self.member(i, j))
        return out

    def row_pattern(self, n: int) -> RowPattern | None:
        """Eventually periodic view of row n when available."""
        return None

    def periodic_structure(self, levels: int) -> tuple[int, int] | None:
        """(J0, Q) such that, jointly for rows n < levels, membership of j is
        periodic in j with period Q beyond J0; None when unknown."""
        rows = [self.row_pattern(n) for n in range(levels)]
        if any(r is None for r in rows):
            return None
        return _joint_structure(rows)

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
    """A family whose rows are drawn from a few listed patterns."""

    def __init__(self, listed: Sequence[RowPattern]):
        self._window = _joint_structure(listed)
        self._patterns: dict[tuple[int, tuple[int, ...]], int] = {}

    def row(self, n: int) -> RowPattern:
        raise NotImplementedError

    def member(self, n: int, j: int) -> bool:
        return self.row(n).member(j)

    def pattern(self, j: int, rows: Iterable[int]) -> int:
        # columns repeat over the joint window: read each slot once per rows
        j0, q = self._window
        key = (j if j < j0 + q else j0 + (j - j0) % q, tuple(rows))
        out = self._patterns.get(key)
        if out is None:
            out = 0
            for i in key[1]:
                out = out << 1 | (not self.row(i).member(key[0]))
            self._patterns[key] = out
        return out

    def row_pattern(self, n: int) -> RowPattern:
        return self.row(n)

    def column_structure(self) -> tuple[int, int]:
        return self._window


class PeriodicRowsFamily(_ListedRowsFamily):
    """Rows cycle through finitely many patterns beyond a finite prefix."""

    form = "periodic_rows"

    def __init__(self, row_prefix: Sequence[RowPattern], row_period: Sequence[RowPattern]):
        if len(row_period) == 0:
            raise ValueError("row period must be non-empty")
        self.row_prefix = tuple(row_prefix)
        self.row_period = tuple(row_period)
        super().__init__(self.row_prefix + self.row_period)

    def row(self, n: int) -> RowPattern:
        if n < len(self.row_prefix):
            return self.row_prefix[n]
        return self.row_period[(n - len(self.row_prefix)) % len(self.row_period)]

    def column_point(self, i: int) -> CantorPoint:
        prefix = tuple(1 if r.member(i) else 0 for r in self.row_prefix)
        period = tuple(1 if r.member(i) else 0 for r in self.row_period)
        return CantorPoint.periodic(prefix, period)

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "periodic_rows",
            "row_prefix": [r.to_repr() for r in self.row_prefix],
            "row_period": [r.to_repr() for r in self.row_period],
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "PeriodicRowsFamily":
        raw_prefix = _expect_array(obj.get("row_prefix", []), "row lists must be arrays", path)
        raw_period = _expect_array(obj.get("row_period"), "row lists must be arrays", path)
        return PeriodicRowsFamily(
            [RowPattern.from_repr(r, f"{path}.row_prefix[{i}]") for i, r in enumerate(raw_prefix)],
            [RowPattern.from_repr(r, f"{path}.row_period[{i}]") for i, r in enumerate(raw_period)],
        )


class TableRowsFamily(_ListedRowsFamily):
    """Finitely many listed rows, a fixed default row everywhere else."""

    form = "table_rows"

    def __init__(self, entries: Mapping[int, RowPattern], default: RowPattern):
        self.entries = {int(n): r for n, r in sorted(entries.items())}
        if any(n < 0 for n in self.entries):
            raise ValueError("row indices must be naturals")
        self.default = default
        super().__init__([*self.entries.values(), default])

    def row(self, n: int) -> RowPattern:
        return self.entries.get(n, self.default)

    def column_point(self, i: int) -> CantorPoint:
        bound = max(self.entries) + 1 if self.entries else 0
        prefix = tuple(1 if self.row(n).member(i) else 0 for n in range(bound))
        period = (1 if self.default.member(i) else 0,)
        return CantorPoint.periodic(prefix, period)

    def to_repr(self) -> dict[str, Any]:
        return {
            "form": "table_rows",
            "entries": [
                {"index": n, "row": r.to_repr()} for n, r in self.entries.items()
            ],
            "default": self.default.to_repr(),
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str) -> "TableRowsFamily":
        return TableRowsFamily(
            {
                idx: RowPattern.from_repr(entry.get("row"), f"{at}.row")
                for idx, entry, at in _table_entries(obj, path, "row")
            },
            RowPattern.from_repr(obj.get("default"), f"{path}.default"),
        )


def _binary_digit_point(r: Fraction, paper_literal: bool) -> CantorPoint:
    """Eventually periodic membership stream from binary-digit parities.

    Corrected convention (r = x/2 < 1): bit(n) = 1 iff floor(r·2^n) is even,
    which for n >= 1 is 1 - (n-th binary digit of r); bit(0) = 1.
    Paper-literal (r = x <= 1): bit(n) = 1 iff r·2^n is an integer or
    floor(r·2^n) is even.
    """
    if r == 1:  # only reachable in the paper-literal mode
        return CantorPoint.constant(1)
    bits = [1]  # n = 0: floor(r) = 0 is even
    seen: dict[int, int] = {}
    num, den = r.numerator, r.denominator  # frac(r·2^n) = num/den
    while num not in seen:
        seen[num] = len(bits)
        digit, num = divmod(num << 1, den)
        bits.append(1 if digit == 0 or (paper_literal and num == 0) else 0)
    start = seen[num]
    return CantorPoint.periodic(tuple(bits[:start]), tuple(bits[start:]))


def _runs(rows: Iterable[int]) -> list[list[int]]:
    """The maximal runs [a, b] of consecutive values in ascending ``rows``."""
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

    ``pattern`` reads both from one term(j) = num/den: with x = num/m (m =
    2·den corrected, den paper-literal) j ∉ R_i iff floor(x·2^i) is odd, and
    paper-literal also puts j in each row i with den | 2^i.  Rows a..b read
    the low b - a + 1 bits of floor(x·2^b) by one modular power.
    """

    form = "derived"
    conventions = ("corrected", "paper-literal")

    def __init__(self, source: RationalSequence, convention: str = "corrected"):
        if convention not in self.conventions:
            raise ValueError(f"unknown convention {convention!r}")
        self.source = source
        self.convention = convention
        self.provenance = Provenance(
            "bwweak_to_stcoh", source, (("convention", convention),)
        )
        self._columns: dict[int, CantorPoint] = {}

    def member(self, n: int, j: int) -> bool:
        return self.pattern(j, (n,)) == 0

    def pattern(self, j: int, rows: Iterable[int]) -> int:
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

    def row_pattern(self, n: int) -> RowPattern | None:
        struct = self.source.periodic_structure()
        if struct is None:
            return None
        j0, q = struct
        bits = tuple(1 if self.member(n, j) else 0 for j in range(j0 + q))
        return RowPattern(bits[:j0], bits[j0:])

    def periodic_structure(self, levels: int) -> tuple[int, int] | None:
        return self.source.periodic_structure()

    def column_structure(self) -> tuple[int, int] | None:
        return self.source.periodic_structure()

    def column_point(self, i: int) -> CantorPoint:
        pt = self._columns.get(i)
        if pt is None:
            q = self.source.term(i)
            if self.convention == "corrected":
                pt = _binary_digit_point(q / 2, paper_literal=False)
            else:
                pt = _binary_digit_point(q, paper_literal=True)
            self._columns[i] = pt
        return pt

    def to_repr(self) -> dict[str, Any]:
        return self.provenance.to_repr()


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------


def _envelope_dict(obj: Any) -> dict[str, Any]:
    meta = getattr(obj, "meta", {}) or {}
    return {"kind": obj.kind, "repr": obj.to_repr(), "meta": dict(meta)}


def serialize_instance(obj: Any) -> bytes:
    """Canonical UTF-8 bytes of the instance/certificate envelope."""
    text = json.dumps(_envelope_dict(obj), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def _rationals(raw: Any, path: str) -> tuple[Fraction, ...]:
    raw = _expect_array(raw, "expected an array of rationals", path)
    return tuple(parse_rational(v, location=f"{path}[{i}]") for i, v in enumerate(raw))


def _table_entries(
    repr_obj: Mapping[str, Any], path: str, what: str
) -> Iterator[tuple[int, Mapping[str, Any], str]]:
    """(index, entry, location) for each entry of a table's ``entries`` array;
    every index is a natural, listed once."""
    raw = _expect_array(repr_obj.get("entries"), "entries must be an array", f"{path}.entries")
    seen: set[int] = set()
    for i, entry in enumerate(raw):
        at = f"{path}.entries[{i}]"
        entry = _expect_object(entry, f"{what} entry must be an object", at)
        idx = _expect_nat(entry.get("index"), f"{at}.index")
        if idx in seen:
            raise InvariantViolationError(f"duplicate {what} index {idx}", at)
        seen.add(idx)
        yield idx, entry, at


# Nested derived sources a file may hold: each level costs a few stack frames
# to parse, replay and serialize, so a deeper chain would run out of stack.
MAX_PROVENANCE_DEPTH = 64


def _derived_code_budget(repr_obj: Mapping[str, Any], path: str) -> int:
    budget = _expect_nat(repr_obj.get("code_budget", 10**6), f"{path}.code_budget")
    if budget < 1:
        raise SchemaViolationError(
            "code_budget must be a positive integer", f"{path}.code_budget"
        )
    return budget


def _derived_convention(repr_obj: Mapping[str, Any], path: str) -> str:
    convention = repr_obj.get("convention", "corrected")
    if convention not in DerivedFamily.conventions:
        raise SchemaViolationError(
            f"unknown convention {convention!r}", f"{path}.convention"
        )
    return convention


# the parameters a derivation may record, by name (see edges.Edge.params)
_DERIVED_PARAMS = {"code_budget": _derived_code_budget, "convention": _derived_convention}


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
    return edge.forward(
        source, **{name: _DERIVED_PARAMS[name](repr_obj, path) for name in edge.params}
    )


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
