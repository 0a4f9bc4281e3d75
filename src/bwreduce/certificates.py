"""Finite evidence objects produced by solvers and checked by verifiers.

Each type is a frozen dataclass that reads and writes its own canonical JSON
representation (``kind`` + ``to_repr``/``from_repr``).  The envelope reader
in :mod:`bwreduce.instances` dispatches on ``kind`` through the same table
as the instance forms and attaches the envelope's ``meta``.  Construction
normalizes (sorts, dedupes) so that serialize ∘ parse is the identity on
canonical bytes.  The field readers ``_expect_nat``, ``_expect_array``,
``_expect_object`` and ``_expect_records`` are shared with the instance
forms.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import lt
from typing import Any, Iterator, Mapping

from .core import Bits, DyadicInterval, format_bits, format_rational, parse_bits, parse_rational
from .errors import NonMonotoneSelectorError, SchemaViolationError, SeparatorUndefinedError


def _expect_nat(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SchemaViolationError(f"expected a natural, got {value!r}", path)
    return value


def _expect_array(value: Any, message: str, path: str) -> list[Any]:
    if not isinstance(value, list):
        raise SchemaViolationError(message, path)
    return value


def _expect_object(value: Any, message: str, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):  # the JSON reader builds only dicts
        raise SchemaViolationError(message, path)
    return value


def _expect_records(
    obj: Mapping[str, Any], key: str, noun: str, path: str, default: Any = None
) -> Iterator[tuple[Mapping[str, Any], str]]:
    """(entry, location) for each entry of the array ``obj[key]``, every
    entry an object (a ``noun``) at ``path.key[i]``."""
    path = f"{path}.{key}"
    raw = _expect_array(obj.get(key, default), f"{key} must be an array", path)
    for i, entry in enumerate(raw):
        yield _expect_object(entry, f"{noun} must be an object", f"{path}[{i}]"), f"{path}[{i}]"


@dataclass(frozen=True)
class Budget:
    """Resource bounds shared by every solver.

    horizon: how many sequence terms / set elements are inspected;
    depth: target bit/interval depth; stage: enumeration stage for trees;
    code_budget: largest cutoff k that f_code (and so g_len, h_bit and the
    h-stream) accepts; threshold: sizes only the ``separation-bw``
    check window, which compares the h-stream at k* and at
    k* + max(threshold, 1).
    """

    horizon: int = 4096
    depth: int = 8
    stage: int = 4096
    code_budget: int = 10**6
    threshold: int = 8

    def __post_init__(self) -> None:
        for name in ("horizon", "depth", "stage", "code_budget", "threshold"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"budget field {name} must be a natural")

    def to_repr(self) -> dict[str, int]:
        return dict(vars(self))  # the five fields, which asdict would deep-copy


@dataclass(frozen=True)
class Selector:
    """A finite strictly increasing list of naturals, optionally extended
    beyond its stored values by a fixed arithmetic step."""

    values: tuple[int, ...]
    extension_step: int | None = None

    kind = "selector"

    def __post_init__(self) -> None:
        values = self.values  # checked by C-level passes, not a Python loop
        ints = all(map(isinstance, values, repeat(int)))
        rising = ints and all(map(lt, values, islice(values, 1, None)))  # then the least is the first
        if not ints or min(values[:1] if rising else values, default=0) < 0:
            raise NonMonotoneSelectorError("selector values must be naturals")
        if not rising:
            raise NonMonotoneSelectorError("selector values must strictly increase")
        if self.extension_step is not None and self.extension_step < 1:
            raise NonMonotoneSelectorError("extension step must be >= 1")

    def __len__(self) -> int:
        return len(self.values)

    def to_repr(self) -> dict[str, Any]:
        # the stored tuple itself, which a writer's memo can key on
        return {"values": self.values, "extension_step": self.extension_step}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str = "repr") -> "Selector":
        obj = _expect_object(obj, "selector must be an object", path)
        raw = _expect_array(obj.get("values"), "selector.values must be an array", f"{path}.values")
        step = obj.get("extension_step")
        # exact ints and an int step meet only the constructor's checks; a failure is named below
        if set(map(type, raw)) <= {int} and (step is None or type(step) is int):
            with suppress(NonMonotoneSelectorError):
                return Selector(tuple(raw), step)
        values = tuple(_expect_nat(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
        if step is not None:
            step = _expect_nat(step, f"{path}.extension_step")
        return Selector(values, step)


@dataclass(frozen=True)
class CauchyCertificate:
    """Evidence that a selected subsequence is Cauchy at recorded rates.

    Each modulus (n, s) claims |y_f(v) - y_f(w)| < 2^-n for all positions
    v, w with s <= v, w < len(selector); ``fast`` additionally pins s = n.
    """

    selector: Selector
    moduli: tuple[tuple[int, int], ...]
    rate: str

    kind = "cauchy_certificate"

    def __post_init__(self) -> None:
        if self.rate not in ("slow", "fast"):
            raise ValueError(f"rate must be slow|fast, got {self.rate!r}")
        norm = tuple(sorted(set((int(n), int(s)) for n, s in self.moduli)))
        if any(n < 0 or s < 0 for n, s in norm):
            raise ValueError("moduli entries must be naturals")
        if self.rate == "fast" and any(s != n for n, s in norm):
            raise ValueError("fast certificates require s = n in every modulus")
        object.__setattr__(self, "moduli", norm)

    def to_repr(self) -> dict[str, Any]:
        return {
            "selector": self.selector.to_repr(),
            "moduli": [{"n": n, "s": s} for n, s in self.moduli],
            "rate": self.rate,
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str = "repr") -> "CauchyCertificate":
        sel = Selector.from_repr(obj.get("selector", {}), f"{path}.selector")
        moduli = [
            (_expect_nat(entry.get("n"), f"{at}.n"), _expect_nat(entry.get("s"), f"{at}.s"))
            for entry, at in _expect_records(obj, "moduli", "modulus", path)
        ]
        rate = obj.get("rate")
        if rate not in ("slow", "fast"):
            raise SchemaViolationError(f"rate must be slow|fast, got {rate!r}", f"{path}.rate")
        return CauchyCertificate(sel, tuple(moduli), rate)


@dataclass(frozen=True)
class CohesiveWitness:
    """Evidence that a selector settles into one side of each listed row.

    Each settle triple (level, s, side) claims every selector value j >= s
    lies in row ``level`` (side "in") or in its complement (side "out").
    """

    selector: Selector
    settle: tuple[tuple[int, int, str], ...]

    kind = "cohesive_witness"

    def __post_init__(self) -> None:
        norm = []
        for level, s, side in self.settle:
            if side not in ("in", "out"):
                raise ValueError(f"settle side must be in|out, got {side!r}")
            if level < 0 or s < 0:
                raise ValueError("settle level and point must be naturals")
            norm.append((int(level), int(s), side))
        object.__setattr__(self, "settle", tuple(sorted(set(norm))))

    def to_repr(self) -> dict[str, Any]:
        return {
            "selector": self.selector.to_repr(),
            "settle": [{"level": i, "s": s, "side": side} for i, s, side in self.settle],
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str = "repr") -> "CohesiveWitness":
        sel = Selector.from_repr(obj.get("selector", {}), f"{path}.selector")
        settle = []
        for entry, at in _expect_records(obj, "settle", "settle entry", path):
            side = entry.get("side")
            if side not in ("in", "out"):
                raise SchemaViolationError(f"side must be in|out, got {side!r}", f"{at}.side")
            level = _expect_nat(entry.get("level"), f"{at}.level")
            settle.append((level, _expect_nat(entry.get("s"), f"{at}.s"), side))
        return CohesiveWitness(sel, tuple(settle))


@dataclass(frozen=True)
class BranchPrefix:
    """A finite branch prefix together with the stage it was verified at."""

    bits: Bits
    verified_at_stage: int

    kind = "branch_prefix"

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("branch bits must be 0/1")
        if self.verified_at_stage < 0:
            raise ValueError("stage must be a natural")

    def to_repr(self) -> dict[str, Any]:
        return {"bits": format_bits(self.bits), "verified_at_stage": self.verified_at_stage}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str = "repr") -> "BranchPrefix":
        bits = parse_bits(obj.get("bits", None), location=f"{path}.bits")
        stage = _expect_nat(obj.get("verified_at_stage"), f"{path}.verified_at_stage")
        return BranchPrefix(bits, stage)


@dataclass(frozen=True)
class SeparatorSet:
    """A set of naturals given by a finite characteristic prefix plus an
    optional total extension rule ("all" or "none")."""

    bits: Bits
    extension: str | None = None

    kind = "separator_set"

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("separator bits must be 0/1")
        if self.extension not in (None, "all", "none"):
            raise ValueError(f"extension must be all|none, got {self.extension!r}")

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("set elements are naturals")
        if n < len(self.bits):
            return self.bits[n] == 1
        if self.extension == "all":
            return True
        if self.extension == "none":
            return False
        raise SeparatorUndefinedError(
            f"separator defined only below {len(self.bits)}, queried at {n}"
        )

    def to_repr(self) -> dict[str, Any]:
        return {"bits": format_bits(self.bits), "extension": self.extension}

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str = "repr") -> "SeparatorSet":
        bits = parse_bits(obj.get("bits", None), location=f"{path}.bits")
        ext = obj.get("extension")
        if ext not in (None, "all", "none"):
            raise SchemaViolationError(f"extension must be all|none, got {ext!r}", f"{path}.extension")
        return SeparatorSet(bits, ext)


@dataclass(frozen=True)
class AccumulationResult:
    """Output of accumulation-point search: a nested dyadic chain and the
    approximant (exact accumulation value when ``exact``)."""

    chain: tuple[DyadicInterval, ...]
    approx: Fraction
    exact: bool

    kind = "accumulation_point"

    def to_repr(self) -> dict[str, Any]:
        return {
            "chain": [{"level": c.level, "index": c.index} for c in self.chain],
            "approx": format_rational(self.approx),
            "exact": self.exact,
        }

    @staticmethod
    def from_repr(obj: Mapping[str, Any], path: str = "repr") -> "AccumulationResult":
        chain = [
            DyadicInterval(
                _expect_nat(entry.get("level"), f"{at}.level"),
                _expect_nat(entry.get("index"), f"{at}.index"),
            )
            for entry, at in _expect_records(obj, "chain", "chain entry", path)
        ]
        approx = parse_rational(obj.get("approx"), location=f"{path}.approx")
        exact = obj.get("exact")
        if not isinstance(exact, bool):
            raise SchemaViolationError("exact must be a boolean", f"{path}.exact")
        return AccumulationResult(tuple(chain), approx, exact)
