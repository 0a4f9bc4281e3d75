"""Exception hierarchy shared across the package.

Verification *failures* are ordinary return values (see solvers), never
exceptions; the classes here cover malformed inputs, unsupported requests and
exhausted search budgets.  The CLI maps them onto its exit codes.
"""

from __future__ import annotations


class BwreduceError(Exception):
    """Base class for every error raised by this package."""


# --- instance file / schema errors (CLI exit 3) ---------------------------


class InstanceFormatError(BwreduceError):
    """A problem with an instance or certificate file.

    ``location`` is a dotted path into the offending document, e.g.
    ``repr.period[3]``.
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


class MalformedSyntaxError(InstanceFormatError):
    """Input is not syntactically valid JSON (or not an object at all)."""


class SchemaViolationError(InstanceFormatError):
    """JSON is well-formed but does not match the envelope schema."""


class InvariantViolationError(InstanceFormatError):
    """Schema-valid input denoting an object that breaks a type invariant."""


class UnserializableError(BwreduceError):
    """Instance holds caller-supplied callbacks and has no file form."""


# --- evaluation / ground truth ---------------------------------------------


class ExactValueUnavailableError(BwreduceError):
    """An exact rational was requested from an approximation-only term."""


class NotGroundTruthError(BwreduceError):
    """Operation needs a decidable ground-truth oracle the instance lacks."""


# --- reductions -------------------------------------------------------------


class UnsupportedEdgeError(BwreduceError):
    """Requested reduction edge is not one of the supported five (CLI exit 4)."""


class NotANodeError(BwreduceError):
    """A bit string expected to be a tree node at the given stage is not."""


class WitnessExhaustedError(BwreduceError):
    """Stage too small to extract the required selector entries."""


class SeparatorUndefinedError(BwreduceError):
    """Separator queried beyond its characteristic prefix with no extension rule."""


class NonMonotoneSelectorError(BwreduceError):
    """Selector values are not strictly increasing."""


# --- budget family (CLI exit 2) ---------------------------------------------


class BudgetError(BwreduceError):
    """Base for everything the CLI reports as budget exhaustion (exit 2)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class BudgetExceededError(BudgetError):
    """A requested bound (e.g. code index k) lies beyond the configured budget."""


class BudgetExhaustedError(BudgetError):
    """Search ran out of budgeted room without finding a qualifying object."""


class EmptyTreeAtStageError(BudgetError):
    """No length-1 node is enumerated by the given stage."""


class HorizonTooSmallError(BudgetError):
    """No member, or no settle point, below the horizon for a required level."""


class InvalidCertificateError(BwreduceError):
    """A certificate handed to a transformation fails its precondition."""
