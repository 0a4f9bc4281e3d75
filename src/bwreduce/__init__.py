"""Instance-wise reductions between compactness principles over [0, 1].

The package turns accumulation-point search, infinite-branch search in
stagewise binary trees, limit-set separation, and strongly cohesive sets
into each other by explicit, exact-arithmetic transformations; budgeted
solvers produce certificates and independent verifiers re-check them.
"""

from __future__ import annotations

from .certificates import (
    AccumulationResult,
    BranchPrefix,
    Budget,
    CauchyCertificate,
    CohesiveWitness,
    Selector,
    SeparatorSet,
)
from .core import (
    CantorPoint,
    DyadicInterval,
    cantor_dist_exact,
    embed_point_exact,
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
from .errors import (
    BudgetError,
    BudgetExceededError,
    BudgetExhaustedError,
    BwreduceError,
    EmptyCellsError,
    EmptyTreeAtStageError,
    ExactValueUnavailableError,
    HorizonTooSmallError,
    InstanceFormatError,
    InvalidCertificateError,
    InvariantViolationError,
    MalformedSyntaxError,
    NonMonotoneSelectorError,
    NotANodeError,
    NotGroundTruthError,
    SchemaViolationError,
    SeparatorUndefinedError,
    UnserializableError,
    UnsupportedEdgeError,
    WitnessExhaustedError,
)
from .instances import (
    AlternatingSequence,
    BinaryWalkSequence,
    BranchUnionTree,
    CallbackPredicate,
    Cond,
    ConstantSequence,
    DerivedFamily,
    DerivedTree,
    EmbeddedSequence,
    FullBinaryTree,
    HarmonicSequence,
    PeriodicRowsFamily,
    PeriodicSequence,
    RationalSequence,
    RowPattern,
    RulePredicate,
    SeparationInstance,
    SetFamily,
    SigmaTree,
    SingleBranchTree,
    StageListTree,
    TableRowsFamily,
    TableSequence,
    TreeSidePredicate,
    parse_instance,
    serialize_instance,
)
from .reductions import (
    BranchPoint,
    branch_to_point,
    bw_to_swkl,
    bwweak_to_stcoh,
    exact_separator,
    f_code,
    g_len,
    h_bit,
    separation_to_bw,
    separator_to_branch,
    stcoh_to_bwweak,
    swkl_to_separation,
)
from .solvers import (
    BranchViolation,
    CauchyViolation,
    CohesiveViolation,
    SeparatorViolation,
    build_strongly_cohesive,
    extract_slow_cauchy,
    find_accumulation_cantor,
    find_accumulation_real,
    find_branch,
    stabilization_bound,
    thin_to_fast,
    verify_branch,
    verify_cauchy,
    verify_cohesive,
    verify_separator,
    witness_from_selector,
)

__version__ = "0.1.0"
