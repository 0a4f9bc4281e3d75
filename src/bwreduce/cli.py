"""Batch command-line surface.

Subcommands: ``reduce`` (instance transformations), ``solve`` (budgeted
witness search), ``verify`` (exact certificate checking), ``roundtrip``
(reduce → solve → back-translate → verify with a trace report), ``embed``
(middle-third utilities).

Exit codes: 0 pass, 1 verification failure, 2 budget exhaustion (with a
machine-readable JSON reason on stderr), 3 malformed input or usage, 4
unsupported request, 5 standard output closed, 6 internal error (with a
JSON diagnostic on stderr).  Every command is deterministic in its flags and
input bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Callable

from . import solvers
from .certificates import AccumulationResult, BranchPrefix, Budget
from .core import (
    CantorPoint,
    cantor_dist_exact,
    embed_point_exact,
    format_bits,
    format_rational,
    parse_bits,
)
from .edges import EDGES, check, roundtrip
from .errors import (
    BudgetError,
    ExactValueUnavailableError,
    InstanceFormatError,
    InvalidCertificateError,
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
    DERIVED_PARAMS,
    DerivedFamily,
    RationalSequence,
    SetFamily,
    SigmaTree,
    canonical_json,
    join_ints,
    parse_instance,
    serialize_instance,
)


class _UsageError(Exception):
    """Bad flags; rerouted to exit 3 instead of argparse's exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> Any:  # type: ignore[override]
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _load(path: str) -> Any:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def _emit(path: str | None, data: bytes) -> None:
    if path is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(
        horizon=args.horizon,
        depth=args.depth,
        stage=args.stage,
        code_budget=args.code_budget,
        threshold=args.threshold,
    )


def _require(obj: Any, cls: type, what: str) -> Any:
    if not isinstance(obj, cls):
        raise SchemaViolationError(
            f"{what} needs a {cls.__name__} instance, got {type(obj).__name__}"
        )
    return obj


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def cmd_reduce(args: argparse.Namespace) -> int:
    edge = EDGES.get(f"{args.src}-{args.dst}")
    if edge is None:
        raise UnsupportedEdgeError(
            f"no reduction from {args.src} to {args.dst}; supported: "
            + ", ".join(sorted(EDGES))
        )
    _budget(args)  # the budget flags are naturals, as in every command
    obj = _require(_load(args.input), edge.source, f"--from {args.src}")
    # the --code-budget and --convention flags share their names with the
    # forward parameters, and are read as a derived file reads them back
    out = edge.forward(obj, **{
        name: DERIVED_PARAMS[name][0](getattr(args, name), "--" + name.replace("_", "-"))
        for name in edge.params
    })
    _emit(args.output, serialize_instance(out))
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


# --problem name -> (instance class, finder(instance, budget))
PROBLEMS: dict[str, tuple[type, Callable[[Any, Budget], Any]]] = {
    "accumulation": (RationalSequence, lambda x, b: solvers.find_accumulation_real(x, b)),
    "branch": (SigmaTree, lambda tree, b: solvers.find_branch(tree, b)),
    "cohesive": (SetFamily, lambda r, b: solvers.build_strongly_cohesive(r, b.depth, b)),
    "slow-cauchy": (RationalSequence, lambda x, b: solvers.extract_slow_cauchy(x, b)),
    "fast-cauchy": (RationalSequence, lambda x, b: solvers.thin_to_fast(
        solvers.extract_slow_cauchy(x, b), x, b)),
}


def _summary(result: Any, memo: dict) -> str:
    if isinstance(result, AccumulationResult):
        return f"approx {format_rational(result.approx)}"
    if isinstance(result, BranchPrefix):
        return format_bits(result.bits)
    return "selector " + join_ints(result.selector.values, " ", memo)


def cmd_solve(args: argparse.Namespace) -> int:
    obj = _load(args.input)
    budget = _budget(args)
    cls, find = PROBLEMS[args.problem]
    result = find(_require(obj, cls, args.problem), budget)
    memo: dict = {}  # the selector's digits, written once for the summary and the file
    print(_summary(result, memo))
    if args.output is not None:
        _emit(args.output, serialize_instance(result, memo))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _where(bad: Any) -> str:
    """A verifier violation as ``(field=value,...)``, in field order."""
    return "(" + ",".join(f"{k}={v}" for k, v in asdict(bad).items()) + ")"


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load(args.input)
    cert = _load(args.certificate)
    bad = check(cert, inst, _budget(args))
    if bad is None:
        print("pass")
        return 0
    print(f"counterexample {_where(bad)}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


def cmd_roundtrip(args: argparse.Namespace) -> int:
    budget = _budget(args)
    pair = args.pair
    edge = EDGES[pair]
    obj = _require(_load(args.input), edge.source, pair)
    notes: list[str] = []
    stages, bad = roundtrip(edge, obj, budget, notes, args.convention)

    verifier = "pass" if bad is None else f"fail {_where(bad)}"
    verdict = "pass" if bad is None else "fail"
    rows = [(step, digest, "-") for step, digest in stages] + [("verify", "-", verifier)]
    report = {
        "pair": pair,
        "budget": budget.to_repr(),
        "convention": args.convention,
        "stages": [
            {"step": step, "digest": digest, "verifier": verified}
            for step, digest, verified in rows
        ],
        "notes": notes,
        "verdict": verdict,
    }
    if args.report is not None:
        data = (canonical_json(report) + "\n").encode("utf-8")
        with open(args.report, "wb") as fh:
            fh.write(data)

    print(f"{'pair':<10} {pair}")
    print(f"{'verdict':<10} {verdict}")
    print(f"{'step':<10} {'digest':<18} verifier")
    for step, digest, verified in rows:
        print(f"{step:<10} {digest:<18} {verified}")
    for note in notes:
        print(f"note: {note}")
    return 0 if bad is None else 1


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def _parse_point(text: str) -> CantorPoint:
    t = text.strip()
    if "(" in t:
        head, _, rest = t.partition("(")
        head = head.rstrip(",")
        if not rest.endswith(")") or "(" in rest:
            raise ValueError(f"bad point syntax {text!r}")
        period = rest[:-1]
        if not period:
            raise ValueError(f"empty period in {text!r}")
        return CantorPoint.periodic(parse_bits(head), parse_bits(period))
    return CantorPoint.periodic(parse_bits(t), (0,))


def cmd_embed(args: argparse.Namespace) -> int:
    if args.direction == "to-real":
        if len(args.points) != 1:
            raise _UsageError("to-real takes exactly one point")
        print(format_rational(embed_point_exact(_parse_point(args.points[0]))))
        return 0
    if len(args.points) != 2:
        raise _UsageError("dist takes exactly two points")
    a = _parse_point(args.points[0])
    b = _parse_point(args.points[1])
    print(f"cantor {format_rational(cantor_dist_exact(a, b))}")
    print(
        "real "
        + format_rational(abs(embed_point_exact(a) - embed_point_exact(b)))
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry points
# ---------------------------------------------------------------------------


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    defaults = Budget()
    sub.add_argument("--horizon", type=int, default=defaults.horizon)
    sub.add_argument("--depth", type=int, default=defaults.depth)
    sub.add_argument("--stage", type=int, default=defaults.stage)
    sub.add_argument("--threshold", type=int, default=defaults.threshold)
    sub.add_argument("--code-budget", type=int, default=defaults.code_budget)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bwreduce", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    reduce_p = subs.add_parser("reduce", help="transform an instance along an edge")
    reduce_p.add_argument("--from", dest="src", required=True)
    reduce_p.add_argument("--to", dest="dst", required=True)
    reduce_p.add_argument("-i", "--input", required=True)
    reduce_p.add_argument("-o", "--output")
    reduce_p.add_argument(
        "--convention", choices=DerivedFamily.conventions, default=DerivedFamily.conventions[0]
    )
    _add_budget_flags(reduce_p)
    reduce_p.set_defaults(fn=cmd_reduce)

    solve_p = subs.add_parser("solve", help="search for a witness under a budget")
    solve_p.add_argument(
        "--problem",
        required=True,
        choices=tuple(PROBLEMS),
    )
    solve_p.add_argument("-i", "--input", required=True)
    solve_p.add_argument("-o", "--output")
    _add_budget_flags(solve_p)
    solve_p.set_defaults(fn=cmd_solve)

    verify_p = subs.add_parser("verify", help="re-check a certificate exactly")
    verify_p.add_argument("-i", "--input", required=True)
    verify_p.add_argument("--certificate", required=True)
    _add_budget_flags(verify_p)
    verify_p.set_defaults(fn=cmd_verify)

    rt_p = subs.add_parser("roundtrip", help="reduce, solve, translate back, verify")
    rt_p.add_argument("--pair", required=True, choices=tuple(EDGES))
    rt_p.add_argument("-i", "--input", required=True)
    rt_p.add_argument("--report")
    rt_p.add_argument(
        "--convention", choices=DerivedFamily.conventions, default=DerivedFamily.conventions[0]
    )
    _add_budget_flags(rt_p)
    rt_p.set_defaults(fn=cmd_roundtrip)

    embed_p = subs.add_parser("embed", help="middle-third embedding utilities")
    embed_p.add_argument("--direction", required=True, choices=("to-real", "dist"))
    embed_p.add_argument("points", nargs="*")
    embed_p.set_defaults(fn=cmd_embed)

    return parser


# built once: building a parser leaves reference cycles for the collector
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader has gone; the flush at interpreter shutdown stays silent
        sys.stdout = open(os.devnull, "w")
        print("error: standard output closed", file=sys.stderr)
        return 5
    except (
        InstanceFormatError,
        NotANodeError,
        SeparatorUndefinedError,
        NonMonotoneSelectorError,
        ValueError,
        OverflowError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (BudgetError, WitnessExhaustedError) as e:
        payload = {"error": "budget", "kind": type(e).__name__, "reason": str(e)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2
    except InvalidCertificateError as e:
        print(f"fail: {e}", file=sys.stderr)
        return 1
    except (
        UnsupportedEdgeError,
        NotGroundTruthError,
        ExactValueUnavailableError,
        UnserializableError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # a fault of this program, never a verdict on the input
        payload = {"error": "internal", "kind": type(e).__name__, "reason": str(e)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 6


def app() -> None:
    sys.exit(main())
