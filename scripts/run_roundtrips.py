#!/usr/bin/env python3
"""Sweep the built-in catalog through every reduction round trip.

For each edge of ``bwreduce.edges.EDGES`` this serializes every matching
catalog instance to a scratch file, drives the ``bwreduce roundtrip`` command
against it, and tabulates the verdicts.  An edge without a catalog in
``PAIR_CATALOGS`` is an error, so no edge goes unswept.  Useful for
eyeballing how a convention change propagates: try ``--convention
paper-literal`` and watch which eventually periodic sequences stop
round-tripping.

    python3 scripts/run_roundtrips.py
    python3 scripts/run_roundtrips.py --pairs bwweak-stcoh --convention paper-literal
    python3 scripts/run_roundtrips.py --json results.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bwreduce import catalog
from bwreduce.cli import main as cli_main
from bwreduce.edges import EDGES
from bwreduce.instances import DerivedFamily, canonical_json, serialize_instance

PAIR_CATALOGS = {
    "bw-swkl": catalog.SEQUENCES,
    "swkl-separation": catalog.TREES,
    "separation-bw": catalog.SEPARATIONS,
    "bwweak-stcoh": catalog.PERIODIC_SEQUENCES,
    "stcoh-bwweak": catalog.FAMILIES,
}

# Swept in the corrected convention only, their instances named with the
# catalog's prefix: bwweak-stcoh over every catalog sequence, values at any
# distance included.  The paper-literal rows stay those of PAIR_CATALOGS,
# criterion 7's fixture.
CORRECTED_CATALOGS = {
    "bwweak-stcoh": ("sequences:", catalog.SEQUENCES),
}


def sweep_instances(pairs, convention: str):
    """The (pair, instance name, instance) rows swept in ``convention``."""
    for pair in pairs:
        yield from ((pair, name, obj) for name, obj in PAIR_CATALOGS[pair].items())
        if convention == "corrected" and pair in CORRECTED_CATALOGS:
            prefix, more = CORRECTED_CATALOGS[pair]
            yield from ((pair, prefix + name, obj) for name, obj in more.items())


def run_one(pair: str, name: str, obj, convention: str, scratch: Path) -> dict:
    src = scratch / f"{pair}--{name}.json"
    src.write_bytes(serialize_instance(obj))
    report_path = scratch / f"{pair}--{name}.report.json"
    argv = [
        "roundtrip",
        "--pair",
        pair,
        "-i",
        str(src),
        "--report",
        str(report_path),
        "--convention",
        convention,
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli_main(argv)
    row = {"pair": pair, "instance": name, "exit": code}
    if report_path.exists():
        report = json.loads(report_path.read_bytes())
        row["verdict"] = report["verdict"]
        row["notes"] = report["notes"]
    else:
        row["verdict"] = "error"
        row["notes"] = [line for line in sink.getvalue().splitlines() if line][-1:]
    return row


def main(argv: list[str] | None = None) -> int:
    unswept = [pair for pair in EDGES if pair not in PAIR_CATALOGS]
    if unswept:
        print(f"no catalog for edge {', '.join(unswept)} in PAIR_CATALOGS", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--pairs",
        nargs="*",
        choices=sorted(EDGES),
        default=sorted(EDGES),
        help="restrict to these round-trip pairs",
    )
    ap.add_argument(
        "--convention",
        choices=DerivedFamily.conventions,
        default="corrected",
    )
    ap.add_argument("--json", help="also dump all rows to this file")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        rows = [
            run_one(pair, name, obj, args.convention, Path(tmp))
            for pair, name, obj in sweep_instances(args.pairs, args.convention)
        ]

    width = max(len(r["instance"]) for r in rows)
    for row in rows:
        note = f"  [{row['notes'][0]}]" if row["notes"] else ""
        print(f"{row['pair']:<16} {row['instance']:<{width}} {row['verdict']}{note}")

    failures = [r for r in rows if r["verdict"] != "pass"]
    print(
        f"\n{len(rows) - len(failures)}/{len(rows)} round trips pass"
        f" (convention: {args.convention})"
    )
    for row in failures:
        print(f"  fail: {row['pair']} {row['instance']}")

    if args.json:
        doc = {"convention": args.convention, "rows": rows}
        Path(args.json).write_text(canonical_json(doc) + "\n")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
