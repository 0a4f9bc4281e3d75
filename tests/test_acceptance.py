"""Acceptance suite: nine numbered end-to-end criteria with wall-clock caps.

Each test prints exactly one ``criterion N: pass``/``fail`` line (shown under
``pytest -s`` or in captured output).  The caps are asserted, not advisory.
Criteria 4-6 are factored into functions returning serialized artifacts so
criterion 9 can rerun them and compare bytes.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import kernel_oracle
from bwreduce import catalog, reductions, solvers
from bwreduce.certificates import BranchPrefix, Budget, CauchyCertificate, SeparatorSet
from bwreduce.cli import main
from bwreduce.core import (
    CantorPoint,
    cantor_dist_exact,
    embed_point_exact,
    seq_code,
    seq_decode,
)
from bwreduce.instances import serialize_instance

LEVELS = 8
CODE_BUDGET = 10**6


@contextmanager
def _criterion(num: int, cap: float | None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: fail")
        raise
    elapsed = time.monotonic() - t0
    if cap is not None and elapsed >= cap:
        print(f"criterion {num}: fail (took {elapsed:.1f}s, cap {cap:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded its {cap:.0f}s cap")
    print(f"criterion {num}: pass ({elapsed:.2f}s)")


def _report_bytes(criterion: int, verdicts: dict[str, str]) -> bytes:
    doc = {"criterion": criterion, "verdicts": verdicts}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


# --- criterion 1 -------------------------------------------------------------------
#
# Distance correspondence between Cantor space and the middle-third image,
# exhaustively for every ordered pair of length-12 bit prefixes completed by a
# shared constant tail (0^w or 1^w) -- 2 * 4096^2 pairs.  Shorter prefixes with
# a constant tail equal some length-12 prefix padded with that tail, so they
# are subsumed.  All arithmetic is integer-exact: scaling by 3^12 makes
# h(prefix + t^w) = (2*T + t)/3^12 with T = sum b_i 3^(11-i) <= (3^12-1)/2,
# far inside int64 range.


def _ternary_values() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = np.arange(4096, dtype=np.int64)
    t = np.zeros(4096, dtype=np.int64)
    for j in range(12):
        t += ((p >> j) & 1) * 3**j
    bitlen = np.array([x.bit_length() for x in range(4096)], dtype=np.int64)
    pow3 = np.array([3**e for e in range(13)], dtype=np.int64)
    return t, bitlen, pow3


def test_criterion_1_embedding_distance_correspondence():
    with _criterion(1, 30.0):
        tern, bitlen, pow3 = _ternary_values()
        pts = np.arange(4096, dtype=np.int64)

        # For a pair with first disagreement at index m the two invariants
        #   (a) dist < 2^-n  =>  |dh| <= 3^-(n+1)
        #   (b) |dh| < 3^-(n+1)  =>  dist < 2^-n
        # quantified over every n collapse (sharpest n on each side) to
        #   3^-(m+1) <= |dh| <= 3^-m.
        # Scaled by 3^12 with m = 12 - bit_length(p xor q) that is
        #   pow3[bl - 1] <= 2|dT| <= pow3[bl].
        for tail in (0, 1):
            emb = 2 * tern + tail
            for p in range(4096):
                x = pts ^ p
                diff = np.abs(emb[p] - emb)
                nz = x > 0
                bl = bitlen[x[nz]]
                dn = diff[nz]
                assert np.all(dn >= pow3[bl - 1])
                assert np.all(dn <= pow3[bl])
                assert not diff[~nz].any()

        # tie the integer model to the exact public functions on a sample
        rng = random.Random(20260815)
        for _ in range(300):
            p, q = rng.randrange(4096), rng.randrange(4096)
            tail = rng.randrange(2)
            a = CantorPoint.periodic(
                tuple((p >> (11 - i)) & 1 for i in range(12)), (tail,)
            )
            b = CantorPoint.periodic(
                tuple((q >> (11 - i)) & 1 for i in range(12)), (tail,)
            )
            x = p ^ q
            want = Fraction(0) if x == 0 else Fraction(1, 2 ** (12 - x.bit_length()))
            assert cantor_dist_exact(a, b) == want
            scaled = abs(int(tern[p]) - int(tern[q])) * 2
            assert abs(embed_point_exact(a) - embed_point_exact(b)) == Fraction(
                scaled, 3**12
            )


# --- criterion 2 -------------------------------------------------------------------


def test_criterion_2_sequence_coding_roundtrip_and_monotonicity():
    with _criterion(2, 10.0):
        codes: dict[tuple[int, ...], int] = {}
        for length in range(6):
            for s in itertools.product(range(6), repeat=length):
                codes[s] = seq_code(s)

        for s, c in codes.items():
            assert seq_decode(c) == s

        # extension: appending any entry strictly increases the code
        for s, c in codes.items():
            if s:
                assert codes[s[:-1]] < c

        # domination: entrywise u <= v (same length) orders the codes, with
        # equality exactly at u = v; every dominated pair is enumerated
        for v, cv in codes.items():
            for u in itertools.product(*[range(b + 1) for b in v]):
                if u == v:
                    assert codes[u] == cv
                else:
                    assert codes[u] < cv


# --- criterion 3 -------------------------------------------------------------------


def test_criterion_3_valid_code_machinery():
    with _criterion(3, 60.0):
        identity_checks = 0
        for p in catalog.SEPARATIONS.values():
            for i in (0, 1):
                for n in range(4):
                    ff = p.first_failure(i, n)
                    for m in range(4):
                        if ff is not None and ff < m:
                            continue  # stream undefined that far out
                        fbar = seq_code(tuple(kernel_oracle.choice_values(p, i, n, m)))
                        if fbar + 1 > CODE_BUDGET:
                            continue
                        got = reductions.f_code(p, i, n, fbar + 1, CODE_BUDGET)
                        assert got == fbar
                        identity_checks += 1
        assert identity_checks >= 200  # the sweep must not be vacuous

        for p in catalog.SEPARATIONS.values():
            for i in (0, 1):
                for n in range(3):
                    prev = -1
                    for k in range(2000):
                        g = reductions.g_len(p, i, n, k, CODE_BUDGET)
                        assert g >= prev
                        prev = g

        ties = 0
        for p in catalog.SEPARATIONS.values():
            for n in range(3):
                for k in range(600):
                    g0 = reductions.g_len(p, 0, n, k, CODE_BUDGET)
                    g1 = reductions.g_len(p, 1, n, k, CODE_BUDGET)
                    want = 0 if g0 >= g1 else 1
                    assert reductions.h_bit(p, k, n, CODE_BUDGET) == want
                    ties += g0 == g1
        assert ties > 0  # the tie rule was actually exercised


# --- criterion 4 -------------------------------------------------------------------


def _separation_roundtrips() -> dict[str, bytes]:
    budget = Budget(horizon=LEVELS, depth=LEVELS, threshold=LEVELS)
    artifacts: dict[str, bytes] = {}
    verdicts: dict[str, str] = {}
    for name, p in catalog.SEPARATIONS.items():
        x = reductions.separation_to_bw(p, CODE_BUDGET)
        kstar = max(
            solvers.stabilization_bound(p, n, CODE_BUDGET) for n in range(LEVELS)
        )
        stable = tuple(x.point(kstar).bits(LEVELS)) == tuple(
            x.point(kstar + LEVELS).bits(LEVELS)
        )
        assert stable, f"{name}: points not settled past k*={kstar}"
        bits = kernel_oracle.find_accumulation_cantor(
            lambda k: x.point(kstar + k), budget
        )
        sep = SeparatorSet(tuple(bits))
        bad = solvers.verify_separator(sep, p, LEVELS)
        assert bad is None, f"{name}: {bad}"
        verdicts[name] = "pass"
        artifacts[f"{name}/separator"] = serialize_instance(sep)
    assert len(verdicts) == 10
    artifacts["report"] = _report_bytes(4, verdicts)
    return artifacts


def test_criterion_4_separation_roundtrip():
    with _criterion(4, 60.0):
        _separation_roundtrips()


# --- criterion 5 -------------------------------------------------------------------


def _tree_roundtrips() -> dict[str, bytes]:
    budget = Budget(depth=LEVELS, stage=4096)
    artifacts: dict[str, bytes] = {}
    verdicts: dict[str, str] = {}

    for name, x in catalog.SEQUENCES.items():
        tree = reductions.bw_to_swkl(x)
        br = solvers.find_branch(tree, budget)
        bp = reductions.branch_to_point(tree, br.bits, budget.stage)
        cert = CauchyCertificate(
            bp.selector, tuple((n, n) for n in range(7)), "fast"
        )
        assert solvers.verify_cauchy(cert, x) is None, name
        verdicts[f"seq/{name}"] = "pass"
        artifacts[f"seq/{name}/branch"] = serialize_instance(br)
        artifacts[f"seq/{name}/fast"] = serialize_instance(cert)

    for name, y in catalog.TREES.items():
        derived = reductions.swkl_to_separation(y)
        assert not derived.has_ground_truth()  # sides are live tree predicates
        sep = reductions.exact_separator(y, LEVELS)
        bits = reductions.separator_to_branch(sep, y, LEVELS, budget.stage)
        # brute-force extendibility oracle: every prefix of the answer is a
        # member at a stage far past anything the walk consulted
        for d in range(1, LEVELS + 1):
            assert y.member_at_stage(bits[:d], 10**9), (name, d)
        verdicts[f"tree/{name}"] = "pass"
        artifacts[f"tree/{name}/separator"] = serialize_instance(sep)
        artifacts[f"tree/{name}/branch"] = serialize_instance(
            BranchPrefix(bits, budget.stage)
        )

    assert len(verdicts) == 30
    artifacts["report"] = _report_bytes(5, verdicts)
    return artifacts


def test_criterion_5_tree_roundtrips():
    with _criterion(5, 120.0):
        _tree_roundtrips()


# --- criterion 6 -------------------------------------------------------------------


def _slow_certificate(x) -> tuple[CauchyCertificate, bytes, bytes]:
    family = reductions.bwweak_to_stcoh(x, "corrected")
    # the builder reads the rows' window, and refuses a family without one
    assert family.periodic_structure(range(LEVELS)) is not None
    witness = solvers.build_strongly_cohesive(family, LEVELS, Budget())
    assert solvers.verify_cohesive(witness, family, strong_levels=LEVELS) is None
    cert = CauchyCertificate(
        witness.selector, tuple((n, 0) for n in range(LEVELS + 1)), "slow"
    )
    assert solvers.verify_cauchy(cert, x) is None
    return cert, serialize_instance(witness), serialize_instance(cert)


def _cohesion_roundtrips() -> dict[str, bytes]:
    artifacts: dict[str, bytes] = {}
    verdicts: dict[str, str] = {}

    for name, x in catalog.PERIODIC_SEQUENCES.items():
        _, witness_bytes, cert_bytes = _slow_certificate(x)
        verdicts[f"seq/{name}"] = "pass"
        artifacts[f"seq/{name}/witness"] = witness_bytes
        artifacts[f"seq/{name}/slow"] = cert_bytes

    for name, family in catalog.FAMILIES.items():
        x = reductions.stcoh_to_bwweak(family)
        cert = solvers.extract_slow_cauchy(x, Budget(depth=13))
        witness = solvers.witness_from_selector(cert.selector, family, LEVELS)
        assert solvers.verify_cauchy(cert, x) is None, name
        bad = solvers.verify_cohesive(witness, family, strong_levels=LEVELS)
        assert bad is None, f"{name}: {bad}"
        verdicts[f"family/{name}"] = "pass"
        artifacts[f"family/{name}/slow"] = serialize_instance(cert)
        artifacts[f"family/{name}/witness"] = serialize_instance(witness)

    assert len(verdicts) == 40
    artifacts["report"] = _report_bytes(6, verdicts)
    return artifacts


def test_criterion_6_cohesion_roundtrips():
    with _criterion(6, 120.0):
        _cohesion_roundtrips()


# --- criterion 7 -------------------------------------------------------------------


def test_criterion_7_convention_boundary_regression(tmp_path, capsys):
    with _criterion(7, None):
        src = tmp_path / "alt.json"
        src.write_bytes(serialize_instance(catalog.SEQUENCES["alternating-ends"]))
        report = tmp_path / "report.json"

        code = main(
            [
                "roundtrip",
                "--pair",
                "bwweak-stcoh",
                "-i",
                str(src),
                "--convention",
                "paper-literal",
                "--report",
                str(report),
            ]
        )
        capsys.readouterr()
        assert code == 1
        notes = json.loads(report.read_bytes())["notes"]
        assert any(note == "R_i = N for all i < 8" for note in notes)

        code = main(
            [
                "roundtrip",
                "--pair",
                "bwweak-stcoh",
                "-i",
                str(src),
                "--convention",
                "corrected",
                "--report",
                str(report),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads(report.read_bytes())["verdict"] == "pass"


# --- criterion 8 -------------------------------------------------------------------


def test_criterion_8_thinning_to_fast_rate():
    with _criterion(8, 30.0):
        names = list(catalog.PERIODIC_SEQUENCES)[:10]
        for name in names:
            x = catalog.PERIODIC_SEQUENCES[name]
            slow, _, _ = _slow_certificate(x)
            fast = solvers.thin_to_fast(slow, x, Budget())
            assert fast.rate == "fast"
            assert solvers.verify_cauchy(fast, x) is None, name
            vals = fast.selector.values
            # the contract, re-checked directly in exact arithmetic
            for v in range(len(vals)):
                for w in range(len(vals)):
                    gap = abs(x.term(vals[v]) - x.term(vals[w]))
                    assert gap < Fraction(1, 2 ** min(v, w)), (name, v, w)


# --- criterion 9 -------------------------------------------------------------------


def test_criterion_9_determinism():
    with _criterion(9, None):
        for run_fn in (_separation_roundtrips, _tree_roundtrips, _cohesion_roundtrips):
            first = run_fn()
            second = run_fn()
            assert first == second, f"{run_fn.__name__} is not byte-stable"
