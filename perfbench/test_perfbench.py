"""Tests of the benchmark's generators, scheduler, calibration and tracer.

    python3 -m pytest -q perfbench

The expected-outcome test runs every op of every workload once for one
seed, so the file takes about a minute.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _module(name: str):
    """The package module currently imported: set-up re-imports the package."""
    return importlib.import_module(f"bwreduce.{name}")


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    for seed in SEEDS:
        first = workloads.build(workload, seed, tmp_path / f"a{seed}")
        second = workloads.build(workload, seed, tmp_path / f"b{seed}")
        assert _files(tmp_path / f"a{seed}") == _files(tmp_path / f"b{seed}")
        assert [[op.key for op in u] for u in first] == [[op.key for op in u] for u in second]
    assert _files(tmp_path / "a1") != _files(tmp_path / "a2")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_files_round_trip_through_the_parser(workload, tmp_path):
    for seed in SEEDS:
        root = tmp_path / str(seed)
        workloads.build(workload, seed, root)
        inst = _module("instances")
        for name, data in _files(root).items():
            assert inst.serialize_instance(inst.parse_instance(data)) == data, name


def test_cohesion_sequences_keep_values_apart():
    rng = random.Random(0)
    for _ in range(300):
        x = workloads.periodic_sequence(rng)
        j0, q = x.periodic_structure()
        values = sorted({x.term(j) for j in range(j0 + q)})
        gaps = [b - a for a, b in zip(values, values[1:])]
        assert all(g >= Fraction(1, 64) for g in gaps)


def test_separations_have_the_recorded_stabilisation_bound():
    solvers = _module("solvers")
    code_budget = _module("certificates").Budget().code_budget
    codes = workloads._choice_codes(int(workloads.KSTAR_HIGH * 1.3))
    rng = random.Random(0)
    for seed in range(8):
        for target in workloads.kstar_grid(random.Random(seed)):
            p, kstar = workloads.separation(rng, target, codes)
            assert 0.8 * target < kstar < 1.2 * target
            for n in range(workloads.LEVELS):
                # disjointness: one side is total at every n
                assert p.totality(0, n) or p.totality(1, n)
            bounds = [solvers.stabilization_bound(p, n) for n in range(workloads.LEVELS)]
            assert max(bounds) == kstar < code_budget


def test_every_op_meets_its_expected_outcome(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for workload in workloads.WORKLOADS:
        units, _, _, repeat = run.set_up(workload, 1, 1, speed.Speedometer())
        assert repeat
        for op in run.flatten(units):
            _, ok, _ = run.execute(op)
            assert ok, op.key


def test_paper_literal_fixture_is_the_pinned_seven(tmp_path):
    units = workloads.build("cohesion", 1, tmp_path)
    literal = [u[0] for u in units if u[0].category == "catalog-paper-literal"]
    assert len(literal) == 30
    assert sum(op.expect_exit == 1 for op in literal) == 7


def test_schedule_prefix_spans_categories_and_costs(tmp_path):
    units = workloads.build("late-separation", 1, tmp_path)
    order = run.schedule(units)
    assert sorted(map(id, order)) == sorted(map(id, units))
    head = order[: len(order) // 2]
    kstars = sorted(u[0].kstar for u in head if u[0].kstar)
    every = sorted(u[0].kstar for u in units if u[0].kstar)
    assert kstars[0] <= every[2] and kstars[-1] >= every[-3]
    assert sum(u[0].category == "catalog-separation" for u in head) in (4, 5, 6)


def test_tail_has_ten_samples_beyond_it():
    samples = [float((7 * i) % 100) for i in range(100)]
    index, percentile, beyond = run._tail(samples)
    assert (samples[index], percentile, beyond) == (89.0, 90.0, 10)
    assert run._tail([3.0, 1.0]) == (1, 50.0, 1)


def test_scale_uses_the_samples_around_an_op():
    meter = speed.Speedometer()
    meter.ends = [0.0, 0.2, 0.4, 10.0]
    meter.durations = [1e-3, 2e-3, 4e-3, 8e-3]
    assert meter.scale(0.1, 0.15) == speed.REF_S / 2e-3  # 0.0, 0.2 and 0.4
    assert meter.scale(9.8, 9.9) == speed.REF_S / 8e-3  # 10.0 only
    assert meter.scale(5.0, 5.1) == speed.REF_S / 8e-3  # none near: the next one


def test_op_metrics_weigh_every_op_once():
    per_op = [[0.010, 0.030, 0.020], [0.040, 0.040]]  # the second op missed the last pass
    metrics, _ = run._op_metrics(per_op, passes=2)
    assert metrics["ops_per_s"] == 2 / (0.020 + 0.040)
    assert metrics["op_p50_ms"] == 1000 * (0.020 + 0.040) / 2

    # the tail reads each op at its median, never at the slow 1.0 s repeats
    per_op = [[1.0, k / 1000, k / 1000] for k in range(6)]
    metrics, (op, percentile, beyond) = run._op_metrics(per_op, passes=2)
    assert (metrics["op_tail_ms"], op, percentile, beyond) == (0.0, 0, 100 * 2 / 12, 10)


def test_tracer_rebinds_aliases_and_restores_them():
    core, instances = _module("core"), _module("instances")
    original = core.seq_decode
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert instances.seq_decode is core.seq_decode is not original
        assert instances.seq_decode(12) == (1, 0)
        assert instances.seq_decode(10) is None
    finally:
        tracer.uninstall()
    assert instances.seq_decode is core.seq_decode is original
    assert not tracer.absent
    values = tracer.metrics()
    assert values["core.seq_decode.calls"] == 2
    assert values["core.seq_decode.valid_ratio"] == 0.5


def test_missing_target_is_recorded_as_absent(monkeypatch):
    groups = dict(layers.GROUPS)
    groups["reductions.gone"] = ("span", ("reductions:no_such_function",))
    monkeypatch.setattr(layers, "GROUPS", groups)
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["reductions.gone"]


def test_traced_counters_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    units, _, _, _ = run.set_up("tree-branch", 1, 1, speed.Speedometer())
    ops = run.flatten(run.schedule(units)[:12])
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        tracer.install()
        try:
            for op in ops:
                assert run.execute(op)[1]
        finally:
            tracer.uninstall()
        values = tracer.metrics()
        counts.append({name: values[name] for name in layers.COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["instances.has_extension.calls"] > 0


def test_budget_error_counts_once_through_nested_spans():
    instances, certificates = _module("instances"), _module("certificates")
    solvers, errors = _module("solvers"), _module("errors")
    tracer = layers.Tracer()
    tracer.install()
    try:
        with pytest.raises(errors.BudgetError):
            solvers.extract_slow_cauchy(
                instances.HarmonicSequence(), certificates.Budget(horizon=0))
    finally:
        tracer.uninstall()
    assert tracer.metrics()["solvers.budget_errors"] == 1
