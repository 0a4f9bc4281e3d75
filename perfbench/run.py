"""Benchmark of the ``bwreduce`` command line: one seeded workload per run.

    python3 perfbench/run.py --workload cohesion --seed 1 --seconds 30 --trace 0

Set-up imports the package from ``src/`` and writes the workload's instance
files under ``.perfbench_work/``.  The run then drives ``bwreduce.cli.main``
in-process as a closed loop: one client on one thread, each op one CLI
command that starts when the previous one has ended.  Every op's exit code,
and every round trip's report verdict, is checked against the outcome its
generator recorded.

``--trace 0`` loops over the workload's ops for ``--seconds``, at least one
complete pass, and reports the end-to-end metrics.  Every time among them is
scaled to a reference machine speed by a calibration loop timed between the
ops (see ``speed.py``); the unscaled figures are in the details line.
``--trace 1`` runs a fixed prefix of the same ops twice, untraced and then
traced (see ``layers.py``), and reports the per-layer metrics, unscaled,
together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record of the run's details (set-up samples, tail percentile,
output fingerprint, machine and load).  Without ``src/bwreduce`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STATE = WORK / "determinism.json"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# A traced run executes this many units from the start of the schedule: a
# fixed amount of work, so that its counters repeat exactly, and a fair
# sample of the workload, because every prefix of the schedule is one.
TRACE_UNITS = 60
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


class SetupError(Exception):
    """The program under test cannot be imported or set up."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "bwreduce" or m.startswith("bwreduce.")]:
        del sys.modules[name]


def _files_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, repeats: int, meter: speed.Speedometer):
    """Import the package and generate the instance files ``repeats`` times.

    Returns the units, the set-up wall times, the same times scaled to the
    reference speed by ``meter`` samples taken just before and after each
    repeat, and whether every repeat wrote byte-identical files.
    """
    if not (SRC / "bwreduce" / "__init__.py").is_file():
        raise SetupError(f"no bwreduce package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    target = WORK / f"{workload}-{seed}"
    times, scaled, digests, units = [], [], set(), []
    for _ in range(repeats):
        _purge_package()
        if target.exists():
            shutil.rmtree(target)
        meter.sample()
        t0 = time.perf_counter()
        try:
            importlib.import_module("bwreduce.cli")
        except ImportError as e:
            raise SetupError(f"cannot import bwreduce: {e}") from e
        units = workloads.build(workload, seed, target)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        meter.sample()
        scaled.append((t1 - t0) * meter.scale(t0, t1))
        digests.add(_files_digest(target))
    return units, times, scaled, len(digests) == 1


def _bit_reversed_order(n: int) -> list[int]:
    width = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(f"{i:0{width}b}"[::-1], 2))


def schedule(units):
    """Order the units so that every prefix of the order is a fair sample.

    Categories are merged in proportion to their size; inside a category the
    units are sorted by k* (separations; the others keep their generation
    order) and taken in bit-reversed order, so a prefix spans the whole
    range.
    """
    by_category: dict[str, list] = {}
    for unit in units:
        by_category.setdefault(unit[0].category, []).append(unit)
    keyed = []
    for category, members in sorted(by_category.items()):
        members.sort(key=lambda u: u[0].kstar or 0)
        n = len(members)
        for rank, index in enumerate(_bit_reversed_order(n)):
            keyed.append(((rank + 0.5) / n, category, members[index]))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [unit for _, _, unit in keyed]


def flatten(units):
    return [op for unit in units for op in unit]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def execute(op) -> tuple[float, bool, str]:
    """Run one op; return its wall time, whether its outcome is the expected
    one, and its output digest (report stage digests, certificate hash)."""
    for path in (op.report, op.output):
        if path is not None:
            Path(path).unlink(missing_ok=True)
    cli = sys.modules["bwreduce.cli"]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(op.argv)
    elapsed = time.perf_counter() - t0
    ok = code == op.expect_exit
    digest = f"exit={code}"
    if op.report is not None:
        try:
            report = json.loads(Path(op.report).read_bytes())
            stages = [f"{s['step']}:{s['digest']}:{s['verifier']}" for s in report["stages"]]
            verdict = report["verdict"]
        except (OSError, ValueError, KeyError, TypeError):
            return elapsed, False, digest
        ok = ok and verdict == ("pass" if op.expect_exit == 0 else "fail")
        digest += " " + " ".join(stages) + f" {verdict}"
    elif op.output is not None:
        try:
            digest += " " + hashlib.sha256(Path(op.output).read_bytes()).hexdigest()[:16]
        except OSError:
            return elapsed, False, digest
    elif op.argv[0] == "verify":
        ok = ok and sink.getvalue().strip() == "pass"
    return elapsed, ok, digest


class Outputs:
    """Output digests per op key; a key whose digest changes is an error,
    within a run and across the runs of one program version."""

    def __init__(self):
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []

    def record(self, key: str, digest: str) -> None:
        if self.seen.setdefault(key, digest) != digest:
            self.mismatches.append(key)

    def merge(self, known: dict[str, str]) -> None:
        """Check against, then add to, the digests of earlier runs."""
        self.mismatches += [k for k, v in self.seen.items() if known.get(k, v) != v]
        known.update(self.seen)

    def fingerprint(self) -> str:
        lines = sorted(f"{k} {v}" for k, v in self.seen.items())
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# cross-run state: digests and counters of one version of program and benchmark
# ---------------------------------------------------------------------------


def _source_hash() -> str:
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "bwreduce").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def load_state() -> dict:
    """Digests and counters recorded by earlier runs of these sources."""
    source = _source_hash()
    try:
        state = json.loads(STATE.read_text())
    except (OSError, ValueError):
        state = {}
    if state.get("source") != source:
        state = {"source": source, "digests": {}, "counters": {}}
    return state


def save_state(state: dict) -> None:
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, STATE)


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _tail(samples: list[float]) -> tuple[int, float, int]:
    """Position in ``samples`` of the value at the highest percentile with
    TAIL_BEYOND samples beyond it, that percentile, and the number of
    samples beyond it (fewer when there are not enough samples)."""
    order = sorted(range(len(samples)), key=samples.__getitem__)
    rank = max(0, len(order) - TAIL_BEYOND - 1)
    return order[rank], 100.0 * (rank + 1) / len(order), len(order) - rank - 1


def measure(ops, seconds: float, outputs: Outputs, meter: speed.Speedometer):
    """Closed loop over the scheduled ops until ``seconds`` have passed and
    at least one pass is complete, with calibration samples between ops.

    Returns each scheduled op's wall times and the same times scaled to the
    reference speed, one list per op in schedule order, and the failed op
    keys.
    """
    raw: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    failed_keys, spans = [], []
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(ops) or time.perf_counter() < deadline:
        if meter.due():
            meter.sample()
        i = done % len(ops)
        start = time.perf_counter()
        elapsed, ok, digest = execute(ops[i])
        spans.append((i, start, time.perf_counter(), elapsed))
        if not ok:
            failed_keys.append(ops[i].key)
        outputs.record(ops[i].key, digest)
        done += 1
    meter.sample()  # the last op's scale needs a sample after it
    for i, start, end, elapsed in spans:
        raw[i].append(elapsed)
        scaled[i].append(elapsed * meter.scale(start, end))
    return raw, scaled, failed_keys


def _op_metrics(per_op: list[list[float]], passes: int):
    """Throughput, median and tail of one set of per-op times, and where the
    tail is: the op's schedule position, the percentile and the samples
    beyond it.

    All three come from each op's median over its repeats, so every op of
    the schedule weighs the same however far the last pass got.  The tail is
    taken over the samples of the ``passes`` complete passes, each one read
    as its op's median: it picks out the slow ops of the mix, not the
    repeats of an op on which the machine happened to be slow, which an
    extreme sample would do even after scaling.
    """
    medians = [statistics.median(times) for times in per_op]
    sample = [m for m in medians for _ in range(passes)]
    index, percentile, beyond = _tail(sample)
    metrics = {
        "ops_per_s": len(per_op) / sum(medians),
        "op_p50_ms": 1000 * statistics.median(medians),
        "op_tail_ms": 1000 * sample[index],
    }
    return metrics, (index // passes, percentile, beyond)


def run_plain(args, units, details, meter: speed.Speedometer) -> dict:
    ops = flatten(schedule(units))
    outputs = Outputs()
    raw, scaled, failed_keys = measure(ops, args.seconds, outputs, meter)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = min(len(times) for times in raw)
    at_ref, (tail, percentile, beyond) = _op_metrics(scaled, passes)
    unscaled, _ = _op_metrics(raw, passes)
    unscaled["setup_s"] = statistics.median(details["setup_samples_s"])
    tail_op = ops[tail]
    n = sum(len(times) for times in raw)
    state = load_state()
    outputs.merge(state["digests"])
    save_state(state)
    details.update(
        ops_per_pass=len(ops),
        passes=n / len(ops),
        failed_ops=sorted(set(failed_keys)),
        op_samples=n,
        op_tail_percentile=percentile,
        op_tail_samples_beyond=beyond,
        op_tail_op=tail_op.key,
        op_tail_kstar=tail_op.kstar,
        fingerprint=outputs.fingerprint(),
        fingerprint_ops=len(outputs.seen),
        output_mismatches=outputs.mismatches,
        calibration=meter.summary(),
        unscaled=unscaled,
    )
    metrics = {
        "setup_s": (statistics.median(details["setup_scaled_s"]), "s"),
        "ops_per_s": (at_ref["ops_per_s"], "ops/s"),
        "op_p50_ms": (at_ref["op_p50_ms"], "ms"),
        "op_tail_ms": (at_ref["op_tail_ms"], "ms"),
        "ok_ratio": ((n - len(failed_keys)) / n, "ratio"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    correct = not failed_keys and not outputs.mismatches
    return {"correct": correct, "attempted": n, "failed": len(failed_keys), "metrics": metrics}


def run_traced(args, units, details) -> dict:
    ops = flatten(schedule(units)[:TRACE_UNITS])
    outputs = Outputs()
    failed = 0
    passes = []
    tracer = layers.Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            for op in ops:
                _, ok, digest = execute(op)
                failed += not ok
                outputs.record(op.key, digest)
            passes.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    values = tracer.metrics()
    counters = {name: values[name] for name in layers.COUNTERS}
    run_key = f"{args.workload}/{args.seed}"
    state = load_state()
    previous = state["counters"].get(run_key)
    repeat_ok = previous is None or previous == counters
    state["counters"][run_key] = counters
    outputs.merge(state["digests"])
    save_state(state)
    total_self = sum(st.self_s for st in tracer.stats.values())
    details.update(
        traced_ops=len(ops),
        absent_layers=tracer.absent,
        counters_repeat=None if previous is None else repeat_ok,
        self_time_share={
            g: round(st.self_s / total_self, 4)
            for g, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
            if st.self_s and total_self
        },
        fingerprint=outputs.fingerprint(),
        output_mismatches=outputs.mismatches,
        time_waited="none: no layer has a queue or a second thread",
    )
    metrics = {name: (0 if values[name] is None else values[name], unit)
               for name, unit in layers.METRICS.items()}
    metrics["trace.untraced_s"] = (passes[0], "s")
    metrics["trace.traced_s"] = (passes[1], "s")
    metrics["trace.overhead_s"] = (passes[1] - passes[0], "s")
    correct = failed == 0 and not outputs.mismatches and repeat_ok
    return {"correct": correct, "attempted": 2 * len(ops), "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": _git_commit(),
    }
    meter = speed.Speedometer()
    try:
        units, setup_times, setup_scaled, files_repeat = set_up(
            args.workload, args.seed, SETUP_REPEATS if args.trace == 0 else 1, meter)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    details.update(source=_source_hash(), setup_samples_s=setup_times,
                   setup_scaled_s=setup_scaled, instance_files_repeat=files_repeat)
    try:
        if args.trace:
            result = run_traced(args, units, details)
        else:
            result = run_plain(args, units, details, meter)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-{args.seed}", ignore_errors=True)
    result["correct"] = result["correct"] and files_repeat

    details["loadavg_end"] = os.getloadavg()
    print(json.dumps({"details": details}, sort_keys=True))
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
