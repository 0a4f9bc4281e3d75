"""Per-layer tracing of ``bwreduce`` from outside the package.

``Tracer.install`` wraps the public functions and methods of each module
(``cli``, ``instances``, ``reductions``, ``solvers``, ``core``,
``certificates``) and rebinds every module-level alias of a wrapped
function, so ``from .core import seq_decode`` in ``instances`` is traced
too.  ``Tracer.uninstall`` puts every original back.  Nothing under the
package's source is changed.

Two kinds of wrapper:

* a *span* records calls and self time: its duration minus the time its
  child spans cover;
* a *counter* records calls only.  Hot, cheap functions (``seq_decode``,
  ``has_extension``, ``minimal_witness``) get counters so that tracing stays
  affordable; their time lands in the self time of the enclosing span.

A target that no longer exists, because a later version inlined or deleted
it, is recorded as absent instead of failing.  No layer has a queue or a
second thread, so there is no time-waited metric.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "bwreduce"

# metric group -> (mode, targets).  A target is "module:attr",
# "module:Class.method" or "module:Class.method+" (that method on the class
# and on every subclass that defines it).
GROUPS: dict[str, tuple[str, tuple[str, ...]]] = {
    "core.seq_decode": ("count", ("core:seq_decode",)),
    "core.seq_code": ("count", ("core:seq_code",)),
    "core.embed_point_exact": ("span", ("core:embed_point_exact",)),
    "core.DyadicInterval.contains": ("count", ("core:DyadicInterval.contains",)),
    "instances.term": ("span", ("instances:RationalSequence.term+",)),
    "instances.family_member": ("span", ("instances:SetFamily.member+",)),
    "instances.tree_witness_count": ("span", ("instances:DerivedTree.witness_count",)),
    "instances.has_extension": ("count", ("instances:SigmaTree.has_extension+",)),
    "instances.valid_codes_below": (
        "span", ("instances:SeparationInstance.valid_codes_below",)),
    "instances.minimal_witness": ("count", ("instances:RulePredicate.minimal_witness",)),
    "instances.parse_instance": ("span", ("instances:parse_instance",)),
    "instances.serialize_instance": ("span", ("instances:serialize_instance",)),
    "reductions.forward": ("span", (
        "reductions:bw_to_swkl", "reductions:swkl_to_separation",
        "reductions:separation_to_bw", "reductions:bwweak_to_stcoh",
        "reductions:stcoh_to_bwweak")),
    "reductions.back": ("span", (
        "reductions:branch_to_point", "reductions:separator_to_branch",
        "reductions:exact_separator")),
    "reductions.h_bit": ("span", ("reductions:h_bit",)),
    "reductions.f_code": ("count", ("reductions:f_code",)),
    "solvers.build_strongly_cohesive": ("span", ("solvers:build_strongly_cohesive",)),
    "solvers.extract_slow_cauchy": ("span", ("solvers:extract_slow_cauchy",)),
    "solvers.find_branch": ("span", ("solvers:find_branch",)),
    "solvers.find_accumulation_cantor": ("span", ("solvers:find_accumulation_cantor",)),
    "solvers.stabilization_bound": ("span", ("solvers:stabilization_bound",)),
    "solvers.find_accumulation_real": ("span", ("solvers:find_accumulation_real",)),
    "solvers.thin_to_fast": ("span", ("solvers:thin_to_fast",)),
    "solvers.verify": ("span", (
        "solvers:verify_cauchy", "solvers:verify_cohesive",
        "solvers:verify_separator", "solvers:verify_branch")),
    "certificates.from_repr": ("span", tuple(
        f"certificates:{cls}.from_repr" for cls in (
            "Selector", "CauchyCertificate", "CohesiveWitness", "BranchPrefix",
            "SeparatorSet", "AccumulationResult"))),
    "cli.main": ("span", ("cli:main",)),
}

# Per-layer metrics and their units; the last part of a name says which
# statistic of its group it reads.
METRICS: dict[str, str] = {
    "core.seq_decode.calls": "count",
    "core.seq_decode.valid_ratio": "ratio",
    "core.seq_code.calls": "count",
    "core.embed_point_exact.calls": "count",
    "core.embed_point_exact.self_s": "s",
    "core.DyadicInterval.contains.calls": "count",
    "instances.term.calls": "count",
    "instances.term.self_s": "s",
    "instances.family_member.calls": "count",
    "instances.family_member.self_s": "s",
    "instances.tree_witness_count.calls": "count",
    "instances.tree_witness_count.self_s": "s",
    "instances.has_extension.calls": "count",
    "instances.valid_codes_below.calls": "count",
    "instances.valid_codes_below.self_s": "s",
    "instances.minimal_witness.calls": "count",
    "instances.parse_instance.self_s": "s",
    "instances.serialize_instance.self_s": "s",
    "instances.serialize_instance.bytes": "bytes",
    "reductions.forward.self_s": "s",
    "reductions.back.self_s": "s",
    "reductions.h_bit.calls": "count",
    "reductions.h_bit.self_s": "s",
    "reductions.f_code.calls": "count",
    "solvers.build_strongly_cohesive.self_s": "s",
    "solvers.build_strongly_cohesive.yield": "ratio",
    "solvers.extract_slow_cauchy.self_s": "s",
    "solvers.find_branch.self_s": "s",
    "solvers.find_accumulation_cantor.self_s": "s",
    "solvers.stabilization_bound.self_s": "s",
    "solvers.find_accumulation_real.self_s": "s",
    "solvers.thin_to_fast.self_s": "s",
    "solvers.verify.calls": "count",
    "solvers.verify.self_s": "s",
    "solvers.budget_errors": "count",
    "certificates.from_repr.calls": "count",
    "certificates.from_repr.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}

# The deterministic work counters: they must repeat exactly across runs of
# one version on one seed.
COUNTERS = tuple(name for name, unit in METRICS.items() if unit in ("count", "bytes"))


def _bytes_written(stat, args, kwargs, result) -> None:
    stat.total += len(result)


def _members_selected(stat, args, kwargs, result) -> None:
    budget = args[2] if len(args) > 2 else kwargs["budget"]
    stat.hits += len(result.selector.values)
    stat.total += budget.horizon  # the indices build_strongly_cohesive scans


# Extra statistics a span reads from its call's arguments and result.
_AFTER = {
    "instances.serialize_instance": _bytes_written,
    "solvers.build_strongly_cohesive": _members_selected,
}


class Stat:
    __slots__ = ("calls", "self_s", "hits", "total")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0  # valid decodes; members selected
        self.total = 0  # indices scanned; bytes written


class Tracer:
    """Installs span and counter wrappers and collects their statistics."""

    def __init__(self):
        self.stats = {group: Stat() for group in GROUPS}
        self.absent: list[str] = []
        self.budget_errors = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, stat: Stat, group: str):
        stack = self._stack
        clock = time.perf_counter
        after = _AFTER.get(group)
        budget_error = self._budget_error_type() if group.startswith("solvers.") else None

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if budget_error is not None and isinstance(e, budget_error):
                    self._count_budget_error(e)
                raise
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        return span

    @staticmethod
    def _count(fn, stat: Stat, group: str):
        if group == "core.seq_decode":

            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                stat.calls += 1
                if result is not None:
                    stat.hits += 1
                return result

        else:

            def counter(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

        return counter

    def _budget_error_type(self):
        errors = sys.modules.get(f"{PACKAGE}.errors")
        return getattr(errors, "BudgetError", None)

    def _count_budget_error(self, e: BaseException) -> None:
        if not getattr(e, "_perfbench_counted", False):  # once, at the innermost span
            e._perfbench_counted = True
            self.budget_errors += 1

    # -- install / uninstall -------------------------------------------------

    def _targets(self, spec: str):
        """Yield (owner, attr, original, is_static) for one target spec."""
        module_name, path = spec.split(":")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return
        if "." not in path:
            fn = getattr(module, path, None)
            if callable(fn):
                yield module, path, fn, False
            return
        cls_name, meth = path.split(".")
        every = meth.endswith("+")
        meth = meth.rstrip("+")
        base = getattr(module, cls_name, None)
        if not isinstance(base, type):
            return
        classes = [base]
        if every:
            todo = list(base.__subclasses__())
            while todo:
                cls = todo.pop()
                classes.append(cls)
                todo.extend(cls.__subclasses__())
        for cls in classes:
            raw = cls.__dict__.get(meth)
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                yield cls, meth, raw.__func__, True
            elif callable(raw):
                yield cls, meth, raw, False

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for group, (mode, specs) in GROUPS.items():
            stat = self.stats[group]
            found = False
            for spec in specs:
                for owner, attr, fn, is_static in list(self._targets(spec)):
                    found = True
                    make = self._span if mode == "span" else self._count
                    wrapper = make(fn, stat, group)
                    self._bind(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                    if isinstance(owner, type):
                        continue
                    for module in modules:  # rebind `from .x import fn` aliases
                        for name, value in list(vars(module).items()):
                            if value is fn and (module, name) != (owner, attr):
                                self._bind(module, name, wrapper)
            if not found:
                self.absent.append(group)

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float | int | None]:
        """Every per-layer metric; None for a metric whose layer is absent."""
        out: dict[str, float | int | None] = {}
        for name in METRICS:
            group, _, field = name.rpartition(".")
            if name == "solvers.budget_errors":
                out[name] = self.budget_errors
                continue
            if group in self.absent:
                out[name] = None
                continue
            st = self.stats[group]
            if field == "calls":
                out[name] = st.calls
            elif field == "self_s":
                out[name] = st.self_s
            elif field == "valid_ratio":
                out[name] = st.hits / st.calls if st.calls else 0.0
            elif field == "yield":
                out[name] = st.hits / st.total if st.total else 0.0
            elif field == "bytes":
                out[name] = st.total
        return out
