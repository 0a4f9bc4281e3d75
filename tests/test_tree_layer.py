"""The tree layer against its reference bodies in ``kernel_oracle``.

``reductions.exact_separator`` walks the limit tree once and
``solvers.find_branch`` makes one leftmost depth-first descent; both must
give what the brute-force separator and the ``has_extension``-per-level
search give, errors included, on branch unions, stage lists, the full tree
and derived trees of generated sequences.  ``SigmaTree.has_extension`` is
one descent over ``member_at_stage`` for every form and must agree with the
per-form bodies, and ``core.leftmost_descent`` must ask what the recursive
search asks, in the same order.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from bwreduce import catalog
from bwreduce.certificates import Budget
from bwreduce.core import CantorPoint, leftmost_descent
from bwreduce.instances import (
    BinaryWalkSequence,
    BranchUnionTree,
    ConstantSequence,
    DerivedTree,
    FullBinaryTree,
    HarmonicSequence,
    PeriodicSequence,
    SigmaTree,
    SingleBranchTree,
    StageListTree,
    TableSequence,
    serialize_instance,
)
from bwreduce.reductions import exact_separator
from bwreduce.solvers import find_branch

# --- strategies ------------------------------------------------------------------


def _bits(lo: int, hi: int):
    return st.lists(st.integers(0, 1), min_size=lo, max_size=hi).map(tuple)


unit = st.fractions(min_value=0, max_value=1, max_denominator=16)

branch_unions = st.lists(
    st.builds(CantorPoint.periodic, _bits(0, 4), _bits(1, 4)), min_size=1, max_size=4
).map(BranchUnionTree)


@st.composite
def stage_lists(draw) -> StageListTree:
    """Inclusion-increasing snapshots: each stage adds nodes to the last."""
    nodes: set[tuple[int, ...]] = set()
    entries = []
    for stage in sorted(draw(st.sets(st.integers(0, 40), max_size=4))):
        nodes |= set(draw(st.lists(_bits(1, 12), min_size=1, max_size=3)))
        entries.extend((stage, node) for node in sorted(nodes))
    return StageListTree(entries)


sequences = st.one_of(
    st.builds(
        PeriodicSequence,
        st.lists(unit, max_size=3),
        st.lists(unit, min_size=1, max_size=4),
    ),
    st.builds(BinaryWalkSequence, unit),
    st.builds(TableSequence, st.dictionaries(st.integers(0, 30), unit, max_size=5), unit),
    st.just(HarmonicSequence()),
)

trees = st.one_of(
    st.just(FullBinaryTree()),
    branch_unions,
    stage_lists(),
    sequences.map(DerivedTree),
)

stages = st.one_of(st.just(0), st.integers(0, 200))


def _outcome(fn, *args):
    """The result, or the error's type and message."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)


# --- differential tests ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(trees, st.integers(0, 12))
def test_separator_walk_matches_the_brute_force(tree: SigmaTree, depth: int):
    assert _outcome(exact_separator, tree, depth) == _outcome(
        kernel_oracle.exact_separator, tree, depth
    )


@settings(max_examples=300, deadline=None)
@given(trees, st.integers(0, 12), stages)
def test_branch_descent_matches_the_per_level_search(tree: SigmaTree, depth: int, stage: int):
    budget = Budget(depth=depth, stage=stage)
    assert _outcome(find_branch, tree, budget) == _outcome(
        kernel_oracle.find_branch, tree, budget
    )


@settings(max_examples=300, deadline=None)
@given(trees, _bits(0, 8), st.integers(0, 14), stages)
def test_has_extension_matches_the_per_form_bodies(tree: SigmaTree, bits, length: int, stage: int):
    assert tree.has_extension(bits, length, stage) == kernel_oracle.has_extension(
        tree, bits, length, stage
    )


@st.composite
def descents(draw):
    """(depth, start, ok): ``ok`` passes exactly the drawn nodes, or every
    node but the drawn ones, so searches both fail and backtrack."""
    depth = draw(st.integers(0, 8))
    start = draw(_bits(0, depth))
    nodes = frozenset(draw(st.lists(_bits(1, 8), max_size=40)))
    if draw(st.booleans()):
        return depth, start, nodes.__contains__
    return depth, start, lambda b: b not in nodes


@settings(max_examples=300, deadline=None)
@given(descents())
def test_leftmost_descent_matches_the_recursive_search(case):
    depth, start, ok = case
    logs: tuple[list, list] = ([], [])

    def logged(log):
        return lambda b: log.append(b) or ok(b)

    got = leftmost_descent(depth, logged(logs[0]), start)
    assert got == kernel_oracle.leftmost_descent(depth, logged(logs[1]), start)
    assert logs[0] == logs[1]


def test_has_extension_past_the_recursion_limit():
    """A 1500-level descent keeps its own stack: no ``RecursionError``."""
    assert DerivedTree(ConstantSequence(0)).has_extension((), 1500, 1500)


@settings(max_examples=300, deadline=None)
@given(stage_lists(), _bits(0, 13), st.integers(0, 45))
def test_stage_list_membership_matches_the_snapshot_scan(tree, bits, stage):
    """Bisecting the stages and the sorted snapshot gives what testing every
    node of the latest snapshot gives, for members, non-members, the root and
    stages before, between and past the mentioned ones."""
    assert tree.member_at_stage(bits, stage) == kernel_oracle.stage_list_member(tree, bits, stage)


@settings(max_examples=300, deadline=None)
@given(stage_lists(), _bits(0, 12), st.data())
def test_stage_list_limit_heights_match_the_node_scan(tree: StageListTree, bits, data):
    """Bisecting the last sorted snapshot for the run under each child gives
    the heights that testing every node as an extension gives, at drawn bit
    strings and at prefixes of the limit nodes."""
    limit = tree.nodes[-1] if tree.nodes else []
    if limit and data.draw(st.booleans()):
        node = data.draw(st.sampled_from(limit))
        bits = node[: data.draw(st.integers(0, len(node)))]
    assert tree.limit_heights(bits) == kernel_oracle.limit_heights(tree, bits)


def test_stage_list_membership_with_the_empty_node():
    tree = StageListTree([(3, ()), (5, ()), (5, (1, 0))])
    for stage in range(7):
        for bits in ((), (0,), (1,), (1, 0), (1, 0, 0)):
            assert tree.member_at_stage(bits, stage) == kernel_oracle.stage_list_member(
                tree, bits, stage
            ), (bits, stage)


def test_separator_and_branch_match_the_oracles_on_the_catalog():
    for name, tree in sorted(catalog.TREES.items()):
        for depth in (1, 5, 10):
            assert exact_separator(tree, depth) == kernel_oracle.exact_separator(tree, depth), name
            budget = Budget(depth=depth)
            assert _outcome(find_branch, tree, budget) == _outcome(
                kernel_oracle.find_branch, tree, budget
            ), name


# --- work counters -----------------------------------------------------------------


def test_separator_walk_asks_one_node_per_level_of_a_single_branch(monkeypatch):
    calls = [0]
    limit_heights = BranchUnionTree.limit_heights

    def counted(self, bits):
        calls[0] += 1
        return limit_heights(self, bits)

    monkeypatch.setattr(BranchUnionTree, "limit_heights", counted)
    single = {n: t for n, t in catalog.TREES.items() if isinstance(t, SingleBranchTree)}
    assert len(single) == 4
    for name, tree in sorted(single.items()):
        calls[0] = 0
        exact_separator(tree, 20)
        assert calls[0] == 20, name
        calls[0] = 0
        kernel_oracle.exact_separator(tree, 12)
        assert calls[0] == 2**12 - 1, name


def test_branch_descent_asks_no_more_members_than_the_oracle(monkeypatch):
    calls = [0]
    member_at_stage = DerivedTree.member_at_stage

    def counted(self, bits, stage):
        calls[0] += 1
        return member_at_stage(self, bits, stage)

    monkeypatch.setattr(DerivedTree, "member_at_stage", counted)
    budget = Budget()
    for name, x in sorted(catalog.SEQUENCES.items()):
        calls[0] = 0
        got = find_branch(DerivedTree(x), budget)
        new = calls[0]
        calls[0] = 0
        assert kernel_oracle.find_branch(DerivedTree(x), budget) == got, name
        assert new <= calls[0], (name, new, calls[0])



UNION_CLUSTER_FILE = Path(__file__).parent / "data" / "union_cluster.json"


def test_union_cluster_file_is_the_catalog_tree():
    assert UNION_CLUSTER_FILE.read_bytes() == serialize_instance(catalog.TREES["union-cluster"])
