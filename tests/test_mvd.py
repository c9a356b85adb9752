import random

import pytest

from catnorm import (
    DependencySet,
    SchemaError,
    dependency_basis,
    fd,
    fd_closure_graph,
    fd_mvd_closure_graph,
    identify_mvd_objects,
    graph_to_fds,
    mvd,
    mvd_membership,
    second_reduced,
    serialize_schema,
)
from catnorm import mvdclosure, reduce
from catnorm.mvdclosure import mixed_closure_of
from genschema import (
    bridged_mvd_schema,
    contexts_schema,
    random_fd_schema,
    random_mvd_schema,
)


def test_basis_complement():
    deps = DependencySet(mvds=(mvd("A", "B", "U"),))
    basis = dependency_basis({"A"}, deps, {"A", "B", "C", "D"})
    assert set(basis.blocks) == {frozenset("B"), frozenset("CD")}


def test_basis_seed_equals_universe():
    basis = dependency_basis({"A", "B"}, DependencySet(), {"A", "B"})
    assert basis.blocks == ()


def test_basis_fd_promotion():
    deps = DependencySet(fds=(fd("A", "B"),))
    basis = dependency_basis({"A"}, deps, {"A", "B", "C"})
    assert set(basis.blocks) == {frozenset("B"), frozenset("C")}


def test_basis_seed_outside_universe():
    with pytest.raises(SchemaError):
        dependency_basis({"Z"}, DependencySet(), {"A"})


def test_membership_complement():
    deps = DependencySet(mvds=(mvd("A", "B", "X"),))
    q = mvd("A", ["C", "D"], "X")
    assert mvd_membership(deps, q, {"A", "B", "C", "D"})


def test_membership_reflexive():
    assert mvd_membership(DependencySet(), mvd("AB", "B", "X"),
                          {"A", "B", "C"})


def test_membership_transitivity():
    deps = DependencySet(mvds=(mvd("A", "B", "X"), mvd("B", "C", "X")))
    assert mvd_membership(deps, mvd("A", "C", "X"), {"A", "B", "C"})


def test_mixed_closure_fd_mvd_rule(fig6):
    graph, deps = fig6
    all_deps = DependencySet(fds=graph_to_fds(graph), mvds=deps.mvds)
    contexts = {"X": graph.projection_targets("X")}
    closure = mixed_closure_of(all_deps, contexts)({"A"})
    assert "C" in closure  # A ->> B and B -> C give A -> C
    assert "B" not in closure and "D" not in closure


def test_fd_mvd_closure_fig6(fig6):
    graph, deps = fig6
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    assert closed.arrow_pairs() - graph.arrow_pairs() == {("A", "C")}
    assert closed.mvd_objects == {"X"}


def test_fd_mvd_closure_degenerates_without_mvds(fig5):
    """Without MVDs both closures serialize the same graph and provenance;
    only the rule name of the inferred arrows differs."""
    cases = [fig5] + [random_fd_schema(random.Random(s)) for s in range(60)]
    rules = set()
    for graph, deps in cases:
        p_fd, p_mixed = [], []
        a = fd_closure_graph(graph, deps.fds, p_fd)
        b = fd_mvd_closure_graph(graph, deps.fds, (), p_mixed)
        rules |= {p["rule"] for p in p_mixed}
        renamed = [dict(p, rule="fd-closure")
                   if p["rule"] == "fd-mvd-closure" else p for p in p_mixed]
        assert serialize_schema(b, deps, renamed) == \
            serialize_schema(a, deps, p_fd)
        assert b.mvd_objects == graph.mvd_objects
    assert rules == {"fd-mvd-closure", "materialize-composite-lhs"}


def test_mvd_object_without_new_fds(fig6):
    graph, _ = fig6
    graph = graph.without_arrow(
        next(a for a in graph.arrows if a.pair == ("B", "C")))
    deps = DependencySet(mvds=(mvd("A", "B", "X"),))
    closed = fd_mvd_closure_graph(graph, (), deps.mvds)
    assert closed.mvd_objects == {"X"}
    assert closed.arrow_pairs() == graph.arrow_pairs()


def test_identify_mvd_objects_requires_nontrivial_split(fig6):
    graph, _ = fig6
    # rhs together with lhs covers pi(X): trivial, so X is not an MVD object
    deps = DependencySet(mvds=(mvd("A", ["B", "C", "D"], "X"),))
    assert identify_mvd_objects(graph, deps) == frozenset()


def test_closure_builds_each_context_part_once(monkeypatch):
    """The FD-determined attributes of each context are found once per
    closure, not once per seed."""
    graph, deps = contexts_schema(16, random.Random(0))
    built = []
    fd_targets = mvdclosure._fd_targets

    def counted(deps, universe, context):
        built.append(context)
        return fd_targets(deps, universe, context)

    monkeypatch.setattr(mvdclosure, "_fd_targets", counted)
    fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    assert sorted(built) == sorted({m.context for m in deps.mvds})


def marking_cases():
    for seed in range(500):
        yield random_mvd_schema(random.Random(seed))
        yield bridged_mvd_schema(random.Random(seed))
    for k in range(1, 13):
        for seed in range(6):
            yield contexts_schema(k, random.Random(seed))


def test_closure_marks_what_the_elimination_starts_from(monkeypatch):
    """One rule on the closed graph decides MVD objects for the closure and
    the 2RR: the closure's new marks are the contexts that the elimination
    starts from, and within the 2RR only the elimination decides."""
    decided, mvd_splits = [], mvdclosure.mvd_splits

    def recorded(graph, deps, mvds):
        found = mvd_splits(graph, deps, mvds)
        decided.append(set(found))
        return found

    def refused(*args):
        raise AssertionError("a 2RR closure decided MVD objects")

    bridged = 0
    for graph, deps in marking_cases():
        provenance: list = []
        fd_mvd_closure_graph(graph, deps.fds, deps.mvds, provenance)
        marked = {p["object"] for p in provenance
                  if p["rule"] == "mvd-object"}
        decided.clear()
        with monkeypatch.context() as patched:
            patched.setattr(reduce, "mvd_splits", recorded)
            patched.setattr(mvdclosure, "mvd_splits", refused)
            second_reduced(graph, deps.fds, deps.mvds)
        assert marked == decided[0]
        # the bridged family's arrows s -> E -> t split R only once closed
        bridged += "E" in graph.object_map and bool(marked)
    assert bridged > 100
