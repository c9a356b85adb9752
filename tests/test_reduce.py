import random

import pytest

from catnorm import (
    Arrow,
    CategoryGraph,
    ObjectDecl,
    SchemaError,
    decompose_mvd_object,
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    is_derivable,
    mvd,
    second_reduced,
)
from catnorm import reduce
from catnorm.core import GraphIndex
from equivalence import equivalent, is_redundant_arrow
from genschema import contexts_schema, random_fd_schema


def test_first_reduced_fig5(fig5):
    graph, deps = fig5
    reduced, trace = first_reduced(graph, deps.fds)
    assert reduced.arrow_pairs() == {("D", "E"), ("D", "A"),
                                     ("A", "B"), ("B", "C")}
    removed = {a.pair for a, _ in trace.removed_arrows}
    assert removed == {("D", "B"), ("D", "C"), ("A", "C")}


def test_first_reduced_fixpoint_on_minimal_graph():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute")),
        arrows=(Arrow("f", "A", "B"),))
    reduced, trace = first_reduced(graph, ())
    assert reduced.arrow_pairs() == graph.arrow_pairs()
    assert not trace.removed_arrows


def test_first_reduced_transitive_arrow():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute"),
                 ObjectDecl("C", "attribute")),
        arrows=(Arrow("f", "A", "B"), Arrow("g", "B", "C"),
                Arrow("h", "A", "C")))
    reduced, trace = first_reduced(graph, ())
    assert reduced.arrow_pairs() == {("A", "B"), ("B", "C")}
    assert equivalent(reduced, fd_closure_graph(graph, ()))


def test_first_reduced_no_redundancy_left(fig5):
    graph, deps = fig5
    reduced, _ = first_reduced(graph, deps.fds)
    for arrow in reduced.arrows:
        assert not is_redundant_arrow(arrow, reduced)


def test_is_derivable_fig6(fig6):
    graph, deps = fig6
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    assert is_derivable("X", closed)
    assert not is_derivable("A", closed)


def test_is_derivable_blocked_by_incoming():
    graph = CategoryGraph(
        objects=(ObjectDecl("L", "relationship", is_limit=True),
                 ObjectDecl("A", "attribute"), ObjectDecl("E", "entity")),
        arrows=(Arrow("p", "L", "A", is_projection=True),
                Arrow("f", "E", "L")))
    assert not is_derivable("L", graph)


def test_is_derivable_unknown_object():
    with pytest.raises(SchemaError):
        is_derivable("Z", CategoryGraph())


def test_decompose_mvd_object_fig6(fig6):
    graph, deps = fig6
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    split, names = decompose_mvd_object(closed, "X", mvd("A", "B", "X"))
    assert names == ("X1", "X2")
    assert split.projection_targets("X1") == {"A", "B"}
    assert split.projection_targets("X2") == {"A", "C", "D"}
    assert not split.has_object("X")


def test_decompose_requires_derivable(fig6):
    graph, deps = fig6
    with pytest.raises(SchemaError):
        decompose_mvd_object(graph, "X", mvd("A", "B", "X"))


def test_decompose_rejects_mvd_of_another_context(fig6):
    graph, deps = fig6
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    with pytest.raises(SchemaError, match="does not match 'X'"):
        decompose_mvd_object(closed, "X", mvd("A", "B", "Y"))


def test_decompose_degenerate_split(fig6):
    graph, deps = fig6
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    split, _ = decompose_mvd_object(closed, "X",
                                    mvd("A", ["B", "C", "D"], "X"))
    assert split.projection_targets("X2") == {"A"}


def test_second_reduced_fig6(fig6):
    graph, deps = fig6
    reduced, trace = second_reduced(graph, deps.fds, deps.mvds)
    assert reduced.projection_targets("X1") == {"A", "B"}
    assert reduced.projection_targets("X2") == {"A", "D"}
    assert reduced.arrow_pairs() == {("X1", "A"), ("X1", "B"), ("X2", "A"),
                                     ("X2", "D"), ("A", "C"), ("B", "C")}
    assert [d[0] for d in trace.decomposed_objects] == ["X"]


def test_second_reduced_without_mvds_matches_first(fig5):
    graph, deps = fig5
    one, _ = first_reduced(graph, deps.fds)
    two, _ = second_reduced(graph, deps.fds, ())
    assert one.arrow_pairs() == two.arrow_pairs()
    assert {o.name for o in one.objects} == {o.name for o in two.objects}


def test_second_reduced_removes_derivable_limit():
    # L is a join limit over two independent entities; neither entity
    # determines the other, so L keeps no incoming arrows and goes away
    graph = CategoryGraph(objects=(
        ObjectDecl("L", "relationship", is_limit=True),
        ObjectDecl("E1", "entity"), ObjectDecl("E2", "entity"),
        ObjectDecl("a1", "attribute"), ObjectDecl("a2", "attribute")),
        arrows=(Arrow("p1", "L", "E1", is_projection=True),
                Arrow("p2", "L", "E2", is_projection=True),
                Arrow("k1", "L", "a1"),
                Arrow("f1", "E1", "a1"), Arrow("f2", "E2", "a2")))
    reduced, trace = second_reduced(graph, (), ())
    assert not reduced.has_object("L")
    assert trace.removed_limit_objects == ["L"]
    assert reduced.arrow_pairs() == {("E1", "a1"), ("E2", "a2")}


def test_second_reduced_no_derivable_objects_left(fig6):
    graph, deps = fig6
    reduced, _ = second_reduced(graph, deps.fds, deps.mvds)
    for o in reduced.objects:
        if o.kind == "relationship":
            assert not is_derivable(o.name, reduced)


def test_reduction_idempotent(fig5, fig6):
    g5, d5 = fig5
    once, _ = first_reduced(g5, d5.fds)
    again, _ = first_reduced(once, d5.fds)
    assert once.arrow_pairs() == again.arrow_pairs()
    g6, d6 = fig6
    two, _ = second_reduced(g6, d6.fds, d6.mvds)
    again2, _ = second_reduced(two, d6.fds, d6.mvds)
    assert two.arrow_pairs() == again2.arrow_pairs()
    assert {o.name for o in two.objects} == {o.name for o in again2.objects}


def test_trace_serializes(fig6):
    graph, deps = fig6
    _, trace = second_reduced(graph, deps.fds, deps.mvds)
    events = trace.to_json()
    assert any(e["event"] == "decomposed-object" for e in events)
    assert any(e["event"] == "removed-arrow" for e in events)


def test_remove_objects_builds_one_graph(monkeypatch):
    """The elimination runs on one index and builds the graph once, however
    many objects it splits."""
    graph, deps = contexts_schema(16, random.Random(0))
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    built = []
    post_init = CategoryGraph.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CategoryGraph, "__post_init__", counted)
    trace = reduce.ReductionTrace()
    reduce._remove_objects(GraphIndex(closed), deps.fds, deps.mvds, trace)
    monkeypatch.undo()
    assert len(trace.decomposed_objects) > 10
    assert len(built) <= 1


def test_prune_passes_stay_within_the_bound(monkeypatch):
    """Left-reduced declared left-hand sides bound the 1RR's prune passes
    by P + L + 1: P projection arrows in the closure it starts from, L the
    summed sizes of the declared left-hand sides.  A fresh composite has
    no key-prunable projection, a declared LHS only shrinks, and every
    pass but the last prunes a projection."""
    passes = []
    prune = reduce._prune_redundant_arrows

    def counted(graph, fds):
        passes.append(graph)
        return prune(graph, fds)

    monkeypatch.setattr(reduce, "_prune_redundant_arrows", counted)
    most = 0
    for seed in range(1000):
        graph, deps = random_fd_schema(random.Random(seed))
        closed = fd_closure_graph(graph, deps.fds)
        bound = sum(a.is_projection for a in closed.arrows) \
            + sum(len(f.lhs) for f in deps.fds) + 1
        passes.clear()
        first_reduced(graph, deps.fds)
        assert len(passes) <= bound, seed
        most = max(most, len(passes))
    assert most > 1
