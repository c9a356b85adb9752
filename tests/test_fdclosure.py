import random

import pytest

from catnorm import (
    FD,
    Arrow,
    CategoryGraph,
    ObjectDecl,
    SchemaError,
    fd,
    fd_closure_graph,
    graph_to_fds,
)
from catnorm.core import FDIndex
from catnorm.fdclosure import _left_reduced
from closure import attribute_closure
from equivalence import covers, equivalent, is_redundant_arrow
from genschema import random_fd_schema


def brute_force_closure(seed, fds):
    # single-rule firing until stable; independent oracle
    closure = set(seed)
    while True:
        for f in fds:
            if f.lhs <= closure and not f.rhs <= closure:
                closure |= f.rhs
                break
        else:
            return frozenset(closure)


def test_attribute_closure_fig5(fig5):
    graph, deps = fig5
    fds = graph_to_fds(graph) + deps.fds
    assert attribute_closure({"D"}, fds) >= {"D", "E", "A", "B", "C"}


def test_attribute_closure_reflexive():
    assert attribute_closure({"A"}, ()) == {"A"}


def test_attribute_closure_cycle():
    fds = (fd("A", "B"), fd("B", "C"), fd("C", "A"))
    assert attribute_closure({"A"}, fds) == {"A", "B", "C"}


def test_attribute_closure_empty_seed_rejected():
    with pytest.raises(SchemaError):
        attribute_closure(set(), ())


def test_attribute_closure_matches_brute_force(fig5):
    graph, deps = fig5
    fds = graph_to_fds(graph) + deps.fds
    for name in graph.object_map:
        assert attribute_closure({name}, fds) == \
            brute_force_closure({name}, fds)


def test_fd_closure_fig5(fig5):
    graph, deps = fig5
    closed = fd_closure_graph(graph, deps.fds)
    added = closed.arrow_pairs() - graph.arrow_pairs()
    assert added == {("D", "B"), ("D", "C"), ("B", "C"), ("A", "C")} - \
        graph.arrow_pairs()
    assert added == {("D", "B"), ("D", "C"), ("B", "C")}


def test_fd_closure_pure_composition():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute"),
                 ObjectDecl("C", "attribute")),
        arrows=(Arrow("f", "A", "B"), Arrow("g", "B", "C")))
    closed = fd_closure_graph(graph, ())
    assert closed.arrow_pairs() - graph.arrow_pairs() == {("A", "C")}


def test_fd_closure_bidirectional_pair():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute"),
                 ObjectDecl("C", "attribute")),
        arrows=(Arrow("f", "A", "B"), Arrow("g", "A", "C")))
    closed = fd_closure_graph(graph, (fd("B", "C"), fd("C", "B")))
    assert {("B", "C"), ("C", "B")} <= closed.arrow_pairs()


def test_fd_closure_materializes_composite_lhs():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute"),
                 ObjectDecl("C", "attribute")))
    provenance = []
    closed = fd_closure_graph(graph, (fd("AB", "C"),), provenance)
    assert closed.has_object("A_B")
    assert closed.projection_targets("A_B") == {"A", "B"}
    assert ("A_B", "C") in closed.arrow_pairs()
    assert any(p.get("rule") == "materialize-composite-lhs"
               for p in provenance)


def test_fd_closure_composite_ignores_a_namesake():
    # a user relationship named like the composite of {x, y} but projecting
    # to x only does not stand for {x, y}
    graph = CategoryGraph(
        objects=(ObjectDecl("x_y", "relationship"),
                 ObjectDecl("x", "attribute"), ObjectDecl("y", "attribute"),
                 ObjectDecl("z", "attribute")),
        arrows=(Arrow("p", "x_y", "x", is_projection=True),))
    closed = fd_closure_graph(graph, (fd("xy", "z"),))
    assert "z" not in attribute_closure({"x"}, graph_to_fds(closed))
    assert closed.projection_targets("x_y_") == {"x", "y"}
    assert ("x_y_", "z") in closed.arrow_pairs()


def test_fd_closure_composite_names_collide_within_one_call():
    # {a, b_c} and {a_b, c} both join to the name a_b_c; the composite
    # made second gets "_", as does one that meets a user object
    graph = CategoryGraph(objects=tuple(
        ObjectDecl(n, "attribute") for n in ("a", "b_c", "a_b", "c", "z")))
    provenance = []
    closed = fd_closure_graph(
        graph, (fd(["a_b", "c"], ["z"]), fd(["a", "b_c"], ["z"])), provenance)
    assert closed.projection_targets("a_b_c") == {"a", "b_c"}
    assert closed.projection_targets("a_b_c_") == {"a_b", "c"}
    assert {("a_b_c", "z"), ("a_b_c_", "z")} <= closed.arrow_pairs()
    assert [p["object"] for p in provenance
            if p["rule"] == "materialize-composite-lhs"] == ["a_b_c", "a_b_c_"]


def test_fd_closure_idempotent(fig5):
    graph, deps = fig5
    once = fd_closure_graph(graph, deps.fds)
    twice = fd_closure_graph(once, deps.fds)
    assert once.arrow_pairs() == twice.arrow_pairs()


def test_fd_closure_thin(fig5):
    graph, deps = fig5
    closed = fd_closure_graph(graph, deps.fds)
    assert len(closed.arrows) == len(closed.arrow_pairs())


def test_covers_and_equivalent(fig5):
    graph, deps = fig5
    closed = fd_closure_graph(graph, deps.fds)
    from catnorm import first_reduced
    reduced, _ = first_reduced(graph, deps.fds)
    assert covers(reduced, closed, deps.fds)
    assert covers(closed, reduced, deps.fds)
    assert equivalent(reduced, closed, deps.fds)
    assert covers(graph, graph, deps.fds)


def test_covers_false_on_unreachable():
    a, b, c = (ObjectDecl("A", "entity"), ObjectDecl("B", "attribute"),
               ObjectDecl("C", "attribute"))
    g1 = CategoryGraph(objects=(a, b, c), arrows=(Arrow("f", "A", "B"),))
    g2 = CategoryGraph(objects=(a, b, c),
                       arrows=(Arrow("f", "A", "B"), Arrow("g", "A", "C")))
    assert not covers(g1, g2)


def test_is_redundant_arrow(fig5):
    graph, deps = fig5
    closed = fd_closure_graph(graph, deps.fds)
    by_pair = {a.pair: a for a in closed.arrows}
    assert is_redundant_arrow(by_pair[("D", "B")], closed, deps.fds)
    assert not is_redundant_arrow(by_pair[("A", "B")], closed, deps.fds)


def test_is_redundant_arrow_sole_arrow():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute")),
        arrows=(Arrow("f", "A", "B"),))
    assert not is_redundant_arrow(graph.arrows[0], graph)


def test_is_redundant_arrow_unknown():
    graph = CategoryGraph(objects=(ObjectDecl("A", "entity"),
                                   ObjectDecl("B", "attribute")))
    with pytest.raises(SchemaError):
        is_redundant_arrow(Arrow("f", "A", "B"), graph)


def test_left_reduced_lhs_rides_on_no_member():
    """No member y of a left-reduced LHS S with two or more members has S
    in cl(y).  Every other member would have been dropped at its turn: the
    rest still held y, and cl(y) holds the RHS.  So a declared composite
    never rides on one of its members."""
    checked = 0
    for seed in range(2000):
        rng = random.Random(seed)
        graph, deps = random_fd_schema(rng)
        names = [o.name for o in graph.objects]
        extra = tuple(FD(frozenset(rng.sample(names, min(len(names), k))),
                         frozenset([rng.choice(names)]))
                      for k in (2, 3, 4))
        fds = deps.fds + extra
        index = FDIndex(graph_to_fds(graph) + fds)
        for f in fds:
            lhs = _left_reduced(f, index).lhs
            if len(lhs) > 1:
                checked += 1
                assert not any(lhs <= index.closure({y}) for y in lhs), seed
    assert checked > 300
