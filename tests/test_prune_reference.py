"""The 1RR prune pass against a reference copy of the rebuild-per-candidate
rule.

The reference tests a candidate arrow the plain way: it rebuilds the graph
without the arrow, reads the FDs off the rest, adds the declared FDs and
closes from scratch.  Along one pass, every verdict of the library must
agree with the reference's on the same graph, and the pass must return the
graph the reference's verdicts give.  Beyond the random schemas the inputs
cover key FDs, long derivation chains and materialized composites.

The prune-then-close loop is checked against a reference copy too: the
loop that ran until two passes in a row gave the same arrows, projections
and objects.  The 2RR's reference is `second_reduced` as it was, which ran
that loop from the graph object elimination left.  Both reductions must
give the same objects, arrows (in order), MVD-object marks and trace as
their references.
"""

import random
from collections import deque

import pytest

from catnorm import (
    FD,
    Arrow,
    CategoryGraph,
    DependencySet,
    MVD,
    ObjectDecl,
    SchemaError,
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    graph_to_fds,
    second_reduced,
)
from catnorm import reduce
from catnorm.core import GraphIndex
from catnorm.fdclosure import RedundancyIndex, derivable_without

from closure import attribute_closure
from genschema import (
    chain_schema,
    cluster_schema,
    composite_schema,
    contexts_schema,
    random_fd_schema,
    random_mvd_schema,
)


def ref_derivable_without(graph, arrow, fds):
    rest = graph.without_arrow(arrow)
    deps = list(graph_to_fds(rest)) + [
        f for f in fds
        if not (f.lhs == frozenset({arrow.source}) and arrow.target in f.rhs)]
    return arrow.target in attribute_closure({arrow.source}, deps)


def ref_key_prunable(graph, arrow, fds):
    if graph.object_map[arrow.source].kind != "relationship":
        return False
    rest = graph.without_arrow(arrow)
    base = rest.projection_targets(arrow.source)
    if not base:
        return False
    deps = [FD(frozenset([a.source]), frozenset([a.target]))
            for a in rest.arrows]
    for o in rest.objects:
        if o.kind != "relationship":
            continue
        pi = rest.projection_targets(o.name)
        if not pi:
            continue
        deps.append(FD(frozenset([o.name]), pi))
        if o.name != arrow.source:
            deps.append(FD(pi, frozenset([o.name])))
    deps.extend(fds)
    return arrow.target in attribute_closure(base, deps)


def ref_pass(graph, fds):
    """(arrow, removable) per candidate of one pass, and the pass's result."""
    verdicts = []
    for arrow in reduce._removal_order(graph):
        if arrow not in graph.arrows:
            continue
        if arrow.is_projection:
            removable = ref_key_prunable(graph, arrow, fds)
        else:
            removable = ref_derivable_without(graph, arrow, fds) \
                or ref_key_prunable(graph, arrow, fds)
        verdicts.append((arrow, removable))
        if removable:
            graph = graph.without_arrow(arrow)
    return verdicts, graph


def library_verdicts(graph, fds):
    """(arrow, removable) per candidate, asked of one index in the order
    and with the in-place removals of one pass."""
    index = RedundancyIndex(graph, fds)
    verdicts = []
    for arrow in reduce._removal_order(graph):
        if arrow in index.arrow_ids:
            if arrow.is_projection:
                removable = reduce._key_prunable(index, arrow)
            else:
                removable = derivable_without(index, arrow) \
                    or reduce._key_prunable(index, arrow)
            verdicts.append((arrow, removable))
            if removable:
                index.remove(arrow)
    return verdicts


def non_thin():
    """Equal arrows and a differently named arrow on one pair."""
    objects = (ObjectDecl("R", "relationship"), ObjectDecl("A", "attribute"),
               ObjectDecl("B", "attribute"), ObjectDecl("C", "attribute"))
    arrows = (Arrow("p", "R", "A", True), Arrow("p", "R", "A", True),
              Arrow("q", "R", "B", True), Arrow("f", "A", "B"),
              Arrow("h", "A", "B"), Arrow("g", "A", "C"), Arrow("g", "A", "C"))
    return CategoryGraph(objects=objects, arrows=arrows), ()


def random_fd_cases():
    for seed in range(300):
        graph, deps = random_fd_schema(random.Random(seed))
        yield f"seed {seed}", fd_closure_graph(graph, deps.fds), deps.fds


def random_mvd_cases():
    for seed in range(100):
        graph, deps = random_mvd_schema(random.Random(seed))
        yield f"seed {seed}", \
            fd_mvd_closure_graph(graph, deps.fds, deps.mvds), deps.fds


def sized_cases(schema, sizes):
    def cases():
        for m in sizes:
            graph, deps = schema(m)
            yield f"size {m}", fd_closure_graph(graph, deps.fds), deps.fds
    return cases


SIZES = {
    "cluster": (cluster_schema, range(10, 85, 10)),
    "chain": (chain_schema, range(12, 21, 2)),
    "composite": (composite_schema, (1, 2, 4)),
}

FAMILIES = {
    "random_fd": random_fd_cases,
    "random_mvd": random_mvd_cases,
    **{family: sized_cases(*sizes) for family, sizes in SIZES.items()},
}


def test_cases_carry_keys_and_composites():
    graphs = [g for cases in FAMILIES.values() for _, g, _ in cases()]
    assert sum(any(len(f.lhs) > 1 for f in graph_to_fds(g))
               for g in graphs) > 50
    assert any("x0_y0" in g.object_map for g in graphs)


@pytest.mark.parametrize("family", FAMILIES)
def test_pass_verdicts_match_reference(family):
    for name, graph, fds in FAMILIES[family]():
        expected, pruned = ref_pass(graph, fds)
        assert library_verdicts(graph, fds) == expected, name
        assert reduce._prune_redundant_arrows(graph, fds) == pruned, name


def test_non_thin_graph_is_rejected():
    graph, fds = non_thin()
    with pytest.raises(SchemaError, match="not thin"):
        RedundancyIndex(graph, fds)
    with pytest.raises(SchemaError, match="not thin"):
        first_reduced(graph, fds)
    with pytest.raises(SchemaError, match="not thin"):
        second_reduced(graph, fds, ())


def ref_derivation_path(successors, source, target):
    """The removal's justification as it was found: one breadth-first
    search per removed arrow, carrying each path along."""
    frontier = deque([(source, [source])])
    seen = {source}
    while frontier:
        node, path = frontier.popleft()
        for t in successors.get(node, ()):
            if t in seen:
                continue
            if t == target:
                return " -> ".join(path + [target])
            seen.add(t)
            frontier.append((t, path + [t]))
    return "via relationship key dependencies"


def ref_removed_arrows(baseline, final):
    kept = final.arrow_pairs()
    successors = {}
    for source, target in sorted(kept):
        successors.setdefault(source, []).append(target)
    return [(arrow, ref_derivation_path(successors, arrow.source,
                                        arrow.target))
            for arrow in sorted(baseline.arrows, key=lambda a: a.pair)
            if arrow.pair not in kept]


def test_removal_paths_match_reference():
    """One search per source justifies each removed arrow by the path the
    per-arrow search found."""
    lengths = []
    for family in FAMILIES.values():
        for name, closed, fds in family():
            pruned = reduce._prune_redundant_arrows(closed, fds)
            trace = reduce.ReductionTrace()
            reduce._record_removed(closed, pruned, trace)
            assert trace.removed_arrows == ref_removed_arrows(closed, pruned), \
                name
            lengths += [why.count(" -> ") for _, why in trace.removed_arrows]
    # paths of several arrows, and removals no path justifies
    assert max(lengths) >= 3 and lengths.count(0) > 0


def ref_prune_to_fixpoint(graph, close_fn, fds):
    """The loop that stops only when two passes in a row agree."""
    prev = None
    for _ in range(64):
        pruned = reduce._prune_redundant_arrows(graph, fds)
        state = (pruned.arrow_pairs(),
                 frozenset(a.pair for a in pruned.arrows if a.is_projection),
                 frozenset(o.name for o in pruned.objects))
        if state == prev:
            return pruned
        prev = state
        graph = close_fn(pruned)
    raise SchemaError("arrow pruning did not reach a fixpoint")


def ref_second_reduced(graph, fds, mvds):
    """`second_reduced` as it was: the loop's first pass runs on the graph
    object elimination leaves, which need not be closed."""
    trace = reduce.ReductionTrace()
    fds, mvds = tuple(fds), tuple(mvds)
    closed = fd_mvd_closure_graph(graph, fds, mvds)
    stripped = reduce._remove_objects(GraphIndex(closed), fds, mvds, trace)
    reduced = reduce._prune_to_fixpoint(
        stripped, lambda g: fd_mvd_closure_graph(g, fds, mvds), fds)
    reduce._record_removed(stripped, reduced, trace)
    return reduced, trace


def stripped_composite_cases():
    """Objects the 2RR eliminates that stood for a declared composite LHS:
    a derivable limit object and a split MVD object.  The elimination
    leaves the graph without a representative of the LHS, so the graph the
    loop first prunes is not closed; closing it again materializes the
    composite."""
    fd = lambda lhs, rhs: FD(frozenset(lhs), frozenset(rhs))
    attrs = lambda *names: tuple(ObjectDecl(n, "attribute") for n in names)
    proj = lambda *names: tuple(Arrow(f"p_{n}", "R", n, True) for n in names)
    yield ("limit object for {a, b}",
           CategoryGraph(objects=(ObjectDecl("R", "relationship", True),)
                         + attrs("a", "b", "z"), arrows=proj("a", "b")),
           DependencySet(fds=(fd("ab", "z"), fd("a", "z"))))
    yield ("MVD object for {a, b, c}",
           CategoryGraph(objects=(ObjectDecl("R", "relationship"),)
                         + attrs("a", "b", "c", "z"),
                         arrows=proj("a", "b", "c")),
           DependencySet(fds=(fd("abc", "z"), fd("a", "z")),
                         mvds=(MVD(frozenset("a"), frozenset("b"), "R"),)))


def reduction_cases():
    """(name, reduce function, its reference, graph, declared
    dependencies); a reference runs under the reference loop."""
    first = (lambda g, deps: first_reduced(g, deps.fds),) * 2
    second = (lambda g, deps: second_reduced(g, deps.fds, deps.mvds),
              lambda g, deps: ref_second_reduced(g, deps.fds, deps.mvds))
    for seed in range(1000):
        yield (f"fd seed {seed}", *first,
               *random_fd_schema(random.Random(seed)))
    for seed in range(500):
        yield (f"mvd seed {seed}", *second,
               *random_mvd_schema(random.Random(seed)))
    for k in range(1, 13):
        for seed in range(6):
            yield (f"contexts k={k} seed {seed}", *second,
                   *contexts_schema(k, random.Random(seed)))
    for name, graph, deps in stripped_composite_cases():
        yield name, *second, graph, deps
    for family, (schema, sizes) in SIZES.items():
        for m in sizes:
            yield f"{family} size {m}", *first, *schema(m)


def outcome(reduce_fn, graph, deps):
    try:
        reduced, trace = reduce_fn(graph, deps)
    except SchemaError as e:
        return str(e)
    return (reduced.objects, reduced.arrows, reduced.mvd_objects,
            trace.to_json())


def test_fixpoint_matches_reference(monkeypatch):
    passes = []

    def counted_reference(graph, close_fn, fds):
        closures = []

        def close(g):
            closures.append(g)
            return close_fn(g)

        result = ref_prune_to_fixpoint(graph, close, fds)
        passes.append(len(closures) + 1)
        return result

    for name, reduce_fn, reference_fn, graph, deps in reduction_cases():
        got = outcome(reduce_fn, graph, deps)
        monkeypatch.setattr(reduce, "_prune_to_fixpoint", counted_reference)
        expected = outcome(reference_fn, graph, deps)
        monkeypatch.undo()
        assert got == expected, name
    # the sample holds reductions that pruned a projection and went round
    # again before the reference's two agreeing passes
    assert sum(n >= 3 for n in passes) > 100
