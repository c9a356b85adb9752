"""The 1RR prune pass against a reference copy of the rebuild-per-candidate
rule.

The reference tests a candidate arrow the plain way: it rebuilds the graph
without the arrow, reads the FDs off the rest, adds the declared FDs and
closes from scratch.  Along one pass, every verdict of the library must
agree with the reference's on the same graph, and the pass must return the
graph the reference's verdicts give.  Beyond the random schemas the inputs
cover key FDs, long derivation chains and materialized composites.
"""

import random

import pytest

from catnorm import (
    FD,
    Arrow,
    CategoryGraph,
    ObjectDecl,
    SchemaError,
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    graph_to_fds,
    second_reduced,
)
from catnorm import reduce
from catnorm.fdclosure import (
    RedundancyIndex,
    attribute_closure,
    derivable_without,
)

from genschema import (
    chain_schema,
    cluster_schema,
    composite_schema,
    random_fd_schema,
    random_mvd_schema,
)


def ref_derivable_without(graph, arrow, fds):
    rest = graph.without_arrow(arrow)
    deps = list(graph_to_fds(rest)) + [
        f for f in fds
        if not (f.lhs == frozenset({arrow.source}) and arrow.target in f.rhs)]
    return arrow.target in attribute_closure({arrow.source}, deps).closure


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
    return arrow.target in attribute_closure(base, deps).closure


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


FAMILIES = {
    "random_fd": random_fd_cases,
    "random_mvd": random_mvd_cases,
    "cluster": sized_cases(cluster_schema, range(10, 85, 10)),
    "chain": sized_cases(chain_schema, range(12, 21, 2)),
    "composite": sized_cases(composite_schema, (1, 2, 4)),
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
