"""2RR object elimination against a reference copy of the
rescan-per-split rule.

The reference rebuilds the dependency set from the whole graph after every
split and recomputes the dependency basis of every declared MVD, then
filters the derivable candidates and sorts them.  The library must remove
the same objects in the same order: equal objects and arrows (in order),
equal MVD-object marks and an equal trace.
"""

import random

from catnorm import (
    MVD,
    DependencySet,
    decompose_mvd_object,
    dependency_basis,
    fd_mvd_closure_graph,
    graph_to_fds,
    identify_mvd_objects,
)
from catnorm import reduce
from catnorm.reduce import ReductionTrace, _recontextualize, is_derivable

from genschema import contexts_schema, random_mvd_schema


def ref_candidates(graph, fds, mvds):
    deps = DependencySet(fds=tuple(graph_to_fds(graph)) + tuple(fds),
                         mvds=tuple(mvds))
    marked = identify_mvd_objects(graph, deps)
    graph = graph.with_mvd_objects(marked)
    candidates = []
    for m in mvds:
        if m.context not in marked or not is_derivable(m.context, graph):
            continue
        universe = graph.projection_targets(m.context)
        basis = dependency_basis(m.lhs, deps, universe, context=m.context)
        if len(basis.blocks) < 2:
            continue
        block = min(basis.blocks, key=lambda b: tuple(sorted(b)))
        candidates.append(MVD(m.lhs, block, m.context))
    candidates.sort(key=lambda c: (c.context, tuple(sorted(c.lhs)),
                                   tuple(sorted(c.rhs))))
    return graph, candidates


def ref_remove_objects(graph, fds, mvds, trace, on_split=None):
    """The reference elimination; `on_split(before, after, mvds)` sees
    every split with the MVDs it leaves."""
    mvds = tuple(mvds)
    while True:
        graph, candidates = ref_candidates(graph, fds, mvds)
        if not candidates:
            break
        chosen = candidates[0]
        before = graph
        graph, names = decompose_mvd_object(graph, chosen.context, chosen)
        trace.decomposed_objects.append((chosen.context, chosen, names))
        mvds = _recontextualize(mvds, chosen.context, graph, names)
        if on_split is not None:
            on_split(before, graph, mvds)

    for o in list(graph.objects):
        if o.is_limit and is_derivable(o.name, graph):
            graph = graph.without_object(o.name)
            trace.removed_limit_objects.append(o.name)
    return graph


def mvd_cases():
    for seed in range(500):
        graph, deps = random_mvd_schema(random.Random(seed))
        yield f"mvd seed {seed}", graph, deps


def context_cases():
    for k in range(1, 13):
        for seed in range(6):
            graph, deps = contexts_schema(k, random.Random(seed))
            yield f"contexts k={k} seed {seed}", graph, deps


def closed_cases():
    for name, graph, deps in (*mvd_cases(), *context_cases()):
        yield name, fd_mvd_closure_graph(graph, deps.fds, deps.mvds), deps


def test_remove_objects_matches_reference():
    decomposed = nested = limits = 0
    for name, closed, deps in closed_cases():
        expected_trace, trace = ReductionTrace(), ReductionTrace()
        expected = ref_remove_objects(closed, deps.fds, deps.mvds,
                                      expected_trace)
        got = reduce._remove_objects(closed, deps.fds, deps.mvds, trace)
        assert got.objects == expected.objects, name
        assert got.arrows == expected.arrows, name
        assert got.mvd_objects == expected.mvd_objects, name
        assert trace.to_json() == expected_trace.to_json(), name

        splits = expected_trace.decomposed_objects
        made = {n for _, _, names in splits for n in names}
        decomposed += len(splits)
        nested += sum(obj in made for obj, _, _ in splits)
        limits += len(expected_trace.removed_limit_objects)
    # the cases split fragments again and remove limit objects
    assert decomposed > 300 and nested > 50 and limits > 50
