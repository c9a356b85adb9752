"""2RR object elimination against a reference copy of the
rescan-per-split rule.

The reference rebuilds the dependency set from the whole graph after every
split and recomputes the dependency basis of every declared MVD, then
filters the derivable candidates and sorts them.  The library must remove
the same objects in the same order: equal objects and arrows (in order),
equal MVD-object marks and an equal trace.  Beyond the random schemas the
inputs cover contexts schemas of up to 64 contexts and a corner family.
"""

import random

from catnorm import (
    FD,
    MVD,
    Arrow,
    CategoryGraph,
    DependencySet,
    ObjectDecl,
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


def removal_matches_reference(name, closed, deps):
    """Run the library and the reference on a closed graph, assert that
    they agree and return the reference's trace."""
    expected_trace, trace = ReductionTrace(), ReductionTrace()
    expected = ref_remove_objects(closed, deps.fds, deps.mvds, expected_trace)
    got = reduce._remove_objects(closed, deps.fds, deps.mvds, trace)
    assert got.objects == expected.objects, name
    assert got.arrows == expected.arrows, name
    assert got.mvd_objects == expected.mvd_objects, name
    assert trace.to_json() == expected_trace.to_json(), name
    return expected_trace


def test_remove_objects_matches_reference():
    decomposed = nested = limits = 0
    for name, closed, deps in closed_cases():
        expected_trace = removal_matches_reference(name, closed, deps)
        splits = expected_trace.decomposed_objects
        made = {n for _, _, names in splits for n in names}
        decomposed += len(splits)
        nested += sum(obj in made for obj, _, _ in splits)
        limits += len(expected_trace.removed_limit_objects)
    # the cases split fragments again and remove limit objects
    assert decomposed > 300 and nested > 50 and limits > 50


def test_remove_objects_matches_reference_on_larger_contexts():
    decomposed = 0
    for k in (16, 32, 64):
        for seed in range(2):
            graph, deps = contexts_schema(k, random.Random(seed))
            closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
            trace = removal_matches_reference(f"contexts k={k} seed {seed}",
                                              closed, deps)
            decomposed += len(trace.decomposed_objects)
    assert decomposed > 150


def elimination_corners(rng):
    """Two or three MVD contexts over a shared pool, built to reach the
    corners of the elimination.

    - Contexts are named like R1, R12 and S3, and user objects R2, R13,
      S1 and S4 share their base names, so a split's names count past
      names that are taken.
    - Each context declares a0 ->> a1a2, the same MVD in every context,
      and about half also a0 ->> t, so a fragment is split again.
    - The limit object L projects onto a7 and l0.  A context may have an
      arrow into L that factors through its projection target a0.  L
      keeps the arrow from a0, so the split does not make L derivable.
    - A second limit object M may project onto L, before or after L in
      document order: L can then go only when M has gone before it.
    """
    pool = [f"a{i}" for i in range(8)]
    taken = rng.sample(["R2", "R13", "S1", "S4"], rng.randint(1, 3))
    objects = [ObjectDecl(a, "attribute") for a in pool + taken]
    arrows, fds, mvds = [], [], []
    for name in rng.sample(["R1", "R12", "R", "S3", "S"], rng.randint(2, 3)):
        extra = rng.sample(pool[3:] + taken, rng.randint(2, 3))
        roles = pool[:3] + extra
        objects.append(ObjectDecl(name, "relationship"))
        arrows += [Arrow(f"p_{name}_{a}", name, a, is_projection=True)
                   for a in roles]
        mvds.append(MVD(frozenset(["a0"]), frozenset(["a1", "a2"]), name))
        if rng.random() < 0.5:
            mvds.append(MVD(frozenset(["a0"]), frozenset([extra[0]]), name))
        if rng.random() < 0.3:
            arrows.append(Arrow(f"into_L_{name}", name, "L"))
    if any(a.target == "L" for a in arrows):
        arrows.append(Arrow("f_a0_L", "a0", "L"))
    if rng.random() < 0.3:
        fds.append(FD(frozenset(["a3"]), frozenset(["a4"])))
    objects.append(ObjectDecl("l0", "attribute"))
    limits = [ObjectDecl("L", "relationship", is_limit=True)]
    arrows += [Arrow(f"p_L_{a}", "L", a, is_projection=True)
               for a in ("a7", "l0")]
    if rng.random() < 0.5:
        limits.append(ObjectDecl("M", "relationship", is_limit=True))
        arrows += [Arrow("p_M_L", "M", "L", is_projection=True),
                   Arrow("p_M_a6", "M", "a6", is_projection=True)]
        rng.shuffle(limits)
    return (CategoryGraph(objects=tuple(objects + limits),
                          arrows=tuple(arrows)),
            DependencySet(fds=tuple(fds), mvds=tuple(mvds)))


def test_remove_objects_matches_reference_on_corners():
    taken = nested = into_limit = after_limit = shared = 0
    for seed in range(150):
        graph, deps = elimination_corners(random.Random(seed))
        closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
        trace = removal_matches_reference(f"corner seed {seed}", closed,
                                          deps)
        splits = trace.decomposed_objects
        made = {n for _, _, names in splits for n in names}
        users = {o.name for o in graph.objects if o.kind == "attribute"}
        for obj, _, names in splits:
            base = names[0].rstrip("0123456789")
            taken += any(u.rstrip("0123456789") == base
                         and u[len(base):] for u in users)
            nested += obj in made
            into_limit += closed.has_arrow(obj, "L")
        after_limit += any(closed.has_incoming(n)
                           for n in trace.removed_limit_objects)
        split = {obj for obj, _, _ in splits}
        shared += len(split & {m.context for m in deps.mvds}) >= 2
    assert taken > 0 and nested > 0 and into_limit > 0
    assert after_limit > 0 and shared > 0
