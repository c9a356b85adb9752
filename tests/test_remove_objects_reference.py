"""2RR object elimination against a reference copy of the
rescan-per-split rule.

The reference rebuilds the dependency set from the whole graph after every
split and recomputes the dependency basis of every declared MVD, then
filters the derivable candidates and sorts them.  It keeps its own copies
of the derivability test, the split and the split names, which read only
`graph.objects` and `graph.arrows`, so it shares no graph index with the
library.  The library must remove the same objects in the same order:
equal objects and arrows (in order), equal MVD-object marks and an equal
trace.  Beyond the random schemas the inputs cover contexts schemas of up
to 64 contexts and a corner family.
"""

import random
import re
from dataclasses import replace

from catnorm import (
    FD,
    MVD,
    Arrow,
    CategoryGraph,
    DependencySet,
    ObjectDecl,
    dependency_basis,
    fd_mvd_closure_graph,
)
from catnorm import reduce
from catnorm.core import GraphIndex
from catnorm.reduce import ReductionTrace

from genschema import contexts_schema, random_mvd_schema


def ref_lookups(graph):
    """Per relationship name its projection targets, the arrow pairs and
    the arrow targets, in one pass over the arrows."""
    projections, pairs, targets = {}, set(), set()
    for a in graph.arrows:
        pairs.add((a.source, a.target))
        targets.add(a.target)
        if a.is_projection:
            projections[a.source] = \
                projections.get(a.source, frozenset()) | {a.target}
    return projections, pairs, targets


def ref_projections(graph, name):
    return frozenset(a.target for a in graph.arrows
                     if a.source == name and a.is_projection)


def ref_graph_fds(graph, projections):
    """One FD per arrow, and both key FDs of every relationship object."""
    out = [FD(frozenset([a.source]), frozenset([a.target]))
           for a in graph.arrows]
    for o in graph.objects:
        pi = projections.get(o.name)
        if o.kind == "relationship" and pi:
            out += [FD(frozenset([o.name]), pi), FD(pi, frozenset([o.name]))]
    return tuple(out)


def ref_is_derivable(name, graph, lookups=None):
    projections, pairs, targets = lookups or ref_lookups(graph)
    decl = next(o for o in graph.objects if o.name == name)
    if not (decl.is_limit or name in graph.mvd_objects) or name in targets:
        return False
    pi = projections.get(name, frozenset())
    return all(any((y, a.target) in pairs for y in pi)
               for a in graph.arrows
               if a.source == name and not a.is_projection)


_TRAILING_DIGITS = re.compile(r"\d+$")


def ref_split_names(graph, name):
    """O splits into O1/O2; counters continue across nested decompositions."""
    base = _TRAILING_DIGITS.sub("", name) or name
    used = 0
    for o in graph.objects:
        if o.name.startswith(base):
            m = _TRAILING_DIGITS.search(o.name)
            if m and o.name == base + m.group():
                used = max(used, int(m.group()))
    return f"{base}{used + 1}", f"{base}{used + 2}"


def ref_without_object(graph, name):
    return replace(graph,
                   objects=tuple(o for o in graph.objects if o.name != name),
                   arrows=tuple(a for a in graph.arrows
                                if name not in a.pair),
                   mvd_objects=graph.mvd_objects - {name})


def ref_decompose(graph, m):
    """Split the derivable MVD object m.context along m, one graph per
    step."""
    name = m.context
    assert ref_is_derivable(name, graph)
    pi = ref_projections(graph, name)
    names = ref_split_names(graph, name)
    graph = ref_without_object(graph, name)
    for new_name, members in zip(names, (m.lhs | m.rhs, pi - m.rhs)):
        arrows = tuple(Arrow(name=f"{new_name}__{t}", source=new_name,
                             target=t, is_projection=True)
                       for t in sorted(members))
        graph = replace(graph,
                        objects=graph.objects + (
                            ObjectDecl(name=new_name, kind="relationship"),),
                        arrows=graph.arrows + arrows)
    return graph, names


def ref_recontextualize(mvds, old, graph, names):
    out = []
    for m in mvds:
        if m.context != old:
            out.append(m)
            continue
        for new_name in names:
            if m.lhs | m.rhs <= ref_projections(graph, new_name):
                out.append(MVD(m.lhs, m.rhs, new_name))
    return tuple(out)


def ref_candidates(graph, fds, mvds):
    lookups = ref_lookups(graph)
    projections = lookups[0]
    deps = DependencySet(fds=ref_graph_fds(graph, projections) + tuple(fds),
                         mvds=tuple(mvds))
    names = {o.name for o in graph.objects}
    splits = []
    for m in mvds:
        universe = projections.get(m.context, frozenset())
        if m.context not in names or not m.lhs | m.rhs <= universe:
            continue
        basis = dependency_basis(m.lhs, deps, universe, context=m.context)
        if len(basis.blocks) >= 2:
            splits.append((m, basis))
    graph = replace(graph, mvd_objects=frozenset(m.context
                                                 for m, _ in splits))
    candidates = []
    for m, basis in splits:
        if ref_is_derivable(m.context, graph, lookups):
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
        graph, names = ref_decompose(graph, chosen)
        trace.decomposed_objects.append((chosen.context, chosen, names))
        mvds = ref_recontextualize(mvds, chosen.context, graph, names)
        if on_split is not None:
            on_split(before, graph, mvds)

    lookups = ref_lookups(graph)
    for o in list(graph.objects):
        if o.is_limit and ref_is_derivable(o.name, graph, lookups):
            graph = ref_without_object(graph, o.name)
            lookups = ref_lookups(graph)
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
    got = reduce._remove_objects(GraphIndex(closed), deps.fds, deps.mvds,
                                  trace)
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
