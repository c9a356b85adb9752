"""`DependencySet.relativized` against the plain filter, and the invariant
that lets the 2RR keep one FD part across its splits."""

import random
from dataclasses import replace

from catnorm import DependencySet, fd_mvd_closure_graph, graph_to_fds
from catnorm.reduce import ReductionTrace

from genschema import contexts_schema, random_dependency_set, random_mvd_schema
from test_remove_objects_reference import closed_cases, ref_remove_objects


def plain(deps, universe, context=None):
    universe = frozenset(universe)
    return DependencySet(
        fds=tuple(f for f in deps.canonical_fds()
                  if f.lhs | f.rhs <= universe),
        mvds=tuple(m for m in deps.mvds
                   if (context is None or m.context == context)
                   and m.lhs | m.rhs <= universe))


def universes(attrs, rng, n):
    attrs = sorted(attrs)
    for _ in range(n):
        yield frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))


def assert_matches(deps, queries):
    """Each query twice, forward then backward, on the one instance."""
    for universe, context in queries + queries[::-1]:
        got = deps.relativized(universe, context)
        want = plain(deps, universe, context)
        assert got.fds == want.fds and got.mvds == want.mvds


def test_relativized_matches_filter_on_random_sets():
    attrs = "ABCDEF"
    for seed in range(300):
        rng = random.Random(seed)
        deps = random_dependency_set(rng, attrs)
        queries = [(u, c) for u in universes(attrs, rng, 8)
                   for c in (None, "U", "V")]
        assert_matches(deps, queries)


def test_relativized_matches_filter_on_graph_sets():
    cases = [random_mvd_schema(random.Random(s)) for s in range(100)]
    cases += [contexts_schema(k, random.Random(k)) for k in range(1, 9)]
    for seed, (graph, declared) in enumerate(cases):
        rng = random.Random(seed)
        closed = fd_mvd_closure_graph(graph, declared.fds, declared.mvds)
        deps = DependencySet(fds=graph_to_fds(closed) + declared.fds,
                             mvds=declared.mvds)
        contexts = sorted({m.context for m in declared.mvds})
        queries = [(closed.projection_targets(c), c) for c in contexts]
        queries += [(closed.projection_targets(c), None) for c in contexts]
        names = [o.name for o in closed.objects]
        queries += [(u, rng.choice(contexts + [None]))
                    for u in universes(names, rng, 6)]
        assert_matches(deps, queries)


def test_with_mvds_keeps_fds_and_answers_for_new_mvds():
    graph, declared = contexts_schema(6, random.Random(3))
    deps = DependencySet(fds=graph_to_fds(graph) + declared.fds,
                         mvds=declared.mvds)
    contexts = sorted({m.context for m in declared.mvds})
    queries = [(graph.projection_targets(c), c) for c in contexts]
    assert_matches(deps, queries)
    fewer = deps.with_mvds(declared.mvds[1:])
    assert fewer == DependencySet(fds=deps.fds, mvds=declared.mvds[1:])
    assert fewer.canonical_fds() is deps.canonical_fds()
    assert_matches(fewer, queries)
    other = replace(deps, fds=declared.fds)
    assert other.canonical_fds() == DependencySet(
        fds=declared.fds).canonical_fds()


def test_unsplit_contexts_keep_their_fds_along_a_2rr():
    """Along every split, the FDs relativized to the universe of every
    context that was not split stay the same, and every live context's
    equal those read off the closed graph."""
    splits = 0
    for name, closed, declared in closed_cases():
        first = DependencySet(fds=graph_to_fds(closed) + declared.fds)

        def check(before, after, mvds):
            nonlocal splits
            splits += 1
            old = DependencySet(fds=graph_to_fds(before) + declared.fds)
            new = DependencySet(fds=graph_to_fds(after) + declared.fds)
            for ctx in {m.context for m in mvds}:
                universe = after.projection_targets(ctx)
                fds = new.relativized(universe, ctx).fds
                assert fds == first.relativized(universe, ctx).fds, name
                if before.has_object(ctx):
                    assert fds == old.relativized(universe, ctx).fds, name

        ref_remove_objects(closed, declared.fds, declared.mvds,
                           ReductionTrace(), check)
    assert splits > 300
