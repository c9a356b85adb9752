"""Dependency-basis inference and the closure of a category graph, under
FDs alone or FDs and MVDs.

The dependency basis of a seed X within a context universe U is the finest
partition of U - X such that X multidetermines every union of blocks.  It
is computed by block refinement; FDs participate through the FD-to-MVD
promotion rule, and FD consequences are read off the singleton blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    MVD,
    CategoryGraph,
    DependencySet,
    FDIndex,
    GraphIndex,
    SchemaError,
    graph_to_fds,
)
from .fdclosure import add_inferred_arrows, materialize_declared


@dataclass(frozen=True)
class DependencyBasis:
    seed: frozenset[str]
    blocks: tuple[frozenset[str], ...]

    def implies(self, rhs) -> bool:
        """X ->> rhs holds iff rhs - X is a union of blocks."""
        residue = frozenset(rhs) - self.seed
        for b in self.blocks:
            if b & residue:
                if not b <= residue:
                    return False
                residue -= b
        return not residue


def dependency_basis(seed, deps: DependencySet, universe,
                     context: str | None = None) -> DependencyBasis:
    """Finest partition of universe - seed multidetermined by the seed.

    Dependencies are relativized first (`DependencySet.relativized`); each
    FD takes part as an MVD (FD-MVD promotion).  Refinement goes in sweeps:
    each W ->> V splits every block disjoint from W that V cuts, until a
    sweep splits nothing.  The basis does not depend on the split order.
    """
    seed = frozenset(seed)
    universe = frozenset(universe)
    if not seed <= universe:
        raise SchemaError("dependency_basis: seed outside the universe")

    local = deps.relativized(universe, context)
    pairs = [(d.lhs, d.rhs) for d in local.fds + local.mvds]

    blocks = [universe - seed] if universe - seed else []
    changed = True
    while changed:
        changed = False
        for w, v in pairs:
            refined = []
            for b in blocks:
                inside = b & v
                if not inside or inside == b or b & w:
                    refined.append(b)
                else:
                    refined += [inside, b - inside]
                    changed = True
            blocks = refined
    blocks.sort(key=lambda b: tuple(sorted(b)))
    return DependencyBasis(seed=seed, blocks=tuple(blocks))


def mvd_membership(deps: DependencySet, query: MVD, universe) -> bool:
    """Does the query MVD follow from deps over the given context universe?"""
    universe = frozenset(universe)
    if not (query.lhs | query.rhs) <= universe:
        raise SchemaError("mvd_membership: query attributes outside universe")
    basis = dependency_basis(query.lhs, deps, universe, context=query.context)
    return basis.implies(query.rhs)


def _fd_targets(deps: DependencySet, universe, context: str) -> frozenset[str]:
    """The attributes some FD inside the context's universe determines."""
    return frozenset(a for f in deps.relativized(universe, context).fds
                     for a in f.rhs)


def mixed_closure_of(deps: DependencySet,
                     contexts: dict[str, frozenset[str]]):
    """FD closure under FDs plus context-bound MVDs, over fixed dependencies
    and contexts, for many seeds: `mixed_closure_of(deps, contexts)(seed)`.

    Alternates the plain FD fixpoint with dependency-basis queries per
    context: a singleton block that is the RHS of some in-context FD is a
    functionally determined attribute (the FD/MVD interaction rule).
    Iterates to mutual stability.

    The per-context parts are built once: the FD-determined attributes of
    each context, and the contexts holding each attribute.  A round visits
    only the contexts the closure meets, in context order, and a closure
    that meets none is final.  The closure is
    the least set that holds the seed and is closed under both rules, and
    both grow with the set, so the order in which contexts are visited
    does not change it.  The plain fixpoint closes on the FDs as given;
    only the per-context parts read the canonical FDs."""
    index = FDIndex(deps.fds)
    derivable = {ctx: _fd_targets(deps, u, ctx) for ctx, u in contexts.items()}
    order = {ctx: i for i, ctx in enumerate(contexts)}
    holding: dict[str, list[str]] = {}
    for ctx, universe in contexts.items():
        for a in universe:
            holding.setdefault(a, []).append(ctx)

    def close(seed) -> set[str]:
        closure = index.closure(seed)
        while met := holding.keys() & closure:
            grown = False
            for ctx in sorted({ctx for a in met for ctx in holding[a]},
                              key=order.__getitem__):
                universe = contexts[ctx]
                basis = dependency_basis(universe.intersection(closure), deps,
                                         universe, context=ctx)
                for b in basis.blocks:
                    if len(b) == 1:
                        (a,) = b
                        if a in derivable[ctx] and a not in closure:
                            closure.add(a)
                            grown = True
            if not grown:
                break
            closure = index.closure(closure)
        return closure
    return close


def mvd_splits(graph: GraphIndex, deps: DependencySet,
               mvds) -> dict[str, MVD]:
    """Per context that one of its own MVDs among `mvds` splits, the first
    split in (lhs, rhs) order: an MVD's LHS and the first block of its
    dependency basis over the context's projection targets, under the FDs
    of `deps`, when the basis has two or more blocks."""
    deps = deps.with_mvds(mvds)
    key = lambda s: (tuple(sorted(s.lhs)), tuple(sorted(s.rhs)))
    splits: dict[str, MVD] = {}
    for m in mvds:
        universe = graph.projection_targets(m.context)
        if m.lhs | m.rhs <= universe:
            blocks = dependency_basis(m.lhs, deps, universe,
                                      context=m.context).blocks
            if len(blocks) >= 2:
                s = MVD(m.lhs, blocks[0], m.context)
                splits[m.context] = min(splits.get(m.context, s), s, key=key)
    return splits


def identify_mvd_objects(graph: GraphIndex,
                         deps: DependencySet) -> frozenset[str]:
    """Relationship objects witnessing a nontrivial inferred MVD.

    O is an MVD object when some inferred X ->>_O Y is nontrivial with
    X u Y strictly inside the projection targets of O.  Seeds are the LHS
    sets of the declared MVDs on O; the dependency basis supplies the
    inferred right-hand sides: any proper block gives such a Y, so O
    qualifies exactly when some declared MVD splits it (`mvd_splits`).
    """
    return frozenset(mvd_splits(graph, deps, deps.mvds))


def _closure_index(graph: CategoryGraph, fds, mvds, rule: str,
                   provenance: list | None = None) -> GraphIndex:
    """The closure driver: composites for the declared FD left-hand sides
    and inferred-FD arrows recorded under `rule`, added in place to one
    `GraphIndex` copy of the graph, which it returns.  It marks no MVD
    object."""
    fds, mvds = tuple(fds), tuple(mvds)
    index = GraphIndex(graph)
    # only FD left-hand sides are materialized; MVD composites stay plain
    # attribute sets for the dependency-basis machinery
    reps, reduced = materialize_declared(index, fds, provenance)
    deps = DependencySet(fds=graph_to_fds(index) + fds, mvds=mvds)
    contexts = {m.context: index.projection_targets(m.context) for m in mvds
                if index.has_object(m.context)}
    add_inferred_arrows(index, reps, [d.lhs for d in deps.fds + mvds],
                        reduced, mixed_closure_of(deps, contexts), rule,
                        provenance)
    return index


def fd_closure_graph(graph: CategoryGraph, fds,
                     provenance: list | None = None) -> CategoryGraph:
    """Relevant closure of a graph under its own arrows plus declared FDs."""
    return _closure_index(graph, fds, (), "fd-closure", provenance).graph()


def fd_mvd_closure_graph(graph: CategoryGraph, fds, mvds,
                         provenance: list | None = None) -> CategoryGraph:
    """Closure under FDs and MVDs: inferred-FD arrows, and marks on the
    contexts that an MVD splits under the closed graph's own dependencies,
    the ones the 2RR's elimination reads."""
    fds, mvds = tuple(fds), tuple(mvds)
    index = _closure_index(graph, fds, mvds, "fd-mvd-closure", provenance)
    marks = mvd_splits(index, DependencySet(fds=graph_to_fds(index) + fds),
                       mvds).keys()
    if provenance is not None:
        for name in sorted(marks - index.mvd_objects):
            provenance.append({"object": name, "rule": "mvd-object"})
    index.mvd_objects.update(marks)
    return index.graph()
