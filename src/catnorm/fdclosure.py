"""Attribute closure and the FD closure of a category graph.

The closure algorithm materializes composite left-hand sides of declared
dependencies as relationship-like objects (with projection arrows to the
members) and then inserts one arrow per relevant inferred dependency.
An inferred FD is relevant only when its LHS is an object of the graph or
a declared LHS, and its RHS is an object of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FD,
    Arrow,
    CategoryGraph,
    ObjectDecl,
    SchemaError,
    composite_name,
    graph_to_fds,
)


@dataclass(frozen=True)
class AttributeClosureResult:
    seed: frozenset[str]
    closure: frozenset[str]


def attribute_closure(seed, fds) -> AttributeClosureResult:
    """Least fixpoint of `add rhs whenever lhs is contained`.

    Linear-time counter scheme: each FD keeps a count of still-missing LHS
    members; an attribute entering the closure decrements the counts of the
    FDs listing it.
    """
    seed = frozenset(seed)
    if not seed:
        raise SchemaError("attribute_closure: empty seed")
    fds = list(fds)
    missing = [len(f.lhs) for f in fds]
    by_attr: dict[str, list[int]] = {}
    for i, f in enumerate(fds):
        for a in f.lhs:
            by_attr.setdefault(a, []).append(i)

    closure = set(seed)
    frontier = list(seed)
    while frontier:
        attr = frontier.pop()
        for i in by_attr.get(attr, ()):
            missing[i] -= 1
            if missing[i] == 0:
                for b in fds[i].rhs:
                    if b not in closure:
                        closure.add(b)
                        frontier.append(b)
    return AttributeClosureResult(seed=seed, closure=frozenset(closure))


def _representative(graph: CategoryGraph, lhs: frozenset[str]) -> str | None:
    """Object standing for an LHS set, if any.

    A singleton is represented by the object itself; a composite by a
    relationship object whose projection targets are exactly the set
    (e.g. a composite materialized on an earlier run).
    """
    if len(lhs) == 1:
        (name,) = lhs
        return name if graph.has_object(name) else None
    candidates = [o.name for o in graph.objects
                  if o.kind == "relationship"
                  and graph.projection_targets(o.name) == lhs]
    if candidates:
        return min(candidates)
    # a previously materialized composite may have lost projection arrows
    # to redundancy pruning; recognize it by its deterministic name
    name = composite_name(lhs)
    while graph.has_object(name):
        decl = graph.object_map[name]
        if decl.kind == "relationship" \
                and graph.projection_targets(name) <= lhs:
            return name
        name += "_"
    return None


def _materialize(graph: CategoryGraph, lhs: frozenset[str],
                 provenance: list | None) -> tuple[CategoryGraph, str]:
    name = composite_name(lhs)
    while graph.has_object(name):  # collision with an unrelated user object
        name += "_"
    arrows = tuple(Arrow(name=f"{name}__{m}", source=name, target=m,
                         is_projection=True)
                   for m in sorted(lhs))
    graph = graph.with_object(
        ObjectDecl(name=name, kind="relationship"), arrows=arrows)
    if provenance is not None:
        provenance.append({"object": name, "rule": "materialize-composite-lhs",
                           "members": sorted(lhs)})
    return graph, name


def _member_determined(lhs: frozenset[str], fds) -> bool:
    """True when a single member already determines the whole set; such a
    set needs no composite object of its own."""
    fds = list(fds)
    return any(lhs <= attribute_closure({x}, fds).closure for x in sorted(lhs))


def materialize_declared(graph: CategoryGraph, fds,
                         provenance: list | None = None
                         ) -> tuple[CategoryGraph, list[FD]]:
    """Give every composite declared LHS set an object of its own.

    Sets that some object already represents are skipped, and so are sets
    determined by one of their members, which ride on that member.
    Returns the grown graph with its FDs followed by the declared ones.
    """
    fds = tuple(fds)
    base = list(graph_to_fds(graph)) + list(fds)
    for lhs in sorted({f.lhs for f in fds}, key=lambda s: tuple(sorted(s))):
        if len(lhs) > 1 and _representative(graph, lhs) is None \
                and not _member_determined(lhs, base):
            graph, _ = _materialize(graph, lhs, provenance)
    return graph, list(graph_to_fds(graph)) + list(fds)


def add_inferred_arrows(graph: CategoryGraph, lhs_sets, fds, close,
                        rule: str,
                        provenance: list | None = None) -> CategoryGraph:
    """Insert one arrow rep -> y per relevant inferred dependency.

    The relevant seeds are the singletons among `lhs_sets` and the LHS sets
    of the declared `fds`.  A seed counts only when an object represents
    it; `close(seed)` gives its closure, and every object y of that closure
    outside the seed gets an arrow from the representative, recorded under
    `rule`.
    """
    object_names = set(graph.object_map)
    seeds = {lhs for lhs in lhs_sets if len(lhs) == 1} | {f.lhs for f in fds}
    for lhs in sorted(seeds, key=lambda s: tuple(sorted(s))):
        rep = _representative(graph, lhs)
        if rep is None:
            continue
        for y in sorted(close(lhs)):
            if y == rep or y in lhs or y not in object_names:
                continue
            if not graph.has_arrow(rep, y):
                graph = graph.with_arrow(
                    Arrow(name=f"{rep}_to_{y}", source=rep, target=y))
                if provenance is not None:
                    provenance.append({"arrow": [rep, y], "rule": rule})
    return graph


def fd_closure_graph(graph: CategoryGraph, fds,
                     provenance: list | None = None) -> CategoryGraph:
    """Relevant closure of a graph under its own arrows plus declared FDs."""
    fds = tuple(fds)
    graph, d_all = materialize_declared(graph, fds, provenance)
    return add_inferred_arrows(
        graph, [f.lhs for f in d_all], fds,
        lambda lhs: attribute_closure(lhs, d_all).closure, "fd-closure",
        provenance)


def covers(g1: CategoryGraph, g2: CategoryGraph, fds=()) -> bool:
    """True iff every arrow of g2 is present in the closure of (g1, fds)."""
    closed = fd_closure_graph(g1, tuple(fds)).arrow_pairs()
    return g2.arrow_pairs() <= closed


def equivalent(g1: CategoryGraph, g2: CategoryGraph, fds=()) -> bool:
    return covers(g1, g2, fds) and covers(g2, g1, fds)


def derivable_without(graph: CategoryGraph, arrow: Arrow, fds=()) -> bool:
    """Can `arrow` be re-derived from the remaining arrows plus the declared
    dependencies?

    The declared FD that directly mirrors the arrow is excluded; otherwise
    every arrow echoing a declared dependency would count as redundant.
    """
    rest = graph.without_arrow(arrow)
    deps = list(graph_to_fds(rest)) + [
        f for f in fds
        if not (f.lhs == frozenset({arrow.source}) and arrow.target in f.rhs)]
    closure = attribute_closure({arrow.source}, deps).closure
    return arrow.target in closure


def is_redundant_arrow(arrow: Arrow, graph: CategoryGraph, fds=()) -> bool:
    """True iff removing `arrow` leaves a graph equivalent to `graph`."""
    if arrow not in graph.arrows:
        raise SchemaError(f"arrow {arrow.name!r} not in graph")
    rest = graph.without_arrow(arrow)
    return covers(rest, graph, tuple(fds))
