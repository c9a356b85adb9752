"""The FD closure of a category graph.

The closure algorithm materializes composite left-hand sides of declared
dependencies as relationship-like objects (with projection arrows to the
members) and then inserts one arrow per relevant inferred dependency.
An inferred FD is relevant only when its LHS is an object of the graph or
a declared LHS, and its RHS is an object of the graph.
"""

from __future__ import annotations

from .core import (
    FD,
    Arrow,
    CategoryGraph,
    FDIndex,
    ObjectDecl,
    SchemaError,
    composite_name,
    graph_to_fds,
)


def _representative(graph: CategoryGraph, lhs: frozenset[str]) -> str | None:
    """Object standing for an LHS set, if any.

    A singleton is represented by the object itself; a composite by the
    relationship object, first by name, whose projection targets are
    exactly the set (e.g. a composite materialized on an earlier run).
    """
    if len(lhs) == 1:
        (name,) = lhs
        return name if graph.has_object(name) else None
    candidates = [o.name for o in graph.objects
                  if o.kind == "relationship"
                  and graph.projection_targets(o.name) == lhs]
    return min(candidates, default=None)


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


def _member_determined(lhs: frozenset[str], index: FDIndex) -> bool:
    """True when a single member already determines the whole set; such a
    set needs no composite object of its own."""
    return any(lhs <= index.closure({x}) for x in sorted(lhs))


def materialize_declared(graph: CategoryGraph, fds,
                         provenance: list | None = None
                         ) -> tuple[CategoryGraph, list[FD]]:
    """Give every composite declared LHS set an object of its own.

    Sets that some object already represents are skipped, and so are sets
    determined by one of their members, which ride on that member.
    Returns the grown graph with its FDs followed by the declared ones.
    """
    fds = tuple(fds)
    base = FDIndex(graph_to_fds(graph) + fds)
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
    pairs = set(graph.arrow_pairs())
    added = []
    seeds = {lhs for lhs in lhs_sets if len(lhs) == 1} | {f.lhs for f in fds}
    for lhs in sorted(seeds, key=lambda s: tuple(sorted(s))):
        rep = _representative(graph, lhs)
        if rep is None:
            continue
        for y in sorted(close(lhs)):
            if y == rep or y in lhs or not graph.has_object(y) \
                    or (rep, y) in pairs:
                continue
            pairs.add((rep, y))
            added.append(Arrow(name=f"{rep}_to_{y}", source=rep, target=y))
            if provenance is not None:
                provenance.append({"arrow": [rep, y], "rule": rule})
    return graph.with_arrows(added)


def fd_closure_graph(graph: CategoryGraph, fds,
                     provenance: list | None = None) -> CategoryGraph:
    """Relevant closure of a graph under its own arrows plus declared FDs."""
    fds = tuple(fds)
    graph, d_all = materialize_declared(graph, fds, provenance)
    return add_inferred_arrows(graph, [f.lhs for f in d_all], fds,
                               FDIndex(d_all).closure, "fd-closure",
                               provenance)


class RedundancyIndex:
    """A thin graph's dependencies, indexed once to test many of its arrows
    for redundancy: one FD per arrow, the key FD pi -> R of every
    relationship R with projection targets pi, and the declared FDs.

    A test masks the FD of the arrow under question; removing an arrow
    updates the index in place, shrinking its source's key when the arrow
    is one of its projections.  A second arrow on one pair is a
    `SchemaError`: the reducer works on the thin category only.
    """

    def __init__(self, graph: CategoryGraph, fds=()):
        self.kinds = {o.name: o.kind for o in graph.objects}
        self.fds = FDIndex()
        self.arrow_ids: dict[Arrow, int] = {}
        self.projections: dict[str, set[str]] = {}
        pairs: set[tuple[str, str]] = set()
        for a in graph.arrows:
            if a.pair in pairs:
                raise SchemaError(f"graph is not thin: more than one arrow "
                                  f"from {a.source!r} to {a.target!r}")
            pairs.add(a.pair)
            self.arrow_ids[a] = self.fds.add({a.source}, {a.target})
            if a.is_projection and self.kinds.get(a.source) == "relationship":
                self.projections.setdefault(a.source, set()).add(a.target)
        self.keys = {name: self.fds.add(targets, {name})
                     for name, targets in self.projections.items()}
        # declared FDs with a singleton LHS, which may mirror an arrow
        self.mirrors: dict[str, list[tuple[int, frozenset[str]]]] = {}
        for f in fds:
            i = self.fds.add(f.lhs, f.rhs)
            if len(f.lhs) == 1:
                (x,) = f.lhs
                self.mirrors.setdefault(x, []).append((i, f.rhs))

    def projections_without(self, arrow: Arrow) -> set[str]:
        """Projection targets of the arrow's source with the arrow masked."""
        out = set(self.projections.get(arrow.source, ()))
        if arrow.is_projection:
            out.discard(arrow.target)
        return out

    def derives(self, seed, arrow: Arrow, skip=()) -> bool:
        """Does `seed` reach the arrow's target with the arrow masked and
        the FDs of ids `skip` left out?"""
        skip = {self.arrow_ids[arrow], *skip}
        return arrow.target in self.fds.closure(seed, skip,
                                                until=arrow.target)

    def remove(self, arrow: Arrow) -> None:
        self.fds.shrink(self.arrow_ids.pop(arrow), arrow.source)
        if arrow.is_projection and arrow.source in self.keys:
            self.projections[arrow.source].remove(arrow.target)
            self.fds.shrink(self.keys[arrow.source], arrow.target)


def derivable_without(index: RedundancyIndex, arrow: Arrow) -> bool:
    """Can a composed (non-projection) `arrow` be re-derived from the
    remaining arrows plus the dependencies?

    The declared FD that directly mirrors the arrow is excluded; otherwise
    every arrow echoing a declared dependency would count as redundant.
    """
    mirrors = [i for i, rhs in index.mirrors.get(arrow.source, ())
               if arrow.target in rhs]
    return index.derives({arrow.source}, arrow, mirrors)
