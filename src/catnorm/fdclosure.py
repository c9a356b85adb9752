"""The two steps of the closure driver (`mvdclosure`), in place on one
`GraphIndex`, and the redundancy index that the reducer prunes with.

The closure materializes composite left-hand sides of declared FDs as
relationship objects with projection arrows to the members, then inserts
one arrow per relevant inferred dependency: its LHS is an object of the
graph or a declared LHS, and its RHS is an object of the graph.
"""

from __future__ import annotations

from .core import (
    FD,
    Arrow,
    CategoryGraph,
    FDIndex,
    GraphIndex,
    SchemaError,
    composite_name,
    graph_to_fds,
)


def _left_reduced(f: FD, index: FDIndex) -> FD:
    """`f` less each LHS member, in sorted order, without which the rest
    still determines the RHS under `index` (Maier, JACM 1980)."""
    lhs = f.lhs
    for x in sorted(f.lhs):
        if f.rhs <= index.closure(lhs - {x}):
            lhs -= {x}
    return FD(lhs, f.rhs)


def materialize_declared(graph: GraphIndex, fds, provenance: list | None = None
                         ) -> tuple[dict[frozenset[str], str], tuple[FD, ...]]:
    """Give every composite declared LHS set an object of its own, in place.

    Each declared FD is left-reduced first, under the graph's FDs and the
    declared ones: in a reduced LHS no member follows from the others, so
    no projection of a fresh composite is key-prunable.  Sets that some
    relationship object already represents are skipped.  A composite's
    name collides with no object, nor with an earlier composite: it gets
    `_` until it is free.  Returns the representatives, per projection set
    its first relationship object by name, the new composites included;
    and the left-reduced FDs.
    """
    base = FDIndex(graph_to_fds(graph) + tuple(fds))
    fds = tuple(_left_reduced(f, base) for f in fds)
    reps: dict[frozenset[str], str] = {}
    for name in sorted(graph.projections):
        if name in graph.object_map \
                and graph.object_map[name].kind == "relationship":
            reps.setdefault(graph.projections[name], name)
    for lhs in sorted({f.lhs for f in fds}, key=lambda s: tuple(sorted(s))):
        if len(lhs) > 1 and lhs not in reps:
            name = composite_name(lhs)
            while graph.has_object(name):
                name += "_"
            graph.add(name, lhs)
            reps[lhs] = name
            if provenance is not None:
                provenance.append({"object": name,
                                   "rule": "materialize-composite-lhs",
                                   "members": sorted(lhs)})
    return reps, fds


def add_inferred_arrows(graph: GraphIndex, reps, lhs_sets, fds, close,
                        rule: str, provenance: list | None = None) -> None:
    """Add one arrow rep -> y per relevant inferred dependency, in place.

    The relevant seeds are the singletons among `lhs_sets` and the LHS sets
    of the declared `fds`.  A seed counts only when an object represents
    it: a singleton's own object, or a composite's entry in `reps`.
    `close(seed)` gives its closure, and every object y of that closure
    outside the seed gets an arrow from the representative, recorded under
    `rule`.
    """
    seeds = {lhs for lhs in lhs_sets if len(lhs) == 1} | {f.lhs for f in fds}
    for lhs in sorted(seeds, key=lambda s: tuple(sorted(s))):
        rep = min(lhs) if len(lhs) == 1 else reps[lhs]
        if not graph.has_object(rep):
            continue
        for y in sorted(close(lhs)):
            if y == rep or y in lhs or not graph.has_object(y) \
                    or graph.has_arrow(rep, y):
                continue
            graph.add_arrow(Arrow(name=f"{rep}_to_{y}", source=rep, target=y))
            if provenance is not None:
                provenance.append({"arrow": [rep, y], "rule": rule})


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
        kinds = {o.name: o.kind for o in graph.objects}
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
            if a.is_projection and kinds.get(a.source) == "relationship":
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
