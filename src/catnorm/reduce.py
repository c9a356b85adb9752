"""First and second reduced representations (redundant-arrow removal and
derivable-object elimination)."""

from __future__ import annotations

import re
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from .core import (
    MVD,
    Arrow,
    CategoryGraph,
    DependencySet,
    GraphIndex,
    SchemaError,
    graph_to_fds,
)
from .fdclosure import RedundancyIndex, derivable_without
from .mvdclosure import _closure_index, fd_closure_graph, mvd_splits


@dataclass
class ReductionTrace:
    removed_arrows: list = field(default_factory=list)       # (arrow, path text)
    decomposed_objects: list = field(default_factory=list)   # (name, mvd, (o1, o2))
    removed_limit_objects: list = field(default_factory=list)

    def to_json(self) -> list:
        out = []
        for arrow, why in self.removed_arrows:
            out.append({"event": "removed-arrow",
                        "arrow": [arrow.source, arrow.target],
                        "justification": why})
        for name, m, (o1, o2) in self.decomposed_objects:
            out.append({"event": "decomposed-object", "object": name,
                        "mvd": {"lhs": sorted(m.lhs), "rhs": sorted(m.rhs),
                                "context": m.context},
                        "into": [o1, o2]})
        for name in self.removed_limit_objects:
            out.append({"event": "removed-limit-object", "object": name})
        return out


def _bfs_parents(successors: dict[str, list[str]],
                 source: str) -> dict[str, str | None]:
    """Breadth-first search from `source` over `successors`, which lists
    each object's arrow targets in sorted order; each object reached maps
    to the object it was first reached from."""
    parents: dict[str, str | None] = {source: None}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for t in successors.get(node, ()):
            if t not in parents:
                parents[t] = node
                frontier.append(t)
    return parents


def _derivation_path(parents: dict[str, str | None], target: str) -> str:
    """Shortest arrow path, the first one found, by which a search's source
    still reaches `target`."""
    if target not in parents:
        return "via relationship key dependencies"
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return " -> ".join(reversed(path))


def _removal_order(graph: CategoryGraph) -> list[Arrow]:
    """Composed arrows first, then projections, each by name pair."""
    return sorted(graph.arrows, key=lambda a: (a.is_projection, a.pair))


def _key_prunable(index: RedundancyIndex, arrow: Arrow) -> bool:
    """An arrow out of a relationship object is redundant when its target
    already follows from the remaining projection targets.  Routes through
    the source itself are excluded; they would let the source's own key
    dependency justify shrinking that very key."""
    base = index.projections_without(arrow)
    if not base:
        return False
    return index.derives(base, arrow, [index.keys[arrow.source]])


def _prune_redundant_arrows(graph: CategoryGraph, fds) -> CategoryGraph:
    """One greedy pass in removal order; every test asks one index, which
    each removal updates in place."""
    index = RedundancyIndex(graph, fds)
    removed: set[Arrow] = set()
    for arrow in _removal_order(graph):
        if arrow.is_projection:
            # never shrink a projection set on the strength of the key
            # dependency it defines
            removable = _key_prunable(index, arrow)
        else:
            removable = derivable_without(index, arrow) \
                or _key_prunable(index, arrow)
        if removable:
            index.remove(arrow)
            removed.add(arrow)
    return graph.without_arrows(removed)


def _prune_to_fixpoint(graph: CategoryGraph, close_fn, fds) -> CategoryGraph:
    """Prune a graph closed under `close_fn`, closing again after each pass
    that prunes a projection arrow; a pass that prunes none is final.

    A single greedy pass is order-sensitive: pruning a projection arrow
    strengthens its source's key dependency, and the closure of the pruned
    graph can then justify a different greedy outcome.  A pass that prunes
    no projection keeps every key and removes only arrows the rest derives,
    so closing and pruning again would give the same graph."""
    for _ in range(64):
        pruned = _prune_redundant_arrows(graph, fds)
        if sum(a.is_projection for a in pruned.arrows) == \
                sum(a.is_projection for a in graph.arrows):
            return pruned
        graph = close_fn(pruned)
    raise SchemaError("arrow pruning did not reach a fixpoint")


def _record_removed(baseline: CategoryGraph, final: CategoryGraph,
                    trace: ReductionTrace) -> None:
    """Justify each arrow of `baseline` missing from `final` by a path of
    kept arrows, with one search per source."""
    kept = final.arrow_pairs()
    successors: dict[str, list[str]] = {}
    for source, target in sorted(kept):
        successors.setdefault(source, []).append(target)
    searched, parents = None, {}
    for arrow in sorted(baseline.arrows, key=lambda a: a.pair):
        if arrow.pair not in kept:
            if arrow.source != searched:
                searched = arrow.source
                parents = _bfs_parents(successors, searched)
            trace.removed_arrows.append(
                (arrow, _derivation_path(parents, arrow.target)))


def redundant_arrow(graph: CategoryGraph) -> Arrow | None:
    """The first non-projection arrow that the rest of the graph derives, or
    None: the graph is then reduced.  A projection arrow defines its
    source's key, and the reducer never tests one with `derivable_without`,
    so this test skips them too.

    A 1RR or 2RR never has such an arrow.  The last prune pass of
    `_prune_to_fixpoint` prunes no projection, so every key in its index is
    the key of the output.  That pass kept an arrow only when the arrow was
    not derivable from the arrows left at its turn, the keys and the
    declared FDs.  Later removals only shrink that FD set, and this test
    reads a subset of it, the output's arrows and keys.  So the test asks
    again a question the reducer has already answered "no".
    """
    index = RedundancyIndex(graph)
    return next((a for a in graph.arrows
                 if not a.is_projection and derivable_without(index, a)),
                None)


def first_reduced(graph: CategoryGraph, fds) -> tuple[CategoryGraph, ReductionTrace]:
    """Closure under the FDs, then removal of every redundant arrow."""
    trace = ReductionTrace()
    fds = tuple(fds)
    closed = fd_closure_graph(graph, fds)
    reduced = _prune_to_fixpoint(closed, lambda g: fd_closure_graph(g, fds),
                                 fds)
    _record_removed(closed, reduced, trace)
    return reduced, trace


_TRAILING_DIGITS = re.compile(r"\d+$")


def _suffixes(names) -> dict[str, int]:
    """Per base name, the largest suffix n of a name base + n."""
    out: dict[str, int] = {}
    for name in names:
        m = _TRAILING_DIGITS.search(name)
        if m:
            base = name[:m.start()]
            out[base] = max(out.get(base, 0), int(m.group()))
    return out


def _split(index: GraphIndex, suffixes: dict[str, int], name: str,
           m: MVD) -> tuple[str, str]:
    """Split a derivable MVD object O along X ->> Y into O1 = X u Y and
    O2 = O - Y, in place.  The names count on past the largest suffix on
    O's base name (`suffixes`, which the split updates).  That suffix never
    falls while objects are split: a split removes one object and adds two
    with larger suffixes on the same base."""
    base = _TRAILING_DIGITS.sub("", name) or name
    used = suffixes.get(base, 0)
    names = (f"{base}{used + 1}", f"{base}{used + 2}")
    suffixes[base] = used + 2
    pi = index.projection_targets(name)
    index.remove(name)
    index.add(names[0], m.lhs | m.rhs)
    index.add(names[1], pi - m.rhs)
    return names


def is_derivable(name: str, graph: GraphIndex) -> bool:
    """Derivable relationship object: a limit or MVD object with no incoming
    arrow whose non-projection outgoing arrows all factor through a
    projection.  The test reads only the object's own arrows."""
    if not graph.has_object(name):
        raise SchemaError(f"unknown object {name!r}")
    if not (graph.object_map[name].is_limit or name in graph.mvd_objects) \
            or graph.has_incoming(name):
        return False
    projections = graph.projection_targets(name)
    return all(any(graph.has_arrow(y, a.target) for y in projections)
               for a in graph.out_arrows(name) if not a.is_projection)


def decompose_mvd_object(graph: CategoryGraph, name: str,
                         m: MVD) -> tuple[CategoryGraph, tuple[str, str]]:
    """Split a derivable MVD object along X ->> Y into X u Y and O - Y."""
    if m.context != name:
        raise SchemaError(f"MVD context {m.context!r} does not match {name!r}")
    index = GraphIndex(graph)
    if not is_derivable(name, index):
        raise SchemaError(f"object {name!r} is not derivable")
    names = _split(index, _suffixes(index.object_map), name, m)
    return index.graph(), names


def _recontextualize(mvds, graph: GraphIndex,
                     names: tuple[str, str]) -> tuple[MVD, ...]:
    """Re-home a split object's MVDs: an MVD lands in every fragment
    containing its attributes; those straddling the split are satisfied
    and dropped."""
    out = []
    for m in mvds:
        for new_name in names:
            if m.lhs | m.rhs <= graph.projection_targets(new_name):
                out.append(MVD(m.lhs, m.rhs, new_name))
    return tuple(out)


def _remove_objects(index: GraphIndex, fds, mvds,
                    trace: ReductionTrace) -> CategoryGraph:
    """Split derivable MVD objects until none is left, then drop the
    derivable limit objects, in place on the closure's index.

    The marked MVD objects are the contexts that some MVD declared on them
    would split (`mvd_splits`).  Each step splits the first derivable one,
    in (context, lhs, rhs) order of the split MVDs.  The graph is built
    once, at the end.

    The FDs are read off the index once, and a context's split MVDs are
    computed once, from its own MVDs.  That is sound because a split object
    has no incoming arrow (`is_derivable`), nor have its fragments, so none
    of them is a projection target of any context, and no FD relativized to
    a context's universe changes under a split.  Split names count past the
    largest suffix, so no name comes back within one elimination, and only
    the split object's MVDs move, into its fragments.

    Only a fragment can become derivable.  A split removes the split
    object's out-arrows alone, and each of their targets keeps an incoming
    arrow: a projection target from the fragment that holds it, any other
    target from the projection target its arrow factors through.  No
    derivable object loses its mark or gains an incoming arrow either.
    """
    suffixes = _suffixes(index.object_map)
    fd_deps = DependencySet(fds=graph_to_fds(index) + tuple(fds))
    by_context: dict[str, list[MVD]] = {}
    for m in mvds:
        by_context.setdefault(m.context, []).append(m)
    first = mvd_splits(index, fd_deps, mvds)  # marked context -> its split
    index.mvd_objects = set(first)
    queue = sorted(ctx for ctx in first if is_derivable(ctx, index))
    while queue:
        name = queue.pop(0)
        chosen = first.pop(name)
        names = _split(index, suffixes, name, chosen)
        trace.decomposed_objects.append((name, chosen, names))
        for m in _recontextualize(by_context.pop(name), index, names):
            by_context.setdefault(m.context, []).append(m)
        found = mvd_splits(index, fd_deps, [m for ctx in names
                                            for m in by_context.get(ctx, ())])
        first.update(found)
        index.mvd_objects.update(found)
        for ctx in found:
            if is_derivable(ctx, index):
                insort(queue, ctx)

    for name in list(index.object_map):
        if index.object_map[name].is_limit and is_derivable(name, index):
            index.remove(name)
            trace.removed_limit_objects.append(name)
    return index.graph()


def second_reduced(graph: CategoryGraph, fds,
                   mvds) -> tuple[CategoryGraph, ReductionTrace]:
    """Closure under FDs and MVDs, derivable-object elimination, then the
    redundant-arrow pass.  Only the elimination marks MVD objects; its
    closures mark none."""
    trace = ReductionTrace()
    fds, mvds = tuple(fds), tuple(mvds)
    close = lambda g: _closure_index(g, fds, mvds, "fd-mvd-closure")
    stripped = _remove_objects(close(graph), fds, mvds, trace)
    # re-close first: an eliminated object may have stood for a declared LHS
    reclose = lambda g: close(g).graph()
    reduced = _prune_to_fixpoint(
        reclose(_prune_redundant_arrows(stripped, fds)), reclose, fds)
    _record_removed(stripped, reduced, trace)
    return reduced, trace
