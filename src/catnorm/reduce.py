"""First and second reduced representations (redundant-arrow removal and
derivable-object elimination)."""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .core import (
    MVD,
    Arrow,
    CategoryGraph,
    DependencySet,
    ObjectDecl,
    SchemaError,
    graph_to_fds,
)
from .fdclosure import RedundancyIndex, derivable_without, fd_closure_graph
from .mvdclosure import fd_mvd_closure_graph, split_mvd


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


def _derivation_path(successors: dict[str, list[str]], source: str,
                     target: str) -> str:
    """Shortest arrow path witnessing that source still reaches target;
    `successors` lists each object's arrow targets in sorted order."""
    frontier = deque([(source, [source])])
    seen = {source}
    while frontier:
        node, path = frontier.popleft()
        for t in successors.get(node, ()):
            if t in seen:
                continue
            if t == target:
                return " -> ".join(path + [target])
            seen.add(t)
            frontier.append((t, path + [t]))
    return "via relationship key dependencies"


def _removal_order(graph: CategoryGraph) -> list[Arrow]:
    composed = [a for a in graph.arrows if not a.is_projection]
    projections = [a for a in graph.arrows if a.is_projection]
    key = lambda a: a.pair
    return sorted(composed, key=key) + sorted(projections, key=key)


def _key_prunable(index: RedundancyIndex, arrow: Arrow) -> bool:
    """An arrow out of a relationship object is redundant when its target
    already follows from the remaining projection targets.  Routes through
    the source itself are excluded; they would let the source's own key
    dependency justify shrinking that very key."""
    if index.kinds[arrow.source] != "relationship":
        return False
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
    kept = final.arrow_pairs()
    successors: dict[str, list[str]] = {}
    for source, target in sorted(kept):
        successors.setdefault(source, []).append(target)
    for arrow in sorted(baseline.arrows, key=lambda a: a.pair):
        if arrow.pair not in kept:
            trace.removed_arrows.append(
                (arrow, _derivation_path(successors, arrow.source,
                                         arrow.target)))


def first_reduced(graph: CategoryGraph, fds) -> tuple[CategoryGraph, ReductionTrace]:
    """Closure under the FDs, then removal of every redundant arrow."""
    trace = ReductionTrace()
    fds = tuple(fds)
    closed = fd_closure_graph(graph, fds)
    reduced = _prune_to_fixpoint(closed, lambda g: fd_closure_graph(g, fds),
                                 fds)
    _record_removed(closed, reduced, trace)
    return reduced, trace


def is_derivable(name: str, graph: CategoryGraph) -> bool:
    """Derivable relationship object: a limit or MVD object with no incoming
    arrow whose non-projection outgoing arrows all factor through a
    projection."""
    if not graph.has_object(name):
        raise SchemaError(f"unknown object {name!r}")
    decl = graph.object_map[name]
    if not (decl.is_limit or name in graph.mvd_objects):
        return False
    if graph.has_incoming(name):
        return False
    pairs = graph.arrow_pairs()
    projections = graph.projection_targets(name)
    for a in graph.arrows:
        if a.source != name or a.is_projection:
            continue
        if not any((y, a.target) in pairs for y in projections):
            return False
    return True


_TRAILING_DIGITS = re.compile(r"\d+$")


def _split_names(graph: CategoryGraph, name: str) -> tuple[str, str]:
    """O splits into O1/O2; counters continue across nested decompositions."""
    base = _TRAILING_DIGITS.sub("", name) or name
    used = 0
    for o in graph.objects:
        if o.name.startswith(base):
            m = _TRAILING_DIGITS.search(o.name)
            if m and o.name == base + m.group():
                used = max(used, int(m.group()))
    first, second = used + 1, used + 2
    return f"{base}{first}", f"{base}{second}"


def decompose_mvd_object(graph: CategoryGraph, name: str,
                         m: MVD) -> tuple[CategoryGraph, tuple[str, str]]:
    """Split a derivable MVD object along X ->> Y into X u Y and O - Y."""
    if m.context != name:
        raise SchemaError(f"MVD context {m.context!r} does not match {name!r}")
    if not is_derivable(name, graph):
        raise SchemaError(f"object {name!r} is not derivable")
    pi = graph.projection_targets(name)
    first_members = m.lhs | m.rhs
    second_members = pi - m.rhs
    n1, n2 = _split_names(graph, name)
    graph = graph.without_object(name)
    for new_name, members in ((n1, first_members), (n2, second_members)):
        arrows = tuple(Arrow(name=f"{new_name}__{t}", source=new_name,
                             target=t, is_projection=True)
                       for t in sorted(members))
        graph = graph.with_object(
            ObjectDecl(name=new_name, kind="relationship"), arrows=arrows)
    return graph, (n1, n2)


def _recontextualize(mvds, old: str, graph: CategoryGraph,
                     names: tuple[str, str]) -> tuple[MVD, ...]:
    """Re-home MVDs after a split: an MVD lands in every fragment containing
    its attributes; those straddling the split are satisfied and dropped."""
    out = []
    for m in mvds:
        if m.context != old:
            out.append(m)
            continue
        for new_name in names:
            if m.lhs | m.rhs <= graph.projection_targets(new_name):
                out.append(MVD(m.lhs, m.rhs, new_name))
    return tuple(out)


def _remove_objects(graph: CategoryGraph, fds, mvds,
                    trace: ReductionTrace) -> CategoryGraph:
    """Split derivable MVD objects until none is left, then drop the
    derivable limit objects.

    Each round marks the contexts that some declared MVD would split, and
    splits the first derivable one, in (context, lhs, rhs) order of the
    split MVDs.  The FDs are read off the graph once.  That is sound
    because a split object has no incoming arrow (`is_derivable`), nor
    have its fragments, so none of them is a projection target of any
    context, and no FD relativized to a context's universe changes under a
    split.  `_split_names` counts past the largest suffix, so no name comes
    back within one elimination and the MVDs of a context that is not split
    never change.  So each declared MVD's split is computed once, and a
    split computes only those of the fragments' MVDs.
    """
    deps = DependencySet(fds=graph_to_fds(graph) + tuple(fds),
                         mvds=tuple(mvds))
    split_of: dict[MVD, MVD | None] = {}
    while True:
        for m in deps.mvds:
            if m not in split_of:
                split_of[m] = split_mvd(graph, deps, m)
        splits = [split_of[m] for m in deps.mvds if split_of[m] is not None]
        marked = frozenset(m.context for m in splits)
        if marked != graph.mvd_objects:
            graph = graph.with_mvd_objects(marked)
        splits.sort(key=lambda m: (m.context, tuple(sorted(m.lhs)),
                                   tuple(sorted(m.rhs))))
        chosen = next((m for m in splits if is_derivable(m.context, graph)),
                      None)
        if chosen is None:
            break
        graph, names = decompose_mvd_object(graph, chosen.context, chosen)
        trace.decomposed_objects.append((chosen.context, chosen, names))
        deps = deps.with_mvds(
            _recontextualize(deps.mvds, chosen.context, graph, names))

    for o in list(graph.objects):
        if o.is_limit and is_derivable(o.name, graph):
            graph = graph.without_object(o.name)
            trace.removed_limit_objects.append(o.name)
    return graph


def second_reduced(graph: CategoryGraph, fds,
                   mvds) -> tuple[CategoryGraph, ReductionTrace]:
    """Closure under FDs and MVDs, derivable-object elimination, then the
    redundant-arrow pass."""
    trace = ReductionTrace()
    fds, mvds = tuple(fds), tuple(mvds)
    close = lambda g: fd_mvd_closure_graph(g, fds, mvds)
    stripped = _remove_objects(close(graph), fds, mvds, trace)
    # re-close first: an eliminated object may have stood for a declared LHS
    reduced = _prune_to_fixpoint(
        close(_prune_redundant_arrows(stripped, fds)), close, fds)
    _record_removed(stripped, reduced, trace)
    return reduced, trace
