"""Category-graph data model, JSON (de)serialization and validity checks.

A schema is a directed graph whose nodes are typed objects (entity,
relationship, attribute) and whose edges are named arrows.  At most one
arrow may exist per ordered node pair (thinness), which makes every
diagram commute by construction.  Declared functional and multivalued
dependencies ride along in a :class:`DependencySet`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count

OBJECT_KINDS = ("entity", "relationship", "attribute")

COMPOSITE_SEP = "_"


class SchemaError(Exception):
    """Raised for malformed schema documents or broken preconditions."""


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    kind: str
    is_limit: bool = False

    def __post_init__(self):
        if not self.name:
            raise SchemaError("object name must be nonempty")
        if self.kind not in OBJECT_KINDS:
            raise SchemaError(f"unknown object kind {self.kind!r} for {self.name!r}")
        if self.is_limit and self.kind != "relationship":
            raise SchemaError(f"limit flag on non-relationship object {self.name!r}")


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    is_projection: bool = False

    def __post_init__(self):
        if self.source == self.target:
            raise SchemaError(f"arrow {self.name!r} is a self-loop on {self.source!r}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.target)


@dataclass(frozen=True)
class FD:
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise SchemaError("FD sides must be nonempty")

    def __str__(self):
        return f"{','.join(sorted(self.lhs))} -> {','.join(sorted(self.rhs))}"


@dataclass(frozen=True)
class MVD:
    lhs: frozenset[str]
    rhs: frozenset[str]
    context: str

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise SchemaError("MVD sides must be nonempty")

    def __str__(self):
        return (f"{','.join(sorted(self.lhs))} ->> "
                f"{','.join(sorted(self.rhs))} [ctx {self.context}]")


def fd(lhs, rhs) -> FD:
    """Shorthand constructor accepting any iterables of names."""
    return FD(frozenset(lhs), frozenset(rhs))


def mvd(lhs, rhs, context: str) -> MVD:
    return MVD(frozenset(lhs), frozenset(rhs), context)


class FDIndex:
    """FDs indexed once for many attribute closures.

    Linear-time counter scheme (Beeri & Bernstein, TODS 1979): each FD
    keeps a count of still-missing LHS members; an attribute entering the
    closure decrements the counts of the FDs listing it.  The counts live
    in the query, so one index serves any number of closures, each of which
    may leave out some FDs.  LHS members can be taken away in place; an FD
    left with none never fires.
    """

    def __init__(self, fds=()):
        self.need: list[int] = []                 # LHS size per FD id
        self.rhs: list[frozenset[str]] = []
        self.users: dict[str, list[int]] = {}     # attribute -> FD ids
        for f in fds:
            self.add(f.lhs, f.rhs)

    def add(self, lhs, rhs) -> int:
        i = len(self.rhs)
        self.need.append(len(lhs))
        self.rhs.append(frozenset(rhs))
        for a in lhs:
            self.users.setdefault(a, []).append(i)
        return i

    def shrink(self, i: int, attr: str) -> None:
        """Take `attr` out of the LHS of FD `i`."""
        self.users[attr].remove(i)
        self.need[i] -= 1

    def closure(self, seed, skip=(), until=None) -> set[str]:
        """Closure of `seed` under every FD whose id is not in `skip`.  It
        stops as soon as `until` enters, so the result is then partial."""
        closure = set(seed)
        need, rhs, users = self.need, self.rhs, self.users
        missing: dict[int, int] = {}
        frontier = list(closure)
        while frontier:
            for i in users.get(frontier.pop(), ()):
                if i in skip:
                    continue
                left = need[i]
                if left > 1:
                    left = missing.get(i, left) - 1
                    missing[i] = left
                    if left:
                        continue
                for b in rhs[i]:
                    if b not in closure:
                        closure.add(b)
                        if b == until:
                            return closure
                        frontier.append(b)
        return closure


@dataclass(frozen=True)
class DependencySet:
    fds: tuple[FD, ...] = ()
    mvds: tuple[MVD, ...] = ()

    # The FD parts below are built on first use and kept on this instance;
    # `with_mvds` hands the canonical ones on.

    def canonical_fds(self) -> tuple[FD, ...]:
        """Split every FD into singleton-rhs form, dropping duplicates and
        the trivial members, those in the FD's own left-hand side."""
        return self._canonical

    @cached_property
    def _canonical(self) -> tuple[FD, ...]:
        seen, out = set(), []
        for f in self.fds:
            for a in sorted(f.rhs - f.lhs):
                c = FD(f.lhs, frozenset([a]))
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        return tuple(out)

    @cached_property
    def fd_index(self) -> FDIndex:
        """The canonical FDs indexed for closures; shared, so never to be
        shrunk."""
        return FDIndex(self._canonical)

    @cached_property
    def _by_rhs(self) -> dict[str, list[int]]:
        """Per attribute, the ids of the canonical FDs with it as RHS."""
        ids: dict[str, list[int]] = {}
        for i, f in enumerate(self._canonical):
            (a,) = f.rhs
            ids.setdefault(a, []).append(i)
        return ids

    def with_mvds(self, mvds) -> "DependencySet":
        """The same FDs with other MVDs, sharing the canonical FDs by id and
        by RHS, built here first if need be."""
        out = DependencySet(self.fds, tuple(mvds))
        for part in ("_canonical", "_by_rhs"):
            out.__dict__[part] = getattr(self, part)
        return out

    def canonical_ids_within(self, universe) -> list[int]:
        """Ids of the canonical FDs lying inside `universe`, in order;
        found through their right-hand sides."""
        fds, by_rhs = self._canonical, self._by_rhs
        return sorted(i for a in universe for i in by_rhs.get(a, ())
                      if fds[i].lhs <= universe)

    @cached_property
    def _by_context(self) -> dict[str, list[MVD]]:
        """Per context name, its MVDs in order."""
        out: dict[str, list[MVD]] = {}
        for m in self.mvds:
            out.setdefault(m.context, []).append(m)
        return out

    @cached_property
    def _relativized(self) -> dict:
        return {}

    def relativized(self, universe, context: str | None = None
                    ) -> "DependencySet":
        """The dependencies that speak about `universe` alone.

        Canonical FDs must lie fully inside the universe.  MVDs are
        context-bound: with a context name given only MVDs declared on that
        context participate, otherwise any MVD whose attributes all lie in
        the universe is taken to be stated over the universe itself.  Each
        answer is kept on the set and shared by later calls.
        """
        universe = frozenset(universe)
        found = self._relativized.get((universe, context))
        if found is None:
            mvds = self.mvds if context is None \
                else self._by_context.get(context, ())
            found = DependencySet(
                fds=tuple(self._canonical[i]
                          for i in self.canonical_ids_within(universe)),
                mvds=tuple(m for m in mvds if m.lhs | m.rhs <= universe))
            self._relativized[(universe, context)] = found
        return found


class GraphIndex:
    """A graph's objects and arrows with the lookups made on them: per
    source its out-arrows and projection targets, per object its in-degree,
    and the arrow pairs.  It is built in one pass over the arrows.

    Each `CategoryGraph` answers its lookups from one such index.  A copy,
    `GraphIndex(graph)`, serves many lookups and updates in place, and
    `graph()` builds the `CategoryGraph` once at the end.  Objects and
    arrows sit in insertion-ordered dicts, so a removal keeps the order of
    the rest and an addition appends.  A rule written against these
    lookups takes a `CategoryGraph` as well, which answers them from its
    own index.
    """

    def __init__(self, graph: CategoryGraph):
        self.object_map = {o.name: o for o in graph.objects}
        self.mvd_objects = set(graph.mvd_objects)
        self._arrows: dict[int, Arrow] = {}
        self.out: dict[str, list[int]] = {}          # source -> arrow ids
        self.indegree: dict[str, int] = {}
        self.pairs: set[tuple[str, str]] = set()
        self._ids = count()
        arrows, out, indegree = self._arrows, self.out, self.indegree
        pairs, projections = self.pairs, {}
        for a, i in zip(graph.arrows, self._ids):
            s, t = a.source, a.target
            arrows[i] = a
            out.setdefault(s, []).append(i)
            indegree[t] = indegree.get(t, 0) + 1
            pairs.add((s, t))
            if a.is_projection:
                projections.setdefault(s, set()).add(t)
        self.projections = {name: frozenset(targets)
                            for name, targets in projections.items()}

    @property
    def arrows(self):                                # in order, as a view
        return self._arrows.values()

    def has_object(self, name: str) -> bool:
        return name in self.object_map

    def has_incoming(self, name: str) -> bool:
        return bool(self.indegree.get(name))

    def has_arrow(self, source: str, target: str) -> bool:
        return (source, target) in self.pairs

    def out_arrows(self, name: str) -> list[Arrow]:
        return [self._arrows[i] for i in self.out.get(name, ())]

    def projection_targets(self, name: str) -> frozenset[str]:
        return self.projections.get(name, frozenset())

    def remove(self, name: str) -> None:
        """Drop an object that no arrow enters, with its out-arrows, which
        are all the arrows on their pairs."""
        for i in self.out.pop(name, ()):
            a = self._arrows.pop(i)
            self.indegree[a.target] -= 1
            self.pairs.discard(a.pair)
        self.projections.pop(name, None)
        del self.object_map[name]
        self.mvd_objects.discard(name)

    def add(self, name: str, members) -> None:
        """A new relationship object with projection arrows to `members`."""
        if name in self.object_map:
            raise SchemaError(f"duplicate object name(s): {[name]}")
        self.object_map[name] = ObjectDecl(name=name, kind="relationship")
        for t in sorted(members):
            self.add_arrow(Arrow(name=f"{name}__{t}", source=name, target=t,
                                 is_projection=True))
        self.projections[name] = frozenset(members)

    def add_arrow(self, arrow: Arrow) -> None:
        """Append an arrow; projection arrows come only with `add`."""
        i = next(self._ids)
        self._arrows[i] = arrow
        self.out.setdefault(arrow.source, []).append(i)
        self.indegree[arrow.target] = self.indegree.get(arrow.target, 0) + 1
        self.pairs.add(arrow.pair)

    def graph(self) -> CategoryGraph:
        return CategoryGraph(objects=tuple(self.object_map.values()),
                             arrows=tuple(self.arrows),
                             mvd_objects=frozenset(self.mvd_objects))


@dataclass(frozen=True)
class CategoryGraph:
    objects: tuple[ObjectDecl, ...] = ()
    arrows: tuple[Arrow, ...] = ()
    mvd_objects: frozenset[str] = frozenset()

    def __post_init__(self):
        seen, dup = set(), set()
        for o in self.objects:
            if o.name in seen:
                dup.add(o.name)
            seen.add(o.name)
        if dup:
            raise SchemaError(f"duplicate object name(s): {sorted(dup)}")

    # -- lookups -----------------------------------------------------------
    # They answer from one index, built on first use and kept: the graph is
    # frozen, and every update makes a new one.  Only `_out`, the targets in
    # document order, is kept beside it.  Callers must not mutate what they
    # get.

    @cached_property
    def _index(self) -> GraphIndex:
        return GraphIndex(self)

    @property
    def object_map(self) -> dict[str, ObjectDecl]:
        return self._index.object_map

    def has_object(self, name: str) -> bool:
        return name in self._index.object_map

    def arrow_pairs(self) -> set[tuple[str, str]]:
        return self._index.pairs

    def has_arrow(self, source: str, target: str) -> bool:
        return (source, target) in self._index.pairs

    def has_incoming(self, name: str) -> bool:
        """Does some arrow end at `name`?"""
        return self._index.has_incoming(name)

    def out_arrows(self, name: str) -> list[Arrow]:
        """The arrows leaving `name`, in order."""
        return self._index.out_arrows(name)

    def projection_targets(self, name: str) -> frozenset[str]:
        return self._index.projections.get(name, frozenset())

    @cached_property
    def _out(self) -> dict[str, list[str]]:
        """Per source, its arrows' targets in document order."""
        ends: dict[str, set[str]] = {}
        for a in self.arrows:
            ends.setdefault(a.source, set()).add(a.target)
        order = {o.name: i for i, o in enumerate(self.objects)}
        return {name: sorted((n for n in found if n in order),
                             key=order.__getitem__)
                for name, found in ends.items()}

    def out_neighbours(self, name: str) -> list[str]:
        """Targets of outgoing arrows, in document order of the targets."""
        return list(self._out.get(name, ()))

    # -- functional updates --------------------------------------------------

    def with_arrow(self, arrow: Arrow) -> "CategoryGraph":
        return replace(self, arrows=self.arrows + (arrow,))

    def without_arrow(self, arrow: Arrow) -> "CategoryGraph":
        return self.without_arrows({arrow})

    def without_arrows(self, arrows) -> "CategoryGraph":
        """Drop every arrow equal to one of `arrows`."""
        return replace(self, arrows=tuple(a for a in self.arrows
                                          if a not in arrows))


def composite_name(members) -> str:
    """Deterministic name for a materialized composite: sorted, '_'-joined."""
    return COMPOSITE_SEP.join(sorted(members))


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

_TOP_KEYS = {"objects", "arrows", "fds", "mvds", "mvd_objects", "provenance"}
_OBJ_KEYS = {"name", "kind", "limit"}
_ARROW_KEYS = {"name", "source", "target", "projection"}
_FD_KEYS = {"lhs", "rhs"}
_MVD_KEYS = {"lhs", "rhs", "context"}


def _entries(doc: dict, key: str) -> list[dict]:
    """The entries of a top-level list, each checked to be an object."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise SchemaError(f"{key!r} must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError(f"every entry of {key!r} must be an object, "
                              f"not {entry!r}")
    return entries


def _check_keys(entry: dict, allowed: set, required: tuple[str, ...],
                where: str, flags: tuple[str, ...] = ()) -> None:
    """Reject unknown keys, `required` keys without a string value, and
    `flags` keys whose value is not a JSON boolean."""
    unknown = set(entry) - allowed
    if unknown:
        raise SchemaError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key in required:
        if not isinstance(entry.get(key), str):
            raise SchemaError(f"{where} needs a string {key!r}")
    for key in flags:
        if not isinstance(entry.get(key, False), bool):
            raise SchemaError(f"{where} needs true or false for {key!r}, "
                              f"not {entry[key]!r}")


def parse_schema(text: str) -> tuple[CategoryGraph, DependencySet]:
    """Parse a JSON schema document into a graph plus declared dependencies.

    Performs syntactic and referential checks only; semantic invariants are
    the business of :func:`validate`.  Any malformed document raises
    :class:`SchemaError`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # over-long number, deep nesting
        raise SchemaError(f"unreadable document: {e}")
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    _check_keys(doc, _TOP_KEYS, (), "document")

    objects = []
    for entry in _entries(doc, "objects"):
        _check_keys(entry, _OBJ_KEYS, ("name", "kind"),
                    f"object {entry.get('name', '?')!r}", flags=("limit",))
        objects.append(ObjectDecl(
            name=entry["name"],
            kind=entry["kind"],
            is_limit=entry.get("limit", False),
        ))
    graph = CategoryGraph(objects=tuple(objects))
    declared = set(graph.object_map)

    arrows = []
    for entry in _entries(doc, "arrows"):
        _check_keys(entry, _ARROW_KEYS, ("name", "source", "target"),
                    f"arrow {entry.get('name', '?')!r}",
                    flags=("projection",))
        for end in (entry["source"], entry["target"]):
            if end not in declared:
                raise SchemaError(f"undeclared object {end}")
        arrows.append(Arrow(
            name=entry["name"],
            source=entry["source"],
            target=entry["target"],
            is_projection=entry.get("projection", False),
        ))

    def _names(values, where):
        if not isinstance(values, list) \
                or not all(isinstance(v, str) for v in values):
            raise SchemaError(f"{where} needs a list of object names, "
                              f"not {values!r}")
        for v in values:
            if v not in declared:
                raise SchemaError(f"undeclared object {v} in {where}")
        return frozenset(values)

    fds = []
    for entry in _entries(doc, "fds"):
        _check_keys(entry, _FD_KEYS, (), "fd")
        fds.append(FD(_names(entry.get("lhs"), "fd"),
                      _names(entry.get("rhs"), "fd")))
    mvds = []
    for entry in _entries(doc, "mvds"):
        _check_keys(entry, _MVD_KEYS, ("context",), "mvd")
        if entry["context"] not in declared:
            raise SchemaError(f"undeclared object {entry['context']} in mvd context")
        mvds.append(MVD(_names(entry.get("lhs"), "mvd"),
                        _names(entry.get("rhs"), "mvd"), entry["context"]))

    graph = CategoryGraph(
        objects=tuple(objects),
        arrows=tuple(arrows),
        mvd_objects=_names(doc.get("mvd_objects", []), "mvd_objects"),
    )
    return graph, DependencySet(fds=tuple(fds), mvds=tuple(mvds))


def serialize_schema(graph: CategoryGraph, deps: DependencySet,
                     provenance: list | None = None) -> str:
    """Render a schema document; inverse of :func:`parse_schema`."""
    doc: dict = {"objects": [], "arrows": [], "fds": [], "mvds": []}
    for o in graph.objects:
        entry: dict = {"name": o.name, "kind": o.kind}
        if o.is_limit:
            entry["limit"] = True
        doc["objects"].append(entry)
    for a in graph.arrows:
        doc["arrows"].append({"name": a.name, "source": a.source,
                              "target": a.target, "projection": a.is_projection})
    for f in deps.fds:
        doc["fds"].append({"lhs": sorted(f.lhs), "rhs": sorted(f.rhs)})
    for m in deps.mvds:
        doc["mvds"].append({"lhs": sorted(m.lhs), "rhs": sorted(m.rhs),
                            "context": m.context})
    if graph.mvd_objects:
        doc["mvd_objects"] = sorted(graph.mvd_objects)
    if provenance is not None:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    severity: str = "error"  # or "warning"


def validate(graph: CategoryGraph, deps: DependencySet) -> list[Violation]:
    """Check semantic invariants; returns a report (no errors = valid).

    Warnings (e.g. an entity with no attribute objects) do not make the
    schema invalid; see :func:`is_valid`.
    """
    report: list[Violation] = []
    objmap = graph.object_map

    pairs: dict[tuple[str, str], list[str]] = {}
    for a in graph.arrows:
        pairs.setdefault(a.pair, []).append(a.name)
        for end in a.pair:
            if end not in objmap:
                report.append(Violation(
                    "undeclared-object",
                    f"arrow {a.name!r} references undeclared object {end!r}"))
        if a.is_projection and a.source in objmap \
                and objmap[a.source].kind != "relationship":
            report.append(Violation(
                "projection-source",
                f"projection arrow {a.name!r} leaves non-relationship "
                f"object {a.source!r}"))
    for (s, t), names in pairs.items():
        if len(names) > 1:
            report.append(Violation(
                "thinness",
                f"multiple arrows {sorted(names)} between {s!r} and {t!r}"))

    for name in sorted(graph.mvd_objects):
        if name not in objmap or objmap[name].kind != "relationship":
            report.append(Violation(
                "mvd-object-kind",
                f"mvd object {name!r} is not a declared relationship object"))

    for m in deps.mvds:
        if m.context not in objmap:
            report.append(Violation(
                "mvd-context", f"MVD context {m.context!r} is undeclared"))
            continue
        if objmap[m.context].kind != "relationship":
            report.append(Violation(
                "mvd-context",
                f"MVD context {m.context!r} is not a relationship object"))
            continue
        pi = graph.projection_targets(m.context)
        missing = (m.lhs | m.rhs) - pi
        if missing:
            report.append(Violation(
                "mvd-containment",
                f"MVD {m} mentions {sorted(missing)} outside the projection "
                f"targets of {m.context!r}"))

    for f in deps.fds:
        missing = (f.lhs | f.rhs) - set(objmap)
        if missing:
            report.append(Violation(
                "fd-undeclared", f"FD {f} references undeclared {sorted(missing)}"))

    for o in graph.objects:
        if o.kind == "relationship" and not graph.projection_targets(o.name):
            report.append(Violation(
                "relationship-no-projections",
                f"relationship object {o.name!r} has no projection arrows",
                severity="warning"))
        if o.kind == "entity":
            has_attr = any(objmap[t].kind == "attribute"
                           for t in graph.out_neighbours(o.name))
            if not has_attr:
                report.append(Violation(
                    "entity-no-attributes",
                    f"entity object {o.name!r} has no attribute objects",
                    severity="warning"))
    return report


def is_valid(report: list[Violation]) -> bool:
    return not any(v.severity == "error" for v in report)


# ---------------------------------------------------------------------------
# graph -> FD conversion (the first step of both closure algorithms)
# ---------------------------------------------------------------------------

def graph_to_fds(graph: CategoryGraph | GraphIndex) -> tuple[FD, ...]:
    """Read the functional dependencies off a graph or its index.

    Each arrow X -> Y contributes {X} -> {Y}; each relationship object R
    with projection targets A1..An contributes the key pair
    {R} -> {A1..An} and {A1..An} -> {R}.
    """
    out: list[FD] = []
    for a in graph.arrows:
        out.append(FD(frozenset([a.source]), frozenset([a.target])))
    for o in graph.object_map.values():
        if o.kind != "relationship":
            continue
        pi = graph.projection_targets(o.name)
        if not pi:
            continue
        out.append(FD(frozenset([o.name]), pi))
        out.append(FD(pi, frozenset([o.name])))
    return tuple(out)
