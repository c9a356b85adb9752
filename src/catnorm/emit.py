"""Lowering a reduced category graph to relational, XML DTD, property-graph
and hybrid schemas, with deterministic text renderers.

All emitters walk objects in document order (the order of declaration,
with materialized or decomposed objects appended), which is what fixes the
shape of the emitted schemas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import CategoryGraph, DependencySet, SchemaError, serialize_schema

EPSILON = "ε"
PCDATA = "#P"


# ---------------------------------------------------------------------------
# relational
# ---------------------------------------------------------------------------

@dataclass
class RelationDecl:
    name: str
    sort: list[str]
    has_surrogate: bool
    candidate_keys: list[frozenset[str]]
    foreign_keys: list[tuple[str, str]]  # (local column, referenced relation)

    def sort_set(self) -> frozenset[str]:
        return frozenset(self.sort)


@dataclass
class RelationalSchema:
    relations: list[RelationDecl] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _add(seq: list[str], item: str) -> None:
    """Append `item` unless `seq` already holds it."""
    if item not in seq:
        seq.append(item)


def _is_referencing(o_kind: str) -> bool:
    return o_kind in ("entity", "relationship")


def emit_relational(graph: CategoryGraph) -> RelationalSchema:
    """One relation per object with outgoing edges.

    The seed column is named after the object itself and carries the
    surrogate key for entity/relationship objects; outgoing neighbours add
    their labels, with foreign keys for entity/relationship targets.
    Clean() then drops unreferenced surrogates and subsumed relations.
    """
    schema = RelationalSchema()
    objmap = graph.object_map
    processed: set[str] = set()
    bijective: dict[str, list[str]] = {}

    def add_neighbours(rel: RelationDecl, name: str):
        """Depth-first, in preorder, through the bidirectional neighbours;
        an explicit stack, so a long two-way chain cannot overflow."""
        stack = [(name, iter(graph.out_neighbours(name)))]
        while stack:
            name, neighbours = stack[-1]
            n = next(neighbours, None)
            if n is None:
                stack.pop()
                continue
            if n not in rel.sort:
                rel.sort.append(n)
            if _is_referencing(objmap[n].kind):
                rel.foreign_keys.append((n, n))
            if graph.has_arrow(n, name):  # bidirectional neighbour
                bijective.setdefault(rel.name, []).append(n)
                if n not in processed:
                    processed.add(n)
                    stack.append((n, iter(graph.out_neighbours(n))))

    for o in graph.objects:
        if o.name in processed or not graph.out_neighbours(o.name):
            continue
        rel = RelationDecl(name=o.name, sort=[o.name],
                           has_surrogate=_is_referencing(o.kind),
                           candidate_keys=[], foreign_keys=[])
        processed.add(o.name)
        add_neighbours(rel, o.name)
        schema.relations.append(rel)

    _clean(schema)

    for rel in schema.relations:
        keys: list[frozenset[str]] = []
        if rel.name in rel.sort:
            keys.append(frozenset([rel.name]))
        elif objmap.get(rel.name) and objmap[rel.name].kind == "relationship":
            pi = graph.projection_targets(rel.name) & rel.sort_set()
            keys.append(pi if pi else rel.sort_set())
        else:
            keys.append(rel.sort_set())
        for n in bijective.get(rel.name, ()):
            if n in rel.sort:
                keys.append(frozenset([n]))
        rel.candidate_keys = keys
    return schema


def _clean(schema: RelationalSchema):
    referenced = set()
    for rel in schema.relations:
        for col, target in rel.foreign_keys:
            if col != rel.name:
                referenced.add(target)
    for rel in schema.relations:
        if rel.has_surrogate and rel.name not in referenced:
            rel.sort.remove(rel.name)
            rel.has_surrogate = False
    # drop subsumed relations, and foreign keys pointing at dropped ones;
    # of relations with equal column sets the first in document order stays
    kept: list[RelationDecl] = []
    sorts = [r.sort_set() for r in schema.relations]
    for i, (rel, s) in enumerate(zip(schema.relations, sorts)):
        subsumed = any(s < s2 or (s == s2 and j < i)
                       for j, s2 in enumerate(sorts))
        if subsumed:
            schema.warnings.append(f"relation {rel.name} subsumed and removed")
        else:
            kept.append(rel)
    names = {r.name for r in kept if r.has_surrogate}
    for rel in kept:
        rel.foreign_keys = [(c, t) for c, t in rel.foreign_keys
                            if t in names and c != rel.name]
    schema.relations = kept


def render_sql(schema: RelationalSchema) -> str:
    """ANSI-flavoured CREATE TABLE text."""
    lines = []
    for w in schema.warnings:
        lines.append(f"-- warning: {w}")
    for rel in schema.relations:
        fk_cols = {c for c, _ in rel.foreign_keys}
        cols = []
        for col in rel.sort:
            cols.append(f"    {col} {_sql_type(col, rel, fk_cols)}")
        if rel.candidate_keys:
            pk = ", ".join(sorted(rel.candidate_keys[0]))
            cols.append(f"    PRIMARY KEY ({pk})")
        for col, target in rel.foreign_keys:
            cols.append(f"    FOREIGN KEY ({col}) REFERENCES {target} ({target})")
        body = ",\n".join(cols)
        lines.append(f"CREATE TABLE {rel.name} (\n{body}\n);")
    return "\n".join(lines) + "\n"


def _sql_type(col: str, rel: RelationDecl, fk_cols: set[str]) -> str:
    # surrogate keys and references to them are integers
    if (rel.has_surrogate and col == rel.name) or col in fk_cols:
        return "INTEGER"
    return "TEXT"


# ---------------------------------------------------------------------------
# XML DTD
# ---------------------------------------------------------------------------

@dataclass
class DtdSchema:
    tags: list[str] = field(default_factory=list)                 # L
    attributes: list[str] = field(default_factory=list)           # T
    content: dict[str, list[str]] = field(default_factory=dict)   # P
    tag_attrs: dict[str, list[str]] = field(default_factory=dict) # R
    root: str = EPSILON                                           # r


def emit_dtd(graph: CategoryGraph) -> DtdSchema:
    """Wide-and-shallow DTD: every object with outgoing edges becomes a tag
    under the root; neighbours with outgoing edges are referenced through
    ID attributes, leaves become child elements."""
    dtd = DtdSchema(attributes=["@ID"])

    def has_outgoing(name: str) -> bool:
        return bool(graph.out_neighbours(name))

    for o in graph.objects:
        if not has_outgoing(o.name):
            continue
        _add(dtd.tags, o.name)
        dtd.content.setdefault(EPSILON, []).append(o.name + "+")
        dtd.tag_attrs[o.name] = ["@ID"]
        for n in graph.out_neighbours(o.name):
            if has_outgoing(n):
                ref = f"@{n}_ID"
                _add(dtd.attributes, ref)
                _add(dtd.tag_attrs[o.name], ref)
            else:
                dtd.content.setdefault(o.name, []).append(n)
                _add(dtd.tags, n)
    return dtd


def render_dtd(dtd: DtdSchema) -> str:
    """Standard <!ELEMENT>/<!ATTLIST> text; the root is rendered as "root"."""
    root_tag = "root"
    lines = []
    factors = dtd.content.get(EPSILON, [])
    lines.append(f"<!ELEMENT {root_tag} ({', '.join(factors)})>" if factors
                 else f"<!ELEMENT {root_tag} EMPTY>")
    for tag in dtd.tags:
        kids = dtd.content.get(tag)
        if kids:
            lines.append(f"<!ELEMENT {tag} ({', '.join(kids)})>")
        elif dtd.tag_attrs.get(tag):
            lines.append(f"<!ELEMENT {tag} EMPTY>")
        else:
            lines.append(f"<!ELEMENT {tag} (#PCDATA)>")
        attrs = dtd.tag_attrs.get(tag, [])
        for a in attrs:
            kind = "ID" if a == "@ID" else "IDREF"
            lines.append(f"<!ATTLIST {tag} {a[1:]} {kind} #REQUIRED>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# property graph
# ---------------------------------------------------------------------------

@dataclass
class PropertyGraphSchema:
    vertices: list[str] = field(default_factory=list)             # V
    edges: list[tuple[str, str]] = field(default_factory=list)    # E (undirected)
    attributes: list[str] = field(default_factory=list)           # T
    properties: dict[str, list[str]] = field(default_factory=dict)  # P

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges


def emit_property_graph(graph: CategoryGraph) -> PropertyGraphSchema:
    """Objects with outgoing edges become vertex labels with a surrogate-key
    property; attribute-object leaves become properties, everything else an
    edge."""
    pg = PropertyGraphSchema()
    objmap = graph.object_map

    for o in graph.objects:
        if not graph.out_neighbours(o.name):
            continue
        _add(pg.vertices, o.name)
        pg.properties.setdefault(o.name, [])
        _add(pg.properties[o.name], "SK")
        _add(pg.attributes, "SK")
        for n in graph.out_neighbours(o.name):
            if objmap[n].kind == "attribute" and not graph.out_neighbours(n):
                _add(pg.properties[o.name], n)
                _add(pg.attributes, n)
            elif not pg.has_edge(o.name, n):
                pg.edges.append((o.name, n))
    return pg


def render_property_graph(pg: PropertyGraphSchema) -> str:
    doc = {
        "vertices": [{"label": v, "properties": pg.properties.get(v, [])}
                     for v in pg.vertices],
        "edges": [list(e) for e in pg.edges],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# hybrid decomposition
# ---------------------------------------------------------------------------

def decompose_hybrid(graph: CategoryGraph,
                     assignment: dict[str, str]) -> dict[str, CategoryGraph]:
    """Split a graph into per-partition subgraphs.

    An arrow follows its source's partition and carries its target along,
    so every subgraph is endpoint-closed and the split is lossless.
    """
    missing = [o.name for o in graph.objects if o.name not in assignment]
    if missing:
        raise SchemaError(f"objects not assigned to any partition: {missing}")

    members: dict[str, set[str]] = {}
    arrows: dict[str, list] = {}
    for o in graph.objects:
        members.setdefault(assignment[o.name], set()).add(o.name)
        arrows.setdefault(assignment[o.name], [])
    for a in graph.arrows:
        part = assignment[a.source]
        arrows[part].append(a)
        members[part].add(a.target)

    out: dict[str, CategoryGraph] = {}
    for part in sorted(members):
        objs = tuple(o for o in graph.objects if o.name in members[part])
        out[part] = CategoryGraph(
            objects=objs, arrows=tuple(arrows[part]),
            mvd_objects=graph.mvd_objects & {o.name for o in objs})

    # lossless by construction; keep the assertion as an internal check
    covered_objects = set().union(*(set(o.name for o in g.objects)
                                    for g in out.values())) if out else set()
    covered_arrows = set().union(*(g.arrow_pairs() for g in out.values())) \
        if out else set()
    if covered_objects != set(graph.object_map) \
            or covered_arrows != graph.arrow_pairs():
        raise SchemaError("internal error: hybrid decomposition lost content")
    return out


def render_hybrid(parts: dict[str, CategoryGraph]) -> str:
    doc = [{"partition": part,
            "schema": json.loads(serialize_schema(g, DependencySet()))}
           for part, g in sorted(parts.items())]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
