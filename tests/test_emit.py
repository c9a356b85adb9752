import builtins
import json
import random

import pytest

from catnorm import (
    Arrow,
    CategoryGraph,
    ObjectDecl,
    SchemaError,
    decompose_hybrid,
    emit_dtd,
    emit_property_graph,
    emit_relational,
    first_reduced,
    render_dtd,
    render_hybrid,
    render_property_graph,
    render_sql,
    second_reduced,
)
from catnorm import emit
from catnorm.core import FDIndex
from catnorm.reduce import redundant_arrow
from genschema import random_fd_schema


@pytest.fixture
def rr5(fig5):
    graph, deps = fig5
    return first_reduced(graph, deps.fds)[0]


@pytest.fixture
def rr6(fig6):
    graph, deps = fig6
    return second_reduced(graph, deps.fds, deps.mvds)[0]


def by_sort(schema):
    return {r.sort_set(): r for r in schema.relations}


def test_relational_fig5(rr5):
    schema = emit_relational(rr5)
    rels = by_sort(schema)
    assert set(rels) == {frozenset("AE"), frozenset("AB"), frozenset("BC")}
    assert rels[frozenset("AE")].candidate_keys[0] == frozenset("AE")
    assert rels[frozenset("AB")].candidate_keys[0] == frozenset("A")
    assert rels[frozenset("BC")].candidate_keys[0] == frozenset("B")
    assert not schema.warnings


def test_relational_fig6(rr6):
    schema = emit_relational(rr6)
    assert set(by_sort(schema)) == {frozenset("AB"), frozenset("AD"),
                                    frozenset("AC"), frozenset("BC")}


def test_relational_clean_drops_unreferenced_surrogate(rr5):
    schema = emit_relational(rr5)
    d = next(r for r in schema.relations if r.name == "D")
    assert not d.has_surrogate and "D" not in d.sort


def test_relational_no_subsumed_sorts(rr5, rr6):
    for rr in (rr5, rr6):
        sorts = [r.sort_set() for r in emit_relational(rr).relations]
        for i, s in enumerate(sorts):
            for j, t in enumerate(sorts):
                assert i == j or not s <= t


def test_relational_isolated_object_emits_nothing():
    graph = CategoryGraph(objects=(ObjectDecl("A", "entity"),))
    assert emit_relational(graph).relations == []


def test_relational_unreduced_warning(fig5):
    # the rule behind the CLI's warning on an unreduced graph
    graph, deps = fig5
    from catnorm import fd_closure_graph
    assert redundant_arrow(fd_closure_graph(graph, deps.fds)) is not None


def test_relational_runs_no_closure_on_reduced_graphs(monkeypatch, rr5,
                                                      fig6):
    graph, deps = fig6
    rr6 = second_reduced(graph, deps.fds, deps.mvds)[0]
    calls = []
    closure = FDIndex.closure

    def counted(self, *args, **kwargs):
        calls.append(args)
        return closure(self, *args, **kwargs)

    monkeypatch.setattr(FDIndex, "closure", counted)
    emit_relational(rr5)
    emit_relational(rr6)
    assert calls == []


@pytest.mark.parametrize("sign", [1, -1])
def test_relational_equal_sorts_keep_first_in_document_order(monkeypatch,
                                                             sign):
    # the 1RR has O0 and O1 with one column set; O0 comes first.  The kept
    # relation must not depend on allocation, so id() is replaced by two
    # orderings, each the reverse of the other.
    order: dict[int, int] = {}
    monkeypatch.setattr(
        emit, "id", lambda o: sign * order.setdefault(builtins.id(o),
                                                      len(order)),
        raising=False)
    graph, deps = random_fd_schema(random.Random(22))
    reduced, _ = first_reduced(graph, deps.fds)
    schema = emit_relational(reduced)
    assert [r.name for r in schema.relations] == ["O0"]
    assert "relation O1 subsumed and removed" in schema.warnings


def test_relational_bijective_candidate_key():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "entity"),
                 ObjectDecl("a", "attribute"), ObjectDecl("b", "attribute")),
        arrows=(Arrow("f", "A", "B"), Arrow("g", "B", "A"),
                Arrow("fa", "A", "a"), Arrow("fb", "B", "b")))
    schema = emit_relational(graph)
    assert len(schema.relations) == 1
    (rel,) = schema.relations
    assert frozenset(["B"]) in rel.candidate_keys


def test_relational_long_two_way_chain():
    """One relation gathers a two-way chain far longer than Python's
    recursion limit."""
    names = [f"E{i}" for i in range(1200)]
    arrows = [Arrow(f"{d}{i}", s, t)
              for i, (u, v) in enumerate(zip(names, names[1:]))
              for d, s, t in (("f", u, v), ("g", v, u))]
    graph = CategoryGraph(
        objects=tuple(ObjectDecl(n, "entity") for n in names)
        + (ObjectDecl("a", "attribute"),),
        arrows=tuple(arrows) + (Arrow("h", "E0", "a"),))
    (rel,) = emit_relational(graph).relations
    # E0's surrogate is referenced by no relation, so clean() drops it
    assert rel.name == "E0" and rel.sort == names[1:] + ["a"]


def test_relational_two_way_branches_keep_preorder():
    """Columns follow a depth-first preorder through the two-way
    neighbours: A's branch through B and C ends before its branch to D."""
    graph = CategoryGraph(
        objects=tuple(ObjectDecl(n, "entity") for n in "ABCDE")
        + tuple(ObjectDecl(n, "attribute") for n in "wxyz"),
        arrows=(Arrow("ab", "A", "B"), Arrow("ba", "B", "A"),
                Arrow("bc", "B", "C"), Arrow("cb", "C", "B"),
                Arrow("ad", "A", "D"), Arrow("da", "D", "A"),
                Arrow("be", "B", "E"), Arrow("ax", "A", "x"),
                Arrow("cy", "C", "y"), Arrow("dz", "D", "z"),
                Arrow("ew", "E", "w")))
    assert render_sql(emit_relational(graph)) == (
        "CREATE TABLE A (\n"
        "    B TEXT,\n"
        "    C TEXT,\n"
        "    y TEXT,\n"
        "    E INTEGER,\n"
        "    D TEXT,\n"
        "    z TEXT,\n"
        "    x TEXT,\n"
        "    PRIMARY KEY (B, C, D, E, x, y, z),\n"
        "    FOREIGN KEY (E) REFERENCES E (E)\n"
        ");\n"
        "CREATE TABLE E (\n"
        "    E INTEGER,\n"
        "    w TEXT,\n"
        "    PRIMARY KEY (E)\n"
        ");\n")


def test_sql_rendering(rr5):
    sql = render_sql(emit_relational(rr5))
    assert "CREATE TABLE D" in sql
    assert "PRIMARY KEY (A, E)" in sql
    assert "FOREIGN KEY (A) REFERENCES A (A)" in sql
    assert sql == render_sql(emit_relational(rr5))  # deterministic


def test_dtd_fig5(rr5):
    dtd = emit_dtd(rr5)
    assert set(dtd.tags) == set("ABCDE")
    assert set(dtd.attributes) == {"@ID", "@A_ID", "@B_ID"}
    assert dtd.content["ε"] == ["D+", "A+", "B+"]
    assert dtd.content["D"] == ["E"] and dtd.content["B"] == ["C"]
    assert dtd.tag_attrs == {"D": ["@ID", "@A_ID"], "A": ["@ID", "@B_ID"],
                             "B": ["@ID"]}
    assert dtd.root == "ε"


def test_dtd_fig6(rr6):
    dtd = emit_dtd(rr6)
    assert set(dtd.tags) == {"A", "B", "C", "D", "X1", "X2"}
    assert set(dtd.attributes) == {"@ID", "@A_ID", "@B_ID"}
    assert dtd.content["ε"] == ["A+", "B+", "X1+", "X2+"]
    assert dtd.content["A"] == ["C"] and dtd.content["B"] == ["C"]
    assert dtd.content["X2"] == ["D"]
    assert set(dtd.tag_attrs["X1"]) == {"@ID", "@A_ID", "@B_ID"}
    assert set(dtd.tag_attrs["X2"]) == {"@ID", "@A_ID"}
    assert dtd.tag_attrs["A"] == dtd.tag_attrs["B"] == ["@ID"]


def test_dtd_empty_graph():
    dtd = emit_dtd(CategoryGraph())
    assert not dtd.tags and "ε" not in dtd.content
    assert dtd.root == "ε"


def test_dtd_rendering(rr5):
    text = render_dtd(emit_dtd(rr5))
    assert "<!ELEMENT root (D+, A+, B+)>" in text
    assert "<!ELEMENT E (#PCDATA)>" in text
    assert "<!ATTLIST D A_ID IDREF #REQUIRED>" in text


def test_pg_fig5(rr5):
    pg = emit_property_graph(rr5)
    assert set(pg.vertices) == {"A", "B", "D"}
    assert {tuple(sorted(e)) for e in pg.edges} == {("A", "B"), ("A", "D")}
    assert set(pg.attributes) == {"SK", "C", "E"}
    assert set(pg.properties["B"]) == {"SK", "C"}
    assert set(pg.properties["D"]) == {"SK", "E"}
    assert pg.properties["A"] == ["SK"]


def test_pg_fig6(rr6):
    pg = emit_property_graph(rr6)
    assert set(pg.vertices) == {"A", "B", "X1", "X2"}
    assert {tuple(sorted(e)) for e in pg.edges} == \
        {("A", "X1"), ("B", "X1"), ("A", "X2")}
    assert set(pg.attributes) == {"SK", "C", "D"}
    assert set(pg.properties["A"]) == {"SK", "C"}
    assert set(pg.properties["B"]) == {"SK", "C"}
    assert set(pg.properties["X2"]) == {"SK", "D"}
    assert pg.properties["X1"] == ["SK"]


def test_pg_entity_with_attribute():
    graph = CategoryGraph(
        objects=(ObjectDecl("E", "entity"), ObjectDecl("a", "attribute")),
        arrows=(Arrow("f", "E", "a"),))
    pg = emit_property_graph(graph)
    assert pg.vertices == ["E"] and not pg.edges
    assert set(pg.properties["E"]) == {"SK", "a"}


def test_pg_rendering_roundtrips_as_json(rr6):
    doc = json.loads(render_property_graph(emit_property_graph(rr6)))
    assert {v["label"] for v in doc["vertices"]} == {"A", "B", "X1", "X2"}


def test_hybrid_identity(rr5):
    assignment = {o.name: "all" for o in rr5.objects}
    parts = decompose_hybrid(rr5, assignment)
    assert set(parts) == {"all"}
    assert parts["all"].arrow_pairs() == rr5.arrow_pairs()


def test_hybrid_copies_arrow_targets(rr5):
    assignment = {o.name: "graph" if o.name == "D" else "relational"
                  for o in rr5.objects}
    parts = decompose_hybrid(rr5, assignment)
    names = {o.name for o in parts["graph"].objects}
    assert names == {"D", "E", "A"}  # A copied in along D's arrow
    assert ("D", "A") in parts["graph"].arrow_pairs()


def test_hybrid_requires_total_assignment(rr5):
    with pytest.raises(SchemaError, match="not assigned"):
        decompose_hybrid(rr5, {"D": "x"})


def test_hybrid_rendering(rr5):
    assignment = {o.name: "all" for o in rr5.objects}
    doc = json.loads(render_hybrid(decompose_hybrid(rr5, assignment)))
    assert doc[0]["partition"] == "all"
    assert {o["name"] for o in doc[0]["schema"]["objects"]} == set("ABCDE")
