from dataclasses import replace

import pytest

from catnorm import (
    FD,
    Arrow,
    CategoryGraph,
    DependencySet,
    ObjectDecl,
    SchemaError,
    fd,
    graph_to_fds,
    is_valid,
    mvd,
    parse_schema,
    serialize_schema,
    validate,
)


def test_parse_fig5(fig5):
    graph, deps = fig5
    assert len(graph.objects) == 5
    assert len(graph.arrows) == 4
    assert deps.fds == (fd("B", "C"),)
    assert not deps.mvds


def test_parse_empty():
    graph, deps = parse_schema('{"objects": [], "arrows": []}')
    assert not graph.objects and not graph.arrows
    assert not deps.fds and not deps.mvds


def test_parse_undeclared_target():
    doc = ('{"objects": [{"name": "A", "kind": "entity"}], '
           '"arrows": [{"name": "f", "source": "A", "target": "Z"}]}')
    with pytest.raises(SchemaError, match="undeclared object Z"):
        parse_schema(doc)


def test_parse_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown key"):
        parse_schema('{"objects": [], "arrowz": []}')


def test_parse_duplicate_object():
    doc = ('{"objects": [{"name": "A", "kind": "entity"}, '
           '{"name": "A", "kind": "attribute"}]}')
    with pytest.raises(SchemaError, match="duplicate"):
        parse_schema(doc)


def test_duplicate_names_reported_once_and_sorted():
    objects = tuple(ObjectDecl(n, "entity") for n in "BACAB")
    with pytest.raises(SchemaError,
                       match=r"duplicate object name\(s\): \['A', 'B'\]$"):
        CategoryGraph(objects=objects)


def test_parse_rejects_domain_key():
    doc = '{"objects": [{"name": "A", "kind": "attribute", "domain": "int"}]}'
    with pytest.raises(SchemaError, match=r"unknown key\(s\) \['domain'\]"):
        parse_schema(doc)


_AB = '{"name": "A", "kind": "entity"}, {"name": "B", "kind": "entity"}'


_MALFORMED = {
    "non-object entry": ('{"objects": [1]}', "must be an object"),
    "string objects": ('{"objects": "AB"}', "must be a list"),
    "missing name": ('{"objects": [{"kind": "entity"}]}',
                     "needs a string 'name'"),
    "list name": ('{"objects": [{"name": ["A"], "kind": "entity"}]}',
                  "needs a string 'name'"),
    "number kind": ('{"objects": [{"name": "A", "kind": 3}]}',
                    "needs a string 'kind'"),
    "missing target": (
        f'{{"objects": [{_AB}], "arrows": [{{"name": "f", "source": "A"}}]}}',
        "needs a string 'target'"),
    "list source": (
        f'{{"objects": [{_AB}], "arrows": [{{"name": "f", "source": ["A"], '
        f'"target": "B"}}]}}', "needs a string 'source'"),
    "string lhs": (
        f'{{"objects": [{_AB}], "fds": [{{"lhs": "AB", "rhs": ["A"]}}]}}',
        "list of object names"),
    "string rhs": (
        f'{{"objects": [{_AB}], "fds": [{{"lhs": ["A"], "rhs": "B"}}]}}',
        "list of object names"),
    "nested lhs": (
        f'{{"objects": [{_AB}], "fds": [{{"lhs": [["A"]], "rhs": ["B"]}}]}}',
        "list of object names"),
    "missing lhs": (f'{{"objects": [{_AB}], "fds": [{{"rhs": ["B"]}}]}}',
                    "list of object names"),
    "list context": (
        f'{{"objects": [{_AB}], "mvds": [{{"lhs": ["A"], "rhs": ["B"], '
        f'"context": ["A"]}}]}}', "needs a string 'context'"),
    "string mvd_objects": ('{"mvd_objects": "A"}', "list of object names"),
    "string limit": (
        '{"objects": [{"name": "R", "kind": "relationship", "limit": "no"}]}',
        "needs true or false for 'limit', not 'no'"),
    "string projection": (
        f'{{"objects": [{_AB}], "arrows": [{{"name": "f", "source": "A", '
        f'"target": "B", "projection": "false"}}]}}',
        "needs true or false for 'projection', not 'false'"),
    "deep nesting": ("[" * 100000, "unreadable"),
    "long number": ("1" * 5000, "unreadable"),
}


@pytest.mark.parametrize("doc, message", _MALFORMED.values(), ids=_MALFORMED)
def test_parse_rejects_malformed_shapes(doc, message):
    with pytest.raises(SchemaError, match=message):
        parse_schema(doc)


_UNDECLARED = {
    "fd side": ('"fds": [{"lhs": ["A"], "rhs": ["Z"]}]',
                "undeclared object Z in fd"),
    "mvd side": ('"mvds": [{"lhs": ["Z"], "rhs": ["B"], "context": "A"}]',
                 "undeclared object Z in mvd"),
    "mvd context": ('"mvds": [{"lhs": ["A"], "rhs": ["B"], "context": "Z"}]',
                    "undeclared object Z in mvd context"),
}


@pytest.mark.parametrize("deps, message", _UNDECLARED.values(),
                         ids=_UNDECLARED)
def test_parse_rejects_undeclared_dependency_names(deps, message):
    with pytest.raises(SchemaError, match=message):
        parse_schema(f'{{"objects": [{_AB}], {deps}}}')


def test_parse_syntax_error_has_position():
    with pytest.raises(SchemaError, match="line 1"):
        parse_schema("{nope")


def test_roundtrip(fig5, fig6):
    for graph, deps in (fig5, fig6):
        graph2, deps2 = parse_schema(serialize_schema(graph, deps))
        assert graph2 == graph
        assert deps2 == deps


def test_roundtrip_keeps_limit_flag():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "entity"),
                 ObjectDecl("R", "relationship", is_limit=True)),
        arrows=(Arrow("p", "R", "A", is_projection=True),
                Arrow("q", "R", "B", is_projection=True)))
    text = serialize_schema(graph, DependencySet())
    assert '"limit": true' in text
    graph2, _ = parse_schema(text)
    assert graph2 == graph and graph2.object_map["R"].is_limit


def test_limit_flag_requires_relationship():
    with pytest.raises(SchemaError):
        ObjectDecl("A", "entity", is_limit=True)


def test_no_self_loops():
    with pytest.raises(SchemaError):
        Arrow("f", "A", "A")


def test_validate_fig6_clean(fig6):
    graph, deps = fig6
    assert is_valid(validate(graph, deps))


def test_validate_thinness():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute")),
        arrows=(Arrow("f", "A", "B"), Arrow("g", "A", "B")))
    report = validate(graph, DependencySet())
    assert any(v.code == "thinness" for v in report)
    assert not is_valid(report)


def test_validate_mvd_containment(fig6):
    graph, _ = fig6
    bad = DependencySet(mvds=(mvd("A", "E0", "X"),))
    graph = replace(graph, objects=graph.objects + (ObjectDecl("E0", "entity"),))
    report = validate(graph, bad)
    assert any(v.code == "mvd-containment" for v in report)


def test_validate_mvd_object_must_be_relationship():
    graph = CategoryGraph(objects=(ObjectDecl("A", "entity"),),
                          mvd_objects=frozenset(["A"]))
    report = validate(graph, DependencySet())
    assert [v.code for v in report if v.severity == "error"] \
        == ["mvd-object-kind"]


def test_validate_mvd_context_must_be_relationship():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute"),
                 ObjectDecl("C", "attribute")),
        arrows=(Arrow("f", "A", "B"), Arrow("g", "A", "C")))
    report = validate(graph, DependencySet(mvds=(mvd("B", "C", "A"),)))
    (error,) = [v for v in report if v.severity == "error"]
    assert error.code == "mvd-context"
    assert "not a relationship object" in error.message


def test_relationship_without_projections_is_warning_only():
    graph = CategoryGraph(objects=(ObjectDecl("R", "relationship"),))
    report = validate(graph, DependencySet())
    assert [(v.code, v.severity) for v in report] \
        == [("relationship-no-projections", "warning")]
    assert is_valid(report)


def test_validate_reports_undeclared_names():
    """`parse_schema` rejects both cases, so only hand-built graphs get
    here."""
    graph = CategoryGraph(objects=(ObjectDecl("A", "entity"),),
                          arrows=(Arrow("f", "A", "Z"),))
    report = validate(graph, DependencySet(fds=(fd("A", "Y"),)))
    assert {v.code for v in report if v.severity == "error"} == \
        {"undeclared-object", "fd-undeclared"}
    assert any("'Z'" in v.message for v in report
               if v.code == "undeclared-object")
    assert any("['Y']" in v.message for v in report
               if v.code == "fd-undeclared")


def test_validate_projection_source():
    graph = CategoryGraph(
        objects=(ObjectDecl("A", "entity"), ObjectDecl("B", "attribute")),
        arrows=(Arrow("p", "A", "B", is_projection=True),))
    report = validate(graph, DependencySet())
    assert any(v.code == "projection-source" for v in report)


def test_entity_without_attributes_is_warning_only():
    graph = CategoryGraph(objects=(ObjectDecl("A", "entity"),))
    report = validate(graph, DependencySet())
    assert report and all(v.severity == "warning" for v in report)
    assert is_valid(report)


def test_graph_to_fds_fig5(fig5):
    graph, _ = fig5
    fds = set(graph_to_fds(graph))
    assert fds == {fd("D", "E"), fd("D", "A"), fd("A", "B"), fd("A", "C"),
                   fd("D", "AE"), fd("AE", "D")}
    assert len(graph_to_fds(graph)) == len(graph.arrows) + 2


def test_graph_to_fds_fig6(fig6):
    graph, _ = fig6
    fds = set(graph_to_fds(graph))
    arrow_fds = {fd("X", "A"), fd("X", "B"), fd("X", "C"), fd("X", "D"),
                 fd("B", "C")}
    assert arrow_fds <= fds
    assert fd("X", "ABCD") in fds and fd("ABCD", "X") in fds


def test_graph_to_fds_empty():
    assert graph_to_fds(CategoryGraph()) == ()


def test_canonical_fds_split_rhs():
    deps = DependencySet(fds=(fd("A", "BC"),))
    assert set(deps.canonical_fds()) == {fd("A", "B"), fd("A", "C")}
