from itertools import combinations

import pytest

from catnorm import (
    DependencySet,
    SchemaError,
    RelationDecl,
    RelationalSchema,
    check_4nf,
    check_bcnf,
    check_improved_bcnf,
    check_xml_nf,
    derive_xml_fds,
    emit_dtd,
    emit_relational,
    fd,
    first_reduced,
    graph_to_fds,
    mvd,
    second_reduced,
)
from catnorm.nf import PathFD

from closure import attribute_closure


def rel(name, cols, key):
    return RelationDecl(name=name, sort=list(cols), has_surrogate=False,
                        candidate_keys=[frozenset(key)], foreign_keys=[])


def combined(graph, deps):
    return DependencySet(fds=tuple(graph_to_fds(graph)) + tuple(deps.fds),
                         mvds=tuple(deps.mvds))


def test_bcnf_fig5_reduced_all_satisfied(fig5):
    graph, deps = fig5
    reduced, _ = first_reduced(graph, deps.fds)
    cd = combined(reduced, deps)
    for r in emit_relational(reduced).relations:
        assert check_bcnf(r, cd).verdict == "satisfied"


def test_bcnf_unreduced_fig5_violated(fig5):
    graph, deps = fig5
    cd = combined(graph, deps)
    reports = [check_bcnf(r, cd) for r in emit_relational(graph).relations]
    witnesses = [w["dependency"] for rep in reports for w in rep.witnesses]
    assert "B -> C" in witnesses


def test_bcnf_no_nontrivial_fds():
    report = check_bcnf(rel("R", "AB", "AB"), DependencySet())
    assert report.verdict == "satisfied" and not report.witnesses


def test_bcnf_brute_force_agreement(fig5):
    graph, deps = fig5
    cd = combined(graph, deps)
    fds = cd.canonical_fds()
    for r in emit_relational(graph).relations:
        sort_set = r.sort_set()
        expect = "satisfied"
        for k in range(1, len(sort_set) + 1):
            for x in map(frozenset, combinations(sorted(sort_set), k)):
                closure = attribute_closure(x, fds)
                if (closure & sort_set) - x and not sort_set <= closure:
                    expect = "violated"
        assert check_bcnf(r, cd).verdict == expect


def test_bcnf_sort_bound():
    wide = rel("R", [f"A{i}" for i in range(13)], ["A0"])
    with pytest.raises(SchemaError, match="bound"):
        check_bcnf(wide, DependencySet())


def test_improved_bcnf_example():
    schema = RelationalSchema(relations=[
        rel("T1", "ABCD", "AB"), rel("T2", "AE", "A"),
        rel("T3", "BF", "B"), rel("T4", "EFC", "EF")])
    deps = DependencySet(fds=(fd("AB", "CD"), fd("A", "E"), fd("B", "F"),
                              fd("EF", "C")))
    report = check_improved_bcnf(schema, deps)
    assert report.verdict == "violated"
    assert any("C of T1" in w["reason"] for w in report.witnesses)


def test_improved_bcnf_fig5_pipeline(fig5):
    graph, deps = fig5
    reduced, _ = first_reduced(graph, deps.fds)
    schema = emit_relational(reduced)
    assert check_improved_bcnf(schema, combined(reduced, deps)).verdict == \
        "satisfied"


def test_improved_bcnf_single_relation_vacuous():
    schema = RelationalSchema(relations=[rel("T", "AB", "A")])
    deps = DependencySet(fds=(fd("A", "B"),))
    assert check_improved_bcnf(schema, deps).verdict == "satisfied"


def test_4nf_unreduced_fig6_violated(fig6):
    graph, deps = fig6
    cd = combined(graph, deps)
    reports = [check_4nf(r, cd) for r in emit_relational(graph).relations]
    witnesses = [w["dependency"] for rep in reports for w in rep.witnesses]
    assert "A ->> B" in witnesses


def test_4nf_reduced_fig6_satisfied(fig6):
    graph, deps = fig6
    reduced, _ = second_reduced(graph, deps.fds, deps.mvds)
    cd = combined(reduced, deps)
    for r in emit_relational(reduced).relations:
        assert check_4nf(r, cd).verdict == "satisfied"


def test_4nf_two_attributes_trivial():
    deps = DependencySet(mvds=(mvd("A", "B", "R"),))
    assert check_4nf(rel("R", "AB", "AB"), deps).verdict == "satisfied"


def test_4nf_sort_bound():
    wide = rel("R", [f"A{i}" for i in range(9)], ["A0"])
    with pytest.raises(SchemaError, match="bound"):
        check_4nf(wide, DependencySet())


def test_derive_xml_fds_fig5(fig5):
    graph, deps = fig5
    reduced, _ = first_reduced(graph, deps.fds)
    fds = derive_xml_fds(reduced, emit_dtd(reduced))
    rendered = {str(f) for f in fds}
    assert "ε.B.#P -> ε.B.C.#P" in rendered
    assert "ε.D.@ID -> ε.D.@A_ID" in rendered
    assert len(fds) == len(reduced.arrows)


def test_derive_xml_fds_empty():
    from catnorm import CategoryGraph
    assert derive_xml_fds(CategoryGraph(), emit_dtd(CategoryGraph())) == []


def test_xml_nf_fig5_satisfied(fig5):
    graph, deps = fig5
    reduced, _ = first_reduced(graph, deps.fds)
    dtd = emit_dtd(reduced)
    report = check_xml_nf(dtd, derive_xml_fds(reduced, dtd))
    assert report.verdict == "satisfied" and not report.witnesses


def test_xml_nf_student_counterexample():
    # BirthYear value does not determine the Age element it sits beside
    bad = PathFD(frozenset([("ε", "Student", "BirthYear", "#P")]),
                 ("ε", "Student", "Age", "#P"))
    from catnorm import DtdSchema
    report = check_xml_nf(DtdSchema(), [bad])
    assert report.verdict == "violated"
    assert report.witnesses[0]["dependency"].startswith("ε.Student")


def test_xml_nf_verdict_ignores_witness_text():
    # an element name that appears in the unknown-verdict reasons
    # does not hide the violation
    from catnorm import DtdSchema
    bad = PathFD(frozenset([("ε", "fragment", "BirthYear", "#P")]),
                 ("ε", "fragment", "Age", "#P"))
    assert check_xml_nf(DtdSchema(), [bad]).verdict == "violated"


def test_xml_nf_no_fds():
    from catnorm import DtdSchema
    assert check_xml_nf(DtdSchema(), []).verdict == "satisfied"


def test_xml_nf_unknown_fragment():
    from catnorm import DtdSchema
    weird = PathFD(frozenset([("ε", "A", "#P"), ("ε", "B", "#P")]),
                   ("ε", "C", "@ID"))
    assert check_xml_nf(DtdSchema(), [weird]).verdict == "unknown"


def test_report_serialization(fig5):
    graph, deps = fig5
    cd = combined(graph, deps)
    report = [check_bcnf(r, cd) for r in emit_relational(graph).relations]
    doc = [r.to_json() for r in report]
    assert all(set(d) == {"subject", "verdict", "witnesses"} for d in doc)


@pytest.mark.parametrize("lhs, verdict, reason", [
    (("ε", "A", "B", "#P"), "satisfied", None),  # trivial
    (("ε", "A", "@ID"), "satisfied", None),
    (("ε", "A", "@B_ID"), "violated",
     "reference attribute ε.A.@B_ID does not determine its element path"),
    (("ε", "A", "B"), "satisfied", None),
    (("ε", "A", "#P", "B"), "unknown", "unrecognized path form"),
], ids=["trivial", "id", "reference-attribute", "element-path",
        "unrecognized"])
def test_xml_nf_verdict_per_lhs_form(lhs, verdict, reason):
    from catnorm import DtdSchema
    f = PathFD(frozenset([lhs]), ("ε", "A", "B", "#P"))
    report = check_xml_nf(DtdSchema(), [f])
    assert report.verdict == verdict
    assert [w["reason"] for w in report.witnesses] == \
        ([reason] if reason else [])
