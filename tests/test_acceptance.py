"""End-to-end acceptance suite: golden pipelines, theorem-level property
suites, counterexample detection, oracle agreement, and performance sanity."""

import random
import time
from itertools import combinations

import pytest

from catnorm import (
    DependencySet,
    RelationalSchema,
    RelationDecl,
    check_4nf,
    check_bcnf,
    check_improved_bcnf,
    check_xml_nf,
    chase,
    dependency_basis,
    derive_xml_fds,
    emit_dtd,
    emit_property_graph,
    emit_relational,
    fd,
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    graph_to_fds,
    second_reduced,
)
from catnorm.reduce import redundant_arrow
from equivalence import equivalent
from genschema import (
    cluster_schema,
    random_dependency_set,
    random_fd_schema,
    random_mvd_schema,
)

N_FD_SCHEMAS = 1000
N_MVD_SCHEMAS = 500
N_ORACLE_TRIALS = 200


def combined(graph, deps):
    return DependencySet(fds=tuple(graph_to_fds(graph)) + tuple(deps.fds),
                         mvds=tuple(deps.mvds))


def fd_suite():
    for seed in range(N_FD_SCHEMAS):
        yield random_fd_schema(random.Random(seed))


# -- criterion 1: Figure 5 golden pipeline ----------------------------------

def test_criterion_01_fig5_pipeline(fig5):
    start = time.perf_counter()
    graph, deps = fig5
    closed = fd_closure_graph(graph, deps.fds)
    assert closed.arrow_pairs() - graph.arrow_pairs() == \
        {("D", "B"), ("D", "C"), ("B", "C")}
    reduced, _ = first_reduced(graph, deps.fds)
    assert reduced.arrow_pairs() == {("D", "E"), ("D", "A"),
                                     ("A", "B"), ("B", "C")}
    schema = emit_relational(reduced)
    got = {r.sort_set(): frozenset(r.candidate_keys[0])
           for r in schema.relations}
    assert got == {frozenset("AE"): frozenset("AE"),
                   frozenset("AB"): frozenset("A"),
                   frozenset("BC"): frozenset("B")}
    assert time.perf_counter() - start < 1.0


# -- criterion 2: Figure 6 golden pipeline ----------------------------------

def test_criterion_02_fig6_pipeline(fig6):
    start = time.perf_counter()
    graph, deps = fig6
    closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
    assert closed.arrow_pairs() - graph.arrow_pairs() == {("A", "C")}
    assert closed.mvd_objects == {"X"}
    reduced, _ = second_reduced(graph, deps.fds, deps.mvds)
    assert reduced.projection_targets("X1") == {"A", "B"}
    assert reduced.projection_targets("X2") == {"A", "D"}
    assert {("A", "C"), ("B", "C")} <= reduced.arrow_pairs()
    schema = emit_relational(reduced)
    assert {r.sort_set() for r in schema.relations} == \
        {frozenset("AB"), frozenset("AD"), frozenset("AC"), frozenset("BC")}
    assert time.perf_counter() - start < 1.0


# -- criterion 3: DTD goldens ------------------------------------------------

def test_criterion_03_dtd_goldens(fig5, fig6):
    g5, d5 = fig5
    rr5, _ = first_reduced(g5, d5.fds)
    dtd = emit_dtd(rr5)
    assert set(dtd.tags) == set("ABCDE")
    assert set(dtd.attributes) == {"@ID", "@A_ID", "@B_ID"}
    assert {k: list(v) for k, v in dtd.content.items()} == \
        {"ε": ["D+", "A+", "B+"], "D": ["E"], "B": ["C"]}
    assert {k: set(v) for k, v in dtd.tag_attrs.items()} == \
        {"D": {"@ID", "@A_ID"}, "A": {"@ID", "@B_ID"}, "B": {"@ID"}}
    assert dtd.root == "ε"

    g6, d6 = fig6
    rr6, _ = second_reduced(g6, d6.fds, d6.mvds)
    dtd = emit_dtd(rr6)
    assert set(dtd.tags) == {"A", "B", "C", "D", "X1", "X2"}
    assert set(dtd.attributes) == {"@ID", "@A_ID", "@B_ID"}
    assert {k: list(v) for k, v in dtd.content.items()} == \
        {"ε": ["A+", "B+", "X1+", "X2+"], "A": ["C"], "B": ["C"],
         "X2": ["D"]}
    assert {k: set(v) for k, v in dtd.tag_attrs.items()} == \
        {"A": {"@ID"}, "B": {"@ID"}, "X1": {"@ID", "@A_ID", "@B_ID"},
         "X2": {"@ID", "@A_ID"}}
    assert dtd.root == "ε"


# -- criterion 4: property-graph goldens -------------------------------------

def test_criterion_04_property_graph_goldens(fig5, fig6):
    g5, d5 = fig5
    pg = emit_property_graph(first_reduced(g5, d5.fds)[0])
    assert set(pg.vertices) == {"A", "B", "D"}
    assert {frozenset(e) for e in pg.edges} == \
        {frozenset("AB"), frozenset("DA")}
    assert set(pg.attributes) == {"SK", "C", "E"}
    assert {k: set(v) for k, v in pg.properties.items()} == \
        {"B": {"SK", "C"}, "D": {"SK", "E"}, "A": {"SK"}}

    g6, d6 = fig6
    pg = emit_property_graph(second_reduced(g6, d6.fds, d6.mvds)[0])
    assert set(pg.vertices) == {"A", "B", "X1", "X2"}
    assert {frozenset(e) for e in pg.edges} == \
        {frozenset(("X1", "A")), frozenset(("X1", "B")),
         frozenset(("X2", "A"))}
    assert set(pg.attributes) == {"SK", "C", "D"}
    assert {k: set(v) for k, v in pg.properties.items()} == \
        {"A": {"SK", "C"}, "B": {"SK", "C"}, "X1": {"SK"},
         "X2": {"SK", "D"}}


# -- criterion 5: BCNF property suite ----------------------------------------

def test_criterion_05_bcnf_suite():
    start = time.perf_counter()
    violations, flagged = [], []
    for i, (graph, deps) in enumerate(fd_suite()):
        reduced, _ = first_reduced(graph, deps.fds)
        cd = combined(reduced, deps)
        if redundant_arrow(reduced) is not None:
            flagged.append(i)
        schema = emit_relational(reduced)
        for rel in schema.relations:
            report = check_bcnf(rel, cd)
            if report.verdict != "satisfied":
                violations.append((i, rel.name, report.witnesses))
    assert not violations, violations[:5]
    assert not flagged, flagged[:5]  # a 1RR is reduced
    assert time.perf_counter() - start < 60.0


# -- criterion 6: 4NF property suite -----------------------------------------

def test_criterion_06_4nf_suite():
    start = time.perf_counter()
    violations, flagged = [], []
    for seed in range(N_MVD_SCHEMAS):
        graph, deps = random_mvd_schema(random.Random(seed))
        reduced, _ = second_reduced(graph, deps.fds, deps.mvds)
        cd = combined(reduced, deps)
        if redundant_arrow(reduced) is not None:
            flagged.append(seed)
        schema = emit_relational(reduced)
        for rel in schema.relations:
            report = check_4nf(rel, cd)
            if report.verdict != "satisfied":
                violations.append((seed, rel.name, report.witnesses))
    assert not violations, violations[:5]
    assert not flagged, flagged[:5]  # a 2RR is reduced
    assert time.perf_counter() - start < 120.0


# -- criterion 7: XML NF property suite --------------------------------------

def test_criterion_07_xml_nf_suite():
    bad = []
    for i, (graph, deps) in enumerate(fd_suite()):
        reduced, _ = first_reduced(graph, deps.fds)
        dtd = emit_dtd(reduced)
        report = check_xml_nf(dtd, derive_xml_fds(reduced, dtd))
        if report.verdict != "satisfied":
            bad.append((i, report.verdict, report.witnesses))
    assert not bad, bad[:5]


# -- criterion 8: counterexample detection -----------------------------------

def test_criterion_08_bcnf_counterexample(fig5):
    graph, deps = fig5
    cd = combined(graph, deps)
    reports = [check_bcnf(r, cd) for r in emit_relational(graph).relations]
    witnesses = [w["dependency"] for rep in reports for w in rep.witnesses]
    assert "B -> C" in witnesses


def test_criterion_08_4nf_counterexample(fig6):
    graph, deps = fig6
    cd = combined(graph, deps)
    reports = [check_4nf(r, cd) for r in emit_relational(graph).relations]
    witnesses = [w["dependency"] for rep in reports for w in rep.witnesses]
    assert "A ->> B" in witnesses


def test_criterion_08_improved_bcnf_counterexample():
    def rel(name, cols, key):
        return RelationDecl(name=name, sort=list(cols), has_surrogate=False,
                            candidate_keys=[frozenset(key)], foreign_keys=[])
    schema = RelationalSchema(relations=[
        rel("T1", "ABCD", "AB"), rel("T2", "AE", "A"),
        rel("T3", "BF", "B"), rel("T4", "EFC", "EF")])
    deps = DependencySet(fds=(fd("AB", "CD"), fd("A", "E"), fd("B", "F"),
                              fd("EF", "C")))
    report = check_improved_bcnf(schema, deps)
    assert report.verdict == "violated"
    assert any("C of T1" in w["reason"] for w in report.witnesses)


# -- criterion 9: dependency basis vs chase oracle ---------------------------

def test_criterion_09_oracle_agreement():
    for trial in range(N_ORACLE_TRIALS):
        rng = random.Random(trial)
        universe = frozenset(f"A{i}" for i in range(rng.randint(2, 5)))
        deps = random_dependency_set(rng, universe)
        attrs = sorted(universe)
        for k in range(1, len(attrs) + 1):
            for x in map(frozenset, combinations(attrs, k)):
                basis = dependency_basis(x, deps, universe)
                rows, r1, r2, order = chase(deps, x, universe)
                idx = {a: i for i, a in enumerate(order)}
                for j in range(1, len(attrs) + 1):
                    for y in map(frozenset, combinations(attrs, j)):
                        xy = x | y
                        want = tuple(r1[idx[a]] if a in xy else r2[idx[a]]
                                     for a in order)
                        assert basis.implies(y) == (want in rows), \
                            (trial, sorted(x), sorted(y))


# -- criterion 10: idempotence and equivalence -------------------------------

def test_criterion_10_idempotence_and_equivalence():
    for graph, deps in fd_suite():
        closed = fd_closure_graph(graph, deps.fds)
        reduced, _ = first_reduced(graph, deps.fds)
        again, _ = first_reduced(reduced, deps.fds)
        assert reduced.arrow_pairs() == again.arrow_pairs()
        assert equivalent(reduced, closed, deps.fds)
        two, _ = second_reduced(graph, deps.fds, deps.mvds)
        two_again, _ = second_reduced(two, deps.fds, deps.mvds)
        assert two.arrow_pairs() == two_again.arrow_pairs()
        assert {o.name for o in two.objects} == \
            {o.name for o in two_again.objects}


# -- criterion 11: performance sanity ----------------------------------------

def closure_time(m, repeats=3):
    graph, deps = cluster_schema(m)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fd_closure_graph(graph, deps.fds)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_11_closure_scaling():
    t10 = max(closure_time(10), 1e-4)  # floor against timer noise
    t100 = closure_time(100)
    # O(m) per seed over O(m) seeds: at most quadratic growth, 3x fudge
    assert t100 <= 300 * t10, f"t(10)={t10:.6f}s t(100)={t100:.6f}s"
