"""The BCNF and 4NF checks against reference copies of the per-subset
rules.

The reference BCNF check closes every subset of a relation's sort over the
whole FD index.  The reference 4NF check runs one two-row chase per
candidate left-hand side and looks up the row of every right-hand side in
its tableau, so it is independent of the dependency basis.  On every
relation the schemas below emit, the library's report must equal the
reference's, byte for byte; a relation over a sort bound must raise the
same error.
"""

import json
import random
from itertools import combinations

from catnorm import (
    FD,
    Arrow,
    CategoryGraph,
    DependencySet,
    NfReport,
    ObjectDecl,
    SchemaError,
    check_4nf,
    check_bcnf,
    emit_relational,
    first_reduced,
    graph_to_fds,
    second_reduced,
)
from catnorm.chase import chase
from catnorm.nf import BCNF_SORT_BOUND, FOURNF_SORT_BOUND

from genschema import contexts_schema, random_fd_schema, random_mvd_schema


def _subsets(items, max_size=None):
    items = sorted(items)
    top = len(items) if max_size is None else max_size
    for k in range(1, top + 1):
        yield from (frozenset(c) for c in combinations(items, k))


def ref_check_bcnf(rel, deps):
    sort_set = rel.sort_set()
    if len(sort_set) > BCNF_SORT_BOUND:
        raise SchemaError(
            f"relation {rel.name} has {len(sort_set)} attributes, over the "
            f"BCNF bound of {BCNF_SORT_BOUND}")
    report = NfReport(subject=rel.name, verdict="satisfied")
    witnessed = set()
    for x in _subsets(sort_set):
        closure = deps.fd_index.closure(x)
        if sort_set <= closure:
            continue
        for a in sorted((closure & sort_set) - x):
            if a in witnessed:
                continue
            witnessed.add(a)
            report.witnesses.append({
                "dependency": f"{','.join(sorted(x))} -> {a}",
                "reason": f"{','.join(sorted(x))} is not a superkey of "
                          f"{rel.name}"})
    if report.witnesses:
        report.verdict = "violated"
    return report


def ref_check_4nf(rel, deps):
    sort_set = rel.sort_set()
    if len(sort_set) > FOURNF_SORT_BOUND:
        raise SchemaError(
            f"relation {rel.name} has {len(sort_set)} attributes, over the "
            f"4NF bound of {FOURNF_SORT_BOUND}")
    report = NfReport(subject=rel.name, verdict="satisfied")
    attrs_sorted = sorted(sort_set)
    for x in _subsets(sort_set, max_size=len(sort_set) - 1):
        if sort_set <= deps.fd_index.closure(x):
            continue
        rows, r1, r2, attrs = chase(deps, x, sort_set)
        idx = {a: i for i, a in enumerate(attrs)}
        witness = None
        for y in _subsets(sort_set - x):
            if x | y == sort_set:
                continue
            xy = x | y
            want = tuple(r1[idx[a]] if a in xy else r2[idx[a]]
                         for a in attrs_sorted)
            if want in rows:
                witness = y
                break
        if witness is not None:
            report.witnesses.append({
                "dependency": f"{','.join(sorted(x))} ->> "
                              f"{','.join(sorted(witness))}",
                "reason": f"{','.join(sorted(x))} is not a superkey of "
                          f"{rel.name}"})
    if report.witnesses:
        report.verdict = "violated"
    return report


def entities_schema(rng, widths, planted):
    """One entity per width, its attributes in shuffled order, and one
    declared FD between its first two attributes.  With `planted` the
    entity has `width` attributes and is checked as it stands; otherwise
    it has one more, and its 1RR moves the FD's target out."""
    objects, arrows, fds = [], [], []
    for i, width in enumerate(widths):
        e = f"E{i}"
        attrs = [f"e{i}_{j}" for j in range(width if planted else width + 1)]
        rng.shuffle(attrs)
        objects += [ObjectDecl(e, "entity")] + [
            ObjectDecl(a, "attribute") for a in attrs]
        arrows += [Arrow(f"{e}_{a}", e, a) for a in attrs]
        fds.append(FD(frozenset([attrs[0]]), frozenset([attrs[1]])))
    rng.shuffle(objects)
    rng.shuffle(arrows)
    return (CategoryGraph(objects=tuple(objects), arrows=tuple(arrows)),
            DependencySet(fds=tuple(fds)))


def suites():
    """(name, graph, declared dependencies) for every checked schema."""
    for seed in range(500):
        graph, deps = random_mvd_schema(random.Random(seed))
        yield f"mvd{seed}", graph, deps
        yield f"mvd{seed}-2rr", second_reduced(graph, deps.fds,
                                               deps.mvds)[0], deps
    for k in range(1, 13):
        for seed in range(6):
            graph, deps = contexts_schema(k, random.Random(seed))
            yield f"contexts{k}.{seed}", graph, deps
            yield f"contexts{k}.{seed}-2rr", second_reduced(
                graph, deps.fds, deps.mvds)[0], deps
    for seed in range(1000):
        graph, deps = random_fd_schema(random.Random(seed))
        yield f"fd{seed}", graph, deps
        yield f"fd{seed}-1rr", first_reduced(graph, deps.fds)[0], deps
    for seed in range(10):
        for planted in (True, False):
            graph, deps = entities_schema(random.Random(seed),
                                          range(8, 13), planted)
            if not planted:
                graph = first_reduced(graph, deps.fds)[0]
            yield f"entities{seed}-{planted}", graph, deps


def _report(check, rel, deps):
    try:
        return json.dumps(check(rel, deps).to_json())
    except SchemaError as e:
        return f"error: {e}"


def test_nf_reports_match_the_references():
    checked = {"bcnf": 0, "4nf": 0}
    violated = {"bcnf": 0, "4nf": 0}
    for name, graph, deps in suites():
        check_deps = DependencySet(
            fds=tuple(graph_to_fds(graph)) + tuple(deps.fds),
            mvds=tuple(deps.mvds))
        for rel in emit_relational(graph).relations:
            for kind, check, ref in (("bcnf", check_bcnf, ref_check_bcnf),
                                     ("4nf", check_4nf, ref_check_4nf)):
                want = _report(ref, rel, check_deps)
                assert _report(check, rel, check_deps) == want, \
                    (name, rel.name, kind)
                checked[kind] += 1
                violated[kind] += '"violated"' in want
    assert min(checked.values()) > 6000, checked
    assert violated["4nf"] > 1000 and violated["bcnf"] > 600, violated
