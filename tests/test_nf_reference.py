"""The BCNF, improved BCNF and 4NF checks against reference copies of the
per-subset rules.

The reference BCNF check closes every subset of a relation's sort over the
whole FD index.  The reference improved BCNF check closes each relation's
key on a fresh index of the FDs that leave the relation.  The reference
4NF check runs one two-row chase per candidate left-hand side and looks up
the row of every right-hand side in its tableau, so it is independent of
the dependency basis.  On every schema below, the library's reports must
equal the reference's, byte for byte; a relation over a sort bound must
raise the same error.
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
    RelationDecl,
    RelationalSchema,
    SchemaError,
    check_4nf,
    check_bcnf,
    check_improved_bcnf,
    emit_relational,
    first_reduced,
    graph_to_fds,
    mvd,
    second_reduced,
)
from catnorm.chase import chase
from catnorm.nf import BCNF_SORT_BOUND, FOURNF_SORT_BOUND

from closure import attribute_closure
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


def ref_check_improved_bcnf(schema, deps):
    fds = deps.canonical_fds()
    report = NfReport(subject="schema", verdict="satisfied")
    for rel in schema.relations:
        sort_set = rel.sort_set()
        if not rel.candidate_keys:
            continue
        key = rel.candidate_keys[0]
        external = [f for f in fds if not (f.lhs | f.rhs <= sort_set)]
        if not external:
            continue
        closure = attribute_closure(key, external)
        for b in sorted(sort_set - key):
            if b in closure:
                report.witnesses.append({
                    "dependency": f"{','.join(sorted(key))} -> {b}",
                    "reason": f"attribute {b} of {rel.name} is restorable "
                              f"from dependencies outside {rel.name}"})
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


def relation_schema(rng, width, all_firing):
    """One relation of `width` columns, with dependencies drawn over it
    directly rather than read off a graph.  The FDs have left-hand sides
    of one to three attributes and may pass through two attributes outside
    the relation, at times on a path from the key; the MVDs have left-hand
    sides that no FD has.  With `all_firing` every column is on some FD's
    left-hand side."""
    cols = [f"c{j:02d}" for j in range(width)]
    outside = ["o0", "o1"]
    rng.shuffle(cols)

    def draw(pool, low, high):
        return frozenset(rng.sample(pool, rng.randint(low, high)))

    key = draw(cols, 1, 2)
    fds = []
    for _ in range(rng.randint(1, 5)):
        lhs = draw(cols + outside, 1, 3)
        rhs = draw(cols + outside, 1, 2) - lhs
        if rhs:
            fds.append(FD(lhs, rhs))
    if rng.random() < 0.5:  # a path from the key out of the relation and back
        fds += [FD(key, frozenset(outside[:1])),
                FD(frozenset(outside[:1]), frozenset([rng.choice(cols)]))]
    if all_firing:
        for c in cols:
            if not any(c in f.lhs for f in fds):
                lhs = frozenset([c, rng.choice(cols)])
                rhs = rng.choice([a for a in cols + outside if a not in lhs])
                fds.append(FD(lhs, frozenset([rhs])))
    lhss = {f.lhs for f in fds}
    mvds = []
    for _ in range(rng.randint(0, 2)):
        lhs = draw(cols, 1, 2)
        rest = [c for c in cols if c not in lhs]
        if lhs not in lhss:
            mvds.append(mvd(lhs, draw(rest, 1, len(rest) - 1), "R"))
    rel = RelationDecl(name="R", sort=cols, has_surrogate=False,
                       candidate_keys=[key], foreign_keys=[])
    return (RelationalSchema(relations=[rel]),
            DependencySet(fds=tuple(fds), mvds=tuple(mvds)))


def suites():
    """(name, schema, dependencies to check it against) for every checked
    schema: the emissions of generated graphs and their reductions, then
    single relations with dependencies drawn over them directly."""
    def emitted(name, graph, deps):
        return name, emit_relational(graph), DependencySet(
            fds=tuple(graph_to_fds(graph)) + tuple(deps.fds),
            mvds=tuple(deps.mvds))

    for seed in range(500):
        graph, deps = random_mvd_schema(random.Random(seed))
        yield emitted(f"mvd{seed}", graph, deps)
        yield emitted(f"mvd{seed}-2rr", second_reduced(
            graph, deps.fds, deps.mvds)[0], deps)
    for k in range(1, 13):
        for seed in range(6):
            graph, deps = contexts_schema(k, random.Random(seed))
            yield emitted(f"contexts{k}.{seed}", graph, deps)
            yield emitted(f"contexts{k}.{seed}-2rr", second_reduced(
                graph, deps.fds, deps.mvds)[0], deps)
    for seed in range(1000):
        graph, deps = random_fd_schema(random.Random(seed))
        yield emitted(f"fd{seed}", graph, deps)
        yield emitted(f"fd{seed}-1rr", first_reduced(graph, deps.fds)[0],
                      deps)
    for seed in range(10):
        for planted in (True, False):
            graph, deps = entities_schema(random.Random(seed),
                                          range(8, 13), planted)
            if not planted:
                graph = first_reduced(graph, deps.fds)[0]
            yield emitted(f"entities{seed}-{planted}", graph, deps)
    yield from relation_suite()


def relation_suite():
    for seed in range(72):
        width = 4 + seed % 9
        all_firing = width == 12 and seed % 2 == 0
        yield (f"relation{seed}", *relation_schema(random.Random(seed),
                                                   width, all_firing))


def _report(check, subject, deps):
    try:
        return json.dumps(check(subject, deps).to_json())
    except SchemaError as e:
        return f"error: {e}"


def test_nf_reports_match_the_references():
    checked = {"bcnf": 0, "4nf": 0, "improved-bcnf": 0}
    violated = {"bcnf": 0, "4nf": 0, "improved-bcnf": 0}
    for name, schema, deps in suites():
        cases = [(kind, check, ref, rel)
                 for rel in schema.relations
                 for kind, check, ref in (("bcnf", check_bcnf, ref_check_bcnf),
                                          ("4nf", check_4nf, ref_check_4nf))]
        cases.append(("improved-bcnf", check_improved_bcnf,
                      ref_check_improved_bcnf, schema))
        for kind, check, ref, subject in cases:
            want = _report(ref, subject, deps)
            assert _report(check, subject, deps) == want, (name, kind, subject)
            checked[kind] += 1
            violated[kind] += '"violated"' in want
    assert min(checked["bcnf"], checked["4nf"]) > 6000, checked
    assert checked["improved-bcnf"] > 3000, checked
    assert violated["4nf"] > 1000 and violated["bcnf"] > 600, violated
    assert violated["improved-bcnf"] > 400, violated


def test_relation_suite_reaches_the_skip_corners():
    """The directly drawn relations hold what the checks' skip rules must
    get right: composite FD left-hand sides of two and three attributes, 4NF
    witnesses whose left-hand side holds no FD's, and 12-column relations
    with every column firing, where BCNF visits every subset."""
    lhs_sizes, mvd_only, full = set(), 0, 0
    for _, schema, deps in relation_suite():
        (rel,) = schema.relations
        lhs_sizes |= {len(f.lhs) for f in deps.fds}
        columns = {a for f in deps.fds for a in f.lhs} & rel.sort_set()
        full += len(rel.sort) == 12 and columns == rel.sort_set()
        if len(rel.sort) <= FOURNF_SORT_BOUND:
            for w in check_4nf(rel, deps).witnesses:
                x = frozenset(w["dependency"].split(" ->> ")[0].split(","))
                mvd_only += not any(f.lhs <= x for f in deps.fds)
    assert {2, 3} <= lhs_sizes
    assert mvd_only > 0 and full > 0, (mvd_only, full)
