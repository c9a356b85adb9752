"""Independent checks of the pipeline's outputs.

The pipeline's verdicts are recomputed here by brute force over the
emitted column sets, with a naive attribute closure of its own, and its
reductions are checked for idempotence, for equivalence with the closure
with no declared FD beside either graph, for every attribute of the input
reaching an emitted relation and, on the structured families, against
closed forms.  Relations are compared by column set, never by name:
`emit._clean` keeps one of two relations with equal column sets by `id()`,
so the surviving name can differ from one interpreter to the next.

The reduced graph itself is recomputed with the library, because the
`reduce --emit` path does not print it; the pipeline's own summary line
and trace events are checked against that recomputation.  4NF verdicts,
which `check_4nf` reaches by the chase, are cross-checked with the
dependency-basis engine (`mvd_membership`).
"""

from __future__ import annotations

import importlib
import json
import re
from itertools import combinations

from catnorm import (
    FD,
    MVD,
    DependencySet,
    dependency_basis,
    emit_relational,
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    mvd_membership,
    parse_schema,
    second_reduced,
)

from pipeline import DocResult, failed

EXIT_VIOLATED = 3
EXIT_UNKNOWN = 4

# The problems by which a lost dependency shows (`lost_dependencies_only`).
_LOST = re.compile(r"arrow \S+ -> \S+ (does not follow from the reduced "
                   r"graph|was not kept)$"
                   r"|attribute \S+ is in no emitted relation$")


# ---------------------------------------------------------------------------
# plain-data views
# ---------------------------------------------------------------------------

def graph_fds(graph) -> list[tuple[frozenset, frozenset]]:
    """The FDs a category graph stands for: one per arrow, and the key pair
    {R} -> pi(R), pi(R) -> {R} for each relationship R with projections."""
    out = [(frozenset([a.source]), frozenset([a.target]))
           for a in graph.arrows]
    for o in graph.objects:
        if o.kind != "relationship":
            continue
        pi = frozenset(a.target for a in graph.arrows
                       if a.source == o.name and a.is_projection)
        if pi:
            out += [(frozenset([o.name]), pi), (pi, frozenset([o.name]))]
    return out


def singletons(fds) -> list[tuple[frozenset, frozenset]]:
    """Split every FD into single-attribute right-hand sides."""
    out = []
    for lhs, rhs in fds:
        out += [(lhs, frozenset([b])) for b in sorted(rhs)]
    return out


def naive_closure(seed, fds) -> frozenset:
    """Fire FDs until nothing changes; quadratic and obviously right."""
    closure = set(seed)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= closure and not rhs <= closure:
                closure |= rhs
                changed = True
    return frozenset(closure)


def _subsets(cols, max_size=None):
    cols = sorted(cols)
    top = len(cols) if max_size is None else max_size
    for k in range(1, top + 1):
        yield from (frozenset(c) for c in combinations(cols, k))


# ---------------------------------------------------------------------------
# normal-form verdicts, by brute force
# ---------------------------------------------------------------------------

def bcnf_verdict(cols: frozenset, fds) -> str:
    """Violated iff some X within the relation determines a further column
    of it without determining all of it."""
    for x in _subsets(cols):
        closure = naive_closure(x, fds)
        if not cols <= closure and (closure & cols) - x:
            return "violated"
    return "satisfied"


def improved_bcnf_verdict(relations, fds) -> str:
    """`relations` is a list of (columns, key).  Violated iff a non-key
    column is restorable from the key by FDs not inside the relation."""
    canon = singletons(fds)
    for cols, key in relations:
        external = [f for f in canon if not (f[0] | f[1]) <= cols]
        if not external:
            continue
        if (cols - key) & naive_closure(key, external):
            return "violated"
    return "satisfied"


def fournf_verdict(cols: frozenset, fds, mvds) -> str:
    """Violated iff some X that is not a superkey multidetermines a
    nontrivial Y inside the relation, by the dependency basis of X."""
    deps = DependencySet(fds=tuple(_as_fds(fds)), mvds=tuple(mvds))
    for x in _subsets(cols, len(cols) - 1):
        if cols <= naive_closure(x, fds):
            continue
        if len(dependency_basis(x, deps, cols).blocks) >= 2:
            return "violated"
    return "satisfied"


def _as_fds(fds):
    return [FD(lhs, rhs) for lhs, rhs in fds]


def mvd_witness_holds(witness: str, cols: frozenset, fds, mvds) -> bool:
    """A 4NF witness "X ->> Y" is a real violation: the MVD follows and X
    is no superkey."""
    lhs, rhs = (frozenset(s.split(",")) for s in witness.split(" ->> "))
    deps = DependencySet(fds=tuple(_as_fds(fds)), mvds=tuple(mvds))
    return (mvd_membership(deps, MVD(lhs, rhs, None), cols)
            and not cols <= naive_closure(lhs, fds))


def fd_witness_holds(witness: str, cols: frozenset, fds) -> bool:
    """A BCNF witness "X -> a": a follows from X, X is no superkey."""
    lhs, rhs = (frozenset(s.split(",")) for s in witness.split(" -> "))
    closure = naive_closure(lhs, fds)
    return rhs <= closure and not cols <= closure and lhs | rhs <= cols


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def reduction_problems(level: int, closed, reduced, again) -> list[str]:
    """1RR/2RR idempotence, and equivalence with the closure over the
    objects both graphs share.

    Each graph stands on its own: no declared FD is added to either side.
    A reduced representation must carry every dependency as an arrow,
    because the schemas emitted from it carry nothing else; an arrow that
    is re-derivable only through a declared FD is lost from the output.
    """
    out = []
    if reduced.arrow_pairs() != again.arrow_pairs() or \
            {o.name for o in reduced.objects} != {o.name for o in again.objects}:
        out.append("reduction is not idempotent")
    shared = {o.name for o in reduced.objects} & {o.name for o in closed.objects}
    for src, fds_from, name in ((closed, graph_fds(reduced), "reduced"),
                                (reduced, graph_fds(closed), "closed")):
        for a in src.arrows:
            if level == 2 and not {a.source, a.target} <= shared:
                continue
            if a.target not in naive_closure({a.source}, fds_from):
                out.append(f"arrow {a.source} -> {a.target} does not follow "
                           f"from the {name} graph")
    return out


def lost_attributes(graph, deps, relations) -> list[str]:
    """Every attribute of the input that takes part in an arrow, an FD or
    an MVD is a column of some emitted relation."""
    used = {a.target for a in graph.arrows} | {a.source for a in graph.arrows}
    for dep in (*deps.fds, *deps.mvds):
        used |= dep.lhs | dep.rhs
    columns = set().union(*(cols for cols, _ in relations))
    return [f"attribute {o.name} is in no emitted relation"
            for o in graph.objects
            if o.kind == "attribute" and o.name in used
            and o.name not in columns]


def closed_form_problems(expect: dict, reduced, relations) -> list[str]:
    """The structured families' exact outcomes."""
    out = []
    pairs = reduced.arrow_pairs()
    colsets = sorted(sorted(c) for c, _ in relations)
    if "arrows" in expect and sorted(pairs) != \
            sorted(tuple(p) for p in expect["arrows"]):
        out.append(f"reduced arrows differ from the closed form: "
                   f"{sorted(pairs)[:6]}...")
    for name, members in expect.get("composites", {}).items():
        proj = sorted(a.target for a in reduced.arrows
                      if a.source == name and a.is_projection)
        if proj != members:
            out.append(f"composite {name} projects to {proj}, not {members}")
    for pair in expect.get("kept", ()):
        if tuple(pair) not in pairs:
            out.append(f"arrow {pair[0]} -> {pair[1]} was not kept")
    if "relations" in expect and colsets != sorted(expect["relations"]):
        out.append("emitted column sets differ from the closed form")
    for cols in expect.get("wide", ()):
        if cols not in colsets:
            out.append(f"no relation with columns {cols}")
    return out


def tie_resolutions(reduced) -> list[list[tuple[frozenset, frozenset]]]:
    """(columns, key) of the relations `emit_relational` gives under each
    order of the `id()` tie-break in `emit._clean`.

    Of two relations with equal column sets `_clean` keeps the one with
    the smaller `id()`, which changes with allocation history; the kept
    name decides the primary key.  `run_pipeline` emits once for output
    and once more for the checks, so the improved-BCNF report may describe
    either outcome.
    """
    import builtins
    emit = importlib.import_module("catnorm.emit")
    out = []
    for sign in (1, -1):
        order: dict[int, int] = {}
        emit.id = lambda o: sign * order.setdefault(builtins.id(o), len(order))
        try:
            schema = emit_relational(reduced)
        finally:
            del emit.id
        out.append([(r.sort_set(), frozenset(r.candidate_keys[0]))
                    for r in schema.relations])
    return out


# ---------------------------------------------------------------------------
# the pipeline's printed artifacts
# ---------------------------------------------------------------------------

_TABLE = re.compile(r"CREATE TABLE (\S+) \(\n(.*?)\n\);", re.S)


def parse_sql(sql: str) -> list[tuple[str, frozenset, frozenset]]:
    """(name, columns, primary key) per CREATE TABLE."""
    out = []
    for name, body in _TABLE.findall(sql):
        cols, key = [], frozenset()
        for line in body.split(",\n"):
            line = line.strip()
            if line.startswith("PRIMARY KEY ("):
                key = frozenset(c.strip() for c in line[13:-1].split(","))
            elif not line.startswith("FOREIGN KEY"):
                cols.append(line.split()[0])
        out.append((name, frozenset(cols), key))
    return out


def split_outputs(doc, text: str) -> dict:
    """Cut the --stdout stream into its artifacts, in the order the
    pipeline writes them: trace, SQL, DTD, property graph, report."""
    dec = json.JSONDecoder()
    out, pos = {}, 0

    def take_json():
        nonlocal pos
        value, pos = dec.raw_decode(text, pos)
        pos += 1 if text.startswith("\n", pos) else 0
        return value

    def take_text(*stops):
        nonlocal pos
        ends = [text.find(s, pos) for s in stops]
        end = min([e + 1 for e in ends if e >= 0] or [len(text)])
        chunk, pos = text[pos:end], end
        return chunk

    if doc.trace:
        out["trace"] = take_json()
    if "relational" in doc.emit:
        out["sql"] = take_text("\n<!ELEMENT root", "\n{", "\n[")
    if "dtd" in doc.emit:
        out["dtd"] = take_text("\n{", "\n[")
    if "pg" in doc.emit:
        out["pg"] = take_json()
    if doc.checks:
        out["report"] = take_json()
    if text[pos:].strip():
        raise ValueError(f"unparsed output at offset {pos}")
    return out


def expected_rc(reports) -> int:
    verdicts = {r["verdict"] for r in reports}
    if "violated" in verdicts:
        return EXIT_VIOLATED
    if "unknown" in verdicts:
        return EXIT_UNKNOWN
    return 0


def lost_dependencies_only(problems) -> bool:
    """True when there are problems and each says that the reduced graph
    or the emitted schema lost a dependency, and nothing else."""
    return bool(problems) and all(_LOST.match(p) for p in problems)


# ---------------------------------------------------------------------------
# one document
# ---------------------------------------------------------------------------

def check_doc(doc, res: DocResult) -> list[str]:
    """Every problem found with one document's outputs; [] when right.

    A document that failed (exit 1 or 2) has no outputs to check; whether
    it was expected to fail is the caller's business.
    """
    if failed(res.rc):
        return []
    if doc.over_bound:
        # the honest answer past a bound is "unknown" with exit 4
        if res.rc != EXIT_UNKNOWN or '"unknown"' not in res.stdout:
            return [f"over-bound document exited {res.rc}"]
        return []
    try:
        art = split_outputs(doc, res.stdout)
    except ValueError as e:
        return [f"output does not parse: {e}"]
    graph, deps = parse_schema(doc.text)
    if doc.level == 1:
        closed = fd_closure_graph(graph, deps.fds)
        reduced, _ = first_reduced(graph, deps.fds)
        again, _ = first_reduced(reduced, deps.fds)
    elif doc.level == 2:
        closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds)
        reduced, _ = second_reduced(graph, deps.fds, deps.mvds)
        again, _ = second_reduced(reduced, deps.fds, deps.mvds)
    else:
        closed = reduced = again = graph

    problems = []
    if doc.level:
        summary = f"{doc.level}RR: {len(reduced.objects)} objects, " \
                  f"{len(reduced.arrows)} arrows"
        if summary not in res.stderr:
            problems.append(f"summary line {summary!r} missing")
        problems += reduction_problems(doc.level, closed, reduced, again)
    if "trace" in art and doc.level == 1:
        removed = sorted(tuple(e["arrow"]) for e in art["trace"]
                         if e["event"] == "removed-arrow")
        if removed != sorted(closed.arrow_pairs() - reduced.arrow_pairs()):
            problems.append("trace does not list exactly the pruned arrows")

    schema = emit_relational(reduced)
    relations = [(r.sort_set(), frozenset(r.candidate_keys[0]))
                 for r in schema.relations]
    if "sql" in art:
        printed = [(cols, key) for _, cols, key in parse_sql(art["sql"])]
        if sorted(map(sorted, (c for c, _ in printed))) != \
                sorted(map(sorted, (c for c, _ in relations))):
            problems.append("printed SQL column sets differ from the "
                            "reduced graph's relations")
        relations = printed
    problems += closed_form_problems(doc.expect, reduced, relations)
    problems += lost_attributes(graph, deps, relations)
    with_objects = sorted({a.source for a in reduced.arrows})
    if "dtd" in art:
        root = re.search(r"<!ELEMENT root \((.*)\)>", art["dtd"])
        tags = sorted(t[:-1] for t in root.group(1).split(", ")) if root else []
        if tags != with_objects:
            problems.append("DTD root does not list the objects with arrows")
    if "pg" in art:
        if sorted(v["label"] for v in art["pg"]["vertices"]) != with_objects:
            problems.append("property graph vertices are not the objects "
                            "with arrows")

    if doc.checks:
        names = {r.name: r.sort_set() for r in schema.relations}
        problems += _report_problems(doc, res.rc, art["report"], reduced,
                                     deps, relations, names)
    return problems


def _report_problems(doc, rc, reports, reduced, deps, relations,
                     names) -> list[str]:
    """`relations` are the (columns, key) pairs of the emitted schema;
    `names` maps the reduced graph's relation names to their columns."""
    out = []
    if rc != expected_rc(reports):
        out.append(f"exit {rc} does not match the verdicts")
    check_fds = graph_fds(reduced) + [(f.lhs, f.rhs) for f in deps.fds]
    canon = singletons(check_fds)
    by_kind = {"bcnf": [], "4nf": [], "improved-bcnf": [], "xmlnf": []}
    order = doc.checks
    for rep in reports:
        subject = rep["subject"]
        if subject == "dtd":
            by_kind["xmlnf"].append(rep)
        elif subject == "schema":
            by_kind["improved-bcnf"].append(rep)
        else:  # per-relation reports; no document asks for both kinds
            by_kind["4nf" if "4nf" in order else "bcnf"].append(rep)
    colsets = [cols for cols, _ in relations]

    if "bcnf" in doc.checks:
        want = sorted(bcnf_verdict(c, canon) for c in colsets)
        got = sorted(r["verdict"] for r in by_kind["bcnf"])
        if want != got:
            out.append(f"BCNF verdicts {got} differ from brute force {want}")
        for r in by_kind["bcnf"]:
            cols = names.get(r["subject"])
            for w in r["witnesses"]:
                if cols is not None and \
                        not fd_witness_holds(w["dependency"], cols, canon):
                    out.append(f"BCNF witness {w['dependency']} is not real")
    if "improved-bcnf" in doc.checks:
        # keys follow relation names, so either tie resolution may stand
        want = {improved_bcnf_verdict(rels, check_fds) for rels in
                [relations] + tie_resolutions(reduced)}
        got = [r["verdict"] for r in by_kind["improved-bcnf"]]
        if len(got) != 1 or got[0] not in want:
            out.append(f"improved-BCNF verdict {got} differs from "
                       f"{sorted(want)}")
    if "4nf" in doc.checks:
        want = sorted(fournf_verdict(c, canon, deps.mvds) for c in colsets)
        got = sorted(r["verdict"] for r in by_kind["4nf"])
        if want != got:
            out.append(f"4NF verdicts {got} differ from the dependency "
                       f"basis {want}")
        for r in by_kind["4nf"]:
            cols = names.get(r["subject"])
            for w in r["witnesses"]:
                if cols is not None and not mvd_witness_holds(
                        w["dependency"], cols, canon, deps.mvds):
                    out.append(f"4NF witness {w['dependency']} is not real")
    if "xmlnf" in doc.checks and doc.level:
        # a reduced representation's DTD is in XML NF
        got = [r["verdict"] for r in by_kind["xmlnf"]]
        if got != ["satisfied"]:
            out.append(f"XML NF verdict {got} on a reduced graph")
    return out
