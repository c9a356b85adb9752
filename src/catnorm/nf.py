"""Normal-form verifiers: BCNF, improved BCNF (restorable attributes),
4NF from the dependency basis, and XML NF over DTD path dependencies."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import CategoryGraph, DependencySet, SchemaError
from .emit import DtdSchema, RelationalSchema, RelationDecl
from .mvdclosure import dependency_basis

BCNF_SORT_BOUND = 12
# BCNF closes only subsets of a relation's firing columns, and 4NF builds
# a basis only on seeds that hold a left-hand side, so their cost follows
# the firing columns, not the width.  The bounds stay so that no verdict on
# a wide relation moves (catbench's over-bound `widef` has 9 columns).
FOURNF_SORT_BOUND = 8


@dataclass(frozen=True)
class PathFD:
    """Path dependency over a DTD.  A path is a tuple of steps from the
    root "ε": element names, then possibly "@attr" or "#P"."""
    lhs: frozenset[tuple[str, ...]]
    rhs: tuple[str, ...]

    def __str__(self):
        lhs = ",".join(sorted(".".join(p) for p in self.lhs))
        return f"{lhs} -> {'.'.join(self.rhs)}"


@dataclass
class NfReport:
    subject: str
    verdict: str  # satisfied | violated | unknown
    witnesses: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"subject": self.subject, "verdict": self.verdict,
                "witnesses": self.witnesses}


def _subsets(items, max_size=None):
    items = sorted(items)
    top = len(items) if max_size is None else max_size
    for k in range(1, top + 1):
        yield from (frozenset(c) for c in combinations(items, k))


def _closure_in(sort_set: frozenset[str], deps: DependencySet):
    """The firing attributes F of `sort_set`, those on some FD's left-hand
    side, and X -> cl(X) & sort for subsets X of `sort_set`.

    An FD fires only once its whole left-hand side is in, so
    cl(X) = X | cl(X & F) and cl({}) = {} (Beeri & Bernstein, TODS 1979);
    each cl(X & F) & sort is computed once per relation and kept."""
    index = deps.fd_index
    firing = index.users.keys() & sort_set
    memo: dict[frozenset[str], frozenset[str]] = {}

    def closure(x: frozenset[str]) -> frozenset[str]:
        key = x & firing
        found = memo.get(key)
        if found is None:
            found = memo[key] = sort_set & index.closure(key)
        return x | found
    return firing, closure


def check_bcnf(rel: RelationDecl, deps: DependencySet) -> NfReport:
    """Every nontrivial projected FD X -> A must have X a superkey.

    Only subsets of the firing attributes F are visited.  If X witnesses A
    (A in cl(X) - X, X no superkey), so does X & F, since cl(X & F) lies in
    cl(X) and holds all of cl(X) - X.  X & F comes no later than X in subset
    order, so each attribute's first witness is a subset of F; and the
    subsets of F come in their order in the full enumeration, so the
    report is the same."""
    sort_set = rel.sort_set()
    if len(sort_set) > BCNF_SORT_BOUND:
        raise SchemaError(
            f"relation {rel.name} has {len(sort_set)} attributes, over the "
            f"BCNF bound of {BCNF_SORT_BOUND}")
    firing, closure_in = _closure_in(sort_set, deps)
    report = NfReport(subject=rel.name, verdict="satisfied")
    witnessed: set[str] = set()
    for x in _subsets(firing):
        closure = closure_in(x)
        if closure == sort_set:
            continue
        for a in sorted(closure - x):
            if a in witnessed:
                continue  # keep only the minimal-lhs witness per attribute
            witnessed.add(a)
            report.witnesses.append({
                "dependency": f"{','.join(sorted(x))} -> {a}",
                "reason": f"{','.join(sorted(x))} is not a superkey of "
                          f"{rel.name}"})
    if report.witnesses:
        report.verdict = "violated"
    return report


def check_improved_bcnf(schema: RelationalSchema,
                        deps: DependencySet) -> NfReport:
    """No non-key attribute may be restorable from dependencies that do not
    involve its own relation: the key is closed on the shared index with
    the canonical FDs inside the relation left out."""
    report = NfReport(subject="schema", verdict="satisfied")
    for rel in schema.relations:
        sort_set = rel.sort_set()
        if not rel.candidate_keys:
            continue
        key = rel.candidate_keys[0]
        inside = set(deps.canonical_ids_within(sort_set))
        closure = deps.fd_index.closure(key, skip=inside)
        for b in sorted(sort_set - key):
            if b in closure:
                report.witnesses.append({
                    "dependency": f"{','.join(sorted(key))} -> {b}",
                    "reason": f"attribute {b} of {rel.name} is restorable "
                              f"from dependencies outside {rel.name}"})
    if report.witnesses:
        report.verdict = "violated"
    return report


def check_4nf(rel: RelationDecl, deps: DependencySet) -> NfReport:
    """Every implied nontrivial MVD X ->> Y over sort(R) must have X a
    superkey.

    One dependency basis per candidate X that is not a superkey; FDs take
    part through FD-MVD promotion, which is complete for MVD implication
    (Beeri, Fagin & Howard, SIGMOD 1977).  X ->> Y holds for exactly the
    unions of blocks; with two or more blocks the witness is the first
    nontrivial such Y in subset order, the smallest block (any union of
    two blocks is larger), with ties going to the first sorted.

    A seed X that holds no left-hand side W of the relativized dependencies
    is skipped: the basis starts from the one block U - X, and W ->> V
    splits a block only when W misses it, which W, lying in U, does on the
    first sweep only when W lies in X.  So that sweep splits nothing, and
    the basis stays one block."""
    sort_set = rel.sort_set()
    if len(sort_set) > FOURNF_SORT_BOUND:
        raise SchemaError(
            f"relation {rel.name} has {len(sort_set)} attributes, over the "
            f"4NF bound of {FOURNF_SORT_BOUND}")
    _, closure_in = _closure_in(sort_set, deps)
    local = deps.relativized(sort_set)
    lhss = {d.lhs for d in local.fds + local.mvds}
    report = NfReport(subject=rel.name, verdict="satisfied")
    for x in _subsets(sort_set, max_size=len(sort_set) - 1):
        if not any(w <= x for w in lhss) or closure_in(x) == sort_set:
            continue  # one block, or x is a superkey
        blocks = dependency_basis(x, deps, sort_set).blocks
        if len(blocks) < 2:
            continue
        witness = min(blocks, key=lambda b: (len(b), sorted(b)))
        report.witnesses.append({
            "dependency": f"{','.join(sorted(x))} ->> "
                          f"{','.join(sorted(witness))}",
            "reason": f"{','.join(sorted(x))} is not a superkey of "
                      f"{rel.name}"})
    if report.witnesses:
        report.verdict = "violated"
    return report


# ---------------------------------------------------------------------------
# XML NF
# ---------------------------------------------------------------------------

def derive_xml_fds(graph: CategoryGraph, dtd: DtdSchema) -> list[PathFD]:
    """Path dependencies induced by the graph's arrows in the emitted DTD.

    An arrow O1 -> O2 lands either on a leaf child element of O1 (value
    dependency between the #PCDATA loci) or on the @O2_ID reference
    attribute of O1.
    """
    out: list[PathFD] = []
    for a in graph.arrows:
        o1, o2 = a.source, a.target
        if o2 in dtd.content.get(o1, ()):
            out.append(PathFD(frozenset([("ε", o1, "#P")]),
                              ("ε", o1, o2, "#P")))
        elif f"@{o2}_ID" in dtd.tag_attrs.get(o1, ()):
            out.append(PathFD(frozenset([("ε", o1, "@ID")]),
                              ("ε", o1, f"@{o2}_ID")))
        else:
            raise SchemaError(
                f"internal error: arrow {o1} -> {o2} has no locus in the DTD")
    return out


def check_xml_nf(dtd: DtdSchema, fds) -> NfReport:
    """Arenas-Libkin condition: every X -> p.@ID or X -> p.#P must also give
    X -> p.  Decided on the emitter-generated fragment; anything else is
    reported as unknown rather than guessed."""
    report = NfReport(subject="dtd", verdict="satisfied")
    violated = unknown = False
    for f in fds:
        if f.rhs[-1] not in ("#P", "@ID"):
            continue  # condition only constrains value-carrying targets
        if f.rhs in f.lhs:
            continue  # trivial
        if len(f.lhs) != 1:
            unknown = True
            report.witnesses.append({"dependency": str(f),
                                     "reason": "composite lhs outside the "
                                               "decidable fragment"})
            continue
        (x,) = f.lhs
        last, text = x[-1], ".".join(x)
        if last == "@ID":
            continue  # an ID determines its element
        if last == "#P":
            if sum(s != "#P" and not s.startswith("@") for s in x[1:]) <= 1:
                continue  # once-stored value under the root determines it
            reason = f"{text} does not determine its element path"
        elif last.startswith("@"):
            reason = (f"reference attribute {text} does not determine "
                      f"its element path")
        elif "#P" not in x:
            continue  # plain element path determines itself
        else:
            unknown = True
            report.witnesses.append({"dependency": str(f),
                                     "reason": "unrecognized path form"})
            continue
        violated = True
        report.witnesses.append({"dependency": str(f), "reason": reason})
    if violated:
        report.verdict = "violated"
    elif unknown:
        report.verdict = "unknown"
    return report
