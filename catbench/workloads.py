"""Seeded input documents for the benchmark workloads.

Every generator takes the benchmark seed and returns a list of `Doc`s.  A
document is the JSON text the program reads, the CLI request it is run
under, and, for the structured families, the closed-form facts the oracle
checks the output against.  The seed permutes names and declaration order
and, in `corpus_small`, draws the random schemas; it never changes how
many documents there are or how large they are, so the work per pass stays
the same from seed to seed.

A document with a `fault` shows a known fault of the program on every
seed, and is the same for every seed: it is counted as failed, in every
pass, for as long as the fault lasts.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("src", "tests"):
    if str(ROOT / _sub) not in sys.path:
        sys.path.insert(0, str(ROOT / _sub))

from catnorm import serialize_schema  # noqa: E402
from genschema import random_fd_schema, random_mvd_schema  # noqa: E402

FD_EMIT = ("relational", "dtd", "pg")
FD_CHECKS = ("bcnf", "improved-bcnf", "xmlnf")

# BCNF and 4NF refuse relations wider than these (nf.BCNF_SORT_BOUND and
# nf.FOURNF_SORT_BOUND); the two over-bound documents sit one column above.
BCNF_BOUND = 12
FOURNF_BOUND = 8

# Known faults a document may show on every seed (`Doc.fault`).
OVER_BOUND = "over_bound"           # a relation over a bound: exit 2
LOST_DEPENDENCY = "lost_dependency"  # the 1RR prunes the arrow of a declared FD


@dataclass(frozen=True)
class Doc:
    name: str
    family: str
    text: str
    command: str                      # "reduce" or "check"
    level: int
    emit: tuple[str, ...] = ()
    checks: tuple[str, ...] = ()
    trace: bool = False
    expect: dict = field(default_factory=dict)
    fault: str = ""                   # OVER_BOUND, LOST_DEPENDENCY or ""

    @property
    def over_bound(self) -> bool:
        return self.fault == OVER_BOUND

    @property
    def size(self) -> int:
        return len(json.loads(self.text)["objects"])


def _text(objects, arrows=(), fds=(), mvds=()) -> str:
    return json.dumps({
        "objects": [dict(name=n, kind=k) for n, k in objects],
        "arrows": [dict(name=f"f_{s}_{t}", source=s, target=t,
                        projection=p) for s, t, p in arrows],
        "fds": [dict(lhs=sorted(l), rhs=sorted(r)) for l, r in fds],
        "mvds": [dict(lhs=sorted(l), rhs=sorted(r), context=c)
                 for l, r, c in mvds],
    }, indent=1) + "\n"


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# corpus_small: the acceptance-suite mix
# ---------------------------------------------------------------------------

N_FD_DOCS = 1000
N_MVD_DOCS = 500


def corpus_small(seed: int) -> list[Doc]:
    """The FD documents are the `random_fd_schema` draws that declare no
    FD.  With declared FDs the 1RR loses dependencies on about half of the
    draws, which ones depending on the seed (see `composite_doc`); without
    them it is right on every draw, and the MVD documents on every draw."""
    rng = random.Random(seed)
    docs = []
    while len(docs) < N_FD_DOCS:
        graph, deps = random_fd_schema(random.Random(rng.getrandbits(64)))
        if deps.fds:
            continue
        i = len(docs)
        docs.append(Doc(f"fd{i:04d}", "random_fd", serialize_schema(graph, deps),
                        "reduce", 1, FD_EMIT, FD_CHECKS, trace=True))
    for i in range(N_MVD_DOCS):
        graph, deps = random_mvd_schema(random.Random(rng.getrandbits(64)))
        docs.append(Doc(f"mvd{i:04d}", "random_mvd",
                        serialize_schema(graph, deps),
                        "check", 2, checks=("4nf", "xmlnf")))
    return docs


# ---------------------------------------------------------------------------
# fd_redundant: closure and 1RR on large FD schemas
# ---------------------------------------------------------------------------

CHAIN_SIZES = (12, 16, 20, 24, 28, 32)
CLUSTER_SIZES = (30, 45, 60, 75, 90, 120)   # objects; five per cluster
COMPOSITE_SIZES = (6, 8, 10, 12, 14, 16)    # groups; six objects each after closure


def chain_doc(rng: random.Random, m: int) -> Doc:
    """m attributes linked only by declared FDs c0 -> c1 -> ... in a seeded
    order.  The closure adds an arrow for every ordered pair along the
    chain, m(m-1)/2 in all; the 1RR keeps exactly the m-1 links."""
    order = _shuffled(rng, (f"C{i}" for i in range(m)))
    links = list(zip(order, order[1:]))
    text = _text([(n, "attribute") for n in _shuffled(rng, order)],
                 fds=[({s}, {t}) for s, t in _shuffled(rng, links)])
    return Doc(f"chain{m}", "chain", text, "reduce", 1, FD_EMIT,
               ("bcnf", "xmlnf"), trace=True,
               expect={"arrows": sorted(links)})


def cluster_doc(rng: random.Random, m: int) -> Doc:
    """m/5 disjoint clusters E -> a0..a3 with declared a0 -> a1 -> a2, as
    `genschema.cluster_schema`.  Each reduces to E->a0, E->a3, a0->a1,
    a1->a2."""
    objects, arrows, fds, expect = [], [], [], []
    for c in range(m // 5):
        e, (a0, a1, a2, a3) = f"E{c}", [f"a{c}_{i}" for i in range(4)]
        objects += [(e, "entity")] + [(a, "attribute") for a in (a0, a1, a2, a3)]
        arrows += [(e, a, False) for a in (a0, a1, a2, a3)]
        fds += [({a0}, {a1}), ({a1}, {a2})]
        expect += [(e, a0), (e, a3), (a0, a1), (a1, a2)]
    text = _text(_shuffled(rng, objects), _shuffled(rng, arrows),
                 _shuffled(rng, fds))
    return Doc(f"cluster{m}", "cluster", text, "reduce", 1, FD_EMIT,
               ("bcnf", "xmlnf"), trace=True,
               expect={"arrows": sorted(expect)})


def composite_doc(k: int) -> Doc:
    """k groups E -> x, y, w with a declared composite FD {x, y} -> z.  No
    member determines the other, so the closure materializes one composite
    relationship object x_y per group, with projections to exactly x and
    y; the 1RR must keep it and the arrows E -> w, E -> x_y and x_y -> z,
    the only arrow that carries the declared FD.

    Today `reduce._prune_redundant_arrows` prunes x_y -> z, because
    `fdclosure.derivable_without` counts the declared FD as still present,
    and z is in no emitted relation.  So the document does not depend on
    the seed, and is counted as failed (LOST_DEPENDENCY)."""
    objects, arrows, fds, composites, kept = [], [], [], {}, []
    for g in range(k):
        e, x, y, z, w = (f"G{g}", f"x{g}", f"y{g}", f"z{g}", f"w{g}")
        objects += [(e, "entity")] + [(a, "attribute") for a in (x, y, z, w)]
        arrows += [(e, x, False), (e, y, False), (e, w, False)]
        fds.append(({x, y}, {z}))
        composites[f"{x}_{y}"] = sorted((x, y))
        kept += [(e, w), (e, f"{x}_{y}"), (f"{x}_{y}", z)]
    return Doc(f"composite{k}", "composite", _text(objects, arrows, fds),
               "reduce", 1, FD_EMIT, ("bcnf", "xmlnf"), trace=True,
               expect={"composites": composites, "kept": sorted(kept)},
               fault=LOST_DEPENDENCY)


def fd_redundant(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    return ([chain_doc(rng, m) for m in CHAIN_SIZES]
            + [cluster_doc(rng, m) for m in CLUSTER_SIZES]
            + [composite_doc(k) for k in COMPOSITE_SIZES])


# ---------------------------------------------------------------------------
# mvd_contexts: 2RR on many relationship contexts
# ---------------------------------------------------------------------------

CONTEXT_COUNTS = (8, 10, 12, 14, 16, 18)


def contexts_doc(rng: random.Random, k: int) -> Doc:
    """k relationship contexts of 5..8 attributes.  In each, A0 ->> A1A2 is
    declared and A3 -> A4 is an arrow, where the roles A0..An-1 fall on a
    seeded permutation of the context's attributes.  The 2RR splits the
    context and prunes A4, so it emits exactly {A0,A1,A2}, {A0,A3,A5..}
    and {A3,A4}."""
    objects, arrows, mvds, expect = [], [], [], []
    for c in range(k):
        n = 5 + c % 4
        ctx = f"M{c}ctx"
        role = _shuffled(rng, (f"m{c}_{i}" for i in range(n)))
        objects += [(ctx, "relationship")] + [(a, "attribute") for a in role]
        arrows += [(ctx, a, True) for a in role] + [(role[3], role[4], False)]
        mvds.append(({role[0]}, {role[1], role[2]}, ctx))
        expect += [sorted(role[:3]), sorted([role[0], role[3]] + role[5:]),
                   sorted(role[3:5])]
    text = _text(_shuffled(rng, objects), _shuffled(rng, arrows), mvds=mvds)
    return Doc(f"contexts{k}", "contexts", text, "reduce", 2, ("relational",),
               ("4nf", "xmlnf"), expect={"relations": sorted(expect)})


def mvd_contexts(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    return [contexts_doc(rng, k) for k in CONTEXT_COUNTS]


# ---------------------------------------------------------------------------
# wide_relations: normal-form checks on wide relations
# ---------------------------------------------------------------------------

BCNF_WIDTHS = (8, 9, 10, 11, 12) * 2
FOURNF_WIDTHS = (8,) * 8
PLANTED_WIDTHS = (8, 10, 12)


def _entities(rng: random.Random, tag: str, widths, planted: bool):
    """One entity per width with width+1 attributes (or width, with
    `planted` False) and one declared FD between two of its attributes."""
    objects, arrows, fds, expect = [], [], [], []
    for i, width in enumerate(widths):
        e = f"{tag}{i}"
        n = width if planted else width + 1
        attrs = _shuffled(rng, (f"{tag}{i}_{j}" for j in range(n)))
        objects += [(e, "entity")] + [(a, "attribute") for a in attrs]
        arrows += [(e, a, False) for a in attrs]
        fds.append(({attrs[0]}, {attrs[1]}))
        expect.append(sorted(attrs) if planted else
                      sorted([attrs[0]] + attrs[2:]))
    return objects, arrows, fds, expect


def wide_doc(rng: random.Random, name: str, widths, command: str,
             level: int, checks) -> Doc:
    planted = level == 0
    tag = name[0].upper() + name[-1]
    objects, arrows, fds, expect = _entities(rng, tag, widths, planted)
    text = _text(_shuffled(rng, objects), _shuffled(rng, arrows),
                 _shuffled(rng, fds))
    return Doc(name, "wide", text, command, level, checks=checks,
               expect={"wide": sorted(expect)})


def over_bound_doc(name: str, width: int, check: str) -> Doc:
    """A single entity with `width` attributes and no dependencies: one
    relation of exactly `width` columns.  The same for every seed."""
    attrs = [f"{name}_{j}" for j in range(width)]
    text = _text([(name, "entity")] + [(a, "attribute") for a in attrs],
                 [(name, a, False) for a in attrs])
    return Doc(name, "over_bound", text, "check", 1, checks=(check,),
               fault=OVER_BOUND)


def wide_relations(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    docs = []
    for copy in "ab":
        docs += [
            wide_doc(rng, f"bcnf_{copy}", BCNF_WIDTHS, "check", 1,
                     ("bcnf", "improved-bcnf")),
            wide_doc(rng, f"fournf_{copy}", FOURNF_WIDTHS, "check", 1,
                     ("4nf",)),
            wide_doc(rng, f"planted_{copy}", PLANTED_WIDTHS, "check", 0,
                     ("bcnf", "improved-bcnf")),
        ]
    return docs + [over_bound_doc("wideb", BCNF_BOUND + 1, "bcnf"),
                   over_bound_doc("widef", FOURNF_BOUND + 1, "4nf")]


WORKLOADS = {
    "corpus_small": corpus_small,
    "fd_redundant": fd_redundant,
    "mvd_contexts": mvd_contexts,
    "wide_relations": wide_relations,
}


def main(argv=None) -> int:
    """Write a workload's documents as files, one JSON document each, with
    the CLI request each is run under in requests.json."""
    import argparse
    p = argparse.ArgumentParser(description=main.__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    requests = {}
    for doc in WORKLOADS[args.workload](args.seed):
        (args.out / f"{doc.name}.json").write_text(doc.text, encoding="utf-8")
        flags = [f"--level={doc.level}"]
        flags += [f"--emit={','.join(doc.emit)}"] if doc.emit else []
        flags += [f"--check={','.join(doc.checks)}"] if doc.checks else []
        flags += ["--trace"] if doc.trace else []
        requests[doc.name] = [doc.command, f"{doc.name}.json", *flags,
                              "--stdout"]
    (args.out / "requests.json").write_text(json.dumps(requests, indent=1)
                                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
