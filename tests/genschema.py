"""Random schema generators for the property and acceptance suites.

All generators take a seeded random.Random and produce graphs that pass
validate() by construction: projections leave relationship objects only,
thinness is enforced with a pair set, and there are no self-loops.
"""

from __future__ import annotations

import random

from catnorm import FD, MVD, Arrow, CategoryGraph, DependencySet, ObjectDecl

KINDS = ("entity", "relationship", "attribute")


def random_fd_schema(rng: random.Random) -> tuple[CategoryGraph, DependencySet]:
    """Mixed-kind schema: at most 6 objects and 8 declared FDs, no MVDs."""
    n = rng.randint(2, 6)
    names = [f"O{i}" for i in range(n)]
    kinds = {name: rng.choice(KINDS) for name in names}
    if all(k == "relationship" for k in kinds.values()):
        kinds[names[-1]] = "attribute"  # leave at least one projection target

    objects = tuple(ObjectDecl(name, kinds[name]) for name in names)
    arrows: list[Arrow] = []
    pairs: set[tuple[str, str]] = set()

    def add(source: str, target: str, projection: bool) -> None:
        if source != target and (source, target) not in pairs:
            pairs.add((source, target))
            arrows.append(Arrow(f"a_{source}_{target}", source, target,
                                is_projection=projection))

    for name in names:
        if kinds[name] != "relationship":
            continue
        others = [x for x in names if x != name]
        for t in rng.sample(others, rng.randint(1, min(3, len(others)))):
            add(name, t, True)
    for _ in range(rng.randint(0, n)):
        s, t = rng.sample(names, 2)
        if kinds[s] == "relationship":
            continue  # keep relationship objects projection-only
        add(s, t, False)

    fds = []
    for _ in range(rng.randint(0, 8)):
        lhs = frozenset(rng.sample(names, rng.randint(1, 2)))
        rhs = frozenset(rng.sample(names, rng.randint(1, 2)))
        if rhs - lhs:
            fds.append(FD(lhs, rhs - lhs))
    return (CategoryGraph(objects=objects, arrows=tuple(arrows)),
            DependencySet(fds=tuple(fds)))


def random_mvd_schema(rng: random.Random) -> tuple[CategoryGraph, DependencySet]:
    """A relationship context over 3..5 attributes with 1..3 declared MVDs
    and a few FD arrows between the attributes."""
    k = rng.randint(3, 5)
    attrs = [f"A{i}" for i in range(k)]
    objects = (ObjectDecl("R", "relationship"),) + tuple(
        ObjectDecl(a, "attribute") for a in attrs)
    arrows = [Arrow(f"p_{a}", "R", a, is_projection=True) for a in attrs]
    pairs = {(a.source, a.target) for a in arrows}
    for _ in range(rng.randint(0, 2)):
        s, t = rng.sample(attrs, 2)
        if (s, t) not in pairs:
            pairs.add((s, t))
            arrows.append(Arrow(f"f_{s}_{t}", s, t))

    mvds = []
    for _ in range(rng.randint(1, 3)):
        lhs = frozenset(rng.sample(attrs, rng.randint(1, 2)))
        rest = [a for a in attrs if a not in lhs]
        if not rest:
            continue
        rhs = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
        mvds.append(MVD(lhs, rhs, "R"))
    return (CategoryGraph(objects=objects, arrows=tuple(arrows)),
            DependencySet(mvds=tuple(mvds)))


def bridged_mvd_schema(rng: random.Random
                       ) -> tuple[CategoryGraph, DependencySet]:
    """A relationship context R over 3..5 attributes, an entity E outside
    it with arrows s -> E -> t between two of R's attributes, and one
    declared MVD on R.  The FD s -> t holds inside R only through E, so
    only the closed graph shows it within the context."""
    k = rng.randint(3, 5)
    attrs = [f"A{i}" for i in range(k)]
    objects = (ObjectDecl("R", "relationship"), ObjectDecl("E", "entity")) \
        + tuple(ObjectDecl(a, "attribute") for a in attrs)
    s, t = rng.sample(attrs, 2)
    arrows = [Arrow(f"p_{a}", "R", a, is_projection=True) for a in attrs]
    arrows += [Arrow(f"f_{s}_E", s, "E"), Arrow(f"f_E_{t}", "E", t)]
    lhs = frozenset(rng.sample(attrs, rng.randint(1, 2)))
    rest = [a for a in attrs if a not in lhs]
    rhs = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
    return (CategoryGraph(objects=objects, arrows=tuple(arrows)),
            DependencySet(mvds=(MVD(lhs, rhs, "R"),)))


def random_dependency_set(rng: random.Random, universe) -> DependencySet:
    """FDs and MVDs over a fixed small attribute universe (context-free)."""
    attrs = sorted(universe)
    fds, mvds = [], []
    for _ in range(rng.randint(0, 3)):
        lhs = frozenset(rng.sample(attrs, rng.randint(1, 2)))
        rhs = frozenset(rng.sample(attrs, 1))
        if rhs - lhs:
            fds.append(FD(lhs, rhs - lhs))
    for _ in range(rng.randint(0, 3)):
        lhs = frozenset(rng.sample(attrs, rng.randint(1, 2)))
        rest = [a for a in attrs if a not in lhs]
        if not rest:
            continue
        rhs = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
        mvds.append(MVD(lhs, rhs, "U"))
    return DependencySet(fds=tuple(fds), mvds=tuple(mvds))


def cluster_schema(m: int) -> tuple[CategoryGraph, DependencySet]:
    """Disjoint 5-object clusters at fixed arrow density, m objects total."""
    assert m % 5 == 0
    objects, arrows, fds = [], [], []
    for c in range(m // 5):
        e = f"E{c}"
        attrs = [f"a{c}_{i}" for i in range(4)]
        objects.append(ObjectDecl(e, "entity"))
        objects += [ObjectDecl(a, "attribute") for a in attrs]
        arrows += [Arrow(f"f_{e}_{a}", e, a) for a in attrs]
        fds.append(FD(frozenset([attrs[0]]), frozenset([attrs[1]])))
        fds.append(FD(frozenset([attrs[1]]), frozenset([attrs[2]])))
    return (CategoryGraph(objects=tuple(objects), arrows=tuple(arrows)),
            DependencySet(fds=tuple(fds)))


def chain_schema(m: int) -> tuple[CategoryGraph, DependencySet]:
    """m attributes linked only by the declared FDs C0 -> C1 -> ... -> Cm-1;
    the closure has an arrow for every ordered pair along the chain."""
    names = [f"C{i}" for i in range(m)]
    return (CategoryGraph(objects=tuple(ObjectDecl(n, "attribute")
                                        for n in names)),
            DependencySet(fds=tuple(FD(frozenset([s]), frozenset([t]))
                                    for s, t in zip(names, names[1:]))))


def composite_schema(k: int) -> tuple[CategoryGraph, DependencySet]:
    """k groups E -> x, y, w with a declared composite FD {x, y} -> z; the
    closure materializes one composite object x_y per group."""
    objects, arrows, fds = [], [], []
    for g in range(k):
        e, x, y, z, w = (f"G{g}", f"x{g}", f"y{g}", f"z{g}", f"w{g}")
        objects.append(ObjectDecl(e, "entity"))
        objects += [ObjectDecl(a, "attribute") for a in (x, y, z, w)]
        arrows += [Arrow(f"f_{e}_{a}", e, a) for a in (x, y, w)]
        fds.append(FD(frozenset([x, y]), frozenset([z])))
    return (CategoryGraph(objects=tuple(objects), arrows=tuple(arrows)),
            DependencySet(fds=tuple(fds)))


def contexts_schema(k: int, rng: random.Random
                    ) -> tuple[CategoryGraph, DependencySet]:
    """k relationship contexts of 4..6 attributes over one attribute pool,
    for the 2RR object elimination.

    Context c projects onto a window of the pool that overlaps the next
    context's window, so neighbouring contexts share attributes.  Each
    declares t0 ->> t1t2 over its roles t0..tn-1; about half also declare
    t0 ->> t3 or t3 ->> t4, so a fragment of the first split is split
    again.  t3 -> t4 is an arrow or a declared FD.  Every fourth context
    has an incoming arrow from an entity, and some have an arrow to an
    outside attribute that no projection target reaches, so neither can
    be derived.  A limit object L projects onto a pool attribute and an
    attribute of its own.  The
    names X, C1, X2, C3, ... make the split names count past one another.
    """
    pool = [f"a{i}" for i in range(3 * k + 4)]
    objects = [ObjectDecl(a, "attribute") for a in pool]
    arrows: list[Arrow] = []
    pairs: set[tuple[str, str]] = set()
    fds, mvds = [], []
    for c in range(k):
        name = "X" if c == 0 else (f"C{c}" if c % 2 else f"X{c}")
        n = rng.randint(4, 6)
        roles = pool[3 * c:3 * c + n]
        rng.shuffle(roles)
        objects.append(ObjectDecl(name, "relationship"))
        arrows += [Arrow(f"p_{name}_{a}", name, a, is_projection=True)
                   for a in roles]
        t = roles
        mvds.append(MVD(frozenset([t[0]]), frozenset(t[1:3]), name))
        second = rng.random()
        if second < 0.25:
            mvds.append(MVD(frozenset([t[0]]), frozenset([t[3]]), name))
        elif second < 0.5 and n > 4:
            mvds.append(MVD(frozenset([t[3]]), frozenset([t[4]]), name))
        if n > 4:
            if rng.random() < 0.5 and (t[3], t[4]) not in pairs:
                pairs.add((t[3], t[4]))
                arrows.append(Arrow(f"f_{t[3]}_{t[4]}", t[3], t[4]))
            else:
                fds.append(FD(frozenset([t[3]]), frozenset([t[4]])))
        if c % 4 == 3:
            objects.append(ObjectDecl(f"E{c}", "entity"))
            arrows += [Arrow(f"in_{name}", f"E{c}", name),
                       Arrow(f"e_{c}", f"E{c}", f"b{c}")]
            objects.append(ObjectDecl(f"b{c}", "attribute"))
        elif rng.random() < 0.2:
            outside = f"b{c}"
            objects.append(ObjectDecl(outside, "attribute"))
            arrows.append(Arrow(f"out_{name}", name, outside))
    objects += [ObjectDecl("l0", "attribute"),
                ObjectDecl("L", "relationship", is_limit=True)]
    arrows += [Arrow(f"p_L_{a}", "L", a, is_projection=True)
               for a in (rng.choice(pool), "l0")]
    return (CategoryGraph(objects=tuple(objects), arrows=tuple(arrows)),
            DependencySet(fds=tuple(fds), mvds=tuple(mvds)))
