"""Two-row tableau chase: the independent oracle for FD/MVD implication.

The chase starts from two rows agreeing exactly on the target's LHS and
fires dependencies to a fixpoint: an FD equates values, an MVD inserts the
swapped row for every agreeing pair.  Soundness over completeness: blowing
past the row cap is an error, never a silent "false".
"""

from __future__ import annotations

from .core import FD, MVD, DependencySet, SchemaError

DEFAULT_ROW_LIMIT = 4096
DEFAULT_UNIVERSE_BOUND = 12


class ChaseLimitExceeded(Exception):
    """The tableau grew past `DEFAULT_ROW_LIMIT` rows."""


def _substitute(rows, originals, old, new):
    sub = lambda v: new if v == old else v
    rows = {tuple(sub(v) for v in row) for row in rows}
    originals = [tuple(sub(v) for v in row) for row in originals]
    return rows, originals


def chase(deps: DependencySet, lhs, universe, context: str | None = None):
    """Run the chase; returns (rows, row1, row2, attribute order)."""
    universe = frozenset(universe)
    if len(universe) > DEFAULT_UNIVERSE_BOUND:
        raise SchemaError(
            f"chase universe of {len(universe)} attributes exceeds the bound "
            f"of {DEFAULT_UNIVERSE_BOUND}")
    lhs = frozenset(lhs)
    if not lhs <= universe:
        raise SchemaError("chase: lhs not contained in the universe")

    attrs = sorted(universe)
    idx = {a: i for i, a in enumerate(attrs)}
    local = deps.relativized(universe, context)

    counter = 0
    r1, r2 = [], []
    for a in attrs:
        if a in lhs:
            r1.append(counter)
            r2.append(counter)
            counter += 1
        else:
            r1.append(counter)
            r2.append(counter + 1)
            counter += 2
    originals = [tuple(r1), tuple(r2)]
    rows = {originals[0], originals[1]}

    changed = True
    while changed:
        changed = False
        # FD firing: equate values of agreeing rows
        for f in local.fds:
            li = [idx[a] for a in sorted(f.lhs)]
            (ri,) = [idx[a] for a in f.rhs]
            fired = True
            while fired:
                fired = False
                groups: dict[tuple, int] = {}
                for row in list(rows):
                    key = tuple(row[i] for i in li)
                    if key in groups:
                        a, b = groups[key], row[ri]
                        if a != b:
                            keep, drop = min(a, b), max(a, b)
                            rows, originals = _substitute(rows, originals,
                                                          drop, keep)
                            fired = changed = True
                            break
                    else:
                        groups[key] = row[ri]
        # MVD firing: insert swapped rows for agreeing pairs
        for m in local.mvds:
            li = [idx[a] for a in sorted(m.lhs)]
            yi = [idx[a] for a in sorted(m.rhs - m.lhs)]
            fresh = set()
            row_list = sorted(rows)
            for s in row_list:
                for t in row_list:
                    if s is t or any(s[i] != t[i] for i in li):
                        continue
                    new = list(t)
                    for i in yi:
                        new[i] = s[i]
                    new = tuple(new)
                    if new not in rows:
                        fresh.add(new)
            if fresh:
                rows |= fresh
                changed = True
                if len(rows) > DEFAULT_ROW_LIMIT:
                    raise ChaseLimitExceeded(
                        f"chase exceeded {DEFAULT_ROW_LIMIT} rows")
    return rows, originals[0], originals[1], attrs


def chase_implies(deps: DependencySet, target, universe) -> bool:
    """Decide whether `target` (an FD or MVD) follows from `deps` over
    the given universe of attributes."""
    universe = frozenset(universe)
    if not (target.lhs | target.rhs) <= universe:
        raise SchemaError("chase_implies: target attributes outside universe")

    if isinstance(target, FD):
        rows, r1, r2, attrs = chase(deps, target.lhs, universe)
        idx = {a: i for i, a in enumerate(attrs)}
        return all(r1[idx[a]] == r2[idx[a]] for a in target.rhs)

    if isinstance(target, MVD):
        if target.rhs <= target.lhs:
            return True
        rows, r1, r2, attrs = chase(deps, target.lhs, universe)
        idx = {a: i for i, a in enumerate(attrs)}
        want = []
        xy = target.lhs | target.rhs
        for a in attrs:
            want.append(r1[idx[a]] if a in xy else r2[idx[a]])
        return tuple(want) in rows

    raise SchemaError(f"unsupported target type {type(target).__name__}")
