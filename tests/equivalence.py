"""Graph equivalence under FDs, decided by closing a graph anew on
every call.  The tests use it as an independent check on the reductions."""

from catnorm import Arrow, CategoryGraph, SchemaError, fd_closure_graph


def covers(g1: CategoryGraph, g2: CategoryGraph, fds=()) -> bool:
    """True iff every arrow of g2 is present in the closure of (g1, fds)."""
    closed = fd_closure_graph(g1, tuple(fds)).arrow_pairs()
    return g2.arrow_pairs() <= closed


def equivalent(g1: CategoryGraph, g2: CategoryGraph, fds=()) -> bool:
    return covers(g1, g2, fds) and covers(g2, g1, fds)


def is_redundant_arrow(arrow: Arrow, graph: CategoryGraph, fds=()) -> bool:
    """True iff removing `arrow` leaves a graph equivalent to `graph`."""
    if arrow not in graph.arrows:
        raise SchemaError(f"arrow {arrow.name!r} not in graph")
    rest = graph.without_arrow(arrow)
    return covers(rest, graph, tuple(fds))
