"""Scaling gates on counted work.

Wall-time exponents are too noisy on a shared machine to gate on, so these
tests count work that does not depend on the machine: `GraphIndex` builds,
`FDIndex.closure` calls and the summed sizes of the sets those closures
return.  Each family runs at three sizes, and an exponent is the
least-squares slope of log count against log size.
"""

import math
import random
import statistics

import pytest

from catnorm import first_reduced, second_reduced
from catnorm.core import FDIndex, GraphIndex
from genschema import cluster_schema, composite_schema, contexts_schema


@pytest.fixture
def counts(monkeypatch):
    """Counters of index builds, closure calls and returned closure sizes,
    reset by the test between runs."""
    seen = {"index_builds": 0, "closure_calls": 0, "closure_sizes": 0}
    init, closure = GraphIndex.__init__, FDIndex.closure

    def counted_init(self, graph):
        seen["index_builds"] += 1
        init(self, graph)

    def counted_closure(self, *args, **kwargs):
        out = closure(self, *args, **kwargs)
        seen["closure_calls"] += 1
        seen["closure_sizes"] += len(out)
        return out

    monkeypatch.setattr(GraphIndex, "__init__", counted_init)
    monkeypatch.setattr(FDIndex, "closure", counted_closure)
    return seen


def _first_reduced(schema):
    graph, deps = schema
    first_reduced(graph, deps.fds)


def _second_reduced(schema):
    graph, deps = schema
    second_reduced(graph, deps.fds, deps.mvds)


FAMILIES = {
    "composite": (composite_schema, _first_reduced),
    "cluster": (cluster_schema, _first_reduced),
    "contexts": (lambda k: contexts_schema(k, random.Random(1)),
                 _second_reduced),
}


def _measure(counts, family: str, sizes) -> dict[int, dict[str, int]]:
    """Per size, the counts of one reduction of the family's schema."""
    generate, reduce = FAMILIES[family]
    out = {}
    for size in sizes:
        schema = generate(size)
        for key in counts:
            counts[key] = 0
        reduce(schema)
        out[size] = dict(counts)
    return out


def _exponent(points) -> float:
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(c) for _, c in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)


def test_composite_index_builds_are_constant(counts):
    """The closure adds every composite to one index, so the index builds
    of a 1RR do not grow with the number of composites."""
    seen = _measure(counts, "composite", (50, 100, 200))
    builds = {k: c["index_builds"] for k, c in seen.items()}
    assert len(set(builds.values())) == 1, builds


@pytest.mark.parametrize("family, sizes", [
    ("cluster", (80, 160, 320)),
    ("contexts", (16, 32, 64)),
])
def test_counted_work_is_near_linear(counts, family, sizes):
    seen = _measure(counts, family, sizes)
    for key in counts:
        points = [(size, c[key]) for size, c in seen.items()]
        assert all(c > 0 for _, c in points), (family, key, points)
        assert _exponent(points) <= 1.3, (family, key, points)
