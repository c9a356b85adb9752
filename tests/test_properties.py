"""Randomized properties: round-trips, closure laws, oracle agreement."""

import json
import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from catnorm import (
    SchemaError,
    chase,
    dependency_basis,
    fd_closure_graph,
    is_valid,
    parse_schema,
    serialize_schema,
    validate,
)

from closure import attribute_closure
from genschema import random_dependency_set, random_fd_schema, random_mvd_schema

seeds = st.integers(min_value=0, max_value=10**9)


def brute_force_closure(seed, fds):
    closure = set(seed)
    while True:
        for f in fds:
            if f.lhs <= closure and not f.rhs <= closure:
                closure |= f.rhs
                break
        else:
            return frozenset(closure)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_generated_schemas_are_valid(seed):
    graph, deps = random_fd_schema(random.Random(seed))
    assert is_valid(validate(graph, deps))
    g2, d2 = random_mvd_schema(random.Random(seed))
    assert is_valid(validate(g2, d2))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_roundtrip_serialization(seed):
    graph, deps = random_fd_schema(random.Random(seed))
    graph2, deps2 = parse_schema(serialize_schema(graph, deps))
    assert graph2 == graph and deps2 == deps


# JSON values that often take the shape of a schema document: the schema's
# own keys and a few object names are drawn more often than other text.
_words = st.sampled_from(
    ["objects", "arrows", "fds", "mvds", "mvd_objects", "provenance",
     "name", "kind", "limit", "source", "target", "projection", "lhs",
     "rhs", "context", "entity", "relationship", "attribute", "A", "B"]) \
    | st.text(max_size=4)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _words,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_words, inner, max_size=5),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_json)
def test_parse_returns_or_raises_schema_error(value):
    try:
        parse_schema(json.dumps(value))
    except SchemaError:
        pass


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_closure_idempotent_monotone_thin(seed):
    graph, deps = random_fd_schema(random.Random(seed))
    once = fd_closure_graph(graph, deps.fds)
    assert graph.arrow_pairs() <= once.arrow_pairs()
    assert len(once.arrows) == len(once.arrow_pairs())
    twice = fd_closure_graph(once, deps.fds)
    assert once.arrow_pairs() == twice.arrow_pairs()


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_attribute_closure_against_brute_force(seed):
    rng = random.Random(seed)
    universe = [f"A{i}" for i in range(5)]
    deps = random_dependency_set(rng, universe)
    x = frozenset(rng.sample(universe, rng.randint(1, 3)))
    assert attribute_closure(x, deps.canonical_fds()) == \
        brute_force_closure(x, deps.canonical_fds())


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_basis_blocks_pass_the_chase(seed):
    # every union of dependency-basis blocks is a chase-confirmed MVD
    rng = random.Random(seed)
    universe = frozenset(f"A{i}" for i in range(rng.randint(2, 5)))
    deps = random_dependency_set(rng, universe)
    x = frozenset(rng.sample(sorted(universe), rng.randint(1, 2)))
    basis = dependency_basis(x, deps, universe)
    rows, r1, r2, attrs = chase(deps, x, universe)
    idx = {a: i for i, a in enumerate(attrs)}
    blocks = list(basis.blocks)
    for k in range(1, len(blocks) + 1):
        for chosen in combinations(blocks, k):
            y = frozenset().union(*chosen)
            xy = x | y
            want = tuple(r1[idx[a]] if a in xy else r2[idx[a]] for a in attrs)
            assert want in rows, f"X={sorted(x)} Y={sorted(y)} not confirmed"
