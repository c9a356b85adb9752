"""Pinned closure and reduction outputs.

Each digest is the sha256 of the serialized closures (with provenance),
reduced schemas and reduction traces over a fixed range of generated
schemas.  They were recorded before the closure drivers were merged and
must not change under refactoring; emitter output is deliberately left
out so that emitter fixes do not move them.
"""

import hashlib
import json
import random

from catnorm import (
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    second_reduced,
    serialize_schema,
)
from genschema import random_fd_schema, random_mvd_schema

N_SEEDS = 300

EXPECTED = {
    "fd-closure":
        "b4395df650e537809f8c207c25ceee1d7a2749028f01dc2bbb0ac536330082f2",
    "fd-mvd-closure-fd-suite":
        "d687190c3b1f4de7a2588d8678c4accc88e6e4d75b886bdf21c5241f84275661",
    "fd-mvd-closure-mvd-suite":
        "6c39ece7d211d65de78bec81ece0c53d3bee623d4366f1bb04d6a61d99550a65",
    "first-reduced":
        "d4fce5c441e259b082a523c792ba025c24e11999e6e3dea55f7b8851b24270db",
    "second-reduced":
        "3b2e2d644099462fd543590fbea2bc27e22935463bab45516d2f501aff41c1b1",
}


def _closure(close):
    def render(graph, deps):
        provenance: list = []
        return serialize_schema(close(graph, deps, provenance), deps,
                                provenance)
    return render


def _reduction(reduce):
    def render(graph, deps):
        reduced, trace = reduce(graph, deps)
        return serialize_schema(reduced, deps) + json.dumps(trace.to_json())
    return render


CASES = {
    "fd-closure": (random_fd_schema, _closure(
        lambda g, d, p: fd_closure_graph(g, d.fds, p))),
    "fd-mvd-closure-fd-suite": (random_fd_schema, _closure(
        lambda g, d, p: fd_mvd_closure_graph(g, d.fds, d.mvds, p))),
    "fd-mvd-closure-mvd-suite": (random_mvd_schema, _closure(
        lambda g, d, p: fd_mvd_closure_graph(g, d.fds, d.mvds, p))),
    "first-reduced": (random_fd_schema, _reduction(
        lambda g, d: first_reduced(g, d.fds))),
    "second-reduced": (random_mvd_schema, _reduction(
        lambda g, d: second_reduced(g, d.fds, d.mvds))),
}


def digest(name: str) -> str:
    generate, render = CASES[name]
    h = hashlib.sha256()
    for seed in range(N_SEEDS):
        graph, deps = generate(random.Random(seed))
        h.update(f"#{seed}\n".encode())
        h.update(render(graph, deps).encode())
    return h.hexdigest()


def test_closure_and_reduction_digests():
    assert {name: digest(name) for name in CASES} == EXPECTED
