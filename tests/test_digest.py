"""Pinned closure, reduction, emission and normal-form outputs.

Each digest is the sha256 of one output over a fixed range of generated
schemas: the serialized closures (with provenance), the reduced schemas
with their reduction traces (of the bridged family too, whose MVD context
shows an FD only once closed), the SQL, DTD and property graph rendered
from the reduced schemas, and the JSON of their BCNF, improved-BCNF, 4NF
and XML-NF reports.  One more digest pins what `catnorm emit --emit
relational` prints for unreduced schemas, its warnings included.  They
must not change under refactoring.  Each
artifact has its own digest, so an emitter fix moves only the digests of
what it renders and checks.
"""

import hashlib
import json
import random

from catnorm import (
    DependencySet,
    NfReport,
    SchemaError,
    check_4nf,
    check_bcnf,
    check_improved_bcnf,
    check_xml_nf,
    derive_xml_fds,
    emit_dtd,
    emit_property_graph,
    emit_relational,
    fd_closure_graph,
    fd_mvd_closure_graph,
    first_reduced,
    graph_to_fds,
    render_dtd,
    render_property_graph,
    render_sql,
    second_reduced,
    serialize_schema,
)
from catnorm.cli import main
from genschema import bridged_mvd_schema, random_fd_schema, random_mvd_schema

N_SEEDS = 300

EXPECTED = {
    "fd-closure":
        "9704f831c5bf0faa514da6594e3a0038b81c0cf58d3fa65bf734acb467ad2d51",
    "fd-mvd-closure-fd-suite":
        "2113613d624a01e1fdfe478a026bc622bd58dadfa8a85321c5af23477fcf8488",
    "fd-mvd-closure-mvd-suite":
        "6c39ece7d211d65de78bec81ece0c53d3bee623d4366f1bb04d6a61d99550a65",
    "first-reduced":
        "dff71b359a8d1b148dbca0e707e55564f53d410efcd62617ff76f60391350572",
    "second-reduced":
        "3b2e2d644099462fd543590fbea2bc27e22935463bab45516d2f501aff41c1b1",
    "sql-1rr":
        "49c2461eafee281b20552dc19220bf6d5a0395941fe329e8a3f091d82e5645b3",
    "sql-2rr":
        "5a95b2ca72f9a3534e885bf1b8bf68a6c8aff25874d96284e430df85ba5f8967",
    "dtd-1rr":
        "f5d3b1411c26fe308a5ad7643de8b93b226cabc3b267878effa9e003a437d0b0",
    "dtd-2rr":
        "894b41e00022193a58f1e350c42f8c91520799f56bc595cb8554d464e9181ec7",
    "pg-1rr":
        "05d4dfce55666044dc4f93470ef7aa2f1b934df1244a28f333496940e425a5ef",
    "pg-2rr":
        "0addd184e46db6262266c739c80df62343537650b333fdad9e0f50ec19c705c0",
    "reports-1rr":
        "52418c084b03246b7e65220f03a7cff354b0c71f20d7e2076300a6681bd12c1d",
    "reports-2rr":
        "df0f69046f4886eba2f1b7dedff6091b14d563b8ef8126bffe5c75814fef45d9",
    "fd-mvd-closure-bridged":
        "d369fcf6eeb0db060f43a3a88eaf7673c8aad5fd1c4dbfa0fc91917ed5d86ffa",
    "second-reduced-bridged":
        "3864dc2bf3ef99542c0b8a711bf83c3518b95a9abe5324c9d7f343f4165151f5",
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


def _per_relation(check, relations, deps):
    reports = []
    for rel in relations:
        try:
            reports.append(check(rel, deps))
        except SchemaError as e:
            reports.append(NfReport(subject=rel.name, verdict="unknown",
                                    witnesses=[{"reason": str(e)}]))
    return reports


def _reports(graph, deps):
    """Every check's reports, as the pipeline checks an emitted schema."""
    deps = DependencySet(fds=tuple(graph_to_fds(graph)) + tuple(deps.fds),
                         mvds=tuple(deps.mvds))
    schema, dtd = emit_relational(graph), emit_dtd(graph)
    reports = (_per_relation(check_bcnf, schema.relations, deps)
               + [check_improved_bcnf(schema, deps)]
               + _per_relation(check_4nf, schema.relations, deps)
               + [check_xml_nf(dtd, derive_xml_fds(graph, dtd))])
    return json.dumps([r.to_json() for r in reports])


RENDERERS = {
    "sql": lambda g, d: render_sql(emit_relational(g)),
    "dtd": lambda g, d: render_dtd(emit_dtd(g)),
    "pg": lambda g, d: render_property_graph(emit_property_graph(g)),
    "reports": _reports,
}


def _reduced(reduce, render):
    def rendered(graph, deps):
        return render(reduce(graph, deps)[0], deps)
    return rendered


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
    "fd-mvd-closure-bridged": (bridged_mvd_schema, _closure(
        lambda g, d, p: fd_mvd_closure_graph(g, d.fds, d.mvds, p))),
    "second-reduced-bridged": (bridged_mvd_schema, _reduction(
        lambda g, d: second_reduced(g, d.fds, d.mvds))),
}
for _kind, _render in RENDERERS.items():
    CASES[f"{_kind}-1rr"] = (random_fd_schema, _reduced(
        lambda g, d: first_reduced(g, d.fds), _render))
    CASES[f"{_kind}-2rr"] = (random_mvd_schema, _reduced(
        lambda g, d: second_reduced(g, d.fds, d.mvds), _render))


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


EMIT_SEEDS = 100
EMIT_EXPECTED = \
    "65da8cafcd02f8d4ee0c17f432649b27a52ed28be85334df4912101066977848"
UNREDUCED = "catnorm: warning: input graph is not reduced"


def test_level0_relational_emit_digest(capsys, tmp_path):
    """stdout and stderr of `catnorm emit <doc> --emit relational --stdout`,
    which emits the unreduced graph, over the FD and the MVD schemas."""
    h, warned = hashlib.sha256(), 0
    doc = tmp_path / "doc.json"
    for generate in (random_fd_schema, random_mvd_schema):
        for seed in range(EMIT_SEEDS):
            graph, deps = generate(random.Random(seed))
            doc.write_text(serialize_schema(graph, deps), encoding="utf-8")
            code = main(["emit", str(doc), "--emit", "relational",
                         "--stdout"])
            out, err = capsys.readouterr()
            h.update(f"#{seed} {code}\n{out}{err}".encode())
            warned += UNREDUCED in err
    assert warned > 0
    assert h.hexdigest() == EMIT_EXPECTED
