import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import catnorm.cli
from catnorm import SchemaError, second_reduced, serialize_schema
from catnorm.cli import main
from genschema import contexts_schema


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_empty(capsys, data_dir):
    code, _, err = run(capsys, "validate", str(data_dir / "empty.json"))
    assert code == 0
    assert "0 objects" in err


def test_validate_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": [{"name": "A", "kind": "nope"}]}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1 and "nope" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nothing.json"))
    assert code == 1


def test_validate_non_thin_is_input_error(capsys, tmp_path):
    doc = tmp_path / "non_thin.json"
    doc.write_text(json.dumps({
        "objects": [{"name": "A", "kind": "attribute"},
                    {"name": "B", "kind": "attribute"}],
        "arrows": [{"name": "f", "source": "A", "target": "B"},
                   {"name": "g", "source": "A", "target": "B"}]}))
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 1 and "[thinness]" in err


def test_closure_roundtrippable(capsys, data_dir, tmp_path):
    code, _, _ = run(capsys, "closure", str(data_dir / "fig5.json"),
                     "--out-dir", str(tmp_path))
    assert code == 0
    from catnorm import parse_schema
    graph, deps = parse_schema((tmp_path / "fig5.closure.json").read_text())
    assert ("D", "B") in graph.arrow_pairs()
    doc = json.loads((tmp_path / "fig5.closure.json").read_text())
    assert any(p.get("rule") == "fd-closure" for p in doc["provenance"])


def test_closure_records_mvd_objects(capsys, data_dir, tmp_path):
    code, _, _ = run(capsys, "closure", str(data_dir / "fig6.json"),
                     "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "fig6.closure.json").read_text())
    assert any(p.get("rule") == "mvd-object" for p in doc["provenance"])


def test_closure_marks_a_context_split_through_an_entity(capsys, tmp_path):
    # a -> E -> b gives a -> b inside R only once closed; the 2RR splits R
    # along a ->> b, and the closure marks R on the same closed graph
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "objects": [{"name": "R", "kind": "relationship"},
                    {"name": "E", "kind": "entity"}]
        + [{"name": n, "kind": "attribute"} for n in "abc"],
        "arrows": [{"name": f"p_{n}", "source": "R", "target": n,
                    "projection": True} for n in "abc"]
        + [{"name": "f", "source": "a", "target": "E"},
           {"name": "g", "source": "E", "target": "b"}],
        "mvds": [{"lhs": ["a"], "rhs": ["b", "c"], "context": "R"}]}),
        encoding="utf-8")
    code, out, err = run(capsys, "closure", str(doc), "--stdout")
    assert code == 0, err
    closed, _ = json.JSONDecoder().raw_decode(out)
    assert closed["mvd_objects"] == ["R"]
    assert {"object": "R", "rule": "mvd-object"} in closed["provenance"]
    code, out, err = run(capsys, "reduce", str(doc), "--level", "2",
                         "--trace", "--stdout")
    assert code == 0, err
    assert '"event": "decomposed-object"' in out


def test_reduce_emit_relational(capsys, data_dir, tmp_path):
    code, _, err = run(capsys, "reduce", "--level", "1",
                       "--emit", "relational",
                       "--out-dir", str(tmp_path),
                       str(data_dir / "fig5.json"))
    assert code == 0
    sql = (tmp_path / "fig5.sql").read_text()
    assert "CREATE TABLE D" in sql and "PRIMARY KEY (A, E)" in sql
    assert "3 relations" in err


def test_reduce_emit_dtd_fig6(capsys, data_dir, tmp_path):
    code, _, _ = run(capsys, "reduce", "--level", "2", "--emit", "dtd",
                     "--out-dir", str(tmp_path),
                     str(data_dir / "fig6.json"))
    assert code == 0
    dtd = (tmp_path / "fig6.dtd").read_text()
    assert "<!ELEMENT root (A+, B+, X1+, X2+)>" in dtd
    assert "<!ATTLIST X1 B_ID IDREF #REQUIRED>" in dtd


def test_reduce_writes_schema_and_trace(capsys, data_dir, tmp_path):
    code, _, _ = run(capsys, "reduce", "--level", "2", "--trace",
                     "--out-dir", str(tmp_path),
                     str(data_dir / "fig6.json"))
    assert code == 0
    trace = json.loads((tmp_path / "fig6.trace.json").read_text())
    assert any(e["event"] == "decomposed-object" for e in trace)
    schema = json.loads((tmp_path / "fig6.2rr.json").read_text())
    assert {o["name"] for o in schema["objects"]} >= {"X1", "X2"}


@pytest.mark.parametrize("level", ["1", "2"])
def test_reduce_left_reduces_a_declared_lhs(capsys, tmp_path, level):
    # c follows from a, so {a, b, c} -> z needs only the composite a_b; a
    # composite over all three had its projection to c key-pruned on every
    # pass, and the prune loop never reached a fixpoint
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "objects": [{"name": n, "kind": "attribute"} for n in "abcz"],
        "arrows": [{"name": "f", "source": "a", "target": "c"}],
        "fds": [{"lhs": ["a", "b", "c"], "rhs": ["z"]}]}), encoding="utf-8")
    code, out, err = run(capsys, "reduce", str(doc), "--level", level,
                         "--stdout")
    assert code == 0, err
    reduced, _ = json.JSONDecoder().raw_decode(out)
    assert {"name": "a_b", "kind": "relationship"} in reduced["objects"]
    assert sorted(a["target"] for a in reduced["arrows"]
                  if a["source"] == "a_b" and a["projection"]) == ["a", "b"]


@pytest.mark.parametrize("lhs", [["x", "a"], ["a"]])
def test_trivial_declared_fd_adds_nothing(capsys, tmp_path, lhs):
    # {x, a} -> a says nothing; read as an FD into a, it would turn the
    # basis block {a} of x ->> a in R into x -> a, and the 2RR would key a
    # table x(x, a, b) on x alone and drop R as subsumed
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "objects": [{"name": "R", "kind": "relationship"}]
        + [{"name": n, "kind": "attribute"} for n in "xab"],
        "arrows": [
            {"name": "p_x", "source": "R", "target": "x", "projection": True},
            {"name": "p_a", "source": "R", "target": "a", "projection": True},
            {"name": "f", "source": "x", "target": "b"}],
        "fds": [{"lhs": lhs, "rhs": ["a"]}],
        "mvds": [{"lhs": ["x"], "rhs": ["a"], "context": "R"}]}),
        encoding="utf-8")
    code, out, err = run(capsys, "closure", str(doc), "--stdout")
    assert code == 0, err
    closed, _ = json.JSONDecoder().raw_decode(out)
    assert {(a["source"], a["target"]) for a in closed["arrows"]} \
        == {("R", "x"), ("R", "a"), ("x", "b"), ("R", "b")}
    code, out, err = run(capsys, "reduce", str(doc), "--level", "2",
                         "--emit", "relational", "--stdout")
    assert code == 0, err
    assert "CREATE TABLE R (" in out and "PRIMARY KEY (a, x)" in out
    assert "subsumed" not in err


def test_emit_stdout(capsys, data_dir):
    code, out, _ = run(capsys, "emit", "--emit", "pg", "--stdout",
                       str(data_dir / "fig5.json"))
    assert code == 0
    doc = json.loads(out)
    # unreduced input: B has no outgoing arrows yet, so only A and D emit
    assert {v["label"] for v in doc["vertices"]} == {"A", "D"}


def test_emit_requires_target(capsys, data_dir):
    code, _, err = run(capsys, "emit", str(data_dir / "fig5.json"))
    assert code == 1 and "--emit" in err


REDUNDANT = {
    "objects": [{"name": "A", "kind": "entity"},
                {"name": "B", "kind": "entity"},
                {"name": "c", "kind": "attribute"}],
    "arrows": [{"name": "f", "source": "A", "target": "B"},
               {"name": "g", "source": "B", "target": "c"},
               {"name": "h", "source": "A", "target": "c"}],
}


def test_emit_relational_warns_on_unreduced_input(capsys, tmp_path):
    schema = tmp_path / "x.json"
    schema.write_text(json.dumps(REDUNDANT))
    code, out, err = run(capsys, "emit", str(schema), "--emit", "relational",
                         "--stdout")
    line = "input graph is not reduced: arrow A -> c is redundant"
    assert code == 0
    assert f"catnorm: warning: {line}" in err.splitlines()
    assert f"-- warning: {line}" in out.splitlines()


@pytest.mark.parametrize("argv, message", [
    (["emit", "--emit", "sql"], "unknown target 'sql'"),
    (["check", "--check", "5nf"], "unknown check '5nf'"),
    (["check", "--check", "bcnf", "--level", "3"], "invalid choice: 3"),
    (["normalize"], "invalid choice: 'normalize'"),
    (["validate", "--verbose"], "unrecognized arguments: --verbose"),
], ids=["emit sql", "check 5nf", "level 3", "unknown subcommand",
        "unknown flag"])
def test_usage_error_exits_1(capsys, data_dir, argv, message):
    """argparse exits 2 on its own, which the README keeps for internal
    failures; a malformed command line is an input error."""
    with pytest.raises(SystemExit) as caught:
        main(argv + [str(data_dir / "fig5.json")])
    err = capsys.readouterr().err
    assert caught.value.code == 1
    assert "usage: catnorm" in err and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    assert "usage: catnorm" in capsys.readouterr().out


def test_schema_not_utf8_is_input_error(capsys, tmp_path):
    schema = tmp_path / "x.json"
    schema.write_bytes(b'{"objects": [{"name": "\xff", "kind": "entity"}]}')
    code, _, err = run(capsys, "validate", str(schema))
    assert code == 1 and "catnorm: cannot read" in err and "UTF-8" in err


@pytest.mark.parametrize("content, message", [
    (b'{"A": "\xff"}', "UTF-8"),
    (b'{"A": ' + b"1" * 5000 + b"}", "assignment"),
    (b"[" * 100000, "assignment"),
], ids=["not utf-8", "long number", "deep nesting"])
def test_unreadable_assignment_is_input_error(capsys, data_dir, tmp_path,
                                              content, message):
    path = tmp_path / "assign.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "hybrid", "--assignment", str(path),
                       "--out-dir", str(tmp_path),
                       str(data_dir / "fig5.json"))
    assert code == 1 and "catnorm: " in err and message in err
    assert not (tmp_path / "fig5.hybrid.json").exists()


@pytest.mark.parametrize("argv", [
    ["emit", "--emit", "relational"],
    ["check", "--check", "bcnf"],
], ids=["emit", "check report"])
def test_out_dir_naming_a_file_is_input_error(capsys, data_dir, tmp_path,
                                              argv):
    """Writing runs where a `SchemaError` means an internal failure; a
    file in the way is the user's, so it exits 1."""
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run(capsys, *argv, "--out-dir", str(taken),
                       str(data_dir / "fig5.json"))
    assert code == 1
    assert f"catnorm: cannot write {taken}: File exists" in err
    assert "internal" not in err


def test_reduce_hybrid_requires_assignment(capsys, data_dir, tmp_path):
    code, _, err = run(capsys, "reduce", "--emit", "hybrid",
                       "--out-dir", str(tmp_path),
                       str(data_dir / "fig5.json"))
    assert code == 1 and "assignment" in err
    assert not any(tmp_path.iterdir())


def test_check_requires_check(capsys, data_dir):
    code, _, err = run(capsys, "check", str(data_dir / "fig5.json"))
    assert code == 1 and "--check" in err


def test_check_violation_exit_code(capsys, data_dir, tmp_path):
    code, _, _ = run(capsys, "check", "--level", "0", "--check", "bcnf",
                     "--out-dir", str(tmp_path),
                     str(data_dir / "fig5.json"))
    assert code == 3
    report = json.loads((tmp_path / "fig5.report.json").read_text())
    assert any(r["verdict"] == "violated" for r in report)


def test_check_clean_pipeline(capsys, data_dir, tmp_path):
    code, _, err = run(capsys, "check", "--level", "1",
                       "--check", "bcnf,improved-bcnf,xmlnf",
                       "--out-dir", str(tmp_path),
                       str(data_dir / "fig5.json"))
    assert code == 0
    assert "satisfied" in err


@pytest.mark.parametrize("entity", ["Ex", "E.x"])
def test_check_xml_nf_dotted_entity_name(capsys, tmp_path, entity):
    # an entity's dotted name is one element step, not two
    doc = tmp_path / "dotted.json"
    doc.write_text(json.dumps({
        "objects": [{"name": entity, "kind": "entity"},
                    {"name": "a", "kind": "attribute"}],
        "arrows": [{"name": "f", "source": entity, "target": "a"}]}))
    code, _, _ = run(capsys, "check", "--level", "1", "--check", "xmlnf",
                     "--out-dir", str(tmp_path), str(doc))
    (report,) = json.loads((tmp_path / "dotted.report.json").read_text())
    assert code == 0
    assert report["verdict"] == "satisfied" and not report["witnesses"]


@pytest.mark.parametrize("check, width", [("bcnf", 13), ("4nf", 9)])
def test_check_over_bound_is_unknown(capsys, tmp_path, check, width):
    attrs = [f"a{i}" for i in range(width)]
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({
        "objects": [{"name": "E", "kind": "entity"}]
        + [{"name": a, "kind": "attribute"} for a in attrs],
        "arrows": [{"name": f"f_{a}", "source": "E", "target": a}
                   for a in attrs]}))
    code, _, err = run(capsys, "check", "--check", check,
                       "--out-dir", str(tmp_path), str(doc))
    assert code == 4
    (report,) = json.loads((tmp_path / "wide.report.json").read_text())
    bound = {"bcnf": "BCNF bound of 12", "4nf": "4NF bound of 8"}[check]
    assert report["verdict"] == "unknown"
    assert bound in report["witnesses"][0]["reason"]
    assert "check E: unknown" in err


def test_check_4nf_level2(capsys, data_dir, tmp_path):
    code, _, _ = run(capsys, "check", "--level", "2", "--check", "4nf",
                     "--out-dir", str(tmp_path),
                     str(data_dir / "fig6.json"))
    assert code == 0


def test_hybrid_subcommand(capsys, data_dir, tmp_path):
    assignment = tmp_path / "assign.json"
    assignment.write_text(json.dumps(
        {"D": "graph", "E": "graph", "A": "relational", "B": "relational",
         "C": "relational"}))
    code, _, _ = run(capsys, "hybrid", "--assignment", str(assignment),
                     "--out-dir", str(tmp_path),
                     str(data_dir / "fig5.json"))
    assert code == 0
    doc = json.loads((tmp_path / "fig5.hybrid.json").read_text())
    assert {p["partition"] for p in doc} == {"graph", "relational"}


@pytest.mark.parametrize("assignment, message", [
    ({"D": "graph", "E": "graph", "A": "relational"}, "unassigned"),
    (["D", "E", "A", "B", "C"], "must map object names"),
    ({"D": "graph", "E": "graph", "A": "relational", "B": 1, "C": "x"},
     "must map object names"),
])
def test_hybrid_bad_assignment_is_input_error(capsys, data_dir, tmp_path,
                                              assignment, message):
    path = tmp_path / "assign.json"
    path.write_text(json.dumps(assignment))
    code, _, err = run(capsys, "hybrid", "--assignment", str(path),
                       "--out-dir", str(tmp_path),
                       str(data_dir / "fig5.json"))
    assert code == 1 and message in err
    assert not (tmp_path / "fig5.hybrid.json").exists()


def test_hybrid_after_split_assigns_fragments(capsys, data_dir, tmp_path):
    """The 2RR splits X into X1 and X2; they go to X's partition."""
    path = tmp_path / "assign.json"
    path.write_text(json.dumps({"X": "graph", "A": "relational",
                                "B": "relational", "C": "relational",
                                "D": "relational"}))
    code, _, _ = run(capsys, "reduce", "--level", "2", "--emit", "hybrid",
                     "--assignment", str(path), "--out-dir", str(tmp_path),
                     str(data_dir / "fig6.json"))
    assert code == 0
    doc = json.loads((tmp_path / "fig6.hybrid.json").read_text())
    parts = {p["partition"]: {o["name"] for o in p["schema"]["objects"]}
             for p in doc}
    assert {"X1", "X2"} <= parts["graph"]
    assert not {"X1", "X2"} & parts["relational"]


COMPOSITE = {
    "objects": [{"name": "G", "kind": "entity"}] + [
        {"name": a, "kind": "attribute"} for a in ("x", "y", "z", "w")],
    "arrows": [{"name": f"g{a}", "source": "G", "target": a}
               for a in ("x", "y", "w")],
    "fds": [{"lhs": ["x", "y"], "rhs": ["z"]}],
}


@pytest.mark.parametrize("extra, expected", [({}, 1), ({"x_y": "rel"}, 0)])
def test_hybrid_created_objects_need_assignment(capsys, tmp_path, extra,
                                                expected):
    """The closure materializes x_y for the declared {x, y} -> z; it has
    no object to inherit a partition from, so it must be named."""
    schema = tmp_path / "composite.json"
    schema.write_text(json.dumps(COMPOSITE))
    path = tmp_path / "assign.json"
    path.write_text(json.dumps({"G": "graph", "x": "rel", "y": "rel",
                                "z": "rel", "w": "graph", **extra}))
    code, _, err = run(capsys, "reduce", "--level", "1", "--emit", "hybrid",
                       "--assignment", str(path), "--out-dir", str(tmp_path),
                       str(schema))
    assert code == expected
    assert (tmp_path / "composite.hybrid.json").exists() == (expected == 0)
    if expected:
        assert "x_y" in err and "internal" not in err


def test_hybrid_requires_assignment(capsys, data_dir):
    code, _, err = run(capsys, "hybrid", str(data_dir / "fig5.json"))
    assert code == 1 and "assignment" in err


def test_deterministic_output(capsys, data_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(capsys, "reduce", "--level", "2", "--emit", "relational,dtd,pg",
            "--out-dir", str(out), str(data_dir / "fig6.json"))
    for name in ("fig6.sql", "fig6.dtd", "fig6.pg.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("level, checks, doc", [
    ("1", "bcnf,improved-bcnf,xmlnf", "fig5.json"),
    ("2", "4nf,xmlnf", "fig6.json"),
    ("0", "bcnf,improved-bcnf,4nf,xmlnf", "fig6.json"),
])
def test_check_output_independent_of_hash_seed(data_dir, level, checks, doc):
    """The checks iterate sets; their reports and exit codes must not
    depend on the string hash seed."""
    src = str(Path(catnorm.cli.__file__).parents[1])
    argv = [sys.executable, "-m", "catnorm.cli", "check", "--level", level,
            "--check", checks, "--stdout", str(data_dir / doc)]
    procs = [subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src})
        for seed in range(4)]
    runs = {(p.communicate()[0], p.returncode) for p in procs}
    assert len(runs) == 1
    ((out, _),) = runs
    assert json.loads(out)


def test_second_reduced_independent_of_hash_seed(tmp_path):
    """The 2RR iterates sets of marks and projections; its relational output
    and trace must not depend on the string hash seed."""
    graph, deps = contexts_schema(8, random.Random(0))
    _, trace = second_reduced(graph, deps.fds, deps.mvds)
    made = {n for _, _, names in trace.decomposed_objects for n in names}
    assert any(obj in made for obj, _, _ in trace.decomposed_objects)
    doc = tmp_path / "contexts.json"
    doc.write_text(serialize_schema(graph, deps))
    src = str(Path(catnorm.cli.__file__).parents[1])
    argv = [sys.executable, "-m", "catnorm.cli", "reduce", "--level", "2",
            "--trace", "--emit", "relational", "--stdout", str(doc)]
    procs = [subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src})
        for seed in range(4)]
    runs = {(p.communicate()[0], p.returncode) for p in procs}
    assert len(runs) == 1
    ((out, code),) = runs
    assert code == 0 and b"decomposed-object" in out


def test_internal_schema_error_exits_2(capsys, monkeypatch, data_dir):
    """A `SchemaError` past input checking is an internal failure: exit 2
    with one `catnorm: internal:` line and no traceback."""

    def boom(graph, fds):
        raise SchemaError("boom")

    monkeypatch.setattr(catnorm.cli, "first_reduced", boom)
    code, out, err = run(capsys, "reduce", "--level", "1", "--stdout",
                         str(data_dir / "fig5.json"))
    assert code == 2 and out == ""
    assert "catnorm: internal: boom" in err.splitlines()
    assert "Traceback" not in err
