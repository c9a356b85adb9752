"""Command-line front end: validate -> closure -> reduce -> emit -> check.

Exit codes: 0 success, 1 usage, parse, validation or file error, 2 internal
invariant failure, 3 normal-form violation, 4 unknown verdicts present.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import (
    CategoryGraph,
    DependencySet,
    SchemaError,
    graph_to_fds,
    is_valid,
    parse_schema,
    serialize_schema,
    validate,
)
from .emit import (
    DtdSchema,
    RelationalSchema,
    decompose_hybrid,
    emit_dtd,
    emit_property_graph,
    emit_relational,
    render_dtd,
    render_hybrid,
    render_property_graph,
    render_sql,
)
from .mvdclosure import fd_closure_graph, fd_mvd_closure_graph
from .nf import (
    NfReport,
    check_4nf,
    check_bcnf,
    check_improved_bcnf,
    check_xml_nf,
    derive_xml_fds,
)
from .reduce import (
    ReductionTrace,
    first_reduced,
    redundant_arrow,
    second_reduced,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_VIOLATED = 3
EXIT_UNKNOWN = 4

EMIT_TARGETS = ("relational", "dtd", "pg", "hybrid")
CHECKS = ("bcnf", "improved-bcnf", "4nf", "xmlnf")
# the option each subcommand cannot run without; argparse stores it under
# the flag's name
REQUIRED_OPTION = {"emit": "--emit", "check": "--check",
                   "hybrid": "--assignment"}


@dataclass
class PipelineConfig:
    input_path: Path
    level: int = 0
    targets: tuple[str, ...] = ()
    checks: tuple[str, ...] = ()
    trace: bool = False
    out_dir: Path | None = None
    to_stdout: bool = False
    assignment_path: Path | None = None
    command: str = "reduce"


def _err(msg: str):
    print(f"catnorm: {msg}", file=sys.stderr)


def _read(path: Path) -> str:
    """The text of an input file; any failure is a `SchemaError`."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise SchemaError(f"cannot read {path}: not UTF-8 ({e.reason} at "
                          f"byte {e.start})")


def _load_assignment(path: Path, graph: CategoryGraph) -> dict[str, str]:
    """The --assignment document: a JSON object naming a partition (a
    string) for every object of the input."""
    try:
        assignment = json.loads(_read(path))
    except (ValueError, RecursionError) as e:  # bad JSON, deep nesting
        raise SchemaError(f"assignment {path}: {e}")
    if not isinstance(assignment, dict) or not all(
            isinstance(v, str) for v in assignment.values()):
        raise SchemaError(f"assignment {path} must map object names to "
                          f"partition names")
    missing = [o.name for o in graph.objects if o.name not in assignment]
    if missing:
        raise SchemaError(f"assignment {path} leaves objects unassigned: "
                          f"{missing}")
    return assignment


def _assign_created(assignment: dict[str, str], graph: CategoryGraph,
                    trace: ReductionTrace) -> dict[str, str]:
    """The assignment extended to the objects the pipeline created.  Each
    fragment of a 2RR split goes to the partition of the object it was
    split from, unless the assignment names it; any other created object
    must be named."""
    assignment = dict(assignment)
    for name, _, fragments in trace.decomposed_objects:
        for fragment in fragments:
            assignment.setdefault(fragment, assignment[name])
    missing = [o.name for o in graph.objects if o.name not in assignment]
    if missing:
        raise SchemaError(f"assignment leaves objects the pipeline created "
                          f"unassigned: {missing}")
    return assignment


def _write(config: PipelineConfig, name: str, content: str):
    if config.to_stdout:
        sys.stdout.write(content)
        return
    out_dir = config.out_dir or config.input_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(content, encoding="utf-8")


def _reduce(graph: CategoryGraph, deps: DependencySet,
            level: int) -> tuple[CategoryGraph, ReductionTrace]:
    if level == 1:
        return first_reduced(graph, deps.fds)
    if level == 2:
        return second_reduced(graph, deps.fds, deps.mvds)
    return graph, ReductionTrace()


def _check_deps(graph: CategoryGraph, deps: DependencySet) -> DependencySet:
    """Dependencies an emitted schema is checked against: the reduced
    graph's own FDs plus everything declared."""
    return DependencySet(fds=tuple(graph_to_fds(graph)) + tuple(deps.fds),
                         mvds=tuple(deps.mvds))


def _per_relation(check, schema: RelationalSchema,
                  deps: DependencySet) -> list[NfReport]:
    """One report per relation; a relation over the check's sort bound
    gets an "unknown" verdict naming the bound."""
    reports = []
    for rel in schema.relations:
        try:
            reports.append(check(rel, deps))
        except SchemaError as e:
            reports.append(NfReport(subject=rel.name, verdict="unknown",
                                    witnesses=[{"reason": str(e)}]))
    return reports


def _run_checks(config: PipelineConfig, graph: CategoryGraph,
                deps: DependencySet, schema: RelationalSchema | None,
                dtd: DtdSchema | None, summary: list[str]) -> list:
    """Check the schema and DTD the run emitted."""
    reports = []
    check_deps = _check_deps(graph, deps)
    if "bcnf" in config.checks:
        reports += _per_relation(check_bcnf, schema, check_deps)
    if "improved-bcnf" in config.checks:
        reports.append(check_improved_bcnf(schema, check_deps))
    if "4nf" in config.checks:
        reports += _per_relation(check_4nf, schema, check_deps)
    if "xmlnf" in config.checks:
        reports.append(check_xml_nf(dtd, derive_xml_fds(graph, dtd)))
    for rep in reports:
        summary.append(f"  check {rep.subject}: {rep.verdict}")
    return reports


def run_pipeline(config: PipelineConfig) -> int:
    try:
        graph, deps = parse_schema(_read(config.input_path))
        report = validate(graph, deps)
        for v in report:
            _err(f"{v.severity}: [{v.code}] {v.message}")
        if not is_valid(report):
            return EXIT_INPUT
        if config.assignment_path is not None:
            assignment = _load_assignment(config.assignment_path, graph)
        else:
            assignment = None
        if "hybrid" in config.targets and assignment is None:
            _err("hybrid emission requires --assignment")
            return EXIT_INPUT
    except SchemaError as e:
        _err(str(e))
        return EXIT_INPUT

    stem = config.input_path.stem
    summary = [f"input: {len(graph.objects)} objects, "
               f"{len(graph.arrows)} arrows"]
    try:
        if config.command == "validate":
            print("\n".join(summary), file=sys.stderr)
            return EXIT_OK

        if config.command == "closure":
            provenance: list = []
            if deps.mvds:
                closed = fd_mvd_closure_graph(graph, deps.fds, deps.mvds,
                                              provenance)
            else:
                closed = fd_closure_graph(graph, deps.fds, provenance)
            summary.append(f"closure: {len(closed.objects)} objects, "
                           f"{len(closed.arrows)} arrows")
            _write(config, f"{stem}.closure.json",
                   serialize_schema(closed, deps, provenance))
            print("\n".join(summary), file=sys.stderr)
            return EXIT_OK

        reduced, trace = _reduce(graph, deps, config.level)
        if "hybrid" in config.targets:
            try:
                assignment = _assign_created(assignment, reduced, trace)
            except SchemaError as e:
                _err(str(e))
                return EXIT_INPUT
        if config.level:
            summary.append(f"{config.level}RR: {len(reduced.objects)} "
                           f"objects, {len(reduced.arrows)} arrows")
        if config.trace:
            _write(config, f"{stem}.trace.json",
                   json.dumps(trace.to_json(), indent=2) + "\n")
        if config.command == "reduce" and config.level \
                and not (config.targets or config.checks):
            _write(config, f"{stem}.{config.level}rr.json",
                   serialize_schema(reduced, deps))

        # each schema is emitted at most once and serves output and checks
        wanted = set(config.targets) | set(config.checks)
        schema = emit_relational(reduced) if wanted & {
            "relational", "bcnf", "improved-bcnf", "4nf"} else None
        dtd = emit_dtd(reduced) if wanted & {"dtd", "xmlnf"} else None
        if "relational" in config.targets:
            redundant = None if config.level else redundant_arrow(reduced)
            if redundant is not None:
                schema.warnings.insert(0, (
                    f"input graph is not reduced: arrow {redundant.source} "
                    f"-> {redundant.target} is redundant"))
            for w in schema.warnings:
                _err(f"warning: {w}")
            summary.append(f"relational: {len(schema.relations)} relations")
            _write(config, f"{stem}.sql", render_sql(schema))
        if "dtd" in config.targets:
            _write(config, f"{stem}.dtd", render_dtd(dtd))
        if "pg" in config.targets:
            _write(config, f"{stem}.pg.json",
                   render_property_graph(emit_property_graph(reduced)))
        if "hybrid" in config.targets:
            parts = decompose_hybrid(reduced, assignment)
            summary.append(f"hybrid: {len(parts)} partitions")
            _write(config, f"{stem}.hybrid.json", render_hybrid(parts))

        reports = _run_checks(config, reduced, deps, schema, dtd, summary)
        if config.checks:
            _write(config, f"{stem}.report.json", json.dumps(
                [r.to_json() for r in reports], indent=2) + "\n")
    except SchemaError as e:
        _err(f"internal: {e}")
        return EXIT_INTERNAL
    except OSError as e:
        _err(f"cannot write {e.filename}: {e.strerror}")
        return EXIT_INPUT

    print("\n".join(summary), file=sys.stderr)
    if any(r.verdict == "violated" for r in reports):
        return EXIT_VIOLATED
    if any(r.verdict == "unknown" for r in reports):
        return EXIT_UNKNOWN
    return EXIT_OK


def _split_list(value: str, allowed: tuple[str, ...],
                what: str) -> tuple[str, ...]:
    items = tuple(v.strip() for v in value.split(",") if v.strip())
    for item in items:
        if item not in allowed:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {item!r} (choose from {', '.join(allowed)})")
    return items


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as input errors do;
    argparse's own code 2 would read as an internal failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catnorm",
        description="Schema normalization over category-graph "
                    "representations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, targets=False, checks=False,
               level=False, assignment=False):
        p.add_argument("input", type=Path, help="schema JSON document")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="directory for written artifacts")
        p.add_argument("--stdout", action="store_true",
                       help="write artifacts to standard output")
        if level:
            p.add_argument("--level", type=int, choices=(0, 1, 2), default=1,
                           help="reduction level (default 1)")
        if targets:
            p.add_argument("--emit", type=lambda v: _split_list(
                v, EMIT_TARGETS, "target"), default=(),
                help="comma-separated targets: relational,dtd,pg,hybrid")
        if checks:
            p.add_argument("--check", type=lambda v: _split_list(
                v, CHECKS, "check"), default=(),
                help="comma-separated checks: bcnf,improved-bcnf,4nf,xmlnf")
        if assignment:
            p.add_argument("--assignment", type=Path, default=None,
                           help="JSON object name -> partition id")

    p = sub.add_parser("validate", help="parse and validate a schema")
    common(p)

    p = sub.add_parser("closure", help="compute the dependency closure")
    common(p)

    p = sub.add_parser("reduce", help="compute a reduced representation")
    common(p, targets=True, checks=True, level=True, assignment=True)
    p.add_argument("--trace", action="store_true",
                   help="write the reduction trace")

    p = sub.add_parser("emit", help="emit target schemas without reduction")
    common(p, targets=True, assignment=True)

    p = sub.add_parser("check", help="reduce and verify normal forms")
    common(p, checks=True, level=True)

    p = sub.add_parser("hybrid", help="split a schema across data models")
    common(p, assignment=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flag = REQUIRED_OPTION.get(args.command)
    if flag and not getattr(args, flag[2:]):
        _err(f"{args.command} requires {flag}")
        return EXIT_INPUT
    config = PipelineConfig(
        input_path=args.input,
        command=args.command,
        out_dir=args.out_dir,
        to_stdout=args.stdout,
        level=getattr(args, "level", 0),
        targets=(("hybrid",) if args.command == "hybrid"
                 else tuple(getattr(args, "emit", ()))),
        checks=tuple(getattr(args, "check", ())),
        trace=getattr(args, "trace", False),
        assignment_path=getattr(args, "assignment", None),
    )
    return run_pipeline(config)


if __name__ == "__main__":
    sys.exit(main())
