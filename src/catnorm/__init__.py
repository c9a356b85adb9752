"""catnorm: schema normalization over category-graph representations.

Pipeline: parse -> validate -> FD/MVD closure -> reduced representation
(1RR/2RR) -> relational / XML DTD / property-graph / hybrid emission ->
normal-form verification (BCNF, improved BCNF, 4NF, XML NF).
"""

from .chase import ChaseLimitExceeded, chase, chase_implies
from .core import (
    FD,
    MVD,
    Arrow,
    CategoryGraph,
    DependencySet,
    ObjectDecl,
    SchemaError,
    Violation,
    composite_name,
    fd,
    graph_to_fds,
    is_valid,
    mvd,
    parse_schema,
    serialize_schema,
    validate,
)
from .emit import (
    DtdSchema,
    PropertyGraphSchema,
    RelationalSchema,
    RelationDecl,
    decompose_hybrid,
    emit_dtd,
    emit_property_graph,
    emit_relational,
    render_dtd,
    render_hybrid,
    render_property_graph,
    render_sql,
)
from .mvdclosure import (
    DependencyBasis,
    dependency_basis,
    fd_closure_graph,
    fd_mvd_closure_graph,
    identify_mvd_objects,
    mvd_membership,
)
from .nf import (
    NfReport,
    PathFD,
    check_4nf,
    check_bcnf,
    check_improved_bcnf,
    check_xml_nf,
    derive_xml_fds,
)
from .reduce import (
    ReductionTrace,
    decompose_mvd_object,
    first_reduced,
    is_derivable,
    second_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "FD", "MVD", "Arrow", "CategoryGraph", "DependencySet", "ObjectDecl",
    "SchemaError", "Violation", "composite_name", "fd", "graph_to_fds",
    "is_valid", "mvd", "parse_schema", "serialize_schema", "validate",
    "fd_closure_graph",
    "DependencyBasis", "dependency_basis", "fd_mvd_closure_graph",
    "identify_mvd_objects", "mvd_membership",
    "ChaseLimitExceeded", "chase", "chase_implies",
    "ReductionTrace", "decompose_mvd_object", "first_reduced",
    "is_derivable", "second_reduced",
    "DtdSchema", "PropertyGraphSchema", "RelationalSchema", "RelationDecl",
    "decompose_hybrid", "emit_dtd", "emit_property_graph", "emit_relational",
    "render_dtd", "render_hybrid", "render_property_graph", "render_sql",
    "NfReport", "PathFD", "check_4nf", "check_bcnf", "check_improved_bcnf",
    "check_xml_nf", "derive_xml_fds",
    "__version__",
]
