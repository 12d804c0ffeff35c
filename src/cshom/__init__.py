"""Exact integral homology of the chromatic symmetric chain complex.

The package computes the q-degree-zero part of chromatic symmetric homology
of a finite simple graph over the integers, restricted to two-column Specht
summands, detects order-2 torsion in homological degree 1, and builds
machine-checkable torsion certificates for non-planar graphs by lifting two
pinned seed certificates along Kuratowski subdivisions and subgraph
embeddings.  All arithmetic is exact.
"""

from .certificates import (
    CanonicalSeed,
    LiftStep,
    LiftTrace,
    canonical_certificates,
    certificate_from_dict,
    certificate_to_dict,
    certify_nonplanar,
    lift_subdivision,
    lift_subgraph,
    recheck_certificate,
    seed_certificate,
)
from .complexes import RestrictedComplex, build_restricted_complex
from .errors import (
    ComplexNotExact,
    CshomError,
    LiftFailed,
    NotASubgraph,
    PlanarInput,
    StraighteningStalled,
)
from .graphs import (
    Graph,
    NormalizationReport,
    SubdivisionWitness,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    find_kuratowski_subdivision,
    is_connected,
    is_planar,
    normalize,
    parse_graph,
    parse_graph6,
    path_graph,
    petersen_graph,
    subdivide,
    to_graph6,
)
from .intlinalg import (
    CertificateVerdict,
    HomologyResult,
    TorsionCertificate,
    check_certificate,
    homology_group,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from .survey import generate_connected_graphs, run_survey, scan_shapes
from .tableaux import (
    Partition,
    enumerate_ssyt,
    enumerate_syt,
    standardize,
    straighten,
    straighten_columns,
)
from .verify import CheckResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "CanonicalSeed",
    "CertificateVerdict",
    "CheckResult",
    "ComplexNotExact",
    "CshomError",
    "Graph",
    "HomologyResult",
    "LiftFailed",
    "LiftStep",
    "LiftTrace",
    "NormalizationReport",
    "NotASubgraph",
    "Partition",
    "PlanarInput",
    "RestrictedComplex",
    "StraighteningStalled",
    "SubdivisionWitness",
    "TorsionCertificate",
    "build_restricted_complex",
    "canonical_certificates",
    "certificate_from_dict",
    "certificate_to_dict",
    "certify_nonplanar",
    "check_certificate",
    "complete_bipartite",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "enumerate_ssyt",
    "enumerate_syt",
    "find_kuratowski_subdivision",
    "generate_connected_graphs",
    "homology_group",
    "is_connected",
    "is_planar",
    "kernel_basis",
    "lift_subdivision",
    "lift_subgraph",
    "normalize",
    "parse_graph",
    "parse_graph6",
    "path_graph",
    "petersen_graph",
    "recheck_certificate",
    "run_battery",
    "run_survey",
    "scan_shapes",
    "seed_certificate",
    "smith_normal_form",
    "solve_integer",
    "standardize",
    "straighten",
    "straighten_columns",
    "subdivide",
    "to_graph6",
    "__version__",
]
