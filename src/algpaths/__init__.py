"""Spectral resolutions, connecting paths, and component probes for matrices
satisfying a polynomial equation with distinct roots.

The toolkit certifies everything it produces: partitions of unity come with
residual checks, paths carry endpoint and membership certificates, and the
polynomial constructions are verified coefficient-by-coefficient rather than
pointwise.
"""

from .algebraic import (
    AlgebraicElement,
    PartitionOfUnity,
    RootSystem,
    certify,
    q_reduction,
    random_element,
    random_elements,
    recombine,
    spectral_resolution,
    validate_roots,
)
from .components import (
    ComponentSignature,
    DistanceScanReport,
    LineWitness,
    distance_scan,
    is_isolated,
    line_direction,
    same_component,
    signature,
)
from .errors import (
    AlgpathsError,
    BadSignature,
    CentralElement,
    CertificationError,
    CertificationFailed,
    DimMismatch,
    EmptyRealPart,
    FactorizationFailed,
    MagnitudeOverflow,
    MultipleRoots,
    NotAlgebraic,
    NotLocallyClose,
    NotNearIdentity,
    NotSameComponent,
    NotSelfAdjoint,
    PreconditionError,
    RankAmbiguous,
    ResolutionResidualExceeded,
    RootMismatch,
    SearchExhausted,
    SubspaceSplitFailed,
)
from .matkernel import (
    MatrixPolynomial,
    ToleranceConfig,
    mat_exp,
    mat_log_near_identity,
    matpoly_compose_p,
    matpoly_is_zero,
    matpoly_mul,
    operator_norm,
    poly_eval_scalar_coeffs,
    poly_from_roots,
    rank,
)
from .paths import (
    ExpSimilarityPath,
    MinDegreeResult,
    PathCertificate,
    PolygonalPath,
    PolynomialPath,
    connect_exp_global,
    connect_exp_local,
    connect_polygonal,
    connect_selfadjoint,
    min_degree_search,
    verify_path,
)

__version__ = "0.1.0"
