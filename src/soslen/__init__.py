"""Exact bounds, dimension experiments and length certificates for sums of
squares of real forms."""

__version__ = "0.1.0"

from .bounds import (
    BoundsRow,
    DegreeParams,
    Surd,
    Lambda_upper,
    asymptotic_constants,
    binomial,
    bounds_row,
    bounds_table,
    dim_forms,
    lambda_lower,
    leep_length_bound,
    s_min,
    theta_lower,
)
from .errors import (
    CertificationError,
    GenericityError,
    GuardError,
    InternalCheckError,
    SoslenError,
)
from .generic import (
    DEFAULT_SEED,
    DimensionReport,
    PointSample,
    Quantity,
    Status,
    TypicalLengthResult,
    dim_square_component,
    generic_ideal_dim,
    ik_expected,
    ik_verify,
    sample_points,
    typical_length,
    vanishing_component,
)
from .linalg import (
    DEFAULT_PRIMES,
    P1,
    P2,
    PrimeMatrix,
    RationalMatrix,
    kernel_basis_mod_p,
    kernel_basis_rational,
    rank_mod_p,
    rank_rational,
)
from .ring import Form, Point, mono_rank, mono_unrank, monomials
from .witness import (
    GramTensor,
    LengthCertificate,
    SosRepresentation,
    build_witness,
    certify_unique_representation,
    gram_equivalent,
    gram_tensor,
)
