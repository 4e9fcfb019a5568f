"""Exact homology of sphere mapping spaces into projective space.

The package models the multiplicative spectral sequence of the evaluation
fibration for the free (continuous) and holomorphic mapping spaces of the
two-sphere into complex projective n-space, over the rationals or a prime
field, and computes component-by-component homology exactly.
"""

from .analysis import (
    BettiTable,
    PoincareSeries,
    SpaceSpec,
    VerificationReport,
    betti_oracle,
    betti_table,
    check_collapse,
    check_dichotomy,
    check_oracle,
    check_periodicity,
    collapse_predicted,
    poincare_series,
    unit_check,
)
from .dga import (
    Derivation,
    DgaPage,
    InducedMapReport,
    RankProfile,
    differential_matrix,
    homology_dimensions,
    induced_map_on_homology,
)
from .errors import (
    AlgebraMismatch,
    CompositeCharacteristic,
    CutoffTooTight,
    DivisionByZero,
    DuplicateName,
    FieldMismatch,
    InfiniteBasis,
    InhomogeneousImage,
    InvalidCharacteristic,
    InvalidComponent,
    InvalidCutoff,
    InvalidDimension,
    InvalidFieldSpec,
    InvalidGenerator,
    InvalidGrading,
    InvalidHorizon,
    InvalidShape,
    InvalidStep,
    InvalidVariant,
    LaurentNonzeroDegree,
    LoophomError,
    NegativeCutoff,
    NotAChainMap,
    NotSquareZero,
    ParityViolation,
    UnknownGenerator,
    WrongBidegree,
)
from .graded_algebra import (
    Element,
    GradedAlgebra,
    Generator,
    Monomial,
)
from .linalg import Matrix, kernel_basis, rank_sparse
from .scalars import GF2, RATIONALS, Field, Scalar, make_field
from .spaces import (
    HOL,
    LOOP,
    HolLoopInclusion,
    closed_form_rational_hol_betti,
    e2_page,
    generator_schedule,
    hol_to_loop_inclusion,
    operation_degree,
    pontrjagin_algebra,
)

__version__ = "0.1.0"
