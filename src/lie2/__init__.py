"""Exact workbench for finite-dimensional restricted Lie algebras over GF(2^k).

The package provides exact linear algebra over GF(2^k), structure-constant
Lie algebras with their squaring maps, toral-rank computation, root space
decompositions, and a non-simplicity screening pipeline for toral rank 3,
together with a brute-force simplicity oracle that independently verifies
every constructed ideal at desk scale.
"""

from .algebra import (
    LieAlgebra,
    abelian,
    acts_nilpotently,
    bracket_span,
    center,
    centralizer,
    derived_subalgebra,
    ideal_closure,
    is_ideal,
    verify_lie,
)
from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    ContradictionError,
    FieldTooSmallError,
    FileFormatError,
    FixtureError,
    Lie2Error,
    NonToralBasisError,
    PreconditionError,
    SplitFailureError,
)
from .field import GF2k, gf
from .fileio import dumps, load, loads, save
from .fixtures import fixture, vacuity_family
from .linalg import (
    Matrix,
    Subspace,
    nullspace,
    rref,
    vector,
)
from .restricted import (
    TwoMap,
    extend_scalars,
    is_semisimple,
    is_two_nilpotent,
    iterate_square,
    jcs_decompose,
    square,
    subquotient,
    two_envelope,
    verify_two_map,
)
from .roots import (
    DeltaClass,
    RootDecomposition,
    classify_delta,
    format_root,
    grading_check,
    is_standard,
    is_triangulable,
    root_decomposition,
    split_cartan,
    square_span,
)
from .screening import (
    IdealReport,
    ScreenResult,
    SimplicityVerdict,
    check_dim_bound,
    dimension_transfer,
    is_simple,
    kernel_confinement,
    missing_roots_obstruction,
    n_subspace,
    one_dim_rootspace_ideal,
    self_bracket_bound,
    simplicity_screen,
)
from .tori import Torus, is_torus, maximal_torus, toral_basis, toral_elements

__version__ = "0.1.0"
