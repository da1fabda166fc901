"""Exact symbolic toolkit for Danielewski-type fibered affine surfaces.

Builds the two hypersurface families x^n z = P(y) and x^n z = P(y) - x,
analyzes their degenerate fibers and smooth relatively connected quotients,
computes torsor cocycle classes over lines with several origins, and emits
machine-checked polynomial isomorphisms between cylinders of non-isomorphic
surfaces, certifying the failure of Zariski cancellation constructively.
"""

from .cech import (
    CechClass,
    EquivariantClass,
    PicGroup,
    UnitClass,
    UnitPart,
    class_normal_form,
    equivariant_class,
    h1_push,
    orbit_equivalent,
    pic_group,
    pole_profile,
    surface_class,
    transform_class,
    zero_class,
)
from .cylinder import (
    CylinderConstruction,
    GluedModel,
    Splitting,
    counterexample_pair,
    cylinder_construction,
    cylinder_iso,
    splitting_solve,
    torsor_to_glued,
    verify_splitting,
)
from .errors import (
    CocycleError,
    NoSplittingFound,
    NotComparable,
    ParseError,
    ProofFormatError,
    RingMismatchError,
    SingularInputError,
    UnsupportedError,
    UsageError,
)
from .fibration import (
    CounterexampleCandidate,
    DanielewskiSurface,
    FiberDecomposition,
    LineBundle,
    MarkedPoint,
    MultifoldCurve,
    Variant,
    build_surface,
    classify_cancellation,
    degenerate_fibers,
    relatively_connected_quotient,
)
from .ideals import (
    GroebnerBasis,
    IdealPresentation,
    IsoCertificate,
    PolyMap,
    groebner_basis,
    ideal_member,
    ideal_member_witness,
    jacobian_smooth,
    normal_form,
    verify_iso_certificate,
    verify_morphism,
)
from .ratpoly import (
    LaurentPoly,
    MultiPoly,
    laurent_from_str,
    laurent_split,
    partial_derivative,
    poly_arith,
    poly_from_str,
    substitute,
)
from .surfexpr import SurfaceSpec, parse_surface

__version__ = "0.1.0"
