"""Braid monodromy of plane-curve singularities.

Computes the local braid monodromy of a singular point of a plane
algebraic curve by tracking fiber roots numerically around a loop,
derives relations for the fundamental group of the complement, and
checks the simplified presentations against a catalog of tangented
conic-line configurations, using homomorphism counts into small finite
groups as supporting evidence.
"""

from .catalog import (
    CheckResult,
    Fixture,
    VerificationReport,
    fixture_by_id,
    fixtures,
    n_tangency_fixture,
    verify_fixture,
)
from .curves import CurveSpec, Polynomial2, parse_curve, parse_polynomial
from .errors import (
    BraidMonoError,
    CapacityError,
    CriticalFiberError,
    DegenerateMotionError,
    DimensionMismatchError,
    GeometryError,
    GroupTableError,
    ImproperProjectionError,
    MalformedWordError,
    ParseError,
    TieError,
    TrackingFailureError,
)
from .homcount import (
    FiniteGroupTable,
    HomCountReport,
    alternating_group,
    count_homomorphisms,
    cyclic_group,
    default_targets,
    dihedral_group,
    dump_targets,
    equivalence_evidence,
    load_targets,
    quaternion_group,
    symmetric_group,
)
from .motion import (
    Motion,
    MotionProgram,
    RotateBlock,
    compose_motions,
    motion_to_braid,
)
from .presentations import (
    Presentation,
    SimplifyResult,
    Verdict,
    canonical_relator,
    is_consequence,
    kill_generator,
    simplify,
)
from .tracker import (
    LoopSpec,
    lefschetz_braid,
    track_loop,
)
from .vankampen import braid_images, induced_presentation, raw_relators
from .words import (
    BraidWord,
    FreeWord,
    Permutation,
    artin_action,
    braid_equal,
    braid_permutation,
    exponent_sum,
)

__version__ = "0.1.0"
