"""Homotopy and fibration analysis for finite T0 spaces.

Finite T0 topological spaces are finite posets under the
specialization order, and continuous maps are exactly the monotone
ones.  This package decides, for such maps, beat point structure,
cores, Grothendieck (op)fibration status with transport functors,
local triviality, and a three-valued Hurewicz fibration verdict with
machine-checkable certificates and counterexample witnesses.
"""

from .errors import (
    CodomainMismatch,
    CycleDetected,
    DuplicateName,
    EmptyDomain,
    FinfibError,
    FunctorialityViolated,
    GuardExceeded,
    InvariantViolated,
    NotAComponent,
    NotDescending,
    NotGrothendieckFibration,
    NotGrothendieckOpfibration,
    NotMonotone,
    NotOverBase,
    ParseError,
    PreconditionViolated,
    ReconstructionMismatch,
    SearchBudgetExhausted,
    UnknownElement,
    UnknownGalleryId,
)
from .posets import (
    DEFAULT_GUARD,
    HomPoset,
    MonotoneMap,
    Poset,
    automorphisms,
    compose,
    find_isomorphism,
    find_isomorphism_over_base,
    hom_poset,
    isomorphisms,
    monotone_maps,
    pair_name,
    product,
    sub_poset,
)
from .stong import (
    BeatPointReport,
    ReductionTrace,
    all_dbp_retracts,
    all_ubp_retracts,
    beat_points,
    core,
    endomaps_above_identity,
    endomaps_below_identity,
    f_infinity,
    homotopy_classes,
    homotopy_equivalent,
    is_contractible,
    is_dbp_retract,
    is_ubp_retract,
    smallest_dbp_retract,
    smallest_ubp_retract,
)
from .slices import (
    MapBeatPointReport,
    MapReduction,
    SliceMap,
    are_fiber_homotopic,
    as_slice,
    is_map_dbp_retract,
    is_minimal_map,
    map_beat_points,
    map_core,
    restrict_over,
    restrict_over_component,
    smallest_dbp_retract_of_map,
    smallest_ubp_retract_of_map,
)
from .grothendieck import (
    BundleReport,
    GrothendieckReport,
    LiftFailure,
    LiftOutcome,
    PosetFunctor,
    alpha_functor,
    beta_functor,
    cartesian_lift,
    classify_grothendieck,
    cocartesian_lift,
    grothendieck_construction,
    is_fiber_bundle,
    lower_lift,
    reconstruct_over_base,
)
from .verdict import (
    CONDITION_NAMES,
    Certificate,
    ComponentVerdict,
    ConditionResult,
    NecessaryReport,
    RetractCertificate,
    Verdict,
    decide_hurewicz,
    is_closed_map,
    is_open_map,
    is_trivial_over_base,
    necessary_conditions,
    projection_retract_height1,
    search_retract_certificate,
    verify_retract_certificate,
)
from .gallery import (
    ENTRIES,
    GalleryEntry,
    gallery_entry,
    gallery_ids,
    gallery_map,
    gallery_poset,
)
from . import documents

__version__ = "0.1.0"
