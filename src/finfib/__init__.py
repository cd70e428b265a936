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
    InvariantViolated,
    NotAComponent,
    NotDescending,
    NotGrothendieckOpfibration,
    NotMonotone,
    ParseError,
    PreconditionViolated,
    ReconstructionMismatch,
    SearchBudgetExhausted,
    UnknownElement,
    UnknownGalleryId,
)
from .posets import (
    MonotoneMap,
    Poset,
    find_isomorphism,
    find_isomorphism_over_base,
    isomorphisms,
    pair_name,
    product,
)
from .stong import (
    BeatPointReport,
    ReductionTrace,
    beat_points,
    core,
    f_infinity,
    homotopy_equivalent,
    is_contractible,
    smallest_dbp_retract,
)
from .slices import (
    MapReduction,
    SliceMap,
    as_slice,
    map_beat_points,
    map_core,
    restrict_over,
    restrict_over_component,
    smallest_dbp_retract_of_map,
)
from .grothendieck import (
    BundleReport,
    GrothendieckReport,
    LiftFailure,
    PosetFunctor,
    classify_grothendieck,
    grothendieck_construction,
    is_fiber_bundle,
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
