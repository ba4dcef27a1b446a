"""Region-based characteristics of nilpotent orbits.

The dominant chamber of a root system is cut by the hyperplanes where a
module weight pairs to a fixed level (default 2).  Each region of the cut
determines the subspace of module weights exceeding the level on it; the
characteristic of a nilpotent orbit is the unique minimal-norm point of the
union of closures of the regions whose subspaces the orbit meets (or fills
densely).  In the adjoint case this recovers the classical weighted Dynkin
diagram.
"""

from .arrangement import (
    Hyperplane,
    Region,
    chamber_hyperplanes,
    enumerate_regions,
    is_saturated,
    region_weights,
)
from .liecore import (
    InvariantForm,
    RootSystem,
    WeightSystem,
    build_root_system,
    dynkin_labels,
    highest_roots,
    highest_short_root,
    invariant_form,
    is_dominant,
    norm_sq,
    pairing,
    weight_system,
    weyl_dim,
)
from .minnorm import (
    MinNormResult,
    MinNormTieError,
    Polyhedron,
    UnionMinResult,
    min_norm_point,
    verify_kkt,
)
from .orbits import (
    AdjointSlModel,
    Characteristic,
    Example2x3Model,
    Module,
    OrbitModel,
    RegionAnalysis,
    characteristic,
    dominance_leq,
    generic_jordan_partition,
    m_sets,
    partitions_of,
    weighted_dynkin_from_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointSlModel",
    "Characteristic",
    "Example2x3Model",
    "Hyperplane",
    "InvariantForm",
    "MinNormResult",
    "MinNormTieError",
    "Module",
    "OrbitModel",
    "Polyhedron",
    "Region",
    "RegionAnalysis",
    "RootSystem",
    "UnionMinResult",
    "WeightSystem",
    "build_root_system",
    "chamber_hyperplanes",
    "characteristic",
    "dominance_leq",
    "dynkin_labels",
    "enumerate_regions",
    "generic_jordan_partition",
    "highest_roots",
    "highest_short_root",
    "invariant_form",
    "is_dominant",
    "is_saturated",
    "m_sets",
    "min_norm_point",
    "norm_sq",
    "pairing",
    "partitions_of",
    "region_weights",
    "verify_kkt",
    "weight_system",
    "weighted_dynkin_from_partition",
    "weyl_dim",
]
