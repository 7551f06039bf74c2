"""Exact-arithmetic local models of moduli spaces.

Integral lattices with a symmetric pairing, stability functions over
the Gaussian rationals, ext-quivers of polystable decompositions with
their moment maps and King-stability searches, wall-and-chamber
decompositions of character spaces, and the totally-semistable wall
and stratum analysis.  All arithmetic is exact; nothing uses floats.
"""

from .decomposition import PolystableDecomposition
from .errors import (
    BudgetExceededError,
    DegenerateValueError,
    HomNonvanishingError,
    InternalInvariantError,
    LatticeMismatchError,
    MalformedSummandError,
    NormalizationError,
    OutsideHeartError,
    PrimitivityError,
    QuiverModuliError,
    ScenarioError,
    ShapeMismatchError,
    UnknownCommandError,
)
from .lattice import (
    ClassKind,
    GramLattice,
    LatticeVector,
    classify,
    find_isotropic,
    pairing,
    signature,
    square,
    sublattice_gram,
)
from .quiver import (
    ExtQuiver,
    build_ext_quiver,
    enumerate_positive_roots,
    expected_dimension,
    is_positive_root,
    num_parameters,
    pairwise_merge_check,
    quadratic_form,
    simple_rep_exists,
)
from .representation import (
    DoubleQuiverRep,
    SearchLimits,
    SubrepWitness,
    destabilizer_search,
    in_zero_fiber,
    jordan_holder_search,
    moment_map,
    verify_subrep,
)
from .scenario import Scenario, load_scenario
from .stability import (
    GaussianRational,
    Phase,
    StabilityFunction,
    WeightedFiltration,
    INFINITE_SLOPE,
    character_exponents,
    classical_git_weight,
    filtration_weight,
    k_class,
    normalize,
    phase,
    slope,
    theta_unstable,
)
from .stratum import (
    HyperbolicPair,
    StratumReport,
    analyze_stratum,
    detect_totally_semistable,
    product_shape,
    stable_deformation_exists,
)
from .walls import (
    CharacterPoint,
    Wall,
    degree_vector,
    enumerate_walls,
    locate_chamber,
    on_slice,
    to_character,
    wall_correspondence_holds,
)

__version__ = "0.1.0"
