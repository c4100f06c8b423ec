"""upcube: exact-rational toolkit for monotone set systems on the biased cube."""

from .bounds import (
    LPSolution,
    bound_maximizer,
    lp_max_s1,
    optimal_profile,
    profile_feasible,
    s1_upper_bound,
)
from .constructions import (
    TripleSystem,
    dictator,
    kahn_triple,
    q5_triple,
    q_formula,
    qcurve,
    threshold,
)
from .setcube import (
    N_MAX,
    Family,
    OccupancyProfile,
    addable_mask,
    close_points,
    empty_family,
    family_from_points,
    mask_from_elements,
    hk_defect,
    is_upward_closed,
    measure,
    minimal_elements,
    minimal_mask,
    minimal_points,
    occupancy,
    random_upset,
    up_closure,
)
from .errors import UpcubeError
from .lift import (
    LiftReport,
    build_q21,
    gadget,
    pull_back,
    topup_to_count,
)
from .posets import (
    WeightedPoset,
    diamond_poset,
    enumerate_upsets,
    poset_hk_defect,
    poset_hk_scan,
    poset_occupancy,
)
from .search import (
    SearchObjective,
    SearchResult,
    best_of_restarts,
    enumerate_upsets_qn,
    exhaustive_best,
    local_search,
)
from .upset_io import (
    format_generators,
    format_upset,
    parse_generators,
    parse_upset,
    read_generators,
    read_upset,
    write_upset,
)

__version__ = "0.1.0"
