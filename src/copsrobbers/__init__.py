"""Cops-and-robbers pursuit toolkit.

An exact retrograde-analysis solver acts as the ground-truth oracle; on top
of it sit three constructive cop strategies -- geodesic guarding, the
expansion/matching sweep, and the guard-delete-recurse composition -- plus
log-space interval arithmetic for the asymptotic cop-count bound.
"""

from .bounds import bound_params, check_eq1_chain, trivial_region_boundary
from .engine import (
    GameConfig,
    Outcome,
    Transcript,
    adversarial_robber_search,
    play,
    transcript_to_json,
    validate_transcript,
)
from .errors import (
    CopsRobbersError,
    NoPathError,
    ParseError,
    ResourceLimitError,
    StrategyFault,
)
from .expander import (
    CapturePlan,
    CopSetFamily,
    PlanFailure,
    StrategyParams,
    build_plan,
    invisible_mode,
    make_expander_cop,
    sample_cop_sets,
    verify_claim,
)
from .generators import (
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_hypercube,
    gen_path,
    gen_petersen,
    gen_projective_incidence,
)
from .graph import (
    UNREACHABLE,
    Graph,
    ball,
    bfs_distances,
    diameter,
    diameter_pair,
    format_edge_list,
    girth,
    graph_hash,
    is_connected,
    min_degree,
    parse_edge_list,
    shortest_path,
    to_dot,
)
from .guard import GuardCop, settle_bound, shadow
from .meyniel import MeynielCop, run_meyniel
from .solver import (
    SolverCop,
    cop_number,
    is_dismantlable,
    is_k_copwin,
    k_copwin_placement,
)

__version__ = "0.1.0"
