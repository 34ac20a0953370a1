"""Exact odd/even edge-induced-subgraph census and vertex cover counting."""

from .covers import (
    VERTEX_CAP,
    brute_force_vc_count,
    independent_set_count,
    reduced_count_no_isolated,
    vc_count_reduction,
)
from .delta import (
    EDGE_CAP,
    IE_EDGE_CAP,
    ENGINES,
    DeltaPolynomial,
    DeltaProfile,
    delta_by_components,
    delta_frontier,
    delta_graycode,
    delta_naive,
    inclusion_exclusion_direct,
    profile_to_json_dict,
    w_polynomial,
)
from .errors import CapError, EngineDisagreement, GraphError, ParseError
from .graph import (
    Edge,
    FAMILY_NAMES,
    MAX_VERTICES,
    Graph,
    IsolatedSplit,
    add_isolated,
    connected_components,
    disjoint_union,
    gen_family,
    load_graph,
    parse_edge_list,
    random_graph,
    strip_isolated,
    to_edge_list,
)
from .verify import (
    BenchRecord,
    Failure,
    VerificationReport,
    all_labeled_graphs,
    check_graph,
    run_bench,
    run_verification,
    subsets_visited,
)

__version__ = "0.1.0"
