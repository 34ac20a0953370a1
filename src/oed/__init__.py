"""Exact odd/even edge-induced-subgraph census and vertex cover counting."""

from .covers import (
    IE_EDGE_CAP,
    VERTEX_CAP,
    brute_force_vc_count,
    inclusion_exclusion_direct,
    independent_set_count,
)
from .delta import (
    EDGE_CAP,
    ENGINES,
    DeltaPolynomial,
    DeltaProfile,
    delta_by_components,
    delta_frontier,
    delta_graycode,
    delta_naive,
    vc_count_reduction,
    w_polynomial,
)
from .errors import CapError, EngineDisagreement, GraphError, ParseError
from .graph import (
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

__version__ = "0.1.0"

# Served on first use (PEP 562), so a ``delta`` or ``count`` call does not
# import the verification harness.
_VERIFY_NAMES = {
    "BenchRecord",
    "Failure",
    "VerificationReport",
    "all_labeled_graphs",
    "check_graph",
    "run_bench",
    "run_verification",
}


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
