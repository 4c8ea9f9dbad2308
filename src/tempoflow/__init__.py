"""Dynamic transshipments on temporal networks via condensed time expansion.

Feasibility, quickest-horizon, and max-flow-over-time solvers whose
running time is independent of the time horizon, together with a full
time-expanded-network oracle.
"""

from .model import (
    INF,
    MAX_INT,
    DemandVector,
    DomainError,
    EdgeFn,
    FlowOverTime,
    ModelError,
    OneShotEdge,
    OneShotNetwork,
    OneShotTrace,
    OverflowRejection,
    PiecewiseConstFn,
    TemporalNetwork,
    ValidationReport,
    Violation,
    compute_mu,
    merged_pieces,
    net_flow,
    project_one_shot_flow,
    to_one_shot,
    validate_flow,
)
from .reductions import (
    CanonicalTemporalNetwork,
    StructuralError,
    attach_super_terminals,
    canonical_reduction,
    classify_roles,
    hoppe_tardos_star,
)
from .breakpoints import (
    EnumerationCapError,
    canonical_breakpoints,
    cten_breakpoints,
    gamma_enumerate,
    gamma_star,
)
from .expansion import (
    DEFAULT_TEN_BUDGET,
    ExpandedGraph,
    OracleBudgetError,
    build_cten,
    build_ten,
    cten_edge_capacity,
    intervals_of,
)
from .maxflow import (
    InternalConsistencyError,
    SteadyFlow,
    UnboundedFlowError,
    check_max_flow,
    cut_capacity,
    max_flow,
    residual_reachable,
)
from .feasibility import (
    FeasOutcome,
    capacity_oT,
    capacity_oT_ten,
    feas,
    gadget_breakpoints,
    verify_violated,
)
from .solvers import (
    BoundedSearchError,
    dttn_feasible,
    extract_flow,
    max_flow_over_time,
    quickest_transshipment,
)
from .netio import (
    InstanceSpec,
    ParsedInstance,
    ParseError,
    generate_instance,
    parse_flow,
    parse_network,
    serialize_flow,
    serialize_network,
)

__version__ = "0.1.0"
