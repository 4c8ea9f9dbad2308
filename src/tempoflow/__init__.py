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
    OverflowRejection,
    PiecewiseConstFn,
    TemporalNetwork,
    ValidationReport,
    Violation,
    compute_mu,
    merged_pieces,
    validate_flow,
)
from .reductions import attach_super_terminals
from .breakpoints import (
    EnumerationCapError,
    cten_breakpoints,
    gamma_breakpoints,
)
from .expansion import (
    DEFAULT_TEN_BUDGET,
    ExpandedGraph,
    OracleBudgetError,
    build_cten,
    build_ten,
)
from .maxflow import (
    InternalConsistencyError,
    SteadyFlow,
    UnboundedFlowError,
    max_flow,
    residual_reachable,
)
from .feasibility import (
    FeasOutcome,
    capacity_oT,
    capacity_oT_ten,
    feas,
)
from .gadget import (
    CanonicalTemporalNetwork,
    OneShotEdge,
    OneShotNetwork,
    StructuralError,
    canonical_breakpoints,
    canonical_reduction,
    classify_roles,
    gadget_breakpoints,
    hoppe_tardos_star,
    to_one_shot,
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
