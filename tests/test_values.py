"""Value semantics of the package's value types, and what importing it loads.

Every value type constructs from the same positional and keyword
arguments, compares equal only to a value of its own class with equal
fields, hashes by its fields (raising ``TypeError`` where a field holds a
dict) and shows its class name in its repr.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from tempoflow import (
    CanonicalTemporalNetwork,
    DemandVector,
    EdgeFn,
    ExpandedGraph,
    FeasOutcome,
    FlowOverTime,
    InstanceSpec,
    OneShotEdge,
    OneShotNetwork,
    ParsedInstance,
    PiecewiseConstFn,
    SteadyFlow,
    TemporalNetwork,
    ValidationReport,
    Violation,
)

PIECES = PiecewiseConstFn(((0, 3, 1),))
EDGE = EdgeFn(PIECES, PiecewiseConstFn(((0, 3, 1),)))
NET = TemporalNetwork(("s", "d"), {("s", "d"): EDGE}, frozenset({"s"}), frozenset({"d"}), 3)
DEMANDS = DemandVector({"s": -1, "d": 1})
VIOLATION = Violation("capacity", "s->d", 0, "flow 2 > capacity 1")
GRAPH = ExpandedGraph(
    {"s": [0, 4], "d": [0, 4]}, (0,), (1,), (1,), 0, 1, {"s": range(0, 1), "d": range(1, 2)}
)
SPEC_DEFAULTS = {
    "n_nodes": 6, "n_sources": 1, "n_sinks": 1, "n_edges": 8, "horizon": 8,
    "max_capacity": 4, "max_travel_time": 3, "max_pieces": 3, "demand_mode": "feasible",
}

# cls: (fields in order with sample values, the defaulted fields' defaults, hashable)
VALUE_TYPES = {
    PiecewiseConstFn: ({"pieces": ((0, 1, 2), (2, 3, 0))}, {}, True),
    EdgeFn: ({"capacity": PIECES, "travel_time": PIECES}, {}, True),
    TemporalNetwork: (
        {"nodes": NET.nodes, "edges": NET.edges, "sources": NET.sources, "sinks": NET.sinks,
         "horizon": 3},
        {}, False,
    ),
    DemandVector: ({"values": {"s": -1, "d": 1}}, {}, False),
    FlowOverTime: ({"flows": {(("s", "d"), 0): 1}}, {"flows": {}}, False),
    Violation: ({"condition": "storage", "location": "d", "time": None, "detail": "x"}, {}, True),
    ValidationReport: ({"violations": (VIOLATION,)}, {}, True),
    OneShotEdge: ({"alpha": 0, "beta": 2, "capacity": float("inf"), "travel_time": 1}, {}, True),
    OneShotNetwork: (
        {"nodes": ("s", "d"), "edges": {("s", "d"): OneShotEdge(0, 2, 1, 1)},
         "sources": frozenset({"s"}), "sinks": frozenset({"d"}), "horizon": 3},
        {}, False,
    ),
    ExpandedGraph: (
        {"bounds": GRAPH.bounds, "tails": (0,), "heads": (1,), "caps": (1,), "source": 0,
         "sink": 1, "ranges": GRAPH.ranges},
        {}, False,
    ),
    SteadyFlow: ({"arc_flows": (1,), "side": frozenset({0})}, {"side": None}, True),
    FeasOutcome: (
        {"feasible": False, "breakpoints": {"s": (0, 3)}, "graph": GRAPH, "flow_value": 0,
         "violated": frozenset({"s"}), "o_T": 0, "neg_v": 1},
        {"violated": None, "o_T": None, "neg_v": None}, False,
    ),
    ParsedInstance: ({"network": NET, "demands": DEMANDS, "warnings": ("w",)}, {}, False),
    InstanceSpec: ({**SPEC_DEFAULTS, "n_nodes": 7, "demand_mode": "zero"}, SPEC_DEFAULTS, True),
    CanonicalTemporalNetwork: (
        {"net": NET, "ps_plus": frozenset(),
         "ps_minus": frozenset({"s"}), "pps_minus": frozenset()},
        {}, False,
    ),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=[cls.__name__ for cls in VALUE_TYPES])
def test_value_semantics(cls):
    fields, defaults, hashable = VALUE_TYPES[cls]
    value = cls(*fields.values())
    assert all(getattr(value, name) is sample for name, sample in fields.items())
    assert cls(**fields) == value
    assert not value != cls(**fields)

    required = [sample for name, sample in fields.items() if name not in defaults]
    bare = cls(*required)
    assert {name: getattr(bare, name) for name in defaults} == defaults

    # Equal fields do not make values of different classes equal.
    twin = type(f"Twin{cls.__name__}", (cls,), {})
    assert value != twin(*fields.values())
    assert twin(*fields.values()) != value
    assert value != tuple(fields.values())
    assert tuple(fields.values()) != value

    if hashable:
        assert hash(value) == hash(cls(**fields))
        assert len({value, cls(**fields)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value).startswith(f"{cls.__name__}(")


def test_equal_fields_of_another_type_differ():
    args = (("s", "d"), {}, frozenset({"s"}), frozenset({"d"}), 3)
    assert TemporalNetwork(*args) != OneShotNetwork(*args)
    assert TemporalNetwork(*args) == TemporalNetwork(*args)


def test_flows_get_fresh_dicts():
    a, b = FlowOverTime(), FlowOverTime()
    assert a.flows is not b.flows
    a.flows[("s", "d"), 0] = 1
    assert b.flows == {}


def test_import_loads_no_dataclasses():
    """``import tempoflow`` leaves the dataclass machinery unloaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tempoflow; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == []
