import pytest
from hypothesis import given, settings

from tempoflow import (
    DemandVector,
    FlowOverTime,
    InstanceSpec,
    ParseError,
    generate_instance,
    parse_flow,
    parse_network,
    serialize_flow,
    serialize_network,
)

from conftest import build_e1
from strategies import demand_instances

E1_FILE = """\
tn 1
horizon 3
node s source 2
node d sink 2
edge s d
piece 0 0 cap 0 tt 1
piece 1 2 cap 1 tt 1
piece 3 3 cap 0 tt 1
"""


def assert_same_network(a, b):
    """Structural piece boundaries may differ; compare pointwise values."""
    assert a.nodes == b.nodes
    assert a.sources == b.sources and a.sinks == b.sinks
    assert a.horizon == b.horizon
    assert set(a.edges) == set(b.edges)
    for key, fn in a.edges.items():
        other = b.edges[key]
        for t in range(a.horizon + 1):
            assert fn.capacity(t) == other.capacity(t)
            assert fn.travel_time(t) == other.travel_time(t)


def test_parse_e1_file():
    parsed = parse_network(E1_FILE)
    assert parsed.network.horizon == 3
    assert parsed.network.sources == {"s"}
    assert parsed.demands.get("s") == -2 and parsed.demands.get("d") == 2
    fn = parsed.network.edges[("s", "d")]
    assert [fn.capacity(t) for t in range(4)] == [0, 1, 1, 0]
    assert fn.travel_time(2) == 1


def test_roundtrip_via_serialize():
    parsed = parse_network(E1_FILE)
    text = serialize_network(parsed.network, parsed.demands)
    again = parse_network(text)
    assert_same_network(again.network, parsed.network)
    assert again.demands == parsed.demands
    assert serialize_network(again.network, again.demands) == text


def test_parse_reports_line_and_column():
    bad = E1_FILE.replace("piece 1 2 cap 1 tt 1", "piece 1 2 cap x tt 1")
    with pytest.raises(ParseError) as err:
        parse_network(bad)
    assert err.value.line_no == 7


def test_overlapping_pieces_name_the_edge():
    bad = E1_FILE.replace("piece 1 2", "piece 0 2")
    with pytest.raises(ParseError, match="s"):
        parse_network(bad)


def test_empty_edge_list_is_valid():
    parsed = parse_network("tn 1\nhorizon 2\nnode a source 0\nnode b sink 0\n")
    assert not parsed.network.edges


def test_unbalanced_demand_warns():
    text = E1_FILE.replace("node d sink 2", "node d sink 3")
    parsed = parse_network(text)
    assert any("sum" in w for w in parsed.warnings)


def test_flow_roundtrip():
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 1})
    assert parse_flow(serialize_flow(f)) == f


def test_generator_deterministic():
    spec = InstanceSpec()
    a = generate_instance(spec, 1)
    b = generate_instance(spec, 1)
    assert a.network == b.network and a.demands == b.demands


def test_generator_independent_of_hash_seed():
    """Set iteration order must not reach the random stream."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from tempoflow import InstanceSpec, generate_instance, serialize_network\n"
        "spec = InstanceSpec(n_nodes=5, n_sources=2, n_sinks=2, demand_mode='feasible')\n"
        "p = generate_instance(spec, 1)\n"
        "print(serialize_network(p.network, p.demands))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    texts = set()
    for hash_seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        texts.add(out.stdout)
    assert len(texts) == 1


@pytest.mark.parametrize(
    "spec, seed, digest",
    [
        (
            InstanceSpec(n_nodes=5, n_sources=2, n_sinks=2, n_edges=10, horizon=12, max_pieces=2),
            1,
            "6eec000e59f634d0d388d2350161e36a3fbd4edc47874dd91073659acc068c73",
        ),
        (
            InstanceSpec(n_nodes=6, n_sources=2, n_sinks=2, n_edges=15, horizon=45, max_pieces=1),
            2,
            "6642e6dc2a0054fc02fc0e88f6f11d80401ccfe16351122de919d1c9cde465ef",
        ),
        (
            InstanceSpec(),
            3,
            "03759a927b2afc4ecb509bc4870bd7811e7c7a95d928b88d616a68edc7659c2a",
        ),
    ],
)
def test_generated_texts_pinned(spec, seed, digest):
    """Feasible-mode demands are read off a max flow, so a max-flow change
    that moves the flow decomposition changes the generated (and benchmark)
    instance texts; these digests catch it."""
    import hashlib

    parsed = generate_instance(spec, seed)
    text = serialize_network(parsed.network, parsed.demands)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generator_balanced_and_feasible_bias():
    from tempoflow import dttn_feasible

    for seed in range(10):
        parsed = generate_instance(InstanceSpec(demand_mode="feasible"), seed)
        assert parsed.demands.total() == 0
        assert dttn_feasible(parsed.network, parsed.network.horizon, parsed.demands).feasible


def test_generator_rejects_terminal_overflow():
    from tempoflow import ModelError

    with pytest.raises(ModelError):
        InstanceSpec(n_nodes=2, n_sources=2, n_sinks=1)


@settings(max_examples=40)
@given(demand_instances())
def test_serialize_parse_identity(instance) -> None:
    net, v = instance
    text = serialize_network(net, v)
    parsed = parse_network(text)
    assert_same_network(parsed.network, net)
    assert {t: parsed.demands.get(t) for t in net.terminals} == {
        t: v.get(t) for t in net.terminals
    }
