import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempoflow import (
    DemandVector,
    FlowOverTime,
    InstanceSpec,
    ModelError,
    ParseError,
    generate_instance,
    parse_flow,
    parse_network,
    serialize_flow,
    serialize_network,
)

from conftest import build_chain, build_e1, make_network
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



def test_roundtrip_at_scale():
    """A 5,000-node chain comes back equal: node ids are looked up in a
    set, so the parse stays linear in the text."""
    net = build_chain(5000)
    v = DemandVector({"s": -1, "d": 1})
    parsed = parse_network(serialize_network(net, v))
    assert parsed.network == net
    assert parsed.demands == v

def test_parse_reports_line_and_column():
    bad = E1_FILE.replace("piece 1 2 cap 1 tt 1", "piece 1 2 cap x tt 1")
    with pytest.raises(ParseError) as err:
        parse_network(bad)
    assert (err.value.line_no, err.value.column) == (7, 15)


def _e1(old, new):
    assert old in E1_FILE, old
    return E1_FILE.replace(old, new, 1)


# One malformed text per raise site of parse_network and _int, with the
# line, column and message each must report.
PARSE_ERRORS = {
    "format tag": ("  tn 2\n" + E1_FILE[5:], 1, 3, "expected format tag 'tn 1'"),
    "duplicate horizon": (_e1("horizon 3\n", "horizon 3\nhorizon 3\n"), 3, 1, "duplicate horizon line"),
    "horizon usage": (_e1("horizon 3", "horizon 3 4"), 2, 1, "usage: horizon <T>"),
    "horizon negative": (_e1("horizon 3", "horizon  -1"), 2, 10, "horizon must be non-negative"),
    "horizon integer": (_e1("horizon 3", "horizon x"), 2, 9, "horizon must be an integer, got 'x'"),
    "node usage": (
        _e1("node d sink 2", "node d"), 4, 1, "usage: node <id> source <n> | sink <n> | internal"
    ),
    "duplicate node": (_e1("node d sink 2", "node  s sink 2"), 4, 7, "duplicate node 's'"),
    "internal demand": (
        _e1("node d sink 2", "node d sink 2\nnode m internal 3"), 5, 8, "internal nodes take no demand"
    ),
    "terminal usage": (
        _e1("node s source 2", "node s source"), 3, 8, "usage: node <id> source <amount>"
    ),
    "amount negative": (_e1("node d sink 2", "node d sink  -2"), 4, 14, "amount must be non-negative"),
    "amount integer": (
        _e1("node s source 2", "node s source 2.0"), 3, 15, "amount must be an integer, got '2.0'"
    ),
    "node kind": (_e1("node d sink 2", "node d spring 2"), 4, 8, "unknown node kind 'spring'"),
    "edge usage": (_e1("edge s d", "edge s"), 5, 1, "usage: edge <from> <to>"),
    "unknown endpoint": (_e1("edge s d", "edge s x # typo"), 5, 8, "unknown node 'x'"),
    "duplicate edge": (E1_FILE + "edge s d\npiece 0 3 cap 1 tt 1\n", 9, 1, "duplicate edge s -> d"),
    "piece before edge": (
        _e1("edge s d\n", "piece 0 3 cap 1 tt 1\nedge s d\n"), 5, 1, "piece line before any edge line"
    ),
    "piece usage": (
        _e1("piece 3 3 cap 0 tt 1", "piece 3 3 cap 0 t 1"),
        8, 1, "usage: piece <t0> <t1> cap <u|inf> tt <tau>",
    ),
    "tab inside a token": (
        _e1("piece 0 0 cap 0 tt 1", "piece 0 0 cap 0 tt\t1"),
        6, 1, "usage: piece <t0> <t1> cap <u|inf> tt <tau>",
    ),
    "plus sign": (_e1("horizon 3", "horizon +3"), 2, 9, "horizon must be an integer, got '+3'"),
    "non-ASCII digit": (
        _e1("horizon 3", "horizon \u0663"), 2, 9, "horizon must be an integer, got '\u0663'"
    ),
    "digit separator": (
        _e1("piece 1 2 cap 1", "piece 1 2 cap 1_0"), 7, 15, "capacity must be an integer, got '1_0'"
    ),
    "trailing tab": (_e1("horizon 3", "horizon 3\t"), 2, 9, "horizon must be an integer, got '3\\t'"),
    "piece start integer": (
        _e1("piece 3 3", "piece three 3"), 8, 7, "piece start must be an integer, got 'three'"
    ),
    "piece end integer": (_e1("piece 3 3", "piece 3 3.5"), 8, 9, "piece end must be an integer, got '3.5'"),
    "capacity integer": (
        _e1("piece 1 2 cap 1 tt 1", "piece 1 2 cap x tt 1"), 7, 15, "capacity must be an integer, got 'x'"
    ),
    "capacity negative": (_e1("piece 1 2 cap 1", "piece 1 2 cap -1"), 7, 15, "capacity must be non-negative"),
    "travel time integer": (
        _e1("piece 3 3 cap 0 tt 1", "piece 3 3 cap 0 tt one"),
        8, 20, "travel time must be an integer, got 'one'",
    ),
    "travel time negative": (
        _e1("piece 3 3 cap 0 tt 1", "piece 3 3 cap 0 tt -1"), 8, 20, "travel time must be non-negative"
    ),
    "unknown keyword": (_e1("edge s d", "edge\ts d"), 5, 1, "unknown keyword 'edge\\ts'"),
    "empty input": ("# nothing here\n\n", 1, 1, "empty input; expected format tag 'tn 1'"),
    "missing horizon": ("tn 1\nnode s source 0\n", 3, 1, "missing horizon line"),
    "edge without pieces": (
        "tn 1\nhorizon 3\nnode s source 0\nnode d sink 0\nedge s d\n", 5, 1, "edge s -> d has no pieces"
    ),
    "start after end": (
        _e1("piece 1 2", "piece 1 0"), 5, 1, "edge s -> d: piece [1, 0] has start > end"
    ),
    "first piece not at 0": (
        _e1("piece 0 0 cap 0 tt 1\n", ""), 5, 1, "edge s -> d: pieces must start at 0"
    ),
    "gap": (
        _e1("piece 1 2", "piece 2 2"), 5, 1, "edge s -> d: pieces must tile the domain: gap/overlap at 0..2"
    ),
    "overlap": (
        _e1("piece 1 2", "piece 0 2"), 5, 1, "edge s -> d: pieces must tile the domain: gap/overlap at 0..0"
    ),
    "capacity overflow": (
        _e1("piece 1 2 cap 1", f"piece 1 2 cap {2**63}"),
        5, 1, "edge s -> d: piece value: 9223372036854775808 exceeds machine integer range",
    ),
    "travel time overflow": (
        _e1("piece 1 2 cap 1 tt 1", f"piece 1 2 cap 1 tt {2**63}"),
        5, 1, "edge s -> d: piece value: 9223372036854775808 exceeds machine integer range",
    ),
    "pieces end early": (_e1("piece 3 3 cap 0 tt 1\n", ""), 5, 1, "edge s -> d pieces end at 2, not 3"),
    "self-loop": (E1_FILE + "edge d d\npiece 0 3 cap 1 tt 1\n", 11, 1, "self-loop at d"),
    "source in-edge": (
        _e1("node d sink 2", "node d sink 2\nnode m internal") + "edge m s\npiece 0 3 cap 1 tt 1\n",
        12, 1, "source s has an in-edge",
    ),
    "sink out-edge": (
        _e1("node d sink 2", "node d sink 2\nnode m internal") + "edge d m\npiece 0 3 cap 1 tt 1\n",
        12, 1, "sink d has an out-edge",
    ),
}

# The same for parse_flow.
FLOW_ERRORS = {
    "flow usage": ("flow s d 1 1\n  flows s d 2 1\n", 2, 3, "usage: flow <from> <to> <t> <amount>"),
    "departure integer": ("flow s d one 1\n", 1, 10, "departure time must be an integer, got 'one'"),
    "amount integer": ("flow s d 1 1 # ok\nflow s  d 2 1x\n", 2, 13, "amount must be an integer, got '1x'"),
    "amount negative": ("flow s d 1 -1\n", 1, 12, "amount must be non-negative"),
}


@pytest.mark.parametrize(
    "parse, text, line_no, column, message",
    [(parse_network, *case) for case in PARSE_ERRORS.values()]
    + [(parse_flow, *case) for case in FLOW_ERRORS.values()],
    ids=[*PARSE_ERRORS, *(f"flow: {name}" for name in FLOW_ERRORS)],
)
def test_parse_errors_pinned(parse, text, line_no, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line_no, err.value.column) == (line_no, column)
    assert str(err.value) == f"line {line_no}, column {column}: {message}"



@given(st.text(alphabet=" \t#ab1-\u00a0", max_size=24))
def test_columns_belong_to_the_split_tokens(line):
    """A raise site's column (``_tokens``) is the column of the token the
    parser read (``_split``)."""
    from tempoflow.netio import _split, _tokens

    pairs = _tokens(line)
    assert [tok for tok, _ in pairs] == _split(line)
    for tok, col in pairs:
        assert line[col - 1 : col - 1 + len(tok)] == tok

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


def test_serialize_flow_rejects_negative_amounts():
    """A negative amount raises, naming its entry; a zero amount is omitted."""
    f = FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): -1, (("s", "d"), 3): -2})
    with pytest.raises(ModelError, match="flow s d 2 has negative amount -1"):
        serialize_flow(f)
    assert serialize_flow(FlowOverTime({(("s", "d"), 1): 1, (("s", "d"), 2): 0})) == "flow s d 1 1\n"


UNWRITABLE_IDS = ["", "a b", "a#b", "a\nb", "a\r\nb", "a\x0bb", "a\u2028b"]


@pytest.mark.parametrize("name", UNWRITABLE_IDS)
def test_serialize_rejects_ids_the_format_cannot_carry(name):
    """An id that would not read back as one token raises, naming the first such id."""
    net = make_network(("s", name, "x y", "d"), {("s", name): ([(0, 2, 1)], 1)}, {"s"}, {"d"}, 2)
    with pytest.raises(ModelError, match=re.escape(f"node id {name!r} cannot be written")):
        serialize_network(net, DemandVector({"s": -1, "d": 1}))
    flow = FlowOverTime({(("s", name), 0): 1, (("s", "x y"), 1): 1})
    with pytest.raises(ModelError, match=re.escape(f"node id {name!r} cannot be written")):
        serialize_flow(flow)
    # An entry with amount 0 is not written, so its ids are not checked.
    assert serialize_flow(FlowOverTime({(("s", name), 0): 0})) == ""


def test_tab_in_id_round_trips():
    """A tab stays part of its token, so an id holding one is written and read back."""
    name = "a\tb"
    net = make_network(("s", name, "d"), {("s", name): ([(0, 2, 1)], 1)}, {"s"}, {"d"}, 2)
    v = DemandVector({"s": -1, "d": 1})
    assert_same_network(parse_network(serialize_network(net, v)).network, net)
    f = FlowOverTime({(("s", name), 0): 1})
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
