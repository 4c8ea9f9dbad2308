import pytest

from tempoflow.cli import main

from test_netio import E1_FILE

INFEASIBLE_FILE = E1_FILE.replace("source 2", "source 3").replace("sink 2", "sink 3")


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "e1.tn"
    path.write_text(E1_FILE)
    return str(path)


@pytest.fixture
def infeasible_path(tmp_path):
    path = tmp_path / "bad.tn"
    path.write_text(INFEASIBLE_FILE)
    return str(path)


def test_feas_feasible(e1_path, capsys):
    assert main(["feas", "-i", e1_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FEASIBLE")
    assert "flow s d 1 1" in out


def test_feas_infeasible(infeasible_path, capsys):
    assert main(["feas", "-i", infeasible_path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INFEASIBLE violated=")
    assert "oT=" in out and "negv=" in out


def test_quickest(e1_path, capsys):
    assert main(["quickest", "-i", e1_path]) == 0
    assert "quickest 3" in capsys.readouterr().out


def test_quickest_cap(tmp_path, capsys):
    dead = E1_FILE.replace("cap 1", "cap 0")
    path = tmp_path / "dead.tn"
    path.write_text(dead)
    assert main(["quickest", "-i", str(path), "--tcap", "16"]) == 1
    assert capsys.readouterr().out.startswith("INFEASIBLE")


def test_maxflow(e1_path, capsys):
    assert main(["maxflow", "-i", e1_path]) == 0
    assert "maxflow 2" in capsys.readouterr().out


def test_maxflow_unbounded(tmp_path, capsys):
    path = tmp_path / "inf.tn"
    path.write_text(E1_FILE.replace("cap 1", "cap inf"))
    assert main(["maxflow", "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "maxflow inf\n"
    assert captured.err == "notice: the flow over time is unbounded, so no witness flow exists\n"


def test_expand_writes_dot(e1_path, tmp_path, capsys):
    out = tmp_path / "g.dot"
    for mode in ("ten", "cten"):
        assert main(["expand", "-i", e1_path, "--mode", mode, "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith(f"digraph {mode} {{")


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.tn"
    assert main(["gen", "--nodes", "4", "--edges", "4", "--pieces", "2",
                 "--seed", "5", "-o", str(out)]) == 0
    assert main(["verify", "-i", str(out)]) in (0, 1)
    assert "agreement: yes" in capsys.readouterr().out


def test_stats(e1_path, capsys):
    assert main(["stats", "-i", e1_path]) == 0
    out = capsys.readouterr().out
    assert "n 2" in out and "m 1" in out and "mu 3" in out
    assert "cten-nodes" in out and "ten-nodes" in out


# Inputs whose stats sizes exercise each part of the live-departure rule.
STATS_FILES = {
    "e1": E1_FILE,
    "horizon 0": "tn 1\nhorizon 0\nnode s source 1\nnode d sink 1\nedge s d\n"
    "piece 0 0 cap 1 tt 0\n",
    "zero-demand terminal": "tn 1\nhorizon 4\nnode s source 2\nnode d sink 2\n"
    "node e sink 0\nedge s d\npiece 0 4 cap 1 tt 1\nedge s e\npiece 0 4 cap 1 tt 1\n",
    "cap inf": E1_FILE.replace("cap 1", "cap inf"),
    "tt past the horizon": "tn 1\nhorizon 5\nnode s source 1\nnode d sink 1\nedge s d\n"
    "piece 0 3 cap 1 tt 3\npiece 4 5 cap 2 tt 4\n",
    "relay windows": "tn 1\nhorizon 6\nnode s source 3\nnode d sink 3\nedge s d\n"
    "piece 0 0 cap 1 tt 1\npiece 1 1 cap 0 tt 1\npiece 2 2 cap 2 tt 2\n"
    "piece 3 4 cap 0 tt 1\npiece 5 6 cap 3 tt 1\n",
}


def test_stats_compares_expansions_of_one_network(tmp_path, corpus, capsys):
    """Stats sizes equal the built TEN's, on edge cases and corpus texts."""
    from tempoflow import attach_super_terminals, build_ten, parse_network, serialize_network

    texts = list(STATS_FILES.values())
    texts += [serialize_network(p.network, p.demands) for p in corpus[::25]]
    path = tmp_path / "inst.tn"
    for text in texts:
        path.write_text(text)
        assert main(["stats", "-i", str(path)]) == 0
        sizes = dict(line.split() for line in capsys.readouterr().out.splitlines())
        parsed = parse_network(text)
        ten = build_ten(attach_super_terminals(parsed.network, parsed.demands))
        assert (int(sizes["ten-nodes"]), int(sizes["ten-arcs"])) == (
            len(ten.vertices), len(ten.arcs)
        ), text
        assert int(sizes["cten-nodes"]) <= int(sizes["ten-nodes"])


UNBALANCED_FILE = (
    "tn 1\nhorizon 4\nnode s source 2\nnode m internal\nnode d sink 3\n"
    "edge s m\npiece 0 4 cap 1 tt 1\nedge m d\npiece 0 1 cap 2 tt 1\npiece 2 4 cap 1 tt 2\n"
)


def test_stats_runs_no_verdict(tmp_path, capsys, monkeypatch):
    """Stats reads both sizes off one super-terminal network: no max flow,
    one ``live_windows`` call per edge, and demands that do not sum to 0
    (which a verdict refuses) are reported, not rejected."""
    from collections import Counter

    import tempoflow.cli as cli_mod
    import tempoflow.feasibility as feasibility_mod
    import tempoflow.model as model_mod
    import tempoflow.netio as netio_mod
    import tempoflow.solvers as solvers_mod

    from tempoflow import dttn_feasible, parse_network

    # The verdict's cTEN of the balanced texts, taken before counting starts.
    balanced = [*STATS_FILES.values(), UNBALANCED_FILE.replace("sink 3", "sink 2")]
    verdict_sizes = []
    for text in balanced:
        parsed = parse_network(text)
        net = parsed.network
        graph = dttn_feasible(net, net.horizon, parsed.demands).graph
        verdict_sizes.append((len(graph.vertices), len(graph.arcs)))

    calls = Counter()
    modules = (cli_mod, feasibility_mod, model_mod, netio_mod, solvers_mod)
    for module, name in (
        # Every module that looks these up, so no call goes uncounted.
        *((m, "max_flow") for m in modules if hasattr(m, "max_flow")),
        *((m, "live_windows") for m in modules if hasattr(m, "live_windows")),
    ):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    path = tmp_path / "inst.tn"
    path.write_text(UNBALANCED_FILE)
    assert main(["stats", "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert "demands sum to 1" in captured.err
    unbalanced = dict(line.split() for line in captured.out.splitlines())
    assert calls == Counter(live_windows=2)

    for text, verdict in zip(balanced, verdict_sizes):
        path.write_text(text)
        assert main(["stats", "-i", str(path)]) == 0
        sizes = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert (int(sizes["cten-nodes"]), int(sizes["cten-arcs"])) == verdict, text
    # The balanced form (sink 2) keeps both super edges positive: same sizes.
    assert sizes == unbalanced
    assert calls["max_flow"] == 0


def test_expand_cten_runs_no_verdict(tmp_path, capsys, monkeypatch):
    """The cTEN export needs no verdict: demands that do not sum to 0 are
    exported, not rejected, and no max flow runs."""
    import tempoflow.cli as cli_mod
    import tempoflow.feasibility as feasibility_mod
    import tempoflow.solvers as solvers_mod

    calls = []
    for module in (cli_mod, feasibility_mod, solvers_mod):

        def counting(*args, _original=module.max_flow):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, "max_flow", counting)
    path, out = tmp_path / "inst.tn", tmp_path / "g.dot"
    path.write_text(UNBALANCED_FILE)
    assert main(["expand", "-i", str(path), "--mode", "cten", "-o", str(out)]) == 0
    assert "demands sum to 1" in capsys.readouterr().err
    assert out.read_text().startswith("digraph cten {")
    assert calls == []


E1_CTEN_DOT = """\
digraph cten {
  "s@[0,3]" -> "d@[0,3]" [label=2];
  "s*@[0,3]" -> "s@[0,3]" [label=2];
  "d@[0,3]" -> "d*@[0,3]" [label=2];
}
"""


def test_expand_cten_is_the_verdicts_graph(tmp_path, e1_path, capsys):
    """On balanced texts the exported cTEN is the one a verdict solves, byte for byte."""
    from tempoflow import dttn_feasible, parse_network

    out = tmp_path / "g.dot"
    assert main(["expand", "-i", e1_path, "--mode", "cten", "-o", str(out)]) == 0
    assert out.read_text() == E1_CTEN_DOT
    path = tmp_path / "inst.tn"
    for text in [*STATS_FILES.values(), UNBALANCED_FILE.replace("sink 3", "sink 2")]:
        path.write_text(text)
        assert main(["expand", "-i", str(path), "--mode", "cten", "-o", str(out)]) == 0
        parsed = parse_network(text)
        graph = dttn_feasible(parsed.network, parsed.network.horizon, parsed.demands).graph
        assert out.read_text() == graph.to_dot("cten") + "\n", text


QUOTED_IDS_FILE = """\
tn 1
horizon 2
node s"x source 1
node d\\ sink 1
edge s"x d\\
piece 0 2 cap 1 tt 1
"""

QUOTED_IDS_DOT = """\
digraph cten {
  "s\\"x@[0,2]" -> "d\\@[0,2]" [label=2];
  "s*@[0,2]" -> "s\\"x@[0,2]" [label=1];
  "d\\@[0,2]" -> "d*@[0,2]" [label=1];
}
"""


def test_expand_escapes_quotes_in_node_ids(tmp_path, capsys):
    """A ``"`` in a node id is written ``\\"``, and a trailing backslash stays inside the quotes."""
    import re

    path, out = tmp_path / "inst.tn", tmp_path / "g.dot"
    path.write_text(QUOTED_IDS_FILE)
    assert main(["expand", "-i", str(path), "--mode", "cten", "-o", str(out)]) == 0
    assert out.read_text() == QUOTED_IDS_DOT
    quoted = r'"(?:[^"\\]|\\.)*"'
    arc = re.compile(rf"  ({quoted}) -> ({quoted}) \[label=\d+\];")
    ids = {m for line in QUOTED_IDS_DOT.splitlines()[1:-1] for m in arc.fullmatch(line).groups()}
    unquoted = {i[1:-1].replace('\\"', '"') for i in ids}
    assert unquoted == {'s"x@[0,2]', "d\\@[0,2]", "s*@[0,2]", "d*@[0,2]"}


def test_verify_checks_certificate(infeasible_path, capsys):
    assert main(["verify", "-i", infeasible_path]) == 1
    out = capsys.readouterr().out
    assert "oT:        fast-path 2, oracle 2" in out and "agreement: yes" in out


def test_verify_reports_certificate_mismatch(infeasible_path, capsys, monkeypatch):
    import tempoflow.cli as cli_mod

    monkeypatch.setattr(cli_mod, "capacity_oT_ten", lambda net, a: 99)
    assert main(["verify", "-i", infeasible_path]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err and "agreement" not in captured.out


# s -> m carries u = 2**62, so its gadget demand u * (T + 1) is past 2**63 - 1.
WIDE_FILE = """\
tn 1
horizon 3
node s source 5
node m internal
node d sink 5
edge s m
piece 0 3 cap 4611686018427387904 tt 1
edge m d
piece 0 3 cap 1 tt 1
"""


def test_verify_checks_breakpoints(tmp_path, capsys):
    """The sets are cross-checked also where a gadget demand would overflow."""
    from tempoflow import capacity_oT, dttn_feasible, gadget_breakpoints, parse_network

    for name, text, code in (("e1", E1_FILE, 0), ("wide", WIDE_FILE, 1)):
        path = tmp_path / f"{name}.tn"
        path.write_text(text)
        assert main(["verify", "-i", str(path)]) == code
        out = capsys.readouterr().out
        assert "breakpoints: agree" in out and "agreement: yes" in out
    assert "oT:        fast-path 2, oracle 2" in out
    parsed = parse_network(WIDE_FILE)
    net, v = parsed.network, parsed.demands
    a = dttn_feasible(net, net.horizon, v).violated
    assert capacity_oT(net, gadget_breakpoints(net), a) < -v.total(a)


def test_verify_reports_breakpoint_mismatch(e1_path, capsys, monkeypatch):
    import tempoflow.cli as cli_mod

    monkeypatch.setattr(cli_mod, "gadget_breakpoints", lambda net: {})
    assert main(["verify", "-i", e1_path]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err and "agreement" not in captured.out


# s -> m -> d at T = 3: m is settled, its local points (0, 1, 3) against
# Gamma*(m) = (0, 1, 2, 3), so its cTEN has 7 vertices where Gamma* gives 8.
CHAIN_FILE = """\
tn 1
horizon 3
node s source 3
node m internal
node d sink 3
edge s m
piece 0 3 cap 1 tt 1
edge m d
piece 0 3 cap 1 tt 1
"""


def test_stats_counts_settled_nodes(tmp_path, capsys):
    path = tmp_path / "chain.tn"
    path.write_text(CHAIN_FILE)
    assert main(["stats", "-i", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "cten-nodes 7" in lines and "settled 1" in lines
    assert lines.index("settled 1") == lines.index("cten-arcs 8") + 1


@pytest.mark.parametrize("reader", ["gamma-star everywhere", "point outside gamma-star"])
def test_verify_checks_the_verdict_sets(tmp_path, capsys, monkeypatch, reader):
    """Each verdict set must lie within Gamma*, and a settled node's be its local points.

    Both stand-in readers give supersets of exact sets, so the verdict and
    o_T still agree with the full expansion: only the sets' check trips.
    """
    import tempoflow.feasibility as feasibility_mod
    from tempoflow import cten_breakpoints, gamma_breakpoints

    path = tmp_path / "chain.tn"
    path.write_text(CHAIN_FILE)
    assert main(["verify", "-i", str(path)]) == 1
    out = capsys.readouterr().out
    assert "breakpoints: agree" in out and "1 settled" in out and "agreement: yes" in out

    def outside(net, nodes):
        return {**cten_breakpoints(net, nodes), "s": (0, 2)}

    stand_in = gamma_breakpoints if reader == "gamma-star everywhere" else outside
    monkeypatch.setattr(feasibility_mod, "cten_breakpoints", stand_in)
    assert main(["verify", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert "breakpoints: agree" in captured.out and "agreement" not in captured.out
    assert "MISMATCH: the verdict's sets" in captured.err


def test_verify_past_the_path_cap(tmp_path, capsys, monkeypatch):
    """A settled node takes no path search, so the verdict finishes where Gamma* gives up."""
    import tempoflow.breakpoints as breakpoints_mod

    path = tmp_path / "chain.tn"
    path.write_text(CHAIN_FILE)
    monkeypatch.setattr(breakpoints_mod, "PATH_CAP", 0)
    assert main(["verify", "-i", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("breakpoints: not cross-checked, Gamma* is past the path cap")
    assert out[3] == "verdict sets: 1 settled on their local points"
    assert out[-1] == "agreement: yes"


# Node t-:s:d carries the name that the gadget of edge s -> d gives its t- node.
GADGET_NAMED_FILE = """\
tn 1
horizon 3
node s source {0}
node t-:s:d internal
node d sink {0}
edge s d
piece 0 3 cap 1 tt 1
"""


@pytest.mark.parametrize("demand, code", [(1, 0), (4, 1)])
def test_verify_without_the_gadget_form(tmp_path, capsys, demand, code):
    """The breakpoint sets are not cross-checked; the verdict and o_T still are."""
    path = tmp_path / "named.tn"
    path.write_text(GADGET_NAMED_FILE.format(demand))
    assert main(["verify", "-i", str(path)]) == code
    out = capsys.readouterr().out.splitlines()
    assert out[2] == (
        "breakpoints: not cross-checked, the gadget form cannot represent this network "
        "(node ids ['t-:s:d'] are reserved for the reduction)"
    )
    assert out[-1] == "agreement: yes"
    assert ("oT:        fast-path 3, oracle 3" in out) == (code == 1)
    assert main(["feas", "-i", str(path)]) == code
    assert main(["maxflow", "-i", str(path)]) == 0
    assert "maxflow 3" in capsys.readouterr().out.splitlines()


def test_maxflow_past_the_demand_range(tmp_path, capsys):
    """10**19 is exact but fits no demand vector: the value, the notice and exit 0."""
    path = tmp_path / "wide.tn"
    path.write_text(
        "tn 1\nhorizon 1000000\nnode s source 1\nnode d sink 1\n"
        "edge s d\npiece 0 1000000 cap 10000000000000 tt 1\n"
    )
    assert main(["maxflow", "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "maxflow 10000000000000000000\n"
    assert "notice: verdict only" in captured.err and "error" not in captured.err


def test_feas_accepts_infinite_capacity(tmp_path, capsys):
    path = tmp_path / "inf.tn"
    path.write_text(E1_FILE.replace("cap 1", "cap inf"))
    assert main(["feas", "-i", str(path)]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_stats_reports_infinite_capacity(tmp_path, e1_path, capsys):
    path = tmp_path / "inf.tn"
    path.write_text(E1_FILE.replace("cap 1", "cap inf"))
    assert main(["stats", "-i", str(path)]) == 0
    assert "U inf" in capsys.readouterr().out.splitlines()
    assert main(["stats", "-i", e1_path]) == 0
    assert "U 1" in capsys.readouterr().out.splitlines()


def test_internal_failure_is_error(e1_path, capsys, monkeypatch):
    import tempoflow.cli as cli_mod

    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod, "dttn_feasible", crash)
    assert main(["feas", "-i", e1_path]) == 2
    assert "error: internal: RuntimeError: boom" in capsys.readouterr().err


def test_missing_file_is_error(capsys):
    assert main(["feas", "-i", "/no/such/file"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["maxflow", "-T", "-1"],
        ["gen", "--seed", "1", "--pieces", "0"],
        ["gen", "--seed", "1", "--max-cap", "-1"],
        ["gen", "--seed", "1", "--horizon", "-1"],
        ["gen", "--seed", "1", "--sources", "0"],
        ["gen", "--seed", "1", "--sinks", "0"],
        ["gen", "--seed", "1", "--edges", "-3"],
        ["gen", "--seed", "1", "--max-tt", "0"],
    ],
)
def test_bad_arguments_are_errors(argv, e1_path, capsys):
    if argv[0] == "maxflow":
        argv = argv + ["-i", e1_path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
