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


def test_expand_writes_dot(e1_path, tmp_path, capsys):
    out = tmp_path / "g.dot"
    for mode in ("ten", "cten"):
        assert main(["expand", "-i", e1_path, "--mode", mode, "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph")


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


def test_stats_compares_expansions_of_one_network(e1_path, capsys):
    from tempoflow import DemandVector, attach_super_terminals, build_ten

    from conftest import build_e1

    assert main(["stats", "-i", e1_path]) == 0
    sizes = dict(line.split() for line in capsys.readouterr().out.splitlines())
    ten = build_ten(attach_super_terminals(build_e1(), DemandVector({"s": -2, "d": 2})))
    assert int(sizes["ten-nodes"]) == len(ten.vertices)
    assert int(sizes["ten-arcs"]) == len(ten.arcs)
    assert int(sizes["cten-nodes"]) <= int(sizes["ten-nodes"])


def test_verify_checks_certificate(infeasible_path, capsys):
    assert main(["verify", "-i", infeasible_path]) == 1
    out = capsys.readouterr().out
    assert "oT:        fast-path 2, oracle 2" in out and "agreement: yes" in out


def test_verify_reports_certificate_mismatch(infeasible_path, capsys, monkeypatch):
    import tempoflow.cli as cli_mod

    monkeypatch.setattr(cli_mod, "capacity_oT_ten", lambda net, v, a: 99)
    assert main(["verify", "-i", infeasible_path]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err and "agreement" not in captured.out


def test_verify_checks_breakpoints(e1_path, capsys):
    assert main(["verify", "-i", e1_path]) == 0
    out = capsys.readouterr().out
    assert "breakpoints: agree" in out and "agreement: yes" in out


def test_verify_reports_breakpoint_mismatch(e1_path, capsys, monkeypatch):
    import tempoflow.cli as cli_mod

    monkeypatch.setattr(cli_mod, "gadget_breakpoints", lambda net, v: {})
    assert main(["verify", "-i", e1_path]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err and "agreement" not in captured.out


def test_feas_accepts_infinite_capacity(tmp_path, capsys):
    path = tmp_path / "inf.tn"
    path.write_text(E1_FILE.replace("cap 1", "cap inf"))
    assert main(["feas", "-i", str(path)]) in (0, 1)
    assert "error" not in capsys.readouterr().err


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
