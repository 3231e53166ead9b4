import hashlib
import json
import sys
import warnings
from decimal import Decimal

import pytest

from copsrobbers import (Graph, format_edge_list, gen_cycle, gen_grid, gen_path, gen_petersen,
                         parse_edge_list)
from copsrobbers.cli import main
from copsrobbers.seeds import make_rng


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_solve_pipeline(tmp_path, capsys):
    f = tmp_path / "c4.el"
    code, out, _ = run(capsys, "gen", "cycle", "4", "-o", str(f))
    assert code == 0
    g = parse_edge_list(f.read_text())
    assert g.n == 4 and g.edge_count == 4
    code, out, _ = run(capsys, "solve", str(f), "--kmax", "2")
    assert code == 0
    assert json.loads(out)["cop_number"] == 2


def test_solve_petersen(tmp_path, capsys):
    f = tmp_path / "p.el"
    run(capsys, "gen", "petersen", "-o", str(f))
    code, out, _ = run(capsys, "solve", str(f), "--kmax", "3", "--placement")
    doc = json.loads(out)
    assert code == 0 and doc["cop_number"] == 3
    assert len(doc["placement"]) == 3


@pytest.mark.parametrize("family, expected", [
    (["petersen"], '{"cop_number":3,"graph_hash":"223b9bae4baa1733","kmax":3,'
                   '"placement":[0,0,0],"schema":"copsrobbers.solve/1"}'),
    (["projective", "2"], '{"cop_number":3,"graph_hash":"3b0a7c3397f0e665","kmax":3,'
                          '"placement":[0,0,0],"schema":"copsrobbers.solve/1"}'),
])
def test_solve_placement_output_pinned(tmp_path, capsys, family, expected):
    f = tmp_path / "g.el"
    run(capsys, "gen", *family, "-o", str(f))
    code, out, _ = run(capsys, "solve", str(f), "--kmax", "3", "--placement")
    assert code == 0 and out.strip() == expected


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "path", "3", "--dot")
    assert code == 0 and "0 -- 1;" in out


def test_bound_values(capsys):
    code, out, _ = run(capsys, "bound", "--L", "1024")
    doc = json.loads(out)
    assert code == 0
    assert doc["params"]["t"] == "2.0"
    assert doc["params"]["p_log"] == "-12.0"
    assert doc["params"]["diameter_threshold_log"] == "2.0"
    assert float(doc["trivial_region_boundary"]["low"]) > 900
    assert float(doc["trivial_region_boundary"]["high"]) < 1024
    assert all(s["holds"] for s in doc["chain"]["steps"])


def test_bound_tolerance_just_above_the_resolution_brackets(capsys):
    # 1e-60 exits 1 (test_bound_out_of_range_exits_1); 1e-54 still has two
    # ends
    code, out, _ = run(capsys, "bound", "--L", "1024", "--tol", "1e-54")
    bracket = json.loads(out)["trivial_region_boundary"]
    assert code == 0
    assert 900 < float(bracket["low"]) <= float(bracket["high"]) < 1024


@pytest.mark.parametrize("tol", ["1e-6", "1e-20", "1e-30", "1e-50"])
def test_bound_prints_the_bracket_ends_apart(capsys, tol):
    # 17 significant digits, or as many more as keep a narrow bracket's ends
    # apart
    code, out, _ = run(capsys, "bound", "--L", "1024", "--tol", tol)
    bracket = json.loads(out)["trivial_region_boundary"]
    assert code == 0
    assert Decimal(bracket["low"]) < Decimal(bracket["high"])
    if tol == "1e-6":
        assert bracket == {"low": "937.44901955174282", "high": "937.44902050495148"}


def test_bound_d_zero_is_d_log_minus_inf(capsys):
    code, out, _ = run(capsys, "bound", "--L", "1600", "--d-zero")
    assert code == 0
    assert run(capsys, "bound", "--L", "1600", "--d-log=-inf") == (0, out, "")
    chain = json.loads(out)["chain"]
    assert chain["d_log"] == "-inf" and chain["end_to_end"]["holds"] is False


@pytest.mark.parametrize("argv, message", [
    (["--L", "abc"], "argument --L: not a number: 'abc'"),
    (["--L", "1024", "--d-log", "abc"], "argument --d-log: invalid float value: 'abc'"),
    (["--L", "1024", "--d-zero", "--d-log=5"], "not allowed with argument --d-zero"),
], ids=["L-abc", "d-log-abc", "d-zero-and-d-log"])
def test_bound_bad_arguments_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["bound", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--L", "1024", "--d-log=nan"], "parameter is not a number: nan"),
    (["--L", "1024", "--d-log=inf"], "infinite parameter"),
    (["--L", "1"], "series envelope invalid: D/n may reach 1.0, not below 1/2"),
    (["--L", "1600", "--d-log=1599"], "series envelope invalid: D/n may reach 0.5, not below 1/2"),
    (["--L", "1024", "--tol", "1e-60"],
     "tolerance 1e-60 is below the 192-bit resolution of the boundary"),
], ids=["d-log-nan", "d-log-inf", "L1-threshold", "d-half-n", "tol-below-resolution"])
def test_bound_out_of_range_exits_1(capsys, argv, message):
    assert run(capsys, "bound", *argv) == (1, "", f"error: {message}\n")


def test_bound_table_verdicts_follow_the_json_holds(capsys):
    # log_shift's interval straddles 0 here: holds is None, shown "inconclusive"
    argv = ["bound", "--L", "100", "--d-log", "98.75"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    chain = json.loads(out)["chain"]
    word = {True: "holds", False: "FAILS", None: "inconclusive"}
    expected = [(s["name"], word[s["holds"]]) for s in chain["steps"]]
    expected.append(("end_to_end", word[chain["end_to_end"]["holds"]]))
    assert ("log_shift", "inconclusive") in expected
    code, out, _ = run(capsys, *argv, "--format", "table")
    assert code == 0
    rows = [line.split(": ", 1) for line in out.splitlines() if "(slack >=" in line]
    assert [(name.strip(), rest.split(" ")[0]) for name, rest in rows] == expected


def test_play_emits_valid_transcript(tmp_path, capsys):
    f = tmp_path / "c4.el"
    run(capsys, "gen", "cycle", "4", "-o", str(f))
    code, out, _ = run(capsys, "play", str(f), "--k", "2", "--cops", "solver")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == "copsrobbers.transcript/1"
    assert doc["outcome"]["kind"] == "caught"


def test_strategy_guard_with_check(tmp_path, capsys):
    f = tmp_path / "c8.el"
    run(capsys, "gen", "cycle", "8", "-o", str(f))
    code, out, _ = run(capsys, "strategy", "guard", str(f), "--check")
    doc = json.loads(out)
    assert code == 0
    assert doc["soundness"]["violations"] == []


def test_strategy_guard_explicit_path(tmp_path, capsys):
    f = tmp_path / "g.el"
    run(capsys, "gen", "grid", "5", "6", "-o", str(f))
    code, out, _ = run(capsys, "strategy", "guard", str(f), "--path", "0,1,2,3,4")
    assert code == 0
    assert json.loads(out)["path"] == [0, 1, 2, 3, 4]
    code, _, err = run(capsys, "strategy", "guard", str(f), "--path", "0,2")
    assert code == 1
    assert "is not an edge" in err


def test_strategy_guard_path_outside_the_graph_exits_1(tmp_path, capsys):
    f = tmp_path / "g33.el"
    run(capsys, "gen", "grid", "3", "3", "-o", str(f))
    for path, vertex in (("999,1000", 999), ("0,999", 999), ("9", 9)):
        code, out, err = run(capsys, "strategy", "guard", str(f), "--path", path)
        assert code == 1 and out == ""
        assert f"error: path vertex {vertex} outside [0, 9)" in err


@pytest.mark.parametrize("text", ["0,,1", "a,b", "", "0;1", "1.5"])
def test_strategy_guard_malformed_path_is_a_usage_error(tmp_path, capsys, text):
    f = tmp_path / "g33.el"
    f.write_text(format_edge_list(gen_grid(3, 3)))
    with pytest.raises(SystemExit) as exc:
        main(["strategy", "guard", str(f), f"--path={text}"])
    assert exc.value.code == 2
    assert f"argument --path: not a comma-separated vertex list: {text!r}" in (
        capsys.readouterr().err)


def test_strategy_guard_check_runs_one_diameter_scan(tmp_path, capsys, diameter_scans):
    f = tmp_path / "g.el"
    run(capsys, "gen", "grid", "5", "6", "-o", str(f))
    code, out, _ = run(capsys, "strategy", "guard", str(f), "--path", "0,1,2,3,4", "--check")
    doc = json.loads(out)
    assert code == 0 and doc["soundness"]["violations"] == []
    assert doc["settle_bound"] == 9 + 4
    assert diameter_scans == [30]


def test_strategy_guard_default_path_runs_one_diameter_scan(tmp_path, capsys, diameter_scans):
    # the geodesic's pair and the settle bound share the graph's kept diameter
    f = tmp_path / "g.el"
    run(capsys, "gen", "grid", "5", "6", "-o", str(f))
    for extra in ((), ("--check",)):
        diameter_scans.clear()
        code, out, _ = run(capsys, "strategy", "guard", str(f), *extra)
        doc = json.loads(out)
        assert code == 0 and len(doc["path"]) == 10
        assert doc["settle_bound"] == 9 + 9
        assert diameter_scans == [30]


def test_strategy_guard_on_a_long_cycle_runs_only_the_scan_beyond_the_robber(
        tmp_path, capsys, monkeypatch):
    # C4000 is 2-connected, so its scan stops after two BFS passes.  The
    # geodesic walks back over the scan's row from its first end and the
    # guard approaches over that same row, so every other pass is the greedy
    # robber's: its placement field and the rows of its options.
    import copsrobbers.graph as graph_mod
    from copsrobbers.engine import GreedyFarRobber

    f = tmp_path / "c4000.el"
    f.write_text(format_edge_list(gen_cycle(4000)))
    passes, robber = [], []
    inside = []
    bfs = graph_mod._bfs

    def counting_bfs(adj, dist, sources):
        (robber if inside else passes).append(tuple(sources))
        return bfs(adj, dist, sources)

    def watched(call):
        def run(*args):
            inside.append(call)
            try:
                return call(*args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(graph_mod, "_bfs", counting_bfs)
    monkeypatch.setattr(GreedyFarRobber, "place", watched(GreedyFarRobber.place))
    monkeypatch.setattr(GreedyFarRobber, "move", watched(GreedyFarRobber.move))
    code, out, _ = run(capsys, "strategy", "guard", str(f))
    doc = json.loads(out)
    assert code == 0 and doc["path"][0] == 0 and len(doc["path"]) == 2001
    assert passes == [(0,), (2000,)] and len(robber) > 2


def test_strategy_guard_default_path_needs_a_connected_graph(tmp_path, capsys):
    f = tmp_path / "two.el"
    f.write_text(format_edge_list(Graph(4, [(0, 1), (2, 3)])))
    for extra in ((), ("--check",)):
        code, out, err = run(capsys, "strategy", "guard", str(f), *extra)
        assert code == 1 and out == ""
        assert "requires a connected graph" in err


def test_strategy_meyniel_runs_one_whole_graph_scan(tmp_path, capsys, diameter_scans):
    # desk_params (no --levels) and the recursion's root share one scan; the
    # components below the root are scanned on their own
    f = tmp_path / "c60.el"
    run(capsys, "gen", "cycle", "60", "-o", str(f))
    code, out, _ = run(capsys, "strategy", "meyniel", str(f), "--require-capture")
    assert code == 0 and json.loads(out)["caught"]
    assert diameter_scans.count(60) == 1
    assert len(diameter_scans) > 1 and max(diameter_scans[1:]) < 60


def test_strategy_expander_plan_summary(tmp_path, capsys):
    f = tmp_path / "c6.el"
    run(capsys, "gen", "cycle", "6", "-o", str(f))
    code, out, _ = run(capsys, "strategy", "expander", str(f), "--density", "0.9",
                       "--lam", "1.5")
    doc = json.loads(out)
    assert code == 0
    assert doc["plan"]["set_sizes"]
    assert doc["transcript"]["outcome"]["kind"] == "caught"


def test_strategy_meyniel(tmp_path, capsys):
    f = tmp_path / "p12.el"
    run(capsys, "gen", "path", "12", "-o", str(f))
    code, out, _ = run(capsys, "strategy", "meyniel", str(f), "--threshold", "3",
                       "--density", "0.8")
    doc = json.loads(out)
    assert code == 0 and doc["caught"]
    assert doc["cops_used"] == doc["guards_used"] + doc["expander_cops"]


def test_determinism_byte_identical(tmp_path, capsys):
    f = tmp_path / "g.el"
    run(capsys, "gen", "gnp", "12", "--p", "0.4", "--seed", "5", "-o", str(f))
    a = run(capsys, "--seed", "3", "strategy", "expander", str(f), "--density", "0.9", "--lam", "1.5")
    b = run(capsys, "--seed", "3", "strategy", "expander", str(f), "--density", "0.9", "--lam", "1.5")
    assert a == b
    c = run(capsys, "--seed", "4", "strategy", "expander", str(f), "--density", "0.9", "--lam", "1.5")
    assert a != c


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.el"
    f.write_text("3 1\n5 9\n")
    code, out, err = run(capsys, "solve", str(f))
    assert code == 1
    assert "line 2" in err


def test_resource_limit_exit_code(tmp_path, capsys):
    f = tmp_path / "c6.el"
    run(capsys, "gen", "cycle", "6", "-o", str(f))
    code, _, err = run(capsys, "solve", str(f), "--k", "2", "--budget", "5")
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize("text, k", [
    (format_edge_list(gen_cycle(30)), 100000),
    ("1 0\n", 1000),
], ids=["cycle-k100000", "one-vertex-k1000"])
def test_solve_over_budget_k_exits_3_on_k_alone(tmp_path, capsys, text, k):
    # 30**100001 has too many digits to print, and 1**1001 fits any budget
    # while the table loops grow with k: both are refused before the power
    f = tmp_path / "g.el"
    f.write_text(text)
    code, out, err = run(capsys, "solve", str(f), "--k", str(k))
    assert (code, out) == (3, "")
    assert f"k + 1 = {k + 1}, exceed the budget" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing graph argument
    assert exc.value.code == 2
    # gen takes exactly its family's sizes
    for argv in (["gen", "path"], ["gen", "grid", "3"], ["gen", "petersen", "4", "5"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"gen {argv[1]} takes" in capsys.readouterr().err
    # gen refuses a graph that an edge list cannot declare, before building it
    for argv in (["gen", "hypercube", "21"], ["gen", "hypercube", "40"],
                 ["gen", "grid", "1025", "1024"], ["gen", "projective", "1000"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "an edge list may declare" in capsys.readouterr().err
    # gnp alone can write fewer than n characters, which the parser's
    # length-scaled cap refuses above 2^16 vertices
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["gen", "gnp", "70000", "--p", "0"])
    assert exc.value.code == 2
    assert "above the 65536 an edge list may declare" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("solve", "--k", "0"),
    ("solve", "--kmax", "0"),
    ("solve", "--kmax", "-1"),
    ("solve", "--k", "2", "--budget", "-5"),
    ("solve", "--budget", "0"),
    ("play", "--k", "0"),
    ("play", "--cops", "solver", "--budget", "0"),
])
def test_solve_and_play_flags_below_one_are_usage_errors(tmp_path, capsys, argv):
    f = tmp_path / "c6.el"
    f.write_text(format_edge_list(gen_cycle(6)))
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(f), *flags])
    assert exc.value.code == 2
    flag = next(a for a in reversed(flags) if a.startswith("--"))
    err = capsys.readouterr().err
    assert f"copsrobbers {command}: error: argument {flag}: must be >= 1" in err


@pytest.mark.parametrize("flags", [("--max-rounds", "0"), ("--max-rounds", "-1")])
def test_play_max_rounds_below_one_is_a_usage_error(tmp_path, capsys, flags):
    f = tmp_path / "c8.el"
    f.write_text(format_edge_list(gen_cycle(8)))
    with pytest.raises(SystemExit) as exc:
        main(["play", str(f), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "copsrobbers play: error: argument --max-rounds: must be >= 1" in err


@pytest.mark.parametrize("which", ["guard", "meyniel"])
def test_strategy_max_rounds_below_one_is_a_usage_error(tmp_path, capsys, which):
    f = tmp_path / "c8.el"
    f.write_text(format_edge_list(gen_cycle(8)))
    with pytest.raises(SystemExit) as exc:
        main(["strategy", which, str(f), "--max-rounds", "-3"])
    assert exc.value.code == 2
    assert ("copsrobbers strategy: error: argument --max-rounds: must be >= 1, got -3"
            in capsys.readouterr().err)


# Each flag's domain is an argparse type (gen sizes: the family's minimums),
# so a value outside it is a usage error before any library call.
@pytest.mark.parametrize("argv, message", [
    (["strategy", "meyniel", "G", "--threshold", "0"],
     "argument --threshold: must be >= 1, got 0"),
    (["strategy", "meyniel", "G", "--lam", "-1"], "argument --lam: must exceed 1, got -1.0"),
    (["strategy", "meyniel", "G", "--density", "2"],
     "argument --density: must lie in (0, 1], got 2.0"),
    (["strategy", "meyniel", "G", "--levels", "-1"], "argument --levels: must be >= 0, got -1"),
    (["strategy", "meyniel", "G", "--resample-limit", "0"],
     "argument --resample-limit: must be >= 1, got 0"),
    (["bound", "--L", "1024", "--tol", "0"],
     "argument --tol: must be positive and finite, got 0.0"),
    (["gen", "gnp", "10", "--p", "1.5"], "argument --p: must lie in [0, 1], got 1.5"),
    (["gen", "cycle", "-3"], "gen cycle sizes must be >= 3, got -3"),
    (["gen", "cycle", "2"], "gen cycle sizes must be >= 3, got 2"),
    (["gen", "path", "0"], "gen path sizes must be >= 1, got 0"),
    (["gen", "grid", "3", "0"], "gen grid sizes must be >= 1, got 0"),
    (["gen", "hypercube", "0"], "gen hypercube sizes must be >= 1, got 0"),
    (["gen", "gnp", "0"], "gen gnp sizes must be >= 1, got 0"),
    (["gen", "projective", "1"], "gen projective sizes must be >= 2, got 1"),
], ids=["threshold", "lam", "density", "levels", "resample-limit", "tol", "p",
        "cycle-negative", "cycle", "path", "grid", "hypercube", "gnp", "projective"])
def test_flag_domains_are_usage_errors(tmp_path, capsys, argv, message):
    f = tmp_path / "c8.el"
    f.write_text(format_edge_list(gen_cycle(8)))
    with pytest.raises(SystemExit) as exc:
        main([str(f) if a == "G" else a for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_verify_budget_zero_skips(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "0")
    doc = json.loads(out)
    assert code == 0
    assert all(c["status"] == "skipped" for c in doc["checks"])


def test_verify_negative_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--budget", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "copsrobbers verify: error: argument --budget: must be >= 0, got -3" in err


def test_verify_small_budget_passes(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "1")
    doc = json.loads(out)
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_table_format(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "0", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "oracle_agreement: skipped (budget 0: resource limit)"
    assert [ln.split(":")[0] for ln in lines] == [
        "oracle_agreement", "known_cop_numbers", "girth_lower_bound", "geodesic_guard_soundness",
        "expander_confinement", "hitting_claim_implies_planning", "deletion_recursion",
        "bound_arithmetic", "invisible_robber"]


def test_verify_corpus_feeds_oracle_agreement_deterministically(tmp_path, capsys):
    (tmp_path / "a.el").write_text(format_edge_list(gen_cycle(6)))
    (tmp_path / "b.el").write_text(format_edge_list(gen_cycle(12)))
    (tmp_path / "notes.txt").write_text("not a graph\n")
    argv = ("verify", "--budget", "1", "--seed", "21057", "--corpus", str(tmp_path))
    code, out, _ = run(capsys, *argv)
    assert (code, out) == run(capsys, *argv)[:2]
    doc = json.loads(out)
    assert code == 0 and doc["schema"] == "copsrobbers.verify/2"
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 9
    assert doc["checks"][0]["detail"] == "772 exhaustive + 62 random + 1 corpus"
    (tmp_path / "c.el").write_text("3 1\n0 1\n1 7\n")
    code, out, err = run(capsys, "verify", "--budget", "1", "--corpus", str(tmp_path))
    assert (code, out) == (1, "") and "line 3" in err and "c.el" in err


def test_solve_closes_its_input_file(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.el"
    f.write_text(format_edge_list(gen_petersen()))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _, _ = run(capsys, "solve", str(f))
    assert code == 0 and unraisable == []


def test_oversized_header_exits_1(tmp_path, capsys):
    f = tmp_path / "huge.el"
    f.write_text("1000000000 0\n")
    code, out, err = run(capsys, "solve", str(f))
    assert code == 1 and out == ""
    assert "line 1" in err and "exceeds" in err


def _tree100():
    rng = make_rng(7, "pin-tree")
    return Graph(100, [(rng.randrange(max(0, i - 6), i), i) for i in range(1, 100)])


PINNED_GRAPHS = {
    "grid5x6": lambda: gen_grid(5, 6),
    "c40": lambda: gen_cycle(40),
    "p30": lambda: gen_path(30),
    "grid12x12": lambda: gen_grid(12, 12),
    "tree100": _tree100,
}

# SHA-256 of stdout for (meyniel vs greedy, meyniel vs random, guard on the
# default diameter geodesic); every component here has at most 500 vertices.
PINNED_STRATEGY_SHA256 = {
    "grid5x6": ("30f24f6505b101b62917c93ceeb74b53b2fb70e04756efd622dc0fd2a768881a",
                "ee72b7ee6fe60b3c7152328b5614860e28daa4ce88f9169225d4b84c307d7d4f",
                "164ec28653c00e8b160527aa16736a8d55213c2e3cc28042642f6c561f6ad0a9"),
    "c40": ("ec3d6ce0f422088aad7658bef665764eca7d0c4a59a6bf5c6f52340da45ea8cf",
            "1ce20c3a8db235d1906922cdc14dd3bee4bde55c1d3d927f0ae30a974cfb8b69",
            "cf623b4e41d5a0caa9af067cae3c2404177d868008b6f905ae942bd57a70c916"),
    "p30": ("1738325ab2111c0af5a46d04b6b83d7854e7a360efabc3efc6764a8cd407488f",
            "e744afe70d6c7728b44f8fc70a4618be58647442dcf15791481f863f76929e10",
            "6bd9fb9497a6a64640deeb00b8534d121628956d9db2fa23f111155e1b1e9fb3"),
    "grid12x12": ("b40559d70c376a61130db61671fa8abccf3fd0b5be3c61455ce6a2d3c350e091",
                  "42847ee181679f8714a8a85e2c098ef9750abf582b243d93eefda8efa4ff54e8",
                  "f99a2d9bd28ece9273755a5cfb39e7969caa5b4f54bb64fd1da5755c5596e8b3"),
    "tree100": ("f51ec6f62430a6d2eb547b9d536d037d8ea99682942f7df393a5dc2aef7106a8",
                "d527083961c9540ca0b477cf0d5f5e91656f6825ddcfe52fc0cf8297f567dbad",
                "9c27d8e1c23b0979aae4432ffe994f951b77b26032dd29b3a5aa6591e9838c49"),
}


# SHA-256 of `strategy expander` stdout against the greedy and the random
# robber, with the default parameters and then with --lam 6 --density 0.4.
# None: that run uses up its resamples, exits 1 and prints nothing.
PINNED_EXPANDER_SHA256 = {
    "grid5x6": ("178ec25173567fe0dece059ddfdc257749f5a3b5bd4d325826901ca6930bd5ff",
                "d9adef026e6da8551331838045ff0c4327b09e98f83968508163229a67b550e4",
                "2b0b92dab659f847552b83d6df0ae2a97aaa01c51051b0c3fe730d6529cb3361",
                "761612ee30fbb6110f5d8008fdd0dbbca2b3c176029f665db106d4d116b07547"),
    "c40": ("965cafcce605996da2104b18883c3c6f8763fdb9af41afa9e7f2ca155ae13226",
            "76d5abc4e5794c4935f7a0430188de5297cd05ff72355bbf67a5e631ecd0751d",
            None,
            None),
    "tree100": ("e738eb70fec0015179e6af5c023d0d3d7bbc456974260d6acdeef1e7b9b3697d",
                "382af7dcb85ddc6f5c1627254e2250a15025e272b6649169b9c81877c9c2dc4d",
                "fcb32fa189cecb38649662948c84c2df080e9d7732ed54c2ab0d7a2f57dd0791",
                "3b65e99b2be1377cb5ce7fc7f0dd55f4553060a87c3ddd8365d7d4285edb9b07"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXPANDER_SHA256))
def test_strategy_expander_output_pinned(tmp_path, capsys, name):
    f = tmp_path / f"{name}.el"
    f.write_text(format_edge_list(PINNED_GRAPHS[name]()))
    runs = [(extra, robber) for extra in ([], ["--lam", "6", "--density", "0.4"])
            for robber in ("greedy", "random")]
    for (extra, robber), expected in zip(runs, PINNED_EXPANDER_SHA256[name]):
        code, out, err = run(capsys, "strategy", "expander", str(f), "--robber", robber, *extra)
        if expected is None:
            assert (code, out) == (1, "")
            assert err == ("error: no family produced plans for every start within 16 "
                           "resamples (last attempt failed on 6 starts)\n")
        else:
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_strategy_output_pinned(tmp_path, capsys, name):
    f = tmp_path / f"{name}.el"
    f.write_text(format_edge_list(PINNED_GRAPHS[name]()))
    digests = []
    for argv in (["meyniel", str(f), "--robber", "greedy"],
                 ["meyniel", str(f), "--robber", "random"],
                 ["guard", str(f)]):
        code, out, _ = run(capsys, "strategy", *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == PINNED_STRATEGY_SHA256[name]


# SHA-256 of `strategy meyniel` stdout on `gen grid 25 25`, the deepest
# recursion of the benchmark's grids (24 nodes, depth 23), against the greedy
# robber and against the random robber with seed 3.
PINNED_GRID25_SHA256 = (
    "2730bb1bda62eabfb2ccd6b653db637122e5bb53d7cd92cea8aedaf2d93d8344",
    "5a8475e1dc5fea10c6ff3614dd44f739fdd87f117f0032a99b94413b437be5fa",
)


def test_strategy_meyniel_on_grid25_pinned(tmp_path, capsys):
    f = tmp_path / "g25.el"
    assert run(capsys, "gen", "grid", "25", "25", "-o", str(f))[0] == 0
    digests = []
    for robber in (["--robber", "greedy"], ["--robber", "random", "--seed", "3"]):
        code, out, _ = run(capsys, "strategy", "meyniel", str(f), "--require-capture", *robber)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == PINNED_GRID25_SHA256
