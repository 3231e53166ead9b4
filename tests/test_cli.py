import json
import sys
import warnings
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_pins
from copsrobbers import Graph, format_edge_list, gen_cycle, gen_grid, gen_petersen, parse_edge_list
from copsrobbers.cli import GEN_FAMILIES, main


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


# Heawood's literal is the table's solve-heawood-placement
@pytest.mark.parametrize("family, expected", [
    (["petersen"], '{"cop_number":3,"graph_hash":"223b9bae4baa1733","kmax":3,'
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


# The subcommands that never reach the bound arithmetic, in one fresh process
# that loads the package once; "g.el" is replaced by a grid's edge list.
RUNS_WITHOUT_BOUNDS = (
    ["gen", "grid", "3", "4", "-o", "g.el"],
    ["solve", "g.el"],
    ["play", "g.el"],
    ["play", "g.el", "--cops", "solver", "--k", "2"],
    ["strategy", "guard", "g.el", "--check"],
    ["strategy", "expander", "g.el"],
    ["strategy", "meyniel", "g.el"],
    ["verify", "--budget", "0"],
)


def test_runs_without_the_bound_arithmetic_load_neither_mpmath_nor_openssl(
        fresh_python, tmp_path):
    graph = str(tmp_path / "g.el")
    runs = [[graph if a == "g.el" else a for a in argv] for argv in RUNS_WITHOUT_BOUNDS]
    done = fresh_python(f"""
import contextlib, io, json, sys
import copsrobbers
from copsrobbers.cli import main

def loaded():
    return [m for m in ("mpmath", "_hashlib") if m in sys.modules]

seen = [loaded()]
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([main(argv), *loaded()])
print(json.dumps(seen))
""")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[]] + [[0]] * len(runs)


def test_bound_prints_its_pinned_digest_in_a_fresh_process():
    # a test process has long loaded mpmath; this run loads it first
    entry, = (e for e in cli_pins.load()["entries"] if e["name"] == "bound-L1024")
    assert "stdout_sha256" in entry
    assert cli_pins.run_entry(entry, cli_pins.run_process, {}) == []


# ---------------------------------------------------------------------------
# Grammar fuzz: random subcommands, flags and small or malformed edge lists
# end with an exit code of 0-3, never another exception.
# ---------------------------------------------------------------------------

BAD = ["-1", "nan", "x", ""]


def values(*good):
    """One of ``good``, or about one time in eight a value that flags often
    refuse (``one_of`` would not weigh its branches evenly)."""
    return st.sampled_from(list(good) * (28 // len(good) + 1) + BAD)


ROBBERS = values("greedy", "random")
FLAGS = {
    "gen": {"--p": values("0", "0.3", "1"), "--dot": None},
    "solve": {"--k": values("1", "2", "3"), "--kmax": values("1", "2", "3"),
              "--budget": values("1", "64", "100000"), "--placement": None},
    "play": {"--k": values("1", "2"), "--cops": values("chaser", "solver"),
             "--robber": ROBBERS, "--max-rounds": values("1", "3", "9"),
             "--budget": values("64", "100000")},
    "strategy": {"--path": st.sampled_from(["0", "0,1", "0,1,2", "0,,1", "0,9", "a"]),
                 "--check": None, "--lam": values("1.5", "2", "6"),
                 "--density": values("0.3", "0.5", "1"), "--levels": values("0", "1", "2", "9"),
                 "--resample-limit": values("1", "2", "16"),
                 "--threshold": values("1", "2", "3", "9"), "--robber": ROBBERS,
                 "--max-rounds": values("1", "5", "50"), "--require-capture": None},
    "bound": {"--d-log": values("-5", "0", "5", "50"), "--d-zero": None,
              "--tol": st.sampled_from(["1e-6", "0.5", "1e-30", "1e-60", "0", "x"])},
    "verify": {"--corpus": st.sampled_from(["DIR", "missing.el"])},
}
COMMANDS = sorted(FLAGS) + ["strategy"] * 2  # it has three kinds
FORMATTED = {"solve", "play", "bound", "verify"}


@st.composite
def positionals(draw, command):
    if command == "gen":
        family = draw(values(*GEN_FAMILIES))
        sizes = len(GEN_FAMILIES[family][1]) if family in GEN_FAMILIES else 1
        count = sizes + draw(st.sampled_from([0] * 7 + [1]))
        return [family, *draw(st.lists(st.integers(-1, 4).map(str), min_size=count,
                                       max_size=count))]
    if command == "strategy":
        return [draw(values("guard", "expander", "meyniel")),
                draw(st.sampled_from(["g.el", "g.el", "missing.el"]))]
    if command == "verify":  # a positive budget would run the criteria
        return ["--budget", draw(values("0"))]
    if command == "bound":
        return ["--L", draw(st.sampled_from(["1024", "1600.5", "2", "1", "0", "-3", "1e-300",
                                             "1e300", "nan", "inf", "x"]))]
    return ["g.el"]


JUNK_LINES = ["", "# c", "x y", "1", "1 2 3", "-1 0", "0 0", "2 1", "0 9", "9 9", "0 3", "0 -1"]


@st.composite
def edge_lists(draw):
    """Edge-list text of at most 8 vertices, three times in four on a path
    through all of them; one time in four a line is junk."""
    n = draw(st.sampled_from(range(1, 9)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16))
    if draw(st.sampled_from([True, True, True, False])):
        pairs += [(v, v + 1) for v in range(n - 1)]
    edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    if draw(st.sampled_from([True, False, False, False])):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(JUNK_LINES))
    return "\n".join(lines) + "\n"


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = draw(st.sampled_from([[]] * 4 + [["--seed", "3"]] * 3 + [["--seed", "x"]]))
    argv += [command, *draw(positionals(command))]
    flags = dict(FLAGS[command], **{"--seed": values("3", "12345"),
                                    "-o": st.sampled_from(["out", "out", "DIR"])})
    if command in FORMATTED:
        flags["--format"] = values("json", "table")
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=command_lines(), text=edge_lists())
def test_grammar_fuzz_exits_0_to_3(fuzz_dir, argv, text):
    (fuzz_dir / "g.el").write_text(text)
    paths = {"g.el": fuzz_dir / "g.el", "missing.el": fuzz_dir / "missing.el",
             "out": fuzz_dir / "out", "DIR": fuzz_dir}
    code, _, _ = cli_pins.run_in_process([str(paths.get(a, a)) for a in argv])
    assert code in (0, 1, 2, 3)
