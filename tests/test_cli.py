import json

import pytest

from copsrobbers import parse_edge_list
from copsrobbers.cli import main


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing graph argument
    assert exc.value.code == 2


def test_verify_budget_zero_skips(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "0")
    doc = json.loads(out)
    assert code == 0
    assert all(c["status"] == "skipped" for c in doc["checks"])


def test_verify_small_budget_passes(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "1")
    doc = json.loads(out)
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["checks"])
