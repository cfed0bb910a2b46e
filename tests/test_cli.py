import json
import math

import pytest

from pcgraph.cli import main


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [
            {"vertices": [2, 3], "theta": 1},
            {"vertices": [1, 3], "theta": 1},
            {"vertices": [1, 2], "theta": 1},
        ],
    }))
    return str(path)


@pytest.fixture()
def psi_file(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [
            {"vertices": [2, 3], "theta": 1},
            {"vertices": [1, 3], "theta": 1},
            {"vertices": [1, 2], "theta": 1},
        ],
        "alpha": {"magnitude": 1 / math.sqrt(2)},
        "b_terms": [{"vertices": [1, 2, 3], "lambda": {"re": 1.0, "im": 0.0}}],
    }))
    return str(path)


@pytest.fixture()
def invalid_file(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [{"vertices": [1, 2], "theta": 1}],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass_and_fail(capsys, triangle_file, invalid_file):
    code, out, _ = run(capsys, "validate", triangle_file)
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "validate", invalid_file)
    assert code == 2 and "disconnected" in out


def test_validate_json_shape(capsys, invalid_file):
    code, out, _ = run(capsys, "validate", invalid_file, "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"][0]["kind"] == "disconnected"


def test_check_uncolorable(capsys, triangle_file):
    code, out, _ = run(capsys, "check", triangle_file)
    assert code == 0
    assert "un-colorable" in out and "rank A = 2" in out


def test_check_json_witness(capsys, tmp_path):
    path = tmp_path / "pair3.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [{"vertices": [1, 2], "theta": 1}, {"vertices": [2, 3], "theta": 1}],
    }))
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["colorable"] is True
    assert payload["witness"] == [1, -1, 1]


def test_simulate_conditional_distribution(capsys, psi_file):
    code, out, _ = run(
        capsys, "simulate", psi_file, "--condition", "Z1=1",
        "--observable", "X:2,3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["condition"]["probability"] - 0.25) < 1e-9
    assert abs(payload["distribution"]["1"] - 1.0) < 1e-9


def test_simulate_joint_probability(capsys, psi_file):
    code, out, _ = run(capsys, "simulate", psi_file, "--observable", "Z:1,2,3=+1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["joint_probability"] - 0.125) < 1e-9


def test_simulate_condition_spellings(capsys, psi_file):
    for spelling in ("Z1=1", "Z1=+1", "Z1=0"):
        code, out, _ = run(capsys, "simulate", psi_file, "--condition", spelling, "--json")
        assert code == 0
        assert abs(json.loads(out)["condition"]["probability"] - 0.25) < 1e-9
    code, out, _ = run(capsys, "simulate", psi_file, "--condition", "Z1=-1", "--json")
    assert abs(json.loads(out)["condition"]["probability"] - 0.75) < 1e-9


def test_simulate_sampler_is_seeded(capsys, triangle_file):
    code1, out1, _ = run(capsys, "simulate", triangle_file, "--shots", "50",
                         "--seed", "3", "--json")
    code2, out2, _ = run(capsys, "simulate", triangle_file, "--shots", "50",
                         "--seed", "3", "--json")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_certificate(capsys, psi_file):
    code, out, _ = run(capsys, "verify", psi_file, "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "paradox"
    assert cert["rank_a"] == 2 and cert["rank_b"] == 3
    assert abs(cert["success"]["simulated"] - 0.125) < 1e-12
    assert cert["lhv_census"] == {"skipped": False, "total": 8, "satisfying": 0}


def test_verify_human_output(capsys, triangle_file):
    code, out, _ = run(capsys, "verify", triangle_file)
    assert code == 0
    assert "verdict: PARADOX" in out


def test_verify_rejects_invalid(capsys, invalid_file):
    code, _, err = run(capsys, "verify", invalid_file)
    assert code == 2
    assert "validation failure" in err


def test_table_first_row(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["n"] == 3
    assert rows[0]["p_loop"] == 0.25
    assert rows[0]["p_generalized"] == 0.25
    assert rows[0]["p_standard"] == 0.125


def test_table_simulated_column(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--simulate")
    assert code == 0
    assert "simulated" in out.splitlines()[0]


def test_search_census_and_determinism(capsys):
    code, out1, _ = run(capsys, "search", "--n", "3", "--max-edges", "3",
                        "--sizes", "2..2")
    assert code == 0
    payload = json.loads(out1)
    assert payload["total"] == payload["colorable"] + payload["uncolorable"]
    triangle = {
        "n": 3,
        "edges": [
            {"vertices": [1, 2], "theta": 1},
            {"vertices": [1, 3], "theta": 1},
            {"vertices": [2, 3], "theta": 1},
        ],
    }
    assert triangle in payload["instances"]
    code, out2, _ = run(capsys, "search", "--n", "3", "--max-edges", "3",
                        "--sizes", "2..2", "--workers", "2")
    assert out1 == out2


def test_search_irreducible_only(capsys):
    code, out, _ = run(capsys, "search", "--n", "3", "--max-edges", "3",
                       "--sizes", "2..2", "--irreducible-only")
    assert code == 0
    payload = json.loads(out)
    assert "instances" not in payload
    assert payload["irreducible"] == len(payload["representatives"])


def test_catalog_list_show_export(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "minimal-triangle" in out
    code, out, _ = run(capsys, "catalog", "show", "loop", "--params", "n=5")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"n": 5}
    assert payload["expected"]["success_probability"] == pytest.approx(1 / 6)
    exported = tmp_path / "loop5.json"
    code, _, _ = run(capsys, "catalog", "export", "loop", "--params", "n=5",
                     "-o", str(exported))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(exported), "--json")
    assert code == 0
    assert abs(json.loads(out)["success"]["simulated"] - 1 / 6) < 1e-9


def test_catalog_export_round_trip_matches_canonical_form(capsys, tmp_path):
    from pcgraph import load_pcg_file
    from pcgraph.search import canonical_form
    from pcgraph.catalog import triangle_pcg

    exported = tmp_path / "tri.json"
    code, _, _ = run(capsys, "catalog", "export", "minimal-triangle", "-o", str(exported))
    assert code == 0
    assert canonical_form(load_pcg_file(exported).pcg) == canonical_form(triangle_pcg())


def test_catalog_export_without_file_representation(capsys):
    code, _, err = run(capsys, "catalog", "export", "qudit")
    assert code == 1
    assert "no instance-file representation" in err


def test_catalog_unknown_id(capsys):
    code, _, err = run(capsys, "catalog", "show", "nonsense")
    assert code == 1 and "unknown catalog id" in err


def test_export_dot(capsys, triangle_file):
    code, out, _ = run(capsys, "export", triangle_file, "--dot")
    assert code == 0
    assert out.startswith("graph pcg {")
    assert "v1 -- v2 [color=red" in out


def test_missing_file_and_malformed_json(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
    assert code == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "check", str(broken))
    assert code == 1 and "line 1" in err


def test_unknown_field_is_parse_error(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"n": 3, "edges": [], "bogus": 1}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1 and "unknown field" in err


@pytest.mark.parametrize("vertices", [[0, 1, 2, 3], [-1, 2, 3]])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_b_term_vertex_below_one_exit_2(capsys, psi_file, vertices, command):
    with open(psi_file) as f:
        data = json.load(f)
    data["b_terms"][0]["vertices"] = vertices
    with open(psi_file, "w") as f:
        json.dump(data, f)
    code, out, err = run(capsys, command, psi_file, "--json")
    assert code == 2 and out == ""
    assert "b-term #0" in err and "below 1" in err and "Traceback" not in err


def test_boolean_vertex_and_theta_exit_1(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "n": 3,
        "edges": [{"vertices": [True, 2], "theta": 1}, {"vertices": [2, 3], "theta": True}],
    }))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == "" and "edges[0].vertices" in err


def test_usage_error_exit_code(capsys):
    assert main(["table"]) == 1  # missing required --max-n
    assert main(["no-such-command"]) == 1


def test_cross_check_divergence_exit_code(capsys, monkeypatch, triangle_file):
    # unreachable through real instances by construction; force the error
    # to pin the exit-code contract
    from pcgraph.errors import CrossCheckError
    import pcgraph.cli as cli_mod

    def boom(*args, **kwargs):
        raise CrossCheckError("forced divergence")

    monkeypatch.setattr(cli_mod, "verify", boom)
    code, _, err = run(capsys, "verify", triangle_file)
    assert code == 3
    assert "cross-check divergence" in err


def test_non_real_spectral_weight_exits_3_without_traceback(capsys, monkeypatch, triangle_file):
    import pcgraph.states
    from pcgraph import CrossCheckError, build_state, x_product_distribution
    from pcgraph.catalog import triangle_pcg

    def corrupted_shift(amps, sites, d):  # moves nothing, multiplies by i
        return {k: 1j * a for k, a in amps.items()}

    monkeypatch.setattr(pcgraph.states, "_apply_shift", corrupted_shift)
    with pytest.raises(CrossCheckError, match="non-real spectral weight"):
        x_product_distribution(build_state(triangle_pcg()), [1, 2])
    for argv in (["simulate", triangle_file, "--observable", "X:1,2"], ["verify", triangle_file]):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "internal cross-check divergence: non-real spectral weight" in err
        assert "Traceback" not in err


def test_shots_above_ceiling_exit_1(capsys, triangle_file):
    from pcgraph.states import MAX_SHOTS

    code, out, err = run(capsys, "simulate", triangle_file, "--shots", str(MAX_SHOTS + 1))
    assert code == 1 and out == ""
    assert "ceiling" in err and "Traceback" not in err
    code, out, _ = run(capsys, "simulate", triangle_file, "--shots", "5", "--seed", "1", "--json")
    assert code == 0 and sum(json.loads(out)["sampled_counts"].values()) == 5


def test_table_max_n_above_ceiling_exit_1(capsys):
    from pcgraph.verify import MAX_TABLE_N

    code, out, err = run(capsys, "table", "--max-n", "1100")
    assert MAX_TABLE_N < 1024
    assert code == 1 and out == ""
    assert "ceiling" in err and "Traceback" not in err
    code, out, _ = run(capsys, "table", "--max-n", str(MAX_TABLE_N), "--json")
    assert code == 0
    last = json.loads(out)["rows"][-1]
    assert last["n"] == MAX_TABLE_N
    assert all(0.0 < last[k] < 1.0 for k in ("p_loop", "p_generalized", "p_standard"))


def test_lhv_cap_above_ceiling_exit_1_before_any_census(capsys, monkeypatch, psi_file):
    import pcgraph.graph

    def no_census(*args):
        raise AssertionError("census truth table built despite the ceiling")

    monkeypatch.setattr(pcgraph.graph, "_variable_table", no_census)
    code, out, err = run(capsys, "verify", psi_file, "--lhv-cap", "100000")
    assert code == 1 and out == ""
    assert "ceiling" in err and "Traceback" not in err


def test_lhv_cap_at_ceiling_exit_0_and_above_exit_1(capsys, psi_file):
    from pcgraph.graph import MAX_CENSUS_CAP

    assert MAX_CENSUS_CAP == 30
    code, out, _ = run(capsys, "verify", psi_file, "--lhv-cap", "30", "--json")
    assert code == 0
    assert json.loads(out)["lhv_census"] == {"skipped": False, "total": 8, "satisfying": 0}
    code, out, err = run(capsys, "verify", psi_file, "--lhv-cap", "31")
    assert code == 1 and out == ""
    assert "ceiling" in err and "Traceback" not in err


def test_search_workers_below_one_exit_1(capsys):
    code, out, err = run(capsys, "search", "--n", "3", "--max-edges", "2", "--workers", "0")
    assert code == 1 and out == ""
    assert "workers" in err and "Traceback" not in err
