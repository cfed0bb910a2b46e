import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

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


def test_validate_output_stays_short_at_the_vertex_ceiling(capsys, tmp_path):
    from pcgraph.fileio import MAX_FILE_N

    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": MAX_FILE_N, "edges": [
        {"vertices": [1, 2], "theta": 1}, {"vertices": [3, 4], "theta": 1}]}))
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "validate", str(path), *extra)
        assert code == 2 and err == ""
        assert len(out) < 1000 and f"(the first 64 of {MAX_FILE_N - 4} vertices)" in out


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
    assert run(capsys, "check", str(path)) == (0, "colorable (rank A = 2, rank [A|Theta] = 2)\n"
                                                  "witness coloring (vertex 1..n): G R G\n", "")


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


@pytest.mark.parametrize("instance,args,expected", [
    ("triangle_file", [], "state has 4 nonzero amplitudes\n  |000> +0.500000000+0.000000000i\n"
     "  |011> -0.500000000+0.000000000i\n  |101> -0.500000000+0.000000000i\n"
     "  |110> -0.500000000+0.000000000i\n"),
    ("triangle_file", ["--condition", "Z1=1", "--observable", "X:2,3"],
     "P(condition) = 0.5\nP(X product over [2, 3] = +1) = 0\nP(X product over [2, 3] = -1) = 1\n"),
    ("triangle_file", ["--condition", "Z1=-1,Z2=-1,Z3=-1", "--observable", "X:2,3"],
     "P(condition) = 0\nconditioned state is empty\n"),
    ("triangle_file", ["--observable", "Z:1,2=-1"], "P(all Z sites [1, 2] -> digit 1) = 0.25\n"),
    ("triangle_file", ["--observable", "X:1,2", "--shots", "5", "--seed", "1"],
     "P(X product over [1, 2] = +1) = 0.5\nP(X product over [1, 2] = -1) = 0.5\n"
     "sampled counts (5 shots): {'000': 1, '011': 2, '110': 2}\n"),
    ("psi_file", ["--observable", "Y:1,2"],
     "P(Y product over [1, 2] = +1) = 0.75\nP(Y product over [1, 2] = -1) = 0.25\n"),
    ("psi_file", ["--condition", "Z1=1"], "P(condition) = 0.25\n"),
    ("psi_file", ["--condition", "Z1=1", "--shots", "20", "--seed", "1"],
     "P(condition) = 0.25\nsampled counts (20 shots): {'000': 11, '011': 9}\n"),
    ("psi_file", [], "state has 5 nonzero amplitudes\n  |000> +0.353553391+0.000000000i\n"
     "  |011> -0.353553391+0.000000000i\n  |101> -0.353553391+0.000000000i\n"
     "  |110> -0.353553391+0.000000000i\n  |111> +0.707106781+0.000000000i\n"),
], ids=["state", "condition-x", "empty-condition", "joint-z", "x-shots",
        "psi-y-pair", "psi-condition", "psi-condition-shots", "psi-state"])
def test_simulate_text_lines(capsys, request, instance, args, expected):
    path = request.getfixturevalue(instance)
    assert run(capsys, "simulate", path, *args)[:2] == (0, expected)


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
                        "--sizes", "2..2")
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


@pytest.mark.parametrize("value", [-0.5, 0.5])
def test_catalog_show_keeps_alpha_sign(capsys, value):
    code, out, _ = run(capsys, "catalog", "show", "minimal-psi", "--params", f"alpha={value}")
    payload = json.loads(out)
    assert code == 0
    assert payload["params"] == {"alpha": value}
    assert payload["pcg"]["alpha"] in ({"re": value, "im": 0.0}, {"magnitude": value})


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


@pytest.mark.parametrize("command", ["validate", "check", "verify"])
def test_vertex_count_above_file_ceiling_exit_1_at_once(capsys, tmp_path, command):
    from pcgraph.fileio import MAX_FILE_N

    path = tmp_path / "wide.json"
    path.write_text('{"n": 1000000, "edges": [{"vertices": [1, 2], "theta": 1}, '
                    '{"vertices": [2, 3], "theta": 1}]}')
    assert len(path.read_bytes()) == 93 and MAX_FILE_N < 10 ** 6
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == f"error: n: 1000000 exceeds the ceiling of {MAX_FILE_N} vertices\n"


def test_usage_error_exit_code(capsys):
    assert main(["table"]) == 1  # missing required --max-n
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("argv, prog", [
    (["verify", "{file}", "--tolerance", "0"], "pcgraph"),  # unknown option
    (["search", "--n", "3", "--max-edges", "2", "--workers", "2"], "pcgraph"),
    (["verify"], "pcgraph verify"),  # missing argument
    (["table"], "pcgraph table"),  # missing required option
    (["verify", "{file}", "--lhv-cap", "ten"], "pcgraph verify"),  # bad option value
    (["no-such-command"], "pcgraph"),  # unknown command
    (["catalog", "frob"], "pcgraph catalog"),
], ids=["unknown-option", "unknown-search-option", "missing-argument", "missing-option",
        "bad-value", "unknown-command", "unknown-catalog-action"])
def test_usage_errors_write_one_line(capsys, triangle_file, argv, prog):
    code, out, err = run(capsys, *(a.format(file=triangle_file) for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"{prog}: error: ")


def test_help_still_prints_usage(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0 and err == "" and out.startswith("usage: pcgraph verify [-h] [--json]")


@pytest.mark.parametrize("field, ceiling_name", [
    ("edges", "MAX_FILE_EDGES"), ("b_terms", "MAX_FILE_B_TERMS")])
@pytest.mark.parametrize("command", ["validate", "check", "verify"])
def test_list_one_past_its_ceiling_exit_1_at_once(capsys, tmp_path, command, field, ceiling_name):
    from pcgraph import fileio

    ceiling = getattr(fileio, ceiling_name)
    data = {"n": 3, "edges": [{"vertices": [2, 3], "theta": 1}, {"vertices": [1, 3], "theta": 1},
                              {"vertices": [1, 2], "theta": 1}]}
    item = {"edges": {"vertices": [1, 2], "theta": 1},
            "b_terms": {"vertices": [1, 2, 3], "lambda": {"re": 1.0, "im": 0.0}}}[field]
    data[field] = [item] * (ceiling + 1)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == f"error: {field}: {ceiling + 1} items exceed the ceiling of {ceiling}\n"


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
    from pcgraph import CrossCheckError, build_qudit_family, build_state, x_product_distribution
    from pcgraph.catalog import triangle_pcg

    rows = pcgraph.states._inverse_root_rows

    def corrupted_rows(d):  # every spectral weight comes out times i
        return tuple(tuple(1j * w for w in row) for row in rows(d))

    monkeypatch.setattr(pcgraph.states, "_inverse_root_rows", corrupted_rows)
    with pytest.raises(CrossCheckError, match=r"non-real spectral weight .* over sites \[1, 2\] \(d=2\)"):
        x_product_distribution(build_state(triangle_pcg()), [1, 2])
    with pytest.raises(CrossCheckError, match=r"non-real spectral weight .* over sites \[1, 2, 3\] \(d=3\)"):
        x_product_distribution(build_qudit_family(3), [1, 2, 3])
    for argv in (["simulate", triangle_file, "--observable", "X:1,2"], ["verify", triangle_file]):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.count("\n") == 1
        assert "internal cross-check divergence: non-real spectral weight" in err
        assert "Traceback" not in err


def test_shots_above_ceiling_exit_1(capsys, triangle_file):
    from pcgraph.states import MAX_SHOTS

    code, out, err = run(capsys, "simulate", triangle_file, "--shots", str(MAX_SHOTS + 1))
    assert code == 1 and out == ""
    assert "ceiling" in err and "Traceback" not in err
    code, out, _ = run(capsys, "simulate", triangle_file, "--shots", "5", "--seed", "1", "--json")
    assert code == 0 and sum(json.loads(out)["sampled_counts"].values()) == 5


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_shots_below_one_exit_1(capsys, triangle_file, shots):
    assert run(capsys, "simulate", triangle_file, "--shots", shots) == (
        1, "", "error: shots must be positive\n")


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
        raise AssertionError("census run despite the ceiling")

    monkeypatch.setattr(pcgraph.graph, "census", no_census)
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


def test_lhv_cap_above_ceiling_exit_1_on_a_file_past_the_cap(capsys, tmp_path):
    from pcgraph.catalog import loop_pcg
    from pcgraph.fileio import PcgFile, dump_pcg_file

    path = str(tmp_path / "loop40.json")
    dump_pcg_file(PcgFile(loop_pcg(40)), path)
    code, out, err = run(capsys, "verify", path, "--lhv-cap", "35")
    assert code == 1 and out == ""
    assert err == "error: census cap 35 exceeds the ceiling of 30\n"
    code, out, _ = run(capsys, "verify", path, "--lhv-cap", "30", "--json")
    assert code == 0 and json.loads(out)["lhv_census"] == {"skipped": True}


def test_search_workers_below_one_exit_1(capsys):
    # search runs in one process and has no --workers option at all
    code, out, err = run(capsys, "search", "--n", "3", "--max-edges", "2", "--workers", "2")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --workers 2" in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["-1", "0"])
def test_search_n_below_one_exit_1_naming_n(capsys, n):
    assert run(capsys, "search", "--n", n, "--max-edges", "2") == (
        1, "", f"error: enumeration needs n >= 1, got n = {n}\n")


@pytest.mark.parametrize("argv", [
    ["check", "{psi}", "--tolerance", "nan"],
    ["simulate", "{psi}", "--tolerance", "-5", "--observable", "X:1,2"],
    ["validate", "{psi}", "--tolerance", "0.5"],
    ["table", "--max-n", "4", "--tolerance", "0.5"],
    # the verdict comes from the ranks, so verify takes no tolerance either
    ["verify", "{psi}", "--tolerance", "0"],
    ["verify", "{psi}", "--tolerance", "nan"],
    ["verify", "{psi}", "--tolerance", "-1"],
    ["verify", "{psi}", "--tolerance", "1"],
    ["verify", "{psi}", "--tolerance", "inf"],
])
def test_tolerance_only_on_verify(capsys, psi_file, argv):
    code, out, err = run(capsys, *(a.format(psi=psi_file) for a in argv))
    assert code == 1 and out == ""
    assert "unrecognized arguments: --tolerance" in err and "Traceback" not in err


def test_search_huge_size_range_is_clamped(capsys):
    code, small, _ = run(capsys, "search", "--n", "3", "--max-edges", "2", "--sizes", "1..2")
    assert code == 0
    start = time.perf_counter()
    code, huge, _ = run(capsys, "search", "--n", "3", "--max-edges", "2",
                        "--sizes", f"1..{10 ** 15}")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and huge == small
    code, low, _ = run(capsys, "search", "--n", "3", "--max-edges", "2",
                       f"--sizes=-{10 ** 15}..2")
    assert code == 0 and low == small


def test_shared_parser_gives_fresh_parser_output(capsys, psi_file, triangle_file):
    from pcgraph import cli

    assert cli.build_parser() is not cli.build_parser()
    steps = [
        ["verify", psi_file, "--json"],
        ["verify"],  # usage error: the file is missing
        ["check", triangle_file, "--json"],
        ["--help"],
        ["verify", psi_file, "--json"],
    ]

    def run_steps(fresh):
        results = []
        for argv in steps:
            if fresh:
                cli._shared_parser.cache_clear()
            results.append(run(capsys, *argv))
        return results

    shared = run_steps(fresh=False)
    assert cli._shared_parser() is cli._shared_parser()
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0]
    assert shared[0] == shared[-1]
    assert shared == run_steps(fresh=True)


def test_import_does_not_load_numpy():
    import pcgraph

    src = str(Path(pcgraph.__file__).resolve().parents[1])
    code = "import sys, pcgraph, pcgraph.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["search", "verify"])
def test_reader_closing_early_exits_1_without_a_traceback(tmp_path, command):
    import pcgraph
    from pcgraph.catalog import loop_pcg
    from pcgraph.fileio import PcgFile, dump_pcg_file

    if command == "search":  # about 770 KB of JSON
        argv = ["search", "--n", "5", "--max-edges", "5"]
    else:  # about 510 KB of JSON, far past a pipe's buffer
        path = tmp_path / "loop.json"
        dump_pcg_file(PcgFile(loop_pcg(2000)), path)
        argv = ["verify", str(path), "--json"]
    src = str(Path(pcgraph.__file__).resolve().parents[1])
    code = "import sys; from pcgraph.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_closed_pipe_on_a_stream_without_a_descriptor_exits_1(capsys, monkeypatch):
    from pcgraph import cli

    def closed(*_):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "enumerate_pcgs", closed)
    assert run(capsys, "search", "--n", "4", "--max-edges", "3") == (1, "", "")


def _triangle_with(tmp_path, name, text):
    """An all-red triangle file with extra top-level fields, spelled as raw JSON."""
    path = tmp_path / name
    path.write_text('{"n": 3, "edges": [{"vertices": [2, 3], "theta": 1}, '
                    '{"vertices": [1, 3], "theta": 1}, {"vertices": [1, 2], "theta": 1}]'
                    + text + "}")
    return str(path)


@pytest.mark.parametrize("text, message", [
    (', "b_terms": null', "error: b_terms: expected a list\n"),
    (', "b_terms": 5', "error: b_terms: expected a list\n"),
    (', "b_terms": true', "error: b_terms: expected a list\n"),
    (', "b_terms": 1.5', "error: b_terms: expected a list\n"),
    (', "alpha": {"magnitude": NaN}', "error: alpha.magnitude: expected a finite number\n"),
    (', "alpha": {"magnitude": Infinity}', "error: alpha.magnitude: expected a finite number\n"),
    (', "alpha": {"re": -Infinity, "im": 0}', "error: alpha: re/im must be finite numbers\n"),
    (', "alpha": {"magnitude": 0.5}, "b_terms": [{"vertices": [1, 2, 3], '
     '"lambda": {"re": NaN, "im": 0}}]', "error: b_terms[0].lambda: re/im must be finite numbers\n"),
], ids=["b-null", "b-5", "b-true", "b-1.5", "alpha-nan", "alpha-inf", "re-neg-inf", "lambda-nan"])
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_malformed_numbers_and_lists_exit_1_with_one_line(capsys, tmp_path, command, text, message):
    path = _triangle_with(tmp_path, "bad.json", text)
    assert run(capsys, command, path) == (1, "", message)


@pytest.mark.parametrize("command", ["validate", "check", "simulate", "verify"])
def test_repeated_b_term_vertex_exit_1_with_one_line(capsys, tmp_path, command):
    path = _triangle_with(tmp_path, "repeat.json", ', "alpha": {"magnitude": 0.5}, "b_terms": '
                          '[{"vertices": [1, 1, 2, 3, 3], "lambda": {"re": 1.0, "im": 0.0}}]')
    assert run(capsys, command, path) == (
        1, "", "error: b_terms[0]: b-term (1, 1, 2, 3, 3) repeats a vertex\n")


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_alpha_that_prunes_the_graph_component_exit_2(capsys, tmp_path, command):
    path = _triangle_with(tmp_path, "tiny.json", ', "alpha": {"magnitude": 1e-15}, "b_terms": '
                          '[{"vertices": [1, 2, 3], "lambda": {"re": 1.0, "im": 0.0}}]')
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("validation failure: |alpha|/sqrt(p+1) = 5e-16 is below 1e-15")


@pytest.mark.parametrize("text, message", [
    (', "alpha": {"magnitude": 0.6}, "b_terms": [{"vertices": [1, 2, 3], '
     '"lambda": {"re": 1e200, "im": 0}}]', "b-term weights sum to inf, expected 1"),
    (', "alpha": {"magnitude": 0.6}, "b_terms": [{"vertices": [1, 2, 3], '
     '"lambda": {"re": 1.7e308, "im": 1.7e308}}]', "b-term weights sum to inf, expected 1"),
    (', "alpha": {"re": 1.7e308, "im": 1.7e308}', "|alpha| = inf exceeds 1"),
], ids=["lambda-square-overflows", "lambda-modulus-overflows", "alpha-modulus-overflows"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_finite_numbers_whose_modulus_overflows_exit_2_with_one_line(capsys, tmp_path, command, text, message):
    path = _triangle_with(tmp_path, "huge.json", text)
    assert run(capsys, command, path) == (2, "", f"validation failure: {message}\n")


@pytest.mark.parametrize("argv", [
    ["catalog", "export", "minimal-psi", "-o", "{target}"],
    ["export", "{triangle}", "--dot", "-o", "{target}"],
])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_exits_1_with_one_line(capsys, tmp_path, triangle_file, argv, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    argv = [a.format(target=target, triangle=triangle_file) for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: cannot write {target}: {reason}\n")


def test_success_off_the_formula_exits_3(capsys, monkeypatch, psi_file):
    verify_mod = sys.modules["pcgraph.verify"]
    matching = verify_mod._matching_mask

    def skewed(state, mask, want):
        return {k: a * math.sqrt(1 + 1e-9) for k, a in matching(state, mask, want).items()}

    monkeypatch.setattr(verify_mod, "_matching_mask", skewed)
    code, out, err = run(capsys, "verify", psi_file)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("internal cross-check divergence: instance ")
    assert "simulated success" in err


def test_hardy_probability_off_one_exits_3(capsys, monkeypatch, triangle_file):
    from pcgraph import load_pcg_file, pcg_digest

    verify_mod = sys.modules["pcgraph.verify"]
    real = verify_mod.x_product_distribution

    def skewed(state, sites):
        return {k: p * (1 - 1e-9) for k, p in real(state, sites).items()}

    monkeypatch.setattr(verify_mod, "x_product_distribution", skewed)
    code, out, err = run(capsys, "verify", triangle_file)
    digest = pcg_digest(load_pcg_file(triangle_file).pcg)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith(f"internal cross-check divergence: instance {digest}: Hardy check on edge [2, 3]")


@pytest.mark.parametrize("argv, message", [
    (["loop", "--params", "n=1e400"], "error: n must be an integer, got inf\n"),
    (["loop", "--params", "n=5.9"], "error: n must be an integer, got 5.9\n"),
    (["magic-m4", "--params", "zzz=3"], "error: magic-m4 takes no parameter(s) ['zzz']\n"),
    (["loop", "--params", "n"], "error: --params entry 'n': expected key=value\n"),
    (["loop", "--params", "n=five"], "error: --params 'n=five': value must be a number\n"),
    (["minimal-psi", "--params", "alpha=0.5", "alpha=0.6"],
     "error: --params 'alpha=0.6': key 'alpha' listed twice\n"),
], ids=["overflow", "fraction", "unknown-name", "no-value", "not-a-number", "repeated-key"])
@pytest.mark.parametrize("action", ["show", "export"])
def test_bad_catalog_params_exit_1_with_one_line(capsys, action, argv, message):
    assert run(capsys, "catalog", action, *argv) == (1, "", message)


def test_integral_float_catalog_param_reads_as_integer(capsys):
    assert run(capsys, "catalog", "show", "loop", "--params", "n=5.0") == \
        run(capsys, "catalog", "show", "loop", "--params", "n=5")


@pytest.mark.parametrize("argv, message", [
    (["--condition", "Z1=2"], "condition 'Z1=2': qubit outcomes are +1/1/0 (digit 0) or -1 (digit 1)"),
    (["--condition", "X1=1"], "condition 'X1=1': expected Z<site>=<outcome>"),
    (["--condition", "Za=1"], "condition 'Za=1': bad site index"),
    (["--condition", "Z1=1,,Z1=-1"], "condition 'Z1=-1': site 1 listed twice"),
    (["--observable", "X1,2"], "observable 'X1,2': expected LETTER:site,site,..."),
    (["--observable", "W:1,2"], "observable 'W:1,2': letter must be X, Y, or Z"),
    (["--observable", "X:1,2=+1"], "only Z observables take an =outcome suffix"),
    (["--observable", "X:1,b"], "observable 'X:1,b': bad site list"),
    (["--observable", "X:,"], "observable 'X:,': empty site list"),
    (["--observable", "X:1,1"], "observable 'X:1,1': site 1 listed twice"),
    (["--observable", "Y:2,1,2"], "observable 'Y:2,1,2': site 2 listed twice"),
    (["--observable", "Z:3,3=-1"], "observable 'Z:3,3=-1': site 3 listed twice"),
], ids=["outcome", "letter", "site", "twice", "no-colon", "observable-letter", "x-outcome",
        "site-list", "empty-sites", "x-twice", "y-twice", "z-twice"])
def test_bad_condition_and_observable_exit_1_with_one_line(capsys, triangle_file, argv, message):
    assert run(capsys, "simulate", triangle_file, *argv) == (1, "", f"error: {message}\n")


def test_export_without_a_format_exit_1(capsys, triangle_file):
    assert run(capsys, "export", triangle_file) == (
        1, "", "error: export currently supports --dot only\n")


@pytest.mark.parametrize("sizes", ["2-3", "a..b", "2..3..4"])
def test_bad_sizes_exit_1_with_one_line(capsys, sizes):
    assert run(capsys, "search", "--n", "4", "--max-edges", "3", "--sizes", sizes) == (
        1, "", f"error: --sizes {sizes!r}: expected a..b\n")


def test_verify_text_with_the_census_skipped(capsys, psi_file):
    code, out, _ = run(capsys, "verify", psi_file, "--lhv-cap", "0")
    assert code == 0
    assert out.splitlines()[2] == "classical census: skipped (over cap)"
    assert "(formula 0.125, applicable)" in out and out.endswith("verdict: PARADOX\n")


def test_catalog_show_qudit_and_pps(capsys):
    code, out, _ = run(capsys, "catalog", "show", "qudit", "--params", "d=4")
    payload = json.loads(out)
    assert code == 0 and (payload["kind"], payload["d"], payload["params"]) == ("qudit", 4, {"d": 4})
    assert "pcg" not in payload and "pps" not in payload
    code, out, _ = run(capsys, "catalog", "show", "pps-three-qubit")
    payload = json.loads(out)
    assert code == 0 and payload["kind"] == "pps" and "d" not in payload
    assert payload["pps"] == {"pre": "+--", "post": "010", "checks": [
        {"sites": [1, 2], "sign": 1}, {"sites": [1, 3], "sign": -1}, {"sites": [2, 3], "sign": -1}]}


def test_catalog_export_to_stdout_matches_the_file(capsys, tmp_path):
    path = tmp_path / "psi.json"
    assert run(capsys, "catalog", "export", "minimal-psi", "-o", str(path)) == (0, "", "")
    assert run(capsys, "catalog", "export", "minimal-psi") == (0, path.read_text(), "")


def test_export_dot_to_a_file_matches_stdout(capsys, triangle_file, tmp_path):
    path = tmp_path / "tri.dot"
    code, dot, _ = run(capsys, "export", triangle_file, "--dot")
    assert code == 0 and dot.startswith("graph pcg {")
    assert run(capsys, "export", triangle_file, "--dot", "-o", str(path)) == (0, "", "")
    assert path.read_text() == dot
