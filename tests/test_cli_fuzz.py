"""Fuzz the CLI's exit-code contract with Hypothesis.

Generated command lines run over generated instance files.  The files
mix valid graphs with wrong types, negative and huge numbers, empty
lists, duplicate edges, unknown keys and b-terms that break the
complement rule.  Every case must exit 0, 1, 2 or 3, let no exception
escape ``cli.main`` (it would reach the user as a traceback) and finish
quickly.  Every case is small: large values are there to meet the input
ceilings, not to do large work.
"""
import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pcgraph.cli import main

CASE_SECONDS = 5.0
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

NUMBERS = st.one_of(
    st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308, 1e-15, 0.5, -0.5, 0.6, 0.8,
                     2 ** 70, -(2 ** 70), math.nan, math.inf]),
    st.integers(-3, 6),
)
JUNK = st.sampled_from([None, True, "1", [], {}, 1.5, [1, 2]])
COMPLEX = st.one_of(
    st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS}),
    st.fixed_dictionaries({"magnitude": NUMBERS}),
    st.fixed_dictionaries({"re": NUMBERS, "im": NUMBERS}, optional={"phase": NUMBERS}),
    JUNK,
)
# Parseable state parameters for valid graphs, so that the checks past
# validation see finite values whose modulus, or its square, overflows.
ALPHAS = st.sampled_from([None, {"magnitude": 0.6}, {"magnitude": 1e-15}, {"magnitude": 2},
                          {"re": 1.7e308, "im": 1.7e308}, {"re": -1e200, "im": 0},
                          {"re": 0.6, "im": -0.0}])
LAMBDAS = st.sampled_from([{"re": 1, "im": 0}, {"re": 0.6, "im": 0.8}, {"re": 2, "im": 0},
                           {"re": 1e200, "im": 0}, {"re": 1.7e308, "im": -1.7e308}])
VERTEX_LISTS = st.lists(st.integers(-1, 6) | st.sampled_from([10 ** 20, "2", 1.0]), max_size=5)
THETAS = st.sampled_from([1, -1, 0, 2, "1", None, 1.0, True])
VALID_EDGE_SETS = [[[2, 3], [1, 3], [1, 2]], [[1, 2], [2, 3], [3, 4], [1, 4]],
                   [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]]


@st.composite
def valid_graphs(draw):
    edge_set = draw(st.sampled_from(VALID_EDGE_SETS))
    return {"n": max(map(max, edge_set)),
            "edges": [{"vertices": v, "theta": draw(st.sampled_from([1, -1]))} for v in edge_set]}


@st.composite
def states(draw):
    """A valid graph with generated alpha and b-terms: one over every vertex
    (it meets each edge's complement), or generated ones that may not."""
    data = draw(valid_graphs())
    alpha = draw(ALPHAS)
    if alpha is not None:
        data["alpha"] = alpha
    kind = draw(st.sampled_from(["full", "full", "none", "inside-edge", "generated"]))
    if kind == "full":
        data["b_terms"] = [{"vertices": list(range(1, data["n"] + 1)), "lambda": draw(LAMBDAS)}]
    elif kind == "inside-edge":
        data["b_terms"] = [{"vertices": [1, 2], "lambda": draw(LAMBDAS)}]
    elif kind == "generated":
        data["b_terms"] = draw(st.lists(st.fixed_dictionaries(
            {"vertices": VERTEX_LISTS, "lambda": COMPLEX}), max_size=3))
    return data


@st.composite
def mutated_graphs(draw):
    """A valid or arbitrary graph with up to two fields broken."""
    if draw(st.booleans()):
        data = draw(valid_graphs())
    else:
        data = {"n": draw(st.integers(-2, 6) | st.sampled_from([10 ** 6, 2 ** 70, 1.5, "3", None])),
                "edges": draw(st.lists(st.fixed_dictionaries(
                    {"vertices": VERTEX_LISTS, "theta": THETAS}), max_size=6) | JUNK)}
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(["alpha", "b_terms", "d", "unknown", "drop", "duplicate", "empty"]))
        if mutation == "alpha":
            data["alpha"] = draw(COMPLEX)
        elif mutation == "b_terms":
            data["b_terms"] = draw(st.lists(st.fixed_dictionaries(
                {"vertices": VERTEX_LISTS, "lambda": COMPLEX}), max_size=3) | JUNK)
        elif mutation == "d":
            data["d"] = draw(NUMBERS | JUNK)
        elif mutation == "unknown":
            data[draw(st.sampled_from(["extra", "theta", "vertices", "N"]))] = draw(NUMBERS)
        elif mutation == "drop":
            data.pop(draw(st.sampled_from(["n", "edges"])), None)
        elif mutation == "duplicate" and isinstance(data.get("edges"), list) and data["edges"]:
            data["edges"].append(data["edges"][0])
        elif mutation == "empty":
            data[draw(st.sampled_from(["edges", "b_terms"]))] = []
    return data


INTS = st.integers(-3, 5).map(str) | st.sampled_from(["99999999999999999999", "-7", "x", "1.5"])
SITE_LISTS = st.sampled_from(["1,2", "1,2,3", "2,3", "1", "1,1", "0,9", "", "a"])


@st.composite
def file_argvs(draw, path: str, out: str):
    """A command on an instance file, with some of its options."""
    command = draw(st.sampled_from(["validate", "check", "simulate", "verify", "export"]))
    options = [] if command == "export" else [["--json"]]
    if command == "simulate":
        options += [["--condition", f"Z{draw(st.sampled_from('1290'))}="
                     + draw(st.sampled_from(["1", "-1", "+1", "0", "2", "x"]))],
                    ["--observable", draw(st.sampled_from(["X:", "Y:", "Z:", "W:"]))
                     + draw(SITE_LISTS) + draw(st.sampled_from(["", "=+1", "=-1", "=3"]))],
                    ["--shots", draw(INTS)], ["--seed", draw(INTS)]]
    elif command == "verify":
        options += [["--lhv-cap", draw(INTS | st.sampled_from(["30", "31"]))]]
    elif command == "export":
        options += [["--dot"], ["-o", out]]
    return [command, path, *(a for option in options if draw(st.booleans()) for a in option)]


@st.composite
def other_argvs(draw, workdir: str, file: str):
    """A command that reads no instance file, or one whose input (beside the
    valid ``file``) cannot be read or whose output cannot be written."""
    command = draw(st.sampled_from(["table", "search", "catalog", "paths", "junk"]))
    argv, options = [command], []
    if command == "table":
        argv += ["--max-n", draw(INTS)]
        options = [["--simulate"], ["--json"]]
    elif command == "search":
        argv += ["--n", draw(INTS), "--max-edges", draw(INTS)]
        options = [["--sizes", draw(st.sampled_from(["1..2", "2..9", "5..1", "a..b", "-9..99"]))],
                   ["--irreducible-only"]]
    elif command == "catalog":
        action = draw(st.sampled_from(["list", "show", "export"]))
        argv.append(action)
        if action != "list":
            argv.append(draw(st.sampled_from(["minimal-psi", "loop", "qudit", "odd-loop-red",
                                              "pps-three-qubit", "nope"])))
            options = [["--params", *draw(st.lists(st.sampled_from(
                ["n=4", "n=-1", "n=1e300", "n=inf", "d=3", "d=99", "alpha=0.5", "alpha=nan",
                 "alpha=1e308", "x", "n=1.5"]), max_size=2))]]
    elif command == "paths":
        unreadable = draw(st.sampled_from([workdir, str(Path(workdir) / "missing.json")]))
        unwritable = draw(st.sampled_from([workdir, str(Path(workdir) / "missing" / "out.txt")]))
        argv = draw(st.sampled_from([
            ["validate", unreadable], ["verify", unreadable], ["export", unreadable, "--dot"],
            ["export", file, "--dot", "-o", unwritable],
            ["catalog", "export", "minimal-psi", "-o", unwritable],
        ]))
    argv += [a for option in options if draw(st.booleans()) for a in option]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--tolerance"])))
    return argv


def _run_within_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping here is a traceback for the user
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < CASE_SECONDS, (argv, elapsed)


def _write_instance(workdir: str, instance) -> str:
    path = Path(workdir) / "instance.json"
    path.write_text(json.dumps(instance))
    return str(path)


@FUZZ
@given(states(), st.sampled_from(["verify", "simulate"]), st.booleans())
def test_cli_main_keeps_its_exit_code_contract_on_generated_states(instance, command, as_json):
    with tempfile.TemporaryDirectory() as workdir:
        _run_within_contract([command, _write_instance(workdir, instance)] + ["--json"] * as_json)


@FUZZ
@given(mutated_graphs(), st.data())
def test_cli_main_keeps_its_exit_code_contract_on_broken_instance_files(instance, data):
    with tempfile.TemporaryDirectory() as workdir:
        path = _write_instance(workdir, instance)
        _run_within_contract(data.draw(file_argvs(path, str(Path(workdir) / "out.dot"))))


@FUZZ
@given(st.data())
def test_cli_main_keeps_its_exit_code_contract_on_other_argv(data):
    with tempfile.TemporaryDirectory() as workdir:
        triangle = {"n": 3, "edges": [{"vertices": v, "theta": 1} for v in VALID_EDGE_SETS[0]]}
        _run_within_contract(data.draw(other_argvs(workdir, _write_instance(workdir, triangle))))
