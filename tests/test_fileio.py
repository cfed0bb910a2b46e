import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import (
    BTerm,
    PcgFile,
    PcgFileError,
    catalog_get,
    catalog_ids,
    dump_pcg_file,
    from_json_dict,
    load_pcg_file,
    to_dot,
    to_json_dict,
)
from pcgraph.catalog import magic_m9_pcg, triangle_pcg
from pcgraph.fileio import indented_json
from pcgraph.search import canonical_form


def test_round_trip_identity_for_catalog_entries(tmp_path):
    for entry_id in catalog_ids():
        entry = catalog_get(entry_id)
        if entry.kind != "pcg":
            continue
        instance = PcgFile(pcg=entry.pcg, alpha=complex(entry.alpha), b_terms=entry.b_terms)
        path = tmp_path / f"{entry_id}.json"
        dump_pcg_file(instance, path)
        assert json.loads(path.read_text())["d"] == 2
        loaded = load_pcg_file(path)
        assert loaded.pcg == instance.pcg
        if instance.pcg.n <= 6:  # canonical minimization is factorial in n
            assert canonical_form(loaded.pcg) == canonical_form(instance.pcg)
        assert abs(loaded.alpha - instance.alpha) < 1e-15
        assert loaded.b_terms == instance.b_terms


def test_round_trip_preserves_complex_alpha():
    instance = PcgFile(pcg=triangle_pcg(), alpha=complex(0.5, 0.5),
                       b_terms=(BTerm((1, 2, 3), 1j),))
    data = to_json_dict(instance)
    loaded = from_json_dict(json.loads(json.dumps(data)))
    assert loaded.alpha == complex(0.5, 0.5)
    assert loaded.b_terms[0].lam == 1j


def test_unknown_fields_rejected():
    with pytest.raises(PcgFileError, match="unknown"):
        from_json_dict({"n": 3, "edges": [], "color": "blue"})
    with pytest.raises(PcgFileError, match=r"edges\[0\]"):
        from_json_dict({"n": 3, "edges": [{"vertices": [1, 2], "theta": 1, "x": 0}]})


def test_schema_errors_name_the_field():
    with pytest.raises(PcgFileError, match="theta"):
        from_json_dict({"n": 3, "edges": [{"vertices": [1, 2], "theta": 2}]})
    with pytest.raises(PcgFileError, match="theta"):
        from_json_dict({"n": 3, "edges": [{"vertices": [1, 2], "theta": 1.0}]})
    with pytest.raises(PcgFileError, match="vertices"):
        from_json_dict({"n": 3, "edges": [{"vertices": "12", "theta": 1}]})
    with pytest.raises(PcgFileError, match="n:"):
        from_json_dict({"n": 0, "edges": []})
    with pytest.raises(PcgFileError, match="exceeds vertex count"):
        from_json_dict({"n": 2, "edges": [{"vertices": [1, 5], "theta": 1}]})
    with pytest.raises(PcgFileError, match=r"^edges\[0\]: missing field\(s\) \['theta'\]$"):
        from_json_dict({"n": 3, "edges": [{"vertices": [1, 2]}]})
    with pytest.raises(PcgFileError, match=r"^edges\[0\]: edge \(1, 1\) repeats a vertex$"):
        from_json_dict({"n": 3, "edges": [{"vertices": [1, 1], "theta": 1}]})
    with pytest.raises(PcgFileError, match=r"^b_terms\[1\]: b-term \(1, 1, 2, 3, 3\) repeats a vertex$"):
        from_json_dict({"n": 3, "edges": [], "b_terms": [
            {"vertices": [1, 2], "lambda": {"re": 1.0, "im": 0.0}},
            {"vertices": [1, 1, 2, 3, 3], "lambda": {"re": 1.0, "im": 0.0}}]})
    with pytest.raises(PcgFileError, match=r"^b_terms\[0\]: expected an object$"):
        from_json_dict({"n": 3, "edges": [], "b_terms": [[1, 2, 3]]})
    with pytest.raises(PcgFileError, match="^top level: expected a JSON object$"):
        from_json_dict([{"n": 3, "edges": []}])


BOOL_BASE = {"n": 3, "edges": [{"vertices": [1, 2], "theta": 1},
                               {"vertices": [2, 3], "theta": 1}]}


@pytest.mark.parametrize("slot, data", [
    ("n:", {**BOOL_BASE, "n": True}),
    ("d:", {**BOOL_BASE, "d": True}),
    (r"edges\[0\]\.vertices", {**BOOL_BASE, "edges": [{"vertices": [True, 2], "theta": 1}]}),
    (r"edges\[1\]\.theta", {**BOOL_BASE, "edges": [{"vertices": [1, 2], "theta": 1},
                                                    {"vertices": [2, 3], "theta": True}]}),
    (r"b_terms\[0\]\.vertices", {**BOOL_BASE, "alpha": {"magnitude": 0.5},
                                  "b_terms": [{"vertices": [1, True, 3],
                                               "lambda": {"re": 1.0, "im": 0.0}}]}),
    (r"b_terms\[0\]\.lambda", {**BOOL_BASE, "alpha": {"magnitude": 0.5},
                                "b_terms": [{"vertices": [1, 2, 3],
                                             "lambda": {"re": True, "im": 0.0}}]}),
    (r"b_terms\[0\]\.lambda", {**BOOL_BASE, "alpha": {"magnitude": 0.5},
                                "b_terms": [{"vertices": [1, 2, 3],
                                             "lambda": {"re": 1.0, "im": False}}]}),
    ("alpha:", {**BOOL_BASE, "alpha": {"re": True, "im": 0.0}}),
    ("alpha:", {**BOOL_BASE, "alpha": {"re": 1.0, "im": False}}),
    (r"alpha\.magnitude", {**BOOL_BASE, "alpha": {"magnitude": True}}),
])
def test_booleans_rejected_where_numbers_are_expected(slot, data):
    # JSON true is a Python int; read as 1 it would change the pcg digest
    with pytest.raises(PcgFileError, match=slot):
        from_json_dict(data)


@pytest.mark.parametrize("field", ["edges", "b_terms"])
@pytest.mark.parametrize("value", [None, 5, True, 1.5, {"vertices": [1, 2]}])
def test_vertex_lists_must_be_lists(field, value):
    with pytest.raises(PcgFileError, match=f"^{field}: expected a list$"):
        from_json_dict({**BOOL_BASE, field: value})


@pytest.mark.parametrize("slot, alpha, lam", [
    (r"alpha\.magnitude", {"magnitude": math.nan}, None),
    (r"alpha\.magnitude", {"magnitude": math.inf}, None),
    (r"alpha\.magnitude", {"magnitude": 10 ** 400}, None),
    ("alpha:", {"re": -math.inf, "im": 0.0}, None),
    ("alpha:", {"re": 0.5, "im": math.nan}, None),
    (r"b_terms\[0\]\.lambda", {"magnitude": 0.5}, {"re": math.nan, "im": 0.0}),
    (r"b_terms\[0\]\.lambda", {"magnitude": 0.5}, {"re": 1.0, "im": -10 ** 400}),
], ids=["magnitude-nan", "magnitude-inf", "magnitude-huge-int", "re-neg-inf", "im-nan",
        "lambda-nan", "lambda-huge-int"])
def test_non_finite_numbers_rejected(slot, alpha, lam):
    # json.loads reads NaN, Infinity and -Infinity, and integers of any size
    data = {**BOOL_BASE, "alpha": alpha}
    if lam is not None:
        data["b_terms"] = [{"vertices": [1, 2, 3], "lambda": lam}]
    with pytest.raises(PcgFileError, match=f"^{slot}.*finite"):
        from_json_dict(json.loads(json.dumps(data)))


def test_qudit_dimension_rejected_in_files():
    with pytest.raises(PcgFileError, match="catalog"):
        from_json_dict({"n": 3, "d": 3, "edges": [{"vertices": [1, 2], "theta": 1}]})


def test_vertex_count_ceiling_is_checked_before_any_graph(monkeypatch):
    from pcgraph import fileio

    def no_graph(*args, **kwargs):
        raise AssertionError("graph built despite the ceiling")

    monkeypatch.setattr(fileio, "PCG", no_graph)
    monkeypatch.setattr(fileio, "SignedEdge", no_graph)
    edges = [{"vertices": [1, 2], "theta": 1}, {"vertices": [2, 3], "theta": 1}]
    for n in (fileio.MAX_FILE_N + 1, 10 ** 12):
        with pytest.raises(PcgFileError, match=f"n: {n} exceeds the ceiling of {fileio.MAX_FILE_N}"):
            from_json_dict({"n": n, "edges": edges})
    monkeypatch.undo()
    at_ceiling = from_json_dict({"n": fileio.MAX_FILE_N, "edges": edges})
    assert at_ceiling.pcg.n == fileio.MAX_FILE_N


def test_list_length_ceilings_are_checked_before_any_item(monkeypatch):
    from pcgraph import fileio

    def no_item(*args, **kwargs):
        raise AssertionError("item built despite the ceiling")

    pair = {"vertices": [1, 2], "theta": 1}
    term = {"vertices": [1, 2, 3], "lambda": {"re": 1.0, "im": 0.0}}
    triangle = [{"vertices": [2, 3], "theta": 1}, {"vertices": [1, 3], "theta": 1}, pair]
    monkeypatch.setattr(fileio, "SignedEdge", no_item)
    over = fileio.MAX_FILE_EDGES + 1
    with pytest.raises(PcgFileError, match=f"edges: {over} items exceed the ceiling of {over - 1}$"):
        from_json_dict({"n": 3, "edges": [pair] * over})
    monkeypatch.undo()
    monkeypatch.setattr(fileio, "BTerm", no_item)
    over = fileio.MAX_FILE_B_TERMS + 1
    with pytest.raises(PcgFileError, match=f"b_terms: {over} items exceed the ceiling of {over - 1}$"):
        from_json_dict({"n": 3, "edges": triangle, "b_terms": [term] * over})
    monkeypatch.undo()
    # a loop at the vertex ceiling fits, and so does a full list of b-terms
    n = fileio.MAX_FILE_N
    loop = [{"vertices": [v, v % n + 1], "theta": 1} for v in range(1, n + 1)]
    assert fileio.MAX_FILE_EDGES >= n
    assert from_json_dict({"n": n, "edges": loop[:fileio.MAX_FILE_EDGES]}).pcg.p == n
    full = from_json_dict({"n": 3, "edges": triangle, "b_terms": [term] * fileio.MAX_FILE_B_TERMS})
    assert len(full.b_terms) == fileio.MAX_FILE_B_TERMS


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3,\n  "edges": [}')
    with pytest.raises(PcgFileError, match="line 2"):
        load_pcg_file(path)


def test_alpha_spellings():
    base = {"n": 3, "edges": [{"vertices": [1, 2], "theta": 1},
                              {"vertices": [2, 3], "theta": 1}]}
    assert from_json_dict({**base, "alpha": {"magnitude": 0.5}}).alpha == 0.5
    assert from_json_dict({**base, "alpha": {"re": 0.0, "im": 0.5}}).alpha == 0.5j
    with pytest.raises(PcgFileError):
        from_json_dict({**base, "alpha": 0.5})


def test_dot_pair_edges_are_styled_lines():
    dot = to_dot(triangle_pcg())
    assert dot.startswith("graph pcg {")
    assert 'v1 [label="1"]' in dot
    assert "v2 -- v3 [color=red, penwidth=2];" in dot
    assert "shape=square" not in dot


def test_dot_hyperedges_use_junction_nodes():
    dot = to_dot(magic_m9_pcg())
    assert dot.count("shape=square") == 8  # one junction per size-3 edge
    assert "e0 -- v1 [color=red];" in dot
    green = to_dot(triangle_pcg(-1))
    assert "color=green" in green and "color=red" not in green


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
    | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text() | st.sampled_from(["\x00\x1f\x7f", "\u00e9\u2713\U0001d11e", '"\\/\n\t\r\b\f'])
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_indented_json_matches_stdlib(value):
    assert indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_indented_json_refuses_what_it_cannot_write():
    for value in ({1, 2}, {1: "int key"}, 1j):
        with pytest.raises(TypeError):
            indented_json(value)
