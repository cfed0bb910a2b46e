import json

import pytest

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
from pcgraph.search import canonical_form


def test_round_trip_identity_for_catalog_entries(tmp_path):
    for entry_id in catalog_ids():
        entry = catalog_get(entry_id)
        if entry.kind != "pcg":
            continue
        instance = PcgFile(pcg=entry.pcg, alpha=complex(entry.alpha), b_terms=entry.b_terms)
        path = tmp_path / f"{entry_id}.json"
        dump_pcg_file(instance, path)
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


def test_qudit_dimension_rejected_in_files():
    with pytest.raises(PcgFileError, match="catalog"):
        from_json_dict({"n": 3, "d": 3, "edges": [{"vertices": [1, 2], "theta": 1}]})


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
