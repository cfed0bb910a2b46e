import math

import pytest

from pcgraph import (
    CatalogKeyError,
    PauliWord,
    brute_force_colorings,
    build_state,
    catalog_get,
    catalog_ids,
    is_colorable,
    pps_amplitude,
    project_z,
    qubit_product_state,
    validate,
    verify,
    verify_qudit_family,
    x_product_distribution,
)


def test_catalog_lists_every_entry():
    ids = catalog_ids()
    assert "minimal-triangle" in ids
    assert "magic-m16-tilde" in ids
    assert "qudit" in ids
    assert len(ids) == len(set(ids))


def test_unknown_id_and_bad_params():
    with pytest.raises(CatalogKeyError):
        catalog_get("no-such-entry")
    with pytest.raises(CatalogKeyError):
        catalog_get("loop", {"n": 2})
    with pytest.raises(CatalogKeyError):
        catalog_get("odd-loop-red", {"n": 4})
    with pytest.raises(CatalogKeyError):
        catalog_get("qudit", {"d": 9})
    with pytest.raises(CatalogKeyError):
        catalog_get("minimal-psi", {"alpha": 1.0})
    for value in (5.9, math.inf, math.nan):
        with pytest.raises(CatalogKeyError, match="n must be an integer"):
            catalog_get("loop", {"n": value})
    with pytest.raises(CatalogKeyError, match=r"takes no parameter\(s\) \['zzz'\]"):
        catalog_get("magic-m4", {"zzz": 3})
    with pytest.raises(CatalogKeyError, match=r"\['n'\]"):
        catalog_get("qudit", {"n": 3})
    assert catalog_get("loop", {"n": 5.0}) == catalog_get("loop", {"n": 5})


def test_entries_are_deterministic():
    a = catalog_get("loop", {"n": 6})
    b = catalog_get("loop", {"n": 6})
    assert a.pcg == b.pcg and a.alpha == b.alpha


def test_every_pcg_entry_matches_expectations():
    for entry_id in catalog_ids():
        entry = catalog_get(entry_id)
        if entry.kind != "pcg":
            continue
        assert validate(entry.pcg).ok == entry.expected.valid_pcg, entry_id
        if not entry.expected.valid_pcg:
            assert is_colorable(entry.pcg).colorable == entry.expected.colorable
            continue
        cert = verify(entry.pcg, entry.alpha, entry.b_terms)
        assert cert.colorable == entry.expected.colorable, entry_id
        if entry.expected.basis == "X":
            assert (cert.verdict == "paradox") == entry.expected.paradox, entry_id
        if entry.expected.success_probability is not None:
            assert abs(
                cert.success.simulated - entry.expected.success_probability
            ) < 1e-9, entry_id


def test_magic_square_classifications():
    expectations = {
        "magic-m4": False,
        "magic-m8": False,
        "magic-m9": True,
        "magic-m9-tilde": False,
        "magic-m16": True,
        "magic-m16-tilde": False,
    }
    for entry_id, colorable in expectations.items():
        entry = catalog_get(entry_id)
        decision = is_colorable(entry.pcg)
        census = brute_force_colorings(entry.pcg)
        assert decision.colorable == colorable, entry_id
        assert (census.satisfying > 0) == colorable, entry_id


def test_extended_m16_is_not_a_valid_pcg():
    # the added edge contains both diagonals, so the antichain rule fails
    # and its own conditional product is a coin flip rather than a certainty
    entry = catalog_get("magic-m16-tilde")
    report = validate(entry.pcg)
    nested = [v for v in report.violations if v.kind == "nested-edges"]
    assert len(nested) == 2
    state = build_state(entry.pcg)
    big = entry.pcg.edges[-1]
    _, post = project_z(state, {s: 0 for s in set(range(1, 17)) - set(big.vertices)})
    dist = x_product_distribution(post, big.vertices)
    assert abs(dist[1] - 0.5) < 1e-12


def test_loop_entry_success_values():
    for n, expected in ((3, 0.25), (5, 1 / 6), (7, 1 / 8)):
        entry = catalog_get("loop", {"n": n})
        cert = verify(entry.pcg)
        assert cert.verdict == "paradox"
        assert abs(cert.success.simulated - expected) < 1e-9


def test_minimal_psi_default_alpha():
    entry = catalog_get("minimal-psi")
    assert abs(entry.params["alpha"] - 1 / math.sqrt(2)) < 1e-12
    cert = verify(entry.pcg, entry.alpha, entry.b_terms)
    assert abs(cert.success.simulated - 0.125) < 1e-12


def test_variant_y_entry_restores_paradox_in_y_basis():
    entry = catalog_get("minimal-variant-y")
    cert = verify(entry.pcg)
    assert cert.verdict == "no_paradox" and cert.reason == "colorable"
    state = build_state(entry.pcg)
    for conditioned in (1, 2, 3):
        rest = sorted({1, 2, 3} - {conditioned})
        _, post = project_z(state, {conditioned: 0})
        dist = x_product_distribution(post, rest, basis="Y")
        assert abs(dist[1] - 1.0) < 1e-9  # Y product certainly -1
    assert abs(
        verify(entry.pcg).success.simulated - entry.expected.success_probability
    ) < 1e-9


def test_kind_follows_the_payload():
    kinds = {entry_id: catalog_get(entry_id).kind for entry_id in catalog_ids()}
    assert kinds.pop("qudit") == "qudit" and kinds.pop("pps-three-qubit") == "pps"
    assert set(kinds.values()) == {"pcg"}


def test_qudit_entry():
    entry = catalog_get("qudit", {"d": 3})
    cert = verify_qudit_family(entry.qudit_d)
    assert cert.verdict == "paradox"
    assert abs(cert.joint_simulated - entry.expected.success_probability) < 1e-9


def test_pps_entry_checks_vanish():
    entry = catalog_get("pps-three-qubit")
    pre = qubit_product_state(entry.pps.pre_spec)
    post = qubit_product_state(entry.pps.post_spec)
    for check in entry.pps.checks:
        word = PauliWord.from_sites(3, {check.sites[0]: "Y", check.sites[1]: "Y"})
        assert abs(pps_amplitude(pre, post, word, check.sign)) < 1e-12


def test_map_entry_equals_grid_structure():
    assert catalog_get("map-four-regions").pcg.edges == catalog_get("magic-m4").pcg.edges
