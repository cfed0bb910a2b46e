import cmath
import functools
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import (
    BTerm,
    PCG,
    ColorabilityResult,
    Coloring,
    ColoringCensus,
    PcgValidationError,
    ResourceLimitError,
    StateConditionError,
    classify,
    enumerate_pcgs,
    pcg_digest,
    success_table,
    validate,
    verify,
    verify_qudit_family,
)
from pcgraph import catalog, graph
from pcgraph.catalog import loop_pcg, magic_m9_pcg, odd_red_loop_pcg, triangle_pcg
from pcgraph.errors import CrossCheckError
from pcgraph.graph import census

from _oracles import (
    grid_qudit_census,
    itertools_qudit_census,
    per_site_hardy_records,
    random_b_terms,
    random_valid_pcg,
)

verify_mod = sys.modules["pcgraph.verify"]  # the package re-exports the function as `verify`

SQ2 = 1 / math.sqrt(2)


def test_minimal_certificate():
    cert = verify(triangle_pcg(), SQ2, [BTerm((1, 2, 3), 1.0)])
    assert cert.verdict == "paradox" and cert.reason is None
    assert (cert.rank_a, cert.rank_b) == (2, 3)
    assert (cert.census_total, cert.census_satisfying) == (8, 0)
    assert len(cert.hardy_checks) == 3
    for check in cert.hardy_checks:
        assert check.required == -1
        assert abs(check.probability - 1.0) < 1e-9
    assert cert.success.sites == (1, 2, 3)
    assert abs(cert.success.simulated - 0.125) < 1e-12
    assert abs(cert.success.formula - 0.125) < 1e-12
    assert cert.to_json_dict()["success"]["formula_applicable"] is True


def test_certificate_deterministic():
    args = (triangle_pcg(), SQ2, (BTerm((1, 2, 3), 1.0),))
    assert verify(*args).to_json_dict() == verify(*args).to_json_dict()


def test_digest_depends_on_structure():
    assert pcg_digest(triangle_pcg()) == pcg_digest(triangle_pcg())
    assert pcg_digest(triangle_pcg()) != pcg_digest(triangle_pcg(-1))


def test_magic_m9_no_paradox_but_certainties_hold():
    cert = verify(magic_m9_pcg())
    assert cert.verdict == "no_paradox"
    assert cert.reason == "colorable"
    assert cert.colorable and cert.witness is not None
    assert cert.witness.satisfies(magic_m9_pcg())
    assert len(cert.hardy_checks) == 8
    assert all(abs(c.probability - 1.0) < 1e-9 for c in cert.hardy_checks)
    assert cert.census_satisfying > 0


def test_loop7_success_probability():
    cert = verify(loop_pcg(7))
    assert cert.verdict == "paradox"
    assert abs(cert.success.simulated - 1 / 8) < 1e-9
    assert abs(cert.success.formula - 1 / 8) < 1e-12


def test_verify_rejects_invalid_graph():
    with pytest.raises(PcgValidationError):
        verify(PCG.build(3, [((1, 2), +1)]))


def test_census_skipped_above_cap():
    cert = verify(loop_pcg(6), lhv_cap=5)
    assert cert.census_skipped
    assert cert.census_total is None and cert.census_satisfying is None
    assert cert.verdict == "paradox"  # ranks + simulation still decide
    assert cert.to_json_dict()["lhv_census"] == {"skipped": True}


def test_lhv_cap_above_ceiling_refused_even_where_the_census_is_skipped(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work done despite the ceiling")

    monkeypatch.setattr(verify_mod, "require_valid", no_work)
    for pcg in (loop_pcg(40), triangle_pcg()):
        with pytest.raises(ResourceLimitError, match="census cap 31 exceeds the ceiling of 30"):
            verify(pcg, lhv_cap=graph.MAX_CENSUS_CAP + 1)


def test_global_phase_invariance():
    base = verify(triangle_pcg(), SQ2, [BTerm((1, 2, 3), 1.0)])
    for phi in (0.3, 1.7, 4.1):
        rotated = verify(
            triangle_pcg(), SQ2 * cmath.exp(1j * phi), [BTerm((1, 2, 3), 1.0)]
        )
        assert rotated.verdict == base.verdict
        assert abs(rotated.success.simulated - base.success.simulated) < 1e-12
        assert abs(rotated.success.formula - base.success.formula) < 1e-12
        for a, b in zip(rotated.hardy_checks, base.hardy_checks):
            assert abs(a.probability - b.probability) < 1e-12


def test_inequality_form_holds_for_paradox_verdicts():
    for pcg in (triangle_pcg(), loop_pcg(5)):
        cert = verify(pcg)
        assert cert.verdict == "paradox"
        assert cert.success.simulated > 0  # quantum event has positive probability
        assert cert.census_satisfying == 0  # classical event intersection is empty


def _assert_matches_per_site_loop(pcg, alpha=1.0, b_terms=()):
    cert = verify(pcg, alpha, b_terms, lhv_cap=0)
    probabilities, union, success = per_site_hardy_records(pcg, alpha, b_terms)
    assert [c.edge for c in cert.hardy_checks] == [e.vertices for e in pcg.edges]
    assert all(abs(c.probability - p) <= 1e-12 for c, p in zip(cert.hardy_checks, probabilities))
    assert cert.success.sites == union
    assert abs(cert.success.simulated - success) <= 1e-12


def test_mask_conditioning_matches_per_site_loop_on_random_graphs():
    rng = random.Random(61)
    for _ in range(60):
        pcg = random_valid_pcg(rng, max_n=8, max_edges=6)
        b_terms = random_b_terms(rng, pcg)
        alpha = cmath.exp(1j * rng.random()) * (0.6 if b_terms else 1.0)
        _assert_matches_per_site_loop(pcg, alpha, b_terms)


def test_mask_conditioning_matches_per_site_loop_on_b_term_catalog_entries():
    entries = [catalog.get(i) for i in catalog.catalog_ids()]
    entries += [catalog.get("minimal-psi", {"alpha": a}) for a in (0.2, 0.9j, cmath.exp(2j) / 2)]
    with_b_terms = [e for e in entries if e.kind == "pcg" and e.b_terms and validate(e.pcg).ok]
    assert len(with_b_terms) >= 4
    for entry in with_b_terms:
        _assert_matches_per_site_loop(entry.pcg, entry.alpha, entry.b_terms)


@pytest.mark.parametrize("pcg", [loop_pcg(1000), odd_red_loop_pcg(999)], ids=["loop", "odd-red"])
def test_wide_loops_certify_as_paradoxes(pcg):
    cert = verify(pcg, lhv_cap=0)
    assert cert.verdict == "paradox" and cert.census_skipped
    assert len(cert.hardy_checks) == pcg.p
    assert all(abs(c.probability - 1.0) <= 1e-9 for c in cert.hardy_checks)
    assert abs(cert.success.simulated - 1 / (pcg.p + 1)) <= 1e-12
    assert cert.success.sites == tuple(range(1, pcg.n + 1))
    assert cert.rank_b == cert.rank_a + 1 == pcg.n


def _blown_up_triangle(n: int) -> PCG:
    """Three red edges A∪B, B∪C and A∪C over a partition of 1..n into three parts."""
    parts = [list(range(1, n + 1))[k::3] for k in range(3)]
    return PCG.build(n, [(parts[a] + parts[b], 1) for a, b in ((0, 1), (1, 2), (0, 2))])


def _clique_line_graph(p: int, red: int) -> PCG:
    """The line graph of K_p: a vertex per pair of K_p's vertices, and an edge per
    vertex of K_p holding the p - 1 pairs through it; the first ``red`` edges are red."""
    pairs = list(itertools.combinations(range(p), 2))
    return PCG.build(len(pairs), [([k + 1 for k, pair in enumerate(pairs) if i in pair],
                                   1 if i < red else -1) for i in range(p)])


@pytest.mark.parametrize("pcg", [_blown_up_triangle(n) for n in range(4, 10)]
                         + [_clique_line_graph(p, red) for p, red in ((4, 1), (5, 3), (6, 5), (7, 7))],
                         ids=[f"triangle-{n}" for n in range(4, 10)]
                         + [f"clique-line-{p}" for p in range(4, 8)])
def test_success_frontier_families_certify_through_every_channel(pcg):
    cert = verify(pcg)
    assert cert.verdict == "paradox" and cert.rank_b == cert.rank_a + 1
    assert (cert.census_total, cert.census_satisfying) == (2 ** pcg.n, 0)
    assert len(cert.hardy_checks) == pcg.p
    assert all(abs(c.probability - 1.0) <= 1e-12 for c in cert.hardy_checks)
    # the triangle reaches 1/4 at every n; the line graph of K_p gives 1/(p+1) at n = C(p, 2)
    assert abs(cert.success.simulated - 1 / (pcg.p + 1)) <= 1e-12


@pytest.mark.parametrize("pcg", [triangle_pcg(), loop_pcg(40), odd_red_loop_pcg(41), magic_m9_pcg()],
                         ids=["triangle", "loop", "odd-red", "magic-m9"])
def test_hardy_loop_conditions_and_measures_once_per_edge(monkeypatch, pcg):
    calls = {"project_z": 0, "x_product_distribution": 0, "joint_z_probability": 0}

    def spy(name):
        real = getattr(verify_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(verify_mod, name, spy(name))
    cert = verify(pcg)
    assert calls == {"project_z": pcg.p, "x_product_distribution": pcg.p, "joint_z_probability": 0}
    assert len(cert.hardy_checks) == pcg.p


@functools.cache
def _forms_and_catalog_graphs() -> tuple[tuple[PCG, ...], tuple[PCG, ...]]:
    entries = (catalog.get(i) for i in catalog.catalog_ids())
    graphs = tuple(e.pcg for e in entries if e.pcg is not None and validate(e.pcg).ok)
    return tuple(enumerate_pcgs(5, 5)), graphs


@st.composite
def relabelled_instances(draw):
    """An instance, and the same one with its vertices relabelled and its edges reordered.

    The graph is an enumerated (5, 5) form or a valid catalog graph; half
    the draws take |alpha| < 1 with one admissible b-term.
    """
    forms, graphs = _forms_and_catalog_graphs()
    pcg = draw(st.one_of(st.sampled_from(forms), st.sampled_from(graphs)))
    images = draw(st.permutations(range(1, pcg.n + 1)))
    relabel = dict(zip(range(1, pcg.n + 1), images))
    order = draw(st.permutations(pcg.edges))
    moved = PCG.build(pcg.n, [([relabel[v] for v in e.vertices], e.theta) for e in order])
    alpha, b_terms, moved_b_terms = 1.0, [], []
    if draw(st.booleans()):
        alpha = draw(st.floats(0.05, 0.95)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
        vertices = draw(st.sets(st.integers(1, pcg.n), min_size=1))
        if any(vertices <= set(e.vertices) for e in pcg.edges):
            vertices = set(range(1, pcg.n + 1))  # the full set lies inside no edge
        lam = cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
        b_terms = [BTerm(tuple(vertices), lam)]
        moved_b_terms = [BTerm(tuple(relabel[v] for v in vertices), lam)]
    return (pcg, b_terms), (moved, moved_b_terms), alpha, relabel


@settings(max_examples=150, deadline=None)
@given(relabelled_instances())
def test_certificate_is_invariant_under_relabelling_and_edge_order(instances):
    (pcg, b_terms), (moved, moved_b_terms), alpha, relabel = instances
    base = verify(pcg, alpha, b_terms)
    cert = verify(moved, alpha, moved_b_terms)
    assert (cert.verdict, cert.rank_a, cert.rank_b) == (base.verdict, base.rank_a, base.rank_b)
    assert (cert.census_total, cert.census_satisfying) == (base.census_total, base.census_satisfying)
    # edge by edge through the relabelling, which also pins the sorted probabilities
    expected = {tuple(sorted(relabel[v] for v in c.edge)): c.probability for c in base.hardy_checks}
    assert len(cert.hardy_checks) == len(expected)
    for check in cert.hardy_checks:
        assert abs(check.probability - expected[check.edge]) <= 1e-12
    assert abs(cert.success.simulated - base.success.simulated) <= 1e-12
    assert set(cert.success.sites) == {relabel[v] for v in base.success.sites}


# --- success table -----------------------------------------------------------

def test_table_first_rows():
    rows = success_table(4)
    r3, r4 = rows
    assert (r3.n, r3.p_loop, r3.p_generalized, r3.p_standard) == (3, 0.25, 0.25, 0.125)
    assert r4.n == 4
    assert abs(r4.p_loop - 0.2) < 1e-15
    assert abs(r4.p_generalized - 0.125) < 1e-15
    assert abs(r4.p_standard - 3 / 32) < 1e-15


def test_table_ordering_and_simulation():
    rows = success_table(50)
    assert [r.n for r in rows] == list(range(3, 51))
    for row in rows:
        assert row.p_loop >= row.p_generalized > row.p_standard
        if row.n == 3:
            assert abs(row.p_loop - row.p_generalized) < 1e-15
        else:
            assert row.p_loop > row.p_generalized
        if row.n <= 12:
            assert row.simulated_loop is not None
            assert abs(row.simulated_loop - row.p_loop) < 1e-9
        else:
            assert row.simulated_loop is None


def test_table_rejects_small_max_n():
    with pytest.raises(ValueError):
        success_table(2)


# --- qudit family ------------------------------------------------------------

def test_qudit_d3_certificate():
    cert = verify_qudit_family(3)
    assert cert.verdict == "paradox"
    assert cert.n == 4 and cert.required_power == 1
    assert len(cert.constraint_probabilities) == 4
    assert all(abs(p - 1.0) < 1e-9 for p in cert.constraint_probabilities)
    assert abs(cert.joint_simulated - 1 / 9) < 1e-12
    assert abs(cert.joint_formula - 1 / 9) < 1e-15
    assert (cert.census_total, cert.census_satisfying) == (81, 0)


def _leave_one_out(n: int) -> list[tuple[int, int]]:
    """The qudit family's constraints: the powers at every site but j sum to 1."""
    full = (1 << n) - 1
    return [(full ^ 1 << j, 1) for j in range(n)]


def qudit_census(d: int, n: int) -> tuple[int, int]:
    """(total, satisfying) of the one census over the leave-one-out constraints."""
    return d ** n, census(d, n, _leave_one_out(n))[0]


def test_qudit_census_matches_itertools_count():
    # every (d, n) with d^n <= 5000, including the n != d+1 shapes whose
    # count is nonzero
    nonzero = 0
    for d in range(2, 12):
        n = 1
        while d ** n <= 5000:
            counted = qudit_census(d, n)
            assert counted == itertools_qudit_census(d, n), (d, n)
            nonzero += counted[1] > 0
            n += 1
    assert nonzero >= 10
    for d, n, satisfying in ((2, 2, 1), (3, 3, 1), (5, 3, 1), (4, 3, 0)):
        assert qudit_census(d, n) == (d ** n, satisfying)


@pytest.mark.parametrize("d", range(2, 8))
def test_qudit_census_matches_grid_oracle(d):
    assert qudit_census(d, d + 1) == grid_qudit_census(d, d + 1)


@pytest.mark.parametrize("block_bits", [1, 2, 3])
def test_qudit_census_blocks_match_naive_oracle(monkeypatch, block_bits):
    # blocks of at most 2^block_bits assignments, so every shape spans
    # many blocks, and the block is a single assignment when d > 2^block_bits
    monkeypatch.setattr(graph, "CENSUS_BLOCK_BITS", block_bits)
    for d in range(2, 8):
        for n in range(1, 6):
            if d ** n <= 5000:
                assert qudit_census(d, n) == itertools_qudit_census(d, n), (d, n)
    for d in range(2, 6):
        assert qudit_census(d, d + 1) == grid_qudit_census(d, d + 1), d


@pytest.mark.parametrize("d", range(2, 8))
def test_qudit_certificate_equals_grid_census_certificate(monkeypatch, d):
    cert = verify_qudit_family(d).to_json_dict()
    calls = []

    def grid_census(d_arg, n, constraints):
        calls.append((d_arg, n, sorted(constraints)))
        return grid_qudit_census(d_arg, n)[1], None

    monkeypatch.setattr(verify_mod, "census", grid_census)
    assert cert == verify_qudit_family(d).to_json_dict()
    assert calls == [(d, d + 1, sorted(_leave_one_out(d + 1)))]


def _skewed(real, factor):
    """``real`` with every probability it returns multiplied by ``factor``."""
    def skewed(*args, **kwargs):
        result = real(*args, **kwargs)
        if isinstance(result, dict):
            return {k: p * factor for k, p in result.items()}
        return result * factor

    return skewed


@pytest.mark.parametrize("name, factor, message", [
    ("x_product_distribution", 1 - 1e-9, "constraint at site 1 reads 0.99999999"),
    ("x_product_distribution", 1 + 1e-9, "constraint at site 1 reads 1.00000000"),
    ("joint_z_probability", 1 + 1e-9, "simulated joint probability"),
], ids=["constraint-low", "constraint-high", "joint"])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_qudit_probability_off_its_value_raises_cross_check_error(monkeypatch, d, name, factor, message):
    monkeypatch.setattr(verify_mod, name, _skewed(getattr(verify_mod, name), factor))
    with pytest.raises(CrossCheckError, match=f"qudit family d={d}: ") as info:
        verify_qudit_family(d)
    assert message in str(info.value)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_qudit_census_above_zero_raises_cross_check_error(monkeypatch, d):
    # summing the d+1 leave-one-out constraints gives 0 = 1 mod d, so no
    # assignment satisfies them all
    monkeypatch.setattr(verify_mod, "census", lambda d_arg, n, constraints: (1, None))
    with pytest.raises(CrossCheckError, match=f"qudit family d={d}: the census found 1 satisfying"):
        verify_qudit_family(d)


def test_qudit_d2_matches_minimal_instance():
    cert = verify_qudit_family(2)
    minimal = verify(triangle_pcg())
    assert cert.verdict == minimal.verdict == "paradox"
    assert abs(cert.joint_simulated - minimal.success.simulated) < 1e-12
    assert (cert.census_total, cert.census_satisfying) == (8, 0)


def test_qudit_d4_certificate():
    cert = verify_qudit_family(4)
    assert cert.verdict == "paradox"
    assert abs(cert.joint_simulated - 1 / 16) < 1e-12
    # five sites, four omega-powers each
    assert (cert.census_total, cert.census_satisfying) == (4 ** 5, 0)


def test_qudit_product_contradiction_structure():
    # quantum side: the product of the n certified eigenvalues is
    # omega^n = omega != 1; classical side: every site occurs in d of the
    # n leave-one-out constraints, so the same product over any
    # assignment of omega-powers is omega^0 = 1.  Asserted exactly, with
    # the classical side checked over every assignment.
    from itertools import product as iter_product

    for d in (2, 3):
        n = d + 1
        certified_power = (n * 1) % d
        assert certified_power == 1 and certified_power != 0
        for assignment in iter_product(range(d), repeat=n):
            total = sum(
                sum(assignment[k] for k in range(n) if k != j) for j in range(n)
            )
            assert total % d == 0


def test_channels_agree_on_every_enumerated_form():
    forms = enumerate_pcgs(5, 5)
    verdicts = set()
    for pcg in forms:
        cert = verify(pcg)
        verdicts.add(cert.verdict)
        assert (cert.verdict == "paradox") == (not cert.colorable)
        assert cert.rank_b == cert.rank_a + (not cert.colorable)
        assert cert.census_total == 1 << pcg.n
        assert cert.census_satisfying == (1 << pcg.n - cert.rank_a if cert.colorable else 0)
        assert all(abs(c.probability - 1) <= 1e-12 for c in cert.hardy_checks)
        assert cert.to_json_dict()["success"]["formula_applicable"] is True
        assert cert.success.simulated == pytest.approx(1 / (pcg.p + 1), abs=1e-12)
    assert verdicts == {"paradox", "no_paradox"}
    representatives = classify(forms).representatives
    assert representatives
    for pcg in representatives:
        parity = 0
        for e in pcg.edges:
            parity ^= e.mask
        assert parity == 0
        assert sum(e.theta_bit for e in pcg.edges) % 2 == 1


def test_channels_agree_on_seeded_enumerated_forms_with_b_terms():
    # |alpha| < 1 with random admissible b-terms on a seeded subset of the
    # (5, 5) forms: the census, the ranks and the Hardy checks must not care
    rng = random.Random(1707)
    forms = rng.sample(enumerate_pcgs(5, 5), 300)
    verdicts = set()
    for pcg in forms:
        b_terms = ()
        while not b_terms:
            b_terms = random_b_terms(rng, pcg)
        alpha = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.1, 0.95)
        cert = verify(pcg, alpha, b_terms)
        verdicts.add(cert.verdict)
        assert (cert.verdict == "paradox") == (not cert.colorable)
        assert cert.census_satisfying == (1 << pcg.n - cert.rank_a if cert.colorable else 0)
        assert all(abs(c.probability - 1) <= 1e-12 for c in cert.hardy_checks)
        assert cert.to_json_dict()["success"]["formula_applicable"] is True
        assert cert.success.simulated == pytest.approx(abs(alpha) ** 2 / (pcg.p + 1), abs=1e-12)
    assert verdicts == {"paradox", "no_paradox"}


def test_success_off_the_formula_raises_cross_check_error(monkeypatch):
    # every valid instance keeps only key 0 in the success event, so the
    # simulated value is |alpha|^2/(p+1) to rounding; a drift of 1e-9 is a bug
    pcg, b_terms = triangle_pcg(), [BTerm((1, 2, 3), 1.0)]
    matching = verify_mod._matching_mask

    def skewed(state, mask, want):
        return {k: a * math.sqrt(1 + 1e-9) for k, a in matching(state, mask, want).items()}

    monkeypatch.setattr(verify_mod, "_matching_mask", skewed)
    with pytest.raises(CrossCheckError, match=pcg_digest(pcg)) as info:
        verify(pcg, SQ2, b_terms)
    assert "simulated success" in str(info.value) and "|alpha|^2/(p+1)" in str(info.value)


@pytest.mark.parametrize("factor, reads", [
    (1 - 1e-9, "0.99999999"), (1 + 1e-9, "1.00000000"), (math.nan, "nan"),
], ids=["low", "high", "nan"])
@pytest.mark.parametrize("pcg", [triangle_pcg(), magic_m9_pcg()], ids=["paradox", "colorable"])
def test_hardy_probability_off_one_raises_cross_check_error(monkeypatch, pcg, factor, reads):
    # every conditional X product of a valid instance is certain, whatever
    # the verdict, so a reading of 1 -+ 1e-9 is a bug, not a "no paradox"
    real = verify_mod.x_product_distribution
    monkeypatch.setattr(verify_mod, "x_product_distribution", _skewed(real, factor))
    with pytest.raises(CrossCheckError, match=pcg_digest(pcg)) as info:
        verify(pcg)
    edge = list(pcg.edges[0].vertices)
    assert f"Hardy check on edge {edge} reads {reads}" in str(info.value)
    assert str(info.value).endswith(", not 1")


def test_smallest_alpha_that_keeps_the_graph_component():
    b_terms = [BTerm((1, 2, 3), 1.0)]
    with pytest.raises(StateConditionError, match="no graph component"):
        verify(triangle_pcg(), 1e-15, b_terms)
    cert = verify(triangle_pcg(), 2e-15, b_terms)
    assert cert.verdict == "paradox"
    assert cert.to_json_dict()["success"]["formula_applicable"] is True
    assert 0 < cert.success.simulated == pytest.approx(cert.success.formula, rel=1e-12)


def _colorable_pcg() -> PCG:
    return triangle_pcg(-1)  # a green triangle: 2 of its 8 colorings satisfy it


@pytest.mark.parametrize("pcg, off, expected", [
    (_colorable_pcg(), 1, "colorable=True with rank A = 2, so 2 satisfying colorings, but the census found 3/8"),
    (_colorable_pcg(), -1, "colorable=True with rank A = 2, so 2 satisfying colorings, but the census found 1/8"),
    (_colorable_pcg(), -2, "colorable=True with rank A = 2, so 2 satisfying colorings, but the census found 0/8"),
    (triangle_pcg(), 1, "colorable=False with rank A = 2, so 0 satisfying colorings, but the census found 1/8"),
    (loop_pcg(6), 1, "colorable=False with rank A = 5, so 0 satisfying colorings, but the census found 1/64"),
], ids=["colorable+1", "colorable-1", "colorable-to-0", "triangle+1", "loop+1"])
def test_census_off_by_one_raises_cross_check_error(monkeypatch, pcg, off, expected):
    # colorable: exactly 2^(n - rank A) colorings; un-colorable: none
    counted = verify_mod.brute_force_colorings(pcg)
    wrong = ColoringCensus(counted.total, counted.satisfying + off, counted.first_witness)
    monkeypatch.setattr(verify_mod, "brute_force_colorings", lambda g, cap: wrong)
    with pytest.raises(CrossCheckError, match=pcg_digest(pcg)) as info:
        verify(pcg)
    assert expected in str(info.value)


def test_flipped_witness_bit_raises_cross_check_error(monkeypatch):
    pcg = _colorable_pcg()
    decision = verify_mod.is_colorable(pcg)
    for v in range(pcg.n):
        witness = Coloring(decision.witness.bits ^ 1 << v, pcg.n)
        values = list(witness.values)
        flipped = ColorabilityResult(True, decision.rank_a, decision.rank_b, witness)
        monkeypatch.setattr(verify_mod, "is_colorable", lambda g: flipped)
        with pytest.raises(CrossCheckError, match=pcg_digest(pcg)) as info:
            verify(pcg, lhv_cap=0)
        assert str(values) in str(info.value)
