import cmath
import math
import random

import pytest

from pcgraph import (
    BTerm,
    PauliWord,
    ResourceLimitError,
    SparseState,
    StateConditionError,
    build_qudit_family,
    build_state,
    joint_z_probability,
    omega,
    pps_amplitude,
    project_z,
    qubit_product_state,
    sample_counts,
    verify,
    x_product_distribution,
)
from pcgraph.catalog import loop_pcg, triangle_pcg
from pcgraph.graph import mask_vertices
from pcgraph.states import PRUNE_TOL, site_mask

from _oracles import (
    dense_product_distribution,
    random_b_terms,
    random_valid_pcg,
)

SQ2 = 1 / math.sqrt(2)


def approx_amp(state, key, value, tol=1e-12):
    assert abs(state.amplitude(key) - value) <= tol, (key, state.amplitude(key), value)


# --- construction -------------------------------------------------------------

def test_site_mask_sets_each_listed_site_once():
    assert site_mask([]) == 0
    assert site_mask([3, 1, 3]) == site_mask((1, 3)) == site_mask(iter([3, 1])) == 0b101
    assert site_mask(range(1, 201)) == (1 << 200) - 1
    for sites in ([], [1], [2, 4, 201], list(range(1, 201)), [64, 65, 128]):
        assert mask_vertices(site_mask(sites)) == sites
    for mask in (0, 1, 0b1010, (1 << 200) | 1, (1 << 64) - 1):
        assert site_mask(mask_vertices(mask)) == mask


def test_minimal_state_amplitudes():
    state = build_state(triangle_pcg(), alpha=1.0)
    for key, value in {"000": 0.5, "011": -0.5, "101": -0.5, "110": -0.5}.items():
        approx_amp(state, key, value)
    assert len(state.amplitudes) == 4


def test_minimal_state_with_orthogonal_component():
    alpha = SQ2
    state = build_state(triangle_pcg(), alpha, [BTerm((1, 2, 3), 1.0)])
    approx_amp(state, "000", alpha / 2)
    approx_amp(state, "111", SQ2)
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_loop3_state_amplitudes():
    state = build_state(loop_pcg(3))
    for key, value in {"000": 0.5, "101": -0.5, "110": 0.5, "011": 0.5}.items():
        approx_amp(state, key, value)


def test_weightless_b_terms_are_pruned_at_alpha_one():
    state = build_state(triangle_pcg(), 1.0, [BTerm((1, 2, 3), 1.0)])
    assert state.amplitude("111") == 0
    assert len(state.amplitudes) == 4
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_alpha_preconditions():
    with pytest.raises(StateConditionError):
        build_state(triangle_pcg(), 0.0)
    with pytest.raises(StateConditionError):
        build_state(triangle_pcg(), 1.2)
    with pytest.raises(StateConditionError):
        build_state(triangle_pcg(), 0.5)  # missing b-terms


def test_alpha_that_prunes_the_graph_component_is_refused():
    # p = 3, so every graph amplitude is alpha/2; under PRUNE_TOL it would be
    # pruned and the state would hold the b-terms alone
    b_terms = [BTerm((1, 2, 3), 1.0)]
    for alpha in (1e-15, 1.9e-15, 0.0, math.nan):
        with pytest.raises(StateConditionError, match="no graph component"):
            build_state(triangle_pcg(), alpha, b_terms)
    state = build_state(triangle_pcg(), 2 * PRUNE_TOL, b_terms)
    assert state.amplitudes[0] == PRUNE_TOL and len(state.amplitudes) == 5


def test_b_term_conditions_report_offender():
    with pytest.raises(StateConditionError, match=r"#0.*edge #2"):
        build_state(triangle_pcg(), SQ2, [BTerm((1, 2), 1.0)])
    with pytest.raises(StateConditionError, match="empty"):
        build_state(triangle_pcg(), SQ2, [BTerm((), 1.0)])
    for below in ((0, 1, 2, 3), (-1, 2, 3)):
        with pytest.raises(StateConditionError, match="below 1"):
            build_state(triangle_pcg(), SQ2, [BTerm(below, 1.0)])
    with pytest.raises(StateConditionError, match="exceeds site count"):
        build_state(triangle_pcg(), SQ2, [BTerm((1, 2, 4), 1.0)])
    with pytest.raises(StateConditionError, match="repeats"):
        build_state(triangle_pcg(), SQ2, [BTerm((1, 2, 3), SQ2), BTerm((1, 2, 3), SQ2)])
    with pytest.raises(StateConditionError, match="sum"):
        build_state(triangle_pcg(), SQ2, [BTerm((1, 2, 3), 0.5)])


def test_b_term_refuses_a_repeated_vertex():
    with pytest.raises(ValueError, match=r"^b-term \(1, 1, 2, 3, 3\) repeats a vertex$"):
        BTerm((1, 1, 2, 3, 3), 1.0)
    assert BTerm((3, 1, 2), 1.0).vertices == (1, 2, 3)


@pytest.mark.parametrize("alpha", [1.0, 0.6])
def test_nan_b_term_weight_is_refused(alpha):
    # a NaN weight compares false against the tolerance both ways, so the
    # check must be written to fail it
    for run in (build_state, verify):
        with pytest.raises(StateConditionError, match="b-term weights sum to nan"):
            run(triangle_pcg(), alpha, [BTerm((1, 2, 3), math.nan)])


def test_sparse_state_validates_keys_and_norm():
    with pytest.raises(ValueError):
        SparseState.from_amplitudes(2, {"012": 1.0})
    with pytest.raises(ValueError):
        SparseState.from_amplitudes(2, {"02": 1.0})
    with pytest.raises(ValueError):
        SparseState.from_amplitudes(2, {"00": 0.5})


@pytest.mark.parametrize("d", [2, 3])
def test_nan_amplitude_is_refused_not_pruned(d):
    # NaN compares false against the prune threshold, so the prune test must
    # keep it for the norm check to see it
    with pytest.raises(ValueError, match=r"^state norm\^2 = nan is not 1 within "):
        SparseState.from_amplitudes(1, {"0": 1.0, "1": math.nan}, d=d)


# --- project_z ----------------------------------------------------------------

def test_project_minimal_on_first_site():
    state = build_state(triangle_pcg())
    prob, post = project_z(state, {1: 0})
    assert abs(prob - 0.5) < 1e-12
    approx_amp(post, "000", SQ2)
    approx_amp(post, "011", -SQ2)
    assert len(post.amplitudes) == 2


def test_project_empty_assignment_is_identity():
    state = build_state(triangle_pcg())
    prob, post = project_z(state, {})
    assert prob == 1.0
    assert post.amplitudes == state.amplitudes


def test_project_impossible_outcome():
    state = qubit_product_state("00")
    prob, post = project_z(state, {1: 1})
    assert prob == 0.0 and post is None


def test_project_qutrit_first_site():
    state = build_qudit_family(3)
    prob, post = project_z(state, {1: 0})
    assert abs(prob - 1 / 3) < 1e-12
    w = omega(3)
    approx_amp(post, "0000", 1 / math.sqrt(3))
    approx_amp(post, "0111", w / math.sqrt(3))
    approx_amp(post, "0222", w**2 / math.sqrt(3))


def test_project_rejects_bad_sites_and_digits():
    state = qubit_product_state("00")
    with pytest.raises(ValueError):
        project_z(state, {3: 0})
    with pytest.raises(ValueError):
        project_z(state, {1: 2})


def test_project_composition_and_commutation():
    rng = random.Random(3)
    for _ in range(25):
        pcg = random_valid_pcg(rng, max_n=7, max_edges=5)
        state = build_state(pcg)
        sites = rng.sample(range(1, pcg.n + 1), min(pcg.n, 3))
        a = {sites[0]: 0}
        b = {s: 0 for s in sites[1:]}
        p_ab = project_z(state, {**a, **b})[0]
        p_a, after_a = project_z(state, a)
        if after_a is None:
            assert p_ab == 0.0
            continue
        p_b_given_a, post_ab = project_z(after_a, b)
        assert abs(p_ab - p_a * p_b_given_a) < 1e-12
        # opposite order reaches the same conditional state
        p_b, after_b = project_z(state, b)
        if after_b is not None:
            p_a_given_b, post_ba = project_z(after_b, a)
            assert abs(p_ab - p_b * p_a_given_b) < 1e-12
            if post_ab is not None and post_ba is not None:
                keys = set(post_ab.amplitudes) | set(post_ba.amplitudes)
                assert all(
                    abs(post_ab.amplitudes.get(k, 0j) - post_ba.amplitudes.get(k, 0j)) < 1e-12
                    for k in keys
                )


# --- product observable distributions ------------------------------------------

def test_conditional_x_product_certainty_minimal():
    state = build_state(triangle_pcg(), SQ2, [BTerm((1, 2, 3), 1.0)])
    _, post = project_z(state, {1: 0})
    dist = x_product_distribution(post, [2, 3])
    assert abs(dist[1] - 1.0) < 1e-12  # power 1 is eigenvalue -1
    assert abs(dist[0]) < 1e-12


def test_plus_state_is_x_eigenstate():
    dist = x_product_distribution(qubit_product_state("+"), [1])
    assert abs(dist[0] - 1.0) < 1e-12


def test_qutrit_conditional_product_is_omega():
    state = build_qudit_family(3)
    _, post = project_z(state, {1: 0})
    dist = x_product_distribution(post, [2, 3, 4])
    assert abs(dist[1] - 1.0) < 1e-9
    assert abs(dist[0]) < 1e-9 and abs(dist[2]) < 1e-9


def test_y_products_on_all_plus_sign_state():
    state = build_state(triangle_pcg(-1))  # all plus signs
    for conditioned in (1, 2, 3):
        rest = sorted({1, 2, 3} - {conditioned})
        _, post = project_z(state, {conditioned: 0})
        dist = x_product_distribution(post, rest, basis="Y")
        assert abs(dist[1] - 1.0) < 1e-12


def test_y_basis_requires_qubits():
    state = build_qudit_family(3)
    with pytest.raises(ValueError):
        x_product_distribution(state, [1, 2], basis="Y")
    with pytest.raises(ValueError):
        x_product_distribution(state, [], basis="X")


def test_distribution_matches_dense_oracle():
    rng = random.Random(9)
    for _ in range(20):
        pcg = random_valid_pcg(rng, max_n=6, max_edges=5)
        state = build_state(pcg)
        size = rng.randint(1, pcg.n)
        sites = set(rng.sample(range(1, pcg.n + 1), size))
        dist = x_product_distribution(state, sites)
        dense = dense_product_distribution(state, sites)
        assert all(abs(dist[j] - dense[j]) < 1e-9 for j in dist)
        dist_y = x_product_distribution(state, sites, basis="Y")
        # rotate the sparse state like the implementation does and compare
        assert abs(sum(dist_y.values()) - 1.0) < 1e-9


def test_y_distribution_matches_dense_oracle():
    rng = random.Random(19)
    for _ in range(10):
        pcg = random_valid_pcg(rng, max_n=5, max_edges=4)
        state = build_state(pcg)
        sites = set(rng.sample(range(1, pcg.n + 1), 2))
        dist = x_product_distribution(state, sites, basis="Y")
        dense = dense_product_distribution(state, sites, basis="Y")
        assert all(abs(dist[j] - dense[j]) < 1e-9 for j in dist)


# --- joint z probability --------------------------------------------------------

def test_joint_probability_minimal():
    state = build_state(triangle_pcg(), SQ2, [BTerm((1, 2, 3), 1.0)])
    assert abs(joint_z_probability(state, [1, 2, 3]) - 0.125) < 1e-12


def test_joint_probability_loop5():
    state = build_state(loop_pcg(5))
    assert abs(joint_z_probability(state, range(1, 6)) - 1 / 6) < 1e-12


def test_joint_probability_qutrit():
    state = build_qudit_family(3)
    assert abs(joint_z_probability(state, range(1, 5)) - 1 / 9) < 1e-12


# --- qudit family ----------------------------------------------------------------

def test_qudit_family_d3_structure():
    state = build_qudit_family(3)
    assert (state.n, state.d) == (4, 3)
    assert len(state.amplitudes) == 9
    w = omega(3)
    approx_amp(state, "0000", 1 / 3)
    approx_amp(state, "0111", w / 3)
    approx_amp(state, "1011", w / 3)
    approx_amp(state, "2202", w**2 / 3)
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_qudit_family_d2_is_minimal_state():
    family = build_qudit_family(2)
    minimal = build_state(triangle_pcg())
    assert set(family.amplitudes) == set(minimal.amplitudes)
    for key, amp in family.listing():
        assert abs(amp - minimal.amplitude(key)) < 1e-12


def test_qudit_family_range():
    for bad in (1, 8):
        with pytest.raises(ResourceLimitError):
            build_qudit_family(bad)


# --- pauli words and pre/post-selection ------------------------------------------

def test_pauli_word_actions():
    word = PauliWord.from_sites(2, {1: "X", 2: "Z"})
    state = qubit_product_state("01")
    moved = word.apply(state)
    assert abs(moved.amplitude("11") + 1.0) < 1e-12  # Z on |1> flips the sign
    y = PauliWord.from_sites(1, {1: "Y"})
    assert abs(y.apply(qubit_product_state("0")).amplitude("1") - 1j) < 1e-12
    assert abs(y.apply(qubit_product_state("1")).amplitude("0") + 1j) < 1e-12
    with pytest.raises(ValueError):
        PauliWord(("Q",))
    with pytest.raises(ValueError):
        PauliWord(("X",), phase=2)


def test_pps_fixture_zero_amplitudes():
    pre = qubit_product_state("+--")
    post = qubit_product_state("010")
    checks = [((1, 2), +1), ((1, 3), -1), ((2, 3), -1)]
    for (i, j), sign in checks:
        word = PauliWord.from_sites(3, {i: "Y", j: "Y"})
        assert abs(pps_amplitude(pre, post, word, sign)) < 1e-12


def test_pps_complementary_projectors_do_not_vanish():
    pre = qubit_product_state("+--")
    post = qubit_product_state("010")
    word = PauliWord.from_sites(3, {1: "Y", 2: "Y"})
    assert abs(pps_amplitude(pre, post, word, -1)) > 0.3


def test_pps_eigenstate_projector():
    zero = qubit_product_state("0")
    word = PauliWord.from_sites(1, {1: "Z"})
    assert abs(pps_amplitude(zero, zero, word, +1) - 1.0) < 1e-12


def test_pps_dimension_mismatch():
    with pytest.raises(ValueError):
        pps_amplitude(
            qubit_product_state("00"),
            qubit_product_state("0"),
            PauliWord.from_sites(2, {1: "Y"}),
            +1,
        )


# --- invariants -------------------------------------------------------------------

def test_hardy_certainty_randomized():
    rng = random.Random(42)
    for _ in range(40):
        pcg = random_valid_pcg(rng, max_n=8, max_edges=6)
        b_terms = random_b_terms(rng, pcg)
        alpha = 1.0 if not b_terms else 0.3 + 0.6 * rng.random()
        alpha *= cmath.exp(2j * math.pi * rng.random())
        state = build_state(pcg, alpha, b_terms)
        assert abs(state.norm_squared() - 1.0) < 1e-9
        for e in pcg.edges:
            complement = sorted(set(range(1, pcg.n + 1)) - set(e.vertices))
            prob, post = project_z(state, {s: 0 for s in complement})
            assert prob > 0
            assert abs(post.norm_squared() - 1.0) < 1e-9
            dist = x_product_distribution(post, e.vertices)
            assert abs(dist[e.theta_bit] - 1.0) < 1e-9


def test_success_probability_formula_when_structurally_applicable():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        pcg = random_valid_pcg(rng, max_n=8, max_edges=6)
        b_terms = random_b_terms(rng, pcg)
        alpha = 1.0 if not b_terms else 0.4 + 0.5 * rng.random()
        state = build_state(pcg, alpha, b_terms)
        union = sorted({
            v for e in pcg.edges for v in set(range(1, pcg.n + 1)) - set(e.vertices)
        })
        inter = set(range(1, pcg.n + 1))
        for e in pcg.edges:
            inter &= set(e.vertices)
        survivors = [e for e in pcg.edges if set(e.vertices) <= inter]
        survivors += [t for t in b_terms if set(t.vertices) <= inter]
        if survivors:
            continue
        checked += 1
        assert abs(
            joint_z_probability(state, union) - abs(alpha) ** 2 / (pcg.p + 1)
        ) < 1e-9
    assert checked > 20


def test_sampler_is_deterministic_per_seed():
    state = build_state(triangle_pcg())
    counts = sample_counts(state, shots=200, seed=11)
    assert counts == sample_counts(state, shots=200, seed=11)
    assert sum(counts.values()) == 200
    assert set(counts) <= {"000", "011", "101", "110"}
