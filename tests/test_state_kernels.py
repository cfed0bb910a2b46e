"""Integer-key kernels of pcgraph.states against dense linear algebra.

Random sparse states over d in {2, 3, 4, 5} enter through digit strings,
so the boundary parser is exercised too; every result is compared with
the dense oracle in ``_oracles``, which decodes keys with its own
arithmetic.
"""
import math
import random
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import (
    ResourceLimitError,
    SparseState,
    build_state,
    joint_z_probability,
    project_z,
    sample_counts,
    x_product_distribution,
)
from pcgraph.catalog import loop_pcg, triangle_pcg
from pcgraph.graph import site_mask
from pcgraph.states import (
    MAX_SHOTS,
    QUDIT_FAMILY_MAX_D,
    _inverse_root_rows,
    _matching_mask,
    build_qudit_family,
    parse_key,
    render_key,
)

from _oracles import (
    dense_product_distribution,
    dense_vector,
    random_b_terms,
    random_valid_pcg,
    scan_matching_mask,
)

MAX_SITES = {2: 6, 3: 4, 4: 3, 5: 3}


@st.composite
def sparse_states(draw, dims=tuple(sorted(MAX_SITES)), key_counts=(1, 10)):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, MAX_SITES[d]))
    digit_strings = st.lists(st.integers(0, d - 1), min_size=n, max_size=n).map(
        lambda digits: "".join(map(str, digits))
    )
    keys = draw(st.lists(digit_strings, min_size=key_counts[0], max_size=key_counts[1], unique=True))
    amps = draw(st.lists(
        st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0),
        min_size=len(keys), max_size=len(keys),
    ))
    scale = 1 / math.sqrt(sum(abs(a) ** 2 for a in amps))
    return SparseState.from_amplitudes(n, {k: a * scale for k, a in zip(keys, amps)}, d=d)


def _dense_digits(idx: int, n: int, d: int) -> list[int]:
    """Digits of a dense index, site 1 first (site 1 is most significant)."""
    return [(idx // d ** (n - v)) % d for v in range(1, n + 1)]


def _dense_mask(n: int, d: int, assignment: dict[int, int]) -> np.ndarray:
    return np.array([
        all(_dense_digits(idx, n, d)[site - 1] == digit for site, digit in assignment.items())
        for idx in range(d**n)
    ])


@st.composite
def state_and_assignment(draw):
    state = draw(sparse_states())
    sites = draw(st.lists(st.integers(1, state.n), unique=True, max_size=state.n))
    return state, {s: draw(st.integers(0, state.d - 1)) for s in sites}


@st.composite
def state_and_sites(draw):
    state = draw(sparse_states())
    return state, draw(st.sets(st.integers(1, state.n), min_size=1))


@settings(max_examples=150, deadline=None)
@given(state_and_assignment())
def test_project_z_matches_dense(case):
    state, assignment = case
    vec = dense_vector(state)
    kept = np.where(_dense_mask(state.n, state.d, assignment), vec, 0)
    expected = float(np.vdot(kept, kept).real)
    prob, post = project_z(state, assignment)
    assert abs(prob - expected) < 1e-12
    if post is None:
        assert expected < 1e-20
    else:
        assert np.allclose(dense_vector(post), kept / np.sqrt(expected), atol=1e-12)


@st.composite
def qubit_state_and_mask(draw):
    state = draw(sparse_states(dims=(2,)))
    mask = draw(st.integers(0, (1 << state.n) - 1))
    return state, mask, draw(st.integers(0, (1 << state.n) - 1)) & mask


@settings(max_examples=150, deadline=None)
@given(qubit_state_and_mask())
def test_project_z_mask_form_matches_dense_and_map_form(case):
    state, mask, _ = case
    assignment = {v: 0 for v in range(1, state.n + 1) if mask >> (v - 1) & 1}
    vec = dense_vector(state)
    kept = np.where(_dense_mask(state.n, 2, assignment), vec, 0)
    expected = float(np.vdot(kept, kept).real)
    prob, post = project_z(state, mask)
    assert abs(prob - expected) < 1e-12
    map_prob, map_post = project_z(state, assignment)
    assert prob == map_prob
    if post is None:
        assert expected < 1e-20 and map_post is None
    else:
        assert np.allclose(dense_vector(post), kept / np.sqrt(expected), atol=1e-12)
        assert post == map_post
        # the post state skips _from_keys, but is what it would have built
        rebuilt = SparseState._from_keys(post.n, post.d, post.amplitudes)
        assert _bit_listing(post.amplitudes) == _bit_listing(rebuilt.amplitudes)


def _bit_listing(amps: dict[int, complex]) -> list[tuple[int, str, str]]:
    """Keys in order with their amplitudes' exact bits (-0.0 differs from 0.0)."""
    return [(k, a.real.hex(), a.imag.hex()) for k, a in amps.items()]


def _assert_index_matches_scan(state, mask: int, want: int) -> None:
    assert _bit_listing(_matching_mask(state, mask, want)) == \
        _bit_listing(scan_matching_mask(state, mask, want)), (mask, want)


@settings(max_examples=200, deadline=None)
@given(qubit_state_and_mask())
def test_indexed_conditioning_matches_key_scan(case):
    _assert_index_matches_scan(*case)


def test_indexed_conditioning_matches_key_scan_on_graph_states_with_b_terms():
    rng = random.Random(73)
    states = [build_state(loop_pcg(130))]
    while len(states) < 60:
        pcg = random_valid_pcg(rng, max_n=10, max_edges=7)
        b_terms = random_b_terms(rng, pcg)
        if b_terms:
            states.append(build_state(pcg, 0.6, b_terms))
    for state in states:
        plain = SparseState(state.n, state.d, dict(state.amplitudes))
        full = (1 << state.n) - 1
        keys = list(state.amplitudes)
        masks = [0, full] + [full ^ k for k in keys] + [rng.randrange(full + 1) for _ in range(5)]
        for mask in masks:
            wants = {0, mask} | {k & mask for k in keys} | {rng.randrange(full + 1) & mask}
            for want in wants:
                _assert_index_matches_scan(state, mask, want)
        # the index is built by now, and stays out of equality and repr
        assert state == plain and repr(state) == repr(plain)


def test_project_z_mask_form_checks_its_range():
    state = build_state(triangle_pcg())
    prob, post = project_z(state, {2: 1, 3: 1})  # sites 2 and 3 read 1: key "011"
    assert prob == pytest.approx(0.25) and list(post.amplitudes) == [0b110]
    with pytest.raises(ValueError, match="outside 1..3"):
        project_z(state, 0b1000)
    with pytest.raises(ValueError, match="outside 1..3"):
        project_z(state, -1)
    qutrit = SparseState.from_amplitudes(2, {"00": 1.0}, d=3)
    with pytest.raises(ValueError, match="qubits only"):
        project_z(qutrit, 0b01)


def test_project_z_refuses_a_post_state_off_norm():
    # states built past _from_keys: a NaN or an infinite amplitude leaves
    # nothing above the prune threshold once rescaled, so the norm check fires
    for bad in (complex("nan"), complex("inf")):
        state = SparseState(2, 2, {0: bad, 0b11: 1 + 0j})
        with pytest.raises(ValueError, match="norm"):
            project_z(state, 0)
        with pytest.raises(ValueError, match="norm"):
            project_z(state, {1: 0})


def test_x_product_mask_form_checks_its_range():
    state = build_state(triangle_pcg())
    assert x_product_distribution(state, 0b011) == x_product_distribution(state, [1, 2])
    for mask in (0, 0b1000, 0b1011, -1, -0b10):
        with pytest.raises(ValueError, match=r"site mask .* is empty or has sites outside 1\.\.3"):
            x_product_distribution(state, mask)
    qutrit = SparseState.from_amplitudes(2, {"00": 1.0}, d=3)
    with pytest.raises(ValueError, match="qubits only"):
        x_product_distribution(qutrit, 0b01)


@settings(max_examples=150, deadline=None)
@given(state_and_sites())
def test_x_and_y_distributions_match_dense(case):
    state, sites = case
    dist = x_product_distribution(state, sites)
    dense = dense_product_distribution(state, sites)
    assert set(dist) == set(range(state.d))
    assert all(abs(dist[j] - dense[j]) < 1e-9 for j in dist)
    if state.d == 2:
        dist_y = x_product_distribution(state, sites, basis="Y")
        dense_y = dense_product_distribution(state, sites, basis="Y")
        assert all(abs(dist_y[j] - dense_y[j]) < 1e-9 for j in dist_y)
        # the qubit mask form is the same computation, bit for bit
        mask = site_mask(sites)
        assert x_product_distribution(state, mask) == dist
        assert x_product_distribution(state, mask, basis="Y") == dist_y


def _shifted_copy(amps: dict[int, complex], sites: frozenset[int], d: int) -> dict[int, complex]:
    """X (|m> -> |m-1 mod d>) on every listed qudit site, as a new dict: each
    digit steps down by one, and a digit 0 wraps to d-1."""
    places = [d ** (s - 1) for s in sites]
    total = sum(places)
    shifted = {}
    for k, a in amps.items():
        wrapped = sum(p for p in places if not k // p % d)
        shifted[k - total + d * wrapped] = a
    return shifted


def _assert_kernels_sum_like_builtin_sums(state, sites: frozenset[int]) -> None:
    """The kernels' plain loops must add the same terms in the same order as
    builtin sums over a shifted copy of the state, bit for bit."""
    amps = state.amplitudes
    prob, post = project_z(state, {})
    assert prob == sum([abs(a) ** 2 for a in amps.values()])
    scale = 1 / math.sqrt(prob)
    assert _bit_listing(post.amplitudes) == _bit_listing({k: a * scale for k, a in amps.items()})
    d = state.d
    mask = site_mask(sites)

    def builtin_sums(amps):
        moments, current = [sum([a.conjugate() * a for a in amps.values()])], amps
        for _ in range(1, d):
            current = {k ^ mask: a for k, a in current.items()} if d == 2 else _shifted_copy(current, sites, d)
            moments.append(sum([a.conjugate() * current[k] for k, a in amps.items() if k in current]))
        expected = {}
        for j, row in enumerate(_inverse_root_rows(d)):
            val = sum(map(mul, row, moments)) / d
            expected[j] = val.real if val.real > 0.0 else 0.0
        return expected

    assert x_product_distribution(state, sites) == builtin_sums(amps)
    if d == 2:
        rotated = {k: a * (-1j) ** (k & mask).bit_count() for k, a in amps.items()}
        assert x_product_distribution(state, sites, basis="Y") == builtin_sums(rotated)


@settings(max_examples=150, deadline=None)
@given(sparse_states(), st.data())
def test_two_key_kernels_sum_like_the_general_path(state, data):
    """At every key count (two keys being verify's per-edge case)."""
    _assert_kernels_sum_like_builtin_sums(
        state, frozenset(data.draw(st.sets(st.integers(1, state.n), min_size=1))))


def test_kernels_sum_like_builtin_sums_on_seeded_partnered_states():
    """Gaussian amplitudes, whose sums round differently in another order, on
    states where many keys meet their X partner, and the qudit family's post
    states, whose keys meet theirs at every power."""
    for d in range(2, QUDIT_FAMILY_MAX_D + 1):
        family = build_qudit_family(d)
        for j in range(1, d + 2):
            _, post = project_z(family, {j: 0})
            _assert_kernels_sum_like_builtin_sums(post, frozenset(range(1, d + 2)) - {j})
    rng = random.Random(29)
    for _ in range(300):
        d = rng.choice((2, 2, 3, 4, 5, 6, 7))
        n = rng.randint(2, 6 if d == 2 else 3)
        sites = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        mask = site_mask(sites)
        keys = {rng.randrange(d ** n) for _ in range(rng.randint(1, 6))}
        if d == 2:
            keys |= {k ^ mask for k in keys}
        amps = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in keys}
        scale = 1 / math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        state = SparseState._from_keys(n, d, {k: a * scale for k, a in amps.items()})
        _assert_kernels_sum_like_builtin_sums(state, sites)


@settings(max_examples=150, deadline=None)
@given(state_and_sites(), st.integers(0, 4))
def test_joint_z_probability_matches_dense(case, digit):
    state, sites = case
    digit %= state.d
    vec = dense_vector(state)
    mask = _dense_mask(state.n, state.d, dict.fromkeys(sites, digit))
    expected = float(np.sum(np.abs(vec[mask]) ** 2))
    assert abs(joint_z_probability(state, sites, digit) - expected) < 1e-12


# --- digit-string boundary -------------------------------------------------------

@pytest.mark.parametrize("n,d", [(1, 2), (4, 2), (3, 3), (3, 5), (2, 10)])
def test_key_round_trip(n, d):
    rendered = [render_key(k, n, d) for k in range(d**n)]
    assert len(set(rendered)) == d**n and all(len(s) == n for s in rendered)
    assert [parse_key(s, n, d) for s in rendered] == list(range(d**n))


def test_key_encoding_places_site_one_lowest():
    assert parse_key("100", 3, 2) == 1 and parse_key("001", 3, 2) == 4
    assert parse_key("0120", 4, 3) == 1 * 3 + 2 * 9
    assert render_key(21, 4, 3) == "0120"
    with pytest.raises(ValueError):
        parse_key("012", 3, 2)
    with pytest.raises(ValueError):
        render_key(0, 2, 11)


def test_listing_and_sampler_sort_by_digit_string():
    state = build_state(triangle_pcg())  # keys 0, 6, 5, 3
    assert sorted(state.amplitudes) == [0, 3, 5, 6]
    strings = ["000", "011", "101", "110"]
    assert [k for k, _ in state.listing()] == strings
    weights = [abs(state.amplitude(s)) ** 2 for s in strings]
    expected: dict[str, int] = {}
    for s in random.Random(5).choices(strings, weights=weights, k=300):
        expected[s] = expected.get(s, 0) + 1
    assert sample_counts(state, 300, seed=5) == expected


def test_sample_counts_ceiling():
    state = build_state(triangle_pcg())
    with pytest.raises(ResourceLimitError, match="ceiling"):
        sample_counts(state, MAX_SHOTS + 1)
