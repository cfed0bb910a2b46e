import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pcgraph import (
    PCG,
    ResourceLimitError,
    SignedEdge,
    brute_force_colorings,
    classify,
    enumerate_pcgs,
    irreducibility_status,
    is_colorable,
    is_irreducible,
    validate,
)
from pcgraph.catalog import triangle_pcg
from pcgraph.search import _signed_forms, _sorts_lower, canonical_form

from _oracles import (
    combinations_enumeration,
    greedy_deletion_irreducibility,
    is_unsigned_canonical,
    random_valid_pcg,
    reference_enumeration,
    tuple_min_signed_forms,
)


def test_no_valid_two_vertex_instances():
    assert enumerate_pcgs(2, 2, sizes=[1]) == []
    assert enumerate_pcgs(2, 2) == []


def test_triangle_enumerated_once():
    stream = enumerate_pcgs(3, 3, sizes=[2])
    all_red = [
        p for p in stream
        if p.p == 3 and all(e.theta == 1 for e in p.edges)
    ]
    assert len(all_red) == 1
    assert canonical_form(all_red[0]) == canonical_form(triangle_pcg())


def test_relabeled_instances_share_canonical_form():
    base = PCG.build(4, [((1, 2), +1), ((2, 3), +1), ((3, 4), +1), ((1, 4), -1)])
    perm = [2, 4, 1, 3]
    relabeled = PCG(4, tuple(
        SignedEdge(tuple(sorted(perm[v - 1] for v in e.vertices)), e.theta)
        for e in base.edges
    ))
    assert canonical_form(base) == canonical_form(relabeled)
    # negating every sign changes the red/green split (3 vs 1), so no
    # relabeling can identify the two instances
    assert canonical_form(base) != canonical_form(
        PCG(4, tuple(SignedEdge(e.vertices, -e.theta) for e in base.edges))
    )


def test_stream_is_strictly_increasing_and_valid():
    stream = enumerate_pcgs(4, 3)
    forms = [canonical_form(p) for p in stream]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)
    for p in stream:
        assert validate(p).ok
        assert canonical_form(p) == canonical_form(p)


def test_census_partitions_and_irreducibles_recheck():
    stream = enumerate_pcgs(4, 4)
    census = classify(stream)
    assert census.total == census.colorable + census.uncolorable
    assert census.irreducible == len(census.representatives)
    assert census.irreducible > 0
    for rep in census.representatives:
        assert is_irreducible(rep).status == "irreducible"


def _two_call_census(pcgs):
    """classify as it once was: is_colorable first, is_irreducible only if un-colorable."""
    colorable, irreducible = 0, []
    for pcg in pcgs:
        if is_colorable(pcg).colorable:
            colorable += 1
        elif is_irreducible(pcg).status == "irreducible":
            irreducible.append(pcg)
    return len(pcgs), colorable, len(pcgs) - colorable, len(irreducible), tuple(irreducible)


def test_classify_matches_two_call_census():
    rng = random.Random(7)
    sampled = [random_valid_pcg(rng, max_n=8, max_edges=7) for _ in range(300)]
    for pcgs in (sampled, enumerate_pcgs(5, 4)):
        census = classify(pcgs)
        expected = _two_call_census(pcgs)
        assert (census.total, census.colorable, census.uncolorable,
                census.irreducible, census.representatives) == expected
        assert 0 < census.irreducible < census.uncolorable < census.total


def test_enumerated_instances_agree_with_brute_force():
    for pcg in enumerate_pcgs(4, 3):
        decision = is_colorable(pcg)
        census = brute_force_colorings(pcg)
        assert decision.colorable == (census.satisfying > 0)


def test_each_distinct_edge_is_built_once():
    stream = enumerate_pcgs(5, 4)
    built = {}
    for pcg in stream:
        for e in pcg.edges:
            assert built.setdefault((e.mask, e.theta), e) is e
    assert len(stream) > len(built)  # edges really are shared across graphs


def _labeled_count(n, max_edges):
    # independent oracle: filter every signed edge list directly
    universe = [
        tuple(sorted(c))
        for size in range(1, n)
        for c in combinations(range(1, n + 1), size)
    ]
    count = 0
    for p in range(1, max_edges + 1):
        for combo in combinations(universe, p):
            base = PCG(n, tuple(SignedEdge(vs, 1) for vs in combo))
            if validate(base).ok:
                count += 2 ** p  # every signing of a valid structure is valid
    return count


def _orbit_size(pcg):
    from itertools import permutations

    seen = set()
    for perm in permutations(range(1, pcg.n + 1)):
        seen.add(frozenset(
            (frozenset(perm[v - 1] for v in e.vertices), e.theta) for e in pcg.edges
        ))
    return len(seen)


def test_enumeration_is_complete_by_orbit_counting():
    # orbit sizes of the canonical classes must add up to the number of
    # labeled valid instances counted without any isomorphism machinery
    for n, max_edges, expected_classes in ((3, 5, 7), (4, 5, 78), (5, 3, 112), (6, 2, 22)):
        reps = enumerate_pcgs(n, max_edges)
        assert len(reps) == expected_classes
        assert sum(_orbit_size(p) for p in reps) == _labeled_count(n, max_edges)


ORACLE_SHAPES = [
    (n, max_edges, sizes)
    for n in range(1, 5)
    for max_edges in range(7)
    for sizes in (None, (2,), (1, 2))
] + [(5, 2, None), (5, 3, None), (5, 4, (4,))]


@pytest.mark.parametrize("n,max_edges,sizes", ORACLE_SHAPES, ids=[
    f"n{n}-e{max_edges}" + ("" if sizes is None else "-sizes" + "".join(map(str, sizes)))
    for n, max_edges, sizes in ORACLE_SHAPES
])
def test_enumeration_matches_reference_walk(n, max_edges, sizes):
    # the search signs each structure in one labeling only; the reference
    # signs every labeling and canonicalises each signing on its own
    stream = enumerate_pcgs(n, max_edges, sizes)
    assert [canonical_form(p) for p in stream] == reference_enumeration(n, max_edges, sizes)
    for p in stream:
        assert canonical_form(p) == (p.n, tuple((e.mask, e.theta) for e in p.edges))


def _form(pcg):
    return (pcg.n, tuple((e.mask, e.theta) for e in pcg.edges))


@pytest.mark.parametrize("n,max_edges,sizes", [(5, 4, None), (5, 5, (2, 3)), (6, 3, None)])
def test_orderly_walk_matches_combinations_walk(n, max_edges, sizes):
    stream = enumerate_pcgs(n, max_edges, sizes)
    assert [_form(p) for p in stream] == combinations_enumeration(n, max_edges, sizes)


def test_integer_signing_matches_tuple_min_signing(monkeypatch):
    import pcgraph.search

    signed = []

    def recording(n, masks):
        signed.append(masks)
        return _signed_forms(n, masks)

    monkeypatch.setattr(pcgraph.search, "_signed_forms", recording)
    assert len(enumerate_pcgs(5, 4)) == 489
    assert len(signed) == len(set(signed)) > 0
    for masks in signed:
        assert is_unsigned_canonical(5, masks)
        assert _signed_forms(5, masks) == tuple_min_signed_forms(5, masks)


def _greedy_antichain(masks):
    kept = []
    for m in masks:
        if all(m & k not in (m, k) for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_non_canonical_prefix_has_no_canonical_extension(data):
    # the orderly walk drops a prefix that some relabeling sorts lower,
    # with every extension of it
    n = data.draw(st.integers(2, 5))
    size = data.draw(st.integers(1, n - 1))
    picks = data.draw(st.lists(st.integers(1, (1 << n) - 2), max_size=8))
    # the tuples the walk reaches: first mask (1 << size) - 1, none smaller than size
    anchored = _greedy_antichain([(1 << size) - 1] + [m for m in picks if m.bit_count() >= size])
    for masks in (_greedy_antichain(picks), anchored):
        canonical = [is_unsigned_canonical(n, masks[:k]) for k in range(1, len(masks) + 1)]
        assert canonical == sorted(canonical, reverse=True), masks


def test_sorts_lower_matches_oracle_on_reachable_tuples():
    # every ascending antichain of up to 4 masks at n <= 5 that starts at
    # (1 << size) - 1 and holds no smaller mask, as the walk builds them
    checked = 0
    for n in range(2, 6):
        for size in range(1, n):
            first = (1 << size) - 1
            later = [m for m in range(first + 1, (1 << n) - 1) if m.bit_count() >= size]
            for k in range(4):
                for tail in combinations(later, k):
                    masks = (first,) + tail
                    if _greedy_antichain(masks) != masks:
                        continue
                    assert _sorts_lower(n, masks) == (not is_unsigned_canonical(n, masks)), masks
                    checked += 1
    assert checked == 862


def _forms_digest(pcgs):
    blob = json.dumps([[p.n, [[list(e.vertices), e.theta] for e in p.edges]] for p in pcgs])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("n,max_edges,expected", [
    (5, 5, (1291, 978, 313, 28,
            "92b5629fce186006b812edb497d67acbab20b35a1ba3fdd1b26debc750a8940b")),
    (6, 4, (2935, 2738, 197, 45,
            "8d8f05e8a6664b9d3727cfe069dbb00029417163e471205e2b59129159c3abdd")),
])
def test_larger_census_pinned(n, max_edges, expected):
    # total, colorable, un-colorable, irreducible and the digest of the
    # emitted graphs, as the combinations walk gave them
    stream = enumerate_pcgs(n, max_edges)
    census = classify(stream)
    assert (census.total, census.colorable, census.uncolorable, census.irreducible,
            _forms_digest(stream)) == expected


@pytest.mark.parametrize("n,max_edges", [(5, 5), (6, 4)])
def test_irreducibility_status_matches_greedy_deletion_on_every_form(n, max_edges):
    seen = Counter()
    for pcg in enumerate_pcgs(n, max_edges):
        expected = greedy_deletion_irreducibility(pcg)
        assert irreducibility_status(pcg) == expected.status
        assert is_irreducible(pcg) == expected
        seen[expected.status] += 1
    assert len(seen) == 3


@pytest.mark.parametrize("n", [5, 6])
def test_fewer_than_two_edges_enumerate_nothing(n):
    assert enumerate_pcgs(n, 0) == enumerate_pcgs(n, 1) == []


def test_caps_enforced():
    with pytest.raises(ResourceLimitError):
        enumerate_pcgs(7, 3)
    with pytest.raises(ResourceLimitError):
        enumerate_pcgs(3, 13)


def test_sizes_filter():
    only_pairs = enumerate_pcgs(4, 3, sizes=[2])
    assert all(e.size == 2 for p in only_pairs for e in p.edges)
    pairs_and_triples = enumerate_pcgs(4, 3, sizes=[2, 3])
    assert len(pairs_and_triples) > len(only_pairs)


def test_singleton_edges_never_survive_validity():
    # a singleton edge may not sit inside any other edge (antichain), so it
    # always forms its own component; the default size range therefore adds
    # nothing over pairs for n=3
    assert len(enumerate_pcgs(3, 3)) == len(enumerate_pcgs(3, 3, sizes=[2]))
