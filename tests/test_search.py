import json

import pytest

from pcgraph import (
    PCG,
    ResourceLimitError,
    SignedEdge,
    brute_force_colorings,
    canonical_form,
    classify,
    enumerate_pcgs,
    is_colorable,
    is_irreducible,
    validate,
)
from pcgraph.catalog import triangle_pcg

from _oracles import reference_enumeration


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


def test_enumerated_instances_agree_with_brute_force():
    for pcg in enumerate_pcgs(4, 3):
        decision = is_colorable(pcg)
        census = brute_force_colorings(pcg)
        assert decision.colorable == (census.satisfying > 0)


def test_parallel_matches_serial():
    serial = enumerate_pcgs(4, 3, workers=1)
    parallel = enumerate_pcgs(4, 3, workers=2)
    assert [canonical_form(p) for p in serial] == [canonical_form(p) for p in parallel]
    assert json.dumps(classify(serial).to_json_dict(), sort_keys=True) == json.dumps(
        classify(parallel).to_json_dict(), sort_keys=True
    )


def _labeled_count(n, max_edges):
    # independent oracle: filter every signed edge list directly
    from itertools import combinations

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


def test_workers_clamped_to_cpus_and_tasks(monkeypatch):
    import pcgraph.search

    started = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor, so no process starts
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(pcgraph.search, "ProcessPoolExecutor", RecordingPool)
    serial = enumerate_pcgs(3, 3)  # 6 partitions: one per edge mask of size 1 or 2
    for cpus, expected in ((4, 4), (64, 6), (1, None)):
        monkeypatch.setattr(pcgraph.search.os, "cpu_count", lambda: cpus)
        started.clear()
        assert enumerate_pcgs(3, 3, workers=10**6) == serial
        assert started == ([] if expected is None else [expected])
    with pytest.raises(ValueError):
        enumerate_pcgs(3, 3, workers=0)


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
