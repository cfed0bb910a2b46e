import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from pcgraph import (
    PCG,
    Coloring,
    PcgValidationError,
    ResourceLimitError,
    SignedEdge,
    brute_force_colorings,
    from_adjacency_map,
    is_colorable,
    is_irreducible,
    validate,
)
from pcgraph import graph
from pcgraph.graph import MAX_CENSUS_CAP, PAIRWISE_MAX, mask_vertices, nested_pairs
from pcgraph.catalog import loop_pcg, magic_m4_pcg, magic_m9_pcg, triangle_pcg

from _oracles import (
    greedy_uncolorable_subset,
    naive_census,
    naive_first_witness,
    pairwise_nested_pairs,
    random_valid_pcg,
    truth_table_census,
)


def test_edge_normalizes_and_validates():
    e = SignedEdge((3, 1), +1)
    assert e.vertices == (1, 3)
    assert e.mask == 0b101
    with pytest.raises(ValueError):
        SignedEdge((), +1)
    with pytest.raises(ValueError):
        SignedEdge((1, 1), +1)
    with pytest.raises(ValueError):
        SignedEdge((1, 2), 0)


def test_edge_mask_is_built_once_outside_equality_hash_and_repr():
    tracemalloc.start()
    far = SignedEdge((1, 10**7), 1)  # its mask would take 1.25 MB
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10**5  # nothing is built before a graph checks the vertices
    with pytest.raises(ValueError, match="exceeds vertex count"):
        PCG(3, (far,))
    e = SignedEdge((70, 3, 1), -1)
    assert e.mask == 1 << 69 | 0b101 and e.mask is e.mask
    twin = SignedEdge((1, 3, 70), -1)
    assert e == twin and hash(e) == hash(twin) and e != SignedEdge((1, 3, 70), 1)
    assert repr(e) == repr(twin) == "SignedEdge(vertices=(1, 3, 70), theta=-1)"
    assert e.to_json_dict() == {"vertices": [1, 3, 70], "theta": -1}
    for edge in (e, twin):
        copy = pickle.loads(pickle.dumps(edge))
        assert copy == edge and copy.mask == edge.mask and repr(copy) == repr(edge)


def test_pcg_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        PCG.build(2, [((1, 3), +1)])


# --- validate ---------------------------------------------------------------

def test_validate_nested_edges_is_illegal():
    pcg = PCG.build(3, [((1,), +1), ((2, 3), +1), ((1, 2, 3), +1)])
    report = validate(pcg)
    assert not report.ok
    nested = [v for v in report.violations if v.kind == "nested-edges"]
    assert {(v.edges) for v in nested} == {(0, 2), (1, 2)}


def test_validate_pins_nested_and_duplicate_messages():
    pcg = PCG.build(4, [((1, 2), 1), ((1, 2, 3), -1), ((1, 2), -1), ((3, 4), 1), ((4,), 1)])
    assert [(v.kind, v.message, v.edges) for v in validate(pcg).violations] == [
        ("nested-edges", "edge #0 {1, 2} is contained in edge #1 {1, 2, 3}", (0, 1)),
        ("nested-edges", "edge #0 {1, 2} is contained in edge #2 {1, 2}", (0, 2)),
        ("nested-edges", "edge #2 {1, 2} is contained in edge #1 {1, 2, 3}", (2, 1)),
        ("nested-edges", "edge #4 {4} is contained in edge #3 {3, 4}", (4, 3)),
    ]


def _random_masks(rng: random.Random, uniform: bool) -> list[int]:
    n, p = rng.randint(1, 9), rng.choice([0, 1, rng.randint(2, 12)])
    size = rng.randint(1, n)
    masks: list[int] = []
    for _ in range(p):
        if masks and rng.random() < 0.2:
            masks.append(rng.choice(masks))
        else:
            verts = rng.sample(range(n), size if uniform else rng.randint(1, n))
            masks.append(sum(1 << v for v in verts))
    return masks


@pytest.mark.parametrize("uniform", [True, False], ids=["one-size", "mixed-sizes"])
def test_nested_pairs_matches_pairwise_oracle(uniform):
    rng = random.Random(41 + uniform)
    lengths = Counter()
    for _ in range(4000):
        masks = _random_masks(rng, uniform)
        lengths[len(masks) > PAIRWISE_MAX] += 1
        assert list(nested_pairs(masks)) == list(pairwise_nested_pairs(masks)), masks
    assert lengths[True] > 300 and lengths[False] > 300  # both the bucketed and pairwise paths


def test_nested_pairs_on_wide_one_size_lists():
    masks = [0b11 << i for i in range(300)] + [0b11 << 7, 0b11 << 299, 0b11 << 7]
    assert list(nested_pairs(masks)) == [(7, 300), (7, 302), (299, 301), (300, 302)]
    masks.append(0b111 << 7)
    assert list(nested_pairs(masks)) == list(pairwise_nested_pairs(masks))


def test_validate_lists_uncovered_vertices_and_components_past_64():
    pcg = PCG.build(140, [((1, 70), 1), ((70, 71), 1), ((72, 130), -1), ((131, 140), 1)])
    covered = {v for e in pcg.edges for v in e.vertices}
    assert [v.message for v in validate(pcg).violations] == [
        f"vertices {sorted(set(range(1, 141)) - covered)} belong to no edge",
        "edge hypergraph splits into components [[1, 70, 71], [72, 130], [131, 140]]",
    ]
    assert mask_vertices(0) == [] and mask_vertices(1 << 200 | 0b1010) == [2, 4, 201]


def test_validate_triangle_passes():
    assert validate(triangle_pcg()).ok


def test_validate_isolated_vertex():
    pcg = PCG.build(3, [((1, 2), +1)])
    report = validate(pcg)
    assert [v.kind for v in report.violations] == ["disconnected"]
    assert "[3]" in report.violations[0].message


def test_validate_split_components():
    pcg = PCG.build(4, [((1, 2), +1), ((3, 4), +1)])
    report = validate(pcg)
    assert any("components" in v.message for v in report.violations)


def test_validate_edge_size_bounds():
    pcg = PCG.build(2, [((1, 2), +1)])
    report = validate(pcg)
    assert [v.kind for v in report.violations] == ["edge-size"]


# --- incidence rows: A as e.mask, Theta as e.theta_bit ------------------------

def test_incidence_rows_triangle():
    pcg = triangle_pcg()
    assert [e.mask for e in pcg.edges] == [0b110, 0b101, 0b011]
    assert [e.theta_bit for e in pcg.edges] == [1, 1, 1]


def test_incidence_rows_single_red_pair():
    pcg = PCG.build(2, [((1, 2), +1)])
    assert [e.mask for e in pcg.edges] == [0b11]
    assert [e.theta_bit for e in pcg.edges] == [1]


def test_incidence_rows_loop5():
    pcg = loop_pcg(5)
    assert [e.mask for e in pcg.edges] == [0b10001, 0b00011, 0b00110, 0b01100, 0b11000]
    assert [e.theta_bit for e in pcg.edges] == [1, 0, 0, 0, 0]


# --- is_colorable ------------------------------------------------------------

def test_triangle_uncolorable_with_rank_gap():
    result = is_colorable(triangle_pcg())
    assert not result.colorable
    assert (result.rank_a, result.rank_b) == (2, 3)
    assert result.witness is None


def test_single_red_pair_witness():
    result = is_colorable(PCG.build(2, [((1, 2), +1)]))
    assert result.colorable
    assert result.witness.values == (-1, +1)  # free variable colored green


def test_magic_m9_colorable_and_tilde_not():
    assert is_colorable(magic_m9_pcg()).colorable
    extended = is_colorable(magic_m9_pcg(extended=True))
    assert not extended.colorable
    assert extended.rank_b == extended.rank_a + 1


def test_witness_satisfies_edges():
    for pcg in (magic_m9_pcg(), PCG.build(2, [((1, 2), +1)]), loop_pcg(4)):
        result = is_colorable(pcg)
        if result.colorable:
            assert result.witness.satisfies(pcg)


# --- brute_force_colorings ---------------------------------------------------

def test_census_triangle():
    census = brute_force_colorings(triangle_pcg())
    assert (census.total, census.satisfying) == (8, 0)
    assert census.first_witness is None
    assert naive_census(triangle_pcg()) == (8, 0)


def test_census_single_red_pair():
    pcg = PCG.build(2, [((1, 2), +1)])
    census = brute_force_colorings(pcg)
    assert (census.total, census.satisfying) == (4, 2)
    # counter order: assignment 1 (vertex 1 red) is the first satisfying one
    assert census.first_witness.values == (-1, +1)
    assert census.first_witness.satisfies(pcg)


def test_census_magic_m4():
    census = brute_force_colorings(magic_m4_pcg())
    assert (census.total, census.satisfying) == (16, 0)
    assert naive_census(magic_m4_pcg()) == (16, 0)


def test_census_cap():
    pcg = loop_pcg(10)
    with pytest.raises(ResourceLimitError):
        brute_force_colorings(pcg, cap=8)
    with pytest.raises(ResourceLimitError):
        brute_force_colorings(triangle_pcg(), cap=MAX_CENSUS_CAP + 1)


def test_census_matches_naive_oracle_randomized():
    rng = random.Random(7)
    for _ in range(60):
        pcg = random_valid_pcg(rng, max_n=8, max_edges=6)
        census = brute_force_colorings(pcg)
        assert (census.total, census.satisfying) == naive_census(pcg)
        if census.first_witness is not None:
            assert census.first_witness.satisfies(pcg)


def _witness_bits(census) -> int | None:
    return None if census.first_witness is None else census.first_witness.bits


@pytest.mark.parametrize("block_bits", [1, 2, 3])
def test_census_blocks_match_naive_oracle(monkeypatch, block_bits):
    # blocks smaller than n, so most graphs span many blocks and the
    # first witness often lies beyond the first one
    monkeypatch.setattr(graph, "CENSUS_BLOCK_BITS", block_bits)
    rng = random.Random(100 + block_bits)
    for _ in range(40):
        pcg = random_valid_pcg(rng, max_n=10, max_edges=6)
        census = brute_force_colorings(pcg)
        assert (census.total, census.satisfying) == naive_census(pcg)
        assert _witness_bits(census) == naive_first_witness(pcg)


def _random_antichain(rng: random.Random, n: int, p: int) -> PCG:
    masks, edges = [], []
    while len(edges) < p:
        verts = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        mask = sum(1 << (v - 1) for v in verts)
        if any(mask & m in (mask, m) for m in masks):
            continue
        masks.append(mask)
        edges.append(SignedEdge(tuple(verts), rng.choice((+1, -1))))
    return PCG(n, tuple(edges))


def test_census_matches_whole_table_census_above_one_block():
    rng = random.Random(17)
    for n in range(17, 22):
        loop = loop_pcg(n)
        flipped = PCG(n, (SignedEdge(loop.edges[0].vertices, -loop.edges[0].theta),)
                      + loop.edges[1:])
        randoms = [_random_antichain(rng, n, rng.randint(1, 6)) for _ in range(3)]
        # vertex n red: every satisfying assignment lies past the first block
        top_red = PCG(n, _random_antichain(rng, n - 1, 4).edges + (SignedEdge((n,), +1),))
        for pcg in [loop, flipped, *randoms, top_red]:
            census = brute_force_colorings(pcg)
            assert (census.total, census.satisfying, _witness_bits(census)) == \
                truth_table_census(pcg)


def test_census_memory_is_bounded_by_its_blocks():
    # The census keeps a few 2^k-bit tables per edge; a whole-table
    # census of loop n=22 holds several 2^22-bit (512 KB) ints at once.
    pcg = loop_pcg(22)
    bound = 4 * pcg.p * (1 << graph.CENSUS_BLOCK_BITS) // 8
    tracemalloc.start()
    try:
        census = brute_force_colorings(pcg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (census.total, census.satisfying) == (1 << 22, 0)
    assert peak < bound < 1 << 20


# --- is_irreducible ----------------------------------------------------------

def test_triangle_irreducible():
    assert is_irreducible(triangle_pcg()).status == "irreducible"


def test_bridged_triangle_reducible_with_triangle_witness():
    pcg = PCG.build(4, [((2, 3), +1), ((1, 3), +1), ((1, 2), +1), ((3, 4), -1)])
    result = is_irreducible(pcg)
    assert result.status == "reducible"
    assert tuple(e.vertices for e in result.witness) == ((2, 3), (1, 3), (1, 2))


def test_colorable_graph_not_applicable():
    assert is_irreducible(magic_m9_pcg()).status == "not_applicable"


def _malformed_pcgs(rng):
    """Edge lists that break the domain rules; is_irreducible must still be exact."""
    yield PCG(3, ())
    yield PCG.build(3, [((1, 2), +1), ((1, 2), -1)])
    yield PCG.build(4, [((2, 3), +1), ((1, 3), +1), ((1, 2), +1)])  # vertex 4 uncovered
    yield PCG.build(3, [((1, 2), +1), ((2, 3), +1), ((1, 2), +1), ((1, 3), +1)])
    for _ in range(150):
        n = rng.randint(1, 6)
        edges = [
            (rng.sample(range(1, n + 1), rng.randint(1, n)), rng.choice((+1, -1)))
            for _ in range(rng.randint(0, 7))
        ]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))  # duplicates
        yield PCG.build(n, edges)


def test_irreducible_means_every_deletion_colorable():
    rng = random.Random(11)
    valid = [random_valid_pcg(rng, max_n=7, max_edges=6) for _ in range(80)]
    seen = Counter()
    for pcg in valid + list(_malformed_pcgs(random.Random(12))):
        result = is_irreducible(pcg)
        seen[result.status] += 1
        if naive_census(pcg)[1] > 0:
            assert result.status == "not_applicable"
            continue
        edges = pcg.edges if result.status == "irreducible" else result.witness
        assert naive_census(PCG(pcg.n, edges))[1] == 0
        for drop in range(len(edges)):
            sub = PCG(pcg.n, edges[:drop] + edges[drop + 1:])
            _, sat = naive_census(sub)
            assert sat > 0
        greedy = greedy_uncolorable_subset(pcg)
        covered = {v for e in pcg.edges for v in e.vertices} == set(range(1, pcg.n + 1))
        if greedy == pcg.edges and covered:
            assert result.status == "irreducible"
        else:
            assert (result.status, result.witness) == ("reducible", greedy)
    assert seen["irreducible"] > 0 and seen["reducible"] > 0 and seen["not_applicable"] > 0


# --- from_adjacency_map ------------------------------------------------------

def test_four_mutually_adjacent_regions():
    pcg = from_adjacency_map(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert pcg.edges == magic_m4_pcg().edges
    assert not is_colorable(pcg).colorable


def test_adjacency_path_is_colorable():
    pcg = from_adjacency_map(3, [(1, 2), (2, 3)])
    assert [e.vertices for e in pcg.edges] == [(1, 2), (2, 3)]
    assert all(e.theta == 1 for e in pcg.edges)
    census = brute_force_colorings(pcg)
    assert census.satisfying == 2


def test_adjacency_two_regions_fails_size_rule():
    # a border between only two regions leaves no vertex to condition on
    with pytest.raises(PcgValidationError):
        from_adjacency_map(2, [(1, 2)])


def test_adjacency_rejects_self_border_and_range():
    with pytest.raises(ValueError):
        from_adjacency_map(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_adjacency_map(3, [(1, 4)])


def test_adjacency_deduplicates_borders():
    pcg = from_adjacency_map(3, [(2, 1), (1, 2), (2, 3)])
    assert [e.vertices for e in pcg.edges] == [(1, 2), (2, 3)]


# --- module properties --------------------------------------------------------

def test_rank_criterion_agrees_with_census_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        pcg = random_valid_pcg(rng, max_n=9, max_edges=7)
        decision = is_colorable(pcg)
        census = brute_force_colorings(pcg)
        assert decision.colorable == (census.satisfying > 0)
        if not decision.colorable:
            assert decision.rank_b == decision.rank_a + 1


def test_sign_flip_toggles_theta_only():
    rng = random.Random(5)
    for _ in range(50):
        pcg = random_valid_pcg(rng, max_n=8, max_edges=6)
        flip = rng.randrange(pcg.p)
        flipped = PCG(pcg.n, tuple(
            SignedEdge(e.vertices, -e.theta if i == flip else e.theta)
            for i, e in enumerate(pcg.edges)
        ))
        assert [e.mask for e in pcg.edges] == [e.mask for e in flipped.edges]
        toggled = [e0.theta_bit ^ e1.theta_bit for e0, e1 in zip(pcg.edges, flipped.edges)]
        assert toggled == [int(i == flip) for i in range(pcg.p)]
        assert is_colorable(pcg).rank_a == is_colorable(flipped).rank_a


def test_coloring_bits_round_trip():
    coloring = Coloring.from_bits(0b101, 3)
    assert coloring.values == (-1, +1, -1)
    assert coloring.bits == 0b101
