import ast
import inspect
import pickle
import random
import sys
import tracemalloc
import types
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pcgraph import (
    PCG,
    Coloring,
    ResourceLimitError,
    SignedEdge,
    brute_force_colorings,
    irreducibility_status,
    is_colorable,
    is_irreducible,
    validate,
)
from pcgraph import gf2, graph
from pcgraph.graph import MAX_CENSUS_CAP, MAX_LISTED_VERTICES, census, mask_vertices, nested_pairs
from pcgraph.catalog import loop_pcg, magic_m4_pcg, magic_m9_pcg, triangle_pcg

from _oracles import (
    greedy_deletion_irreducibility,
    greedy_uncolorable_subset,
    naive_census,
    naive_first_witness,
    pairwise_nested_pairs,
    product_census,
    random_valid_pcg,
    span_rank,
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


def _edges(masks):
    return [SignedEdge(tuple(mask_vertices(m)), 1) for m in masks]


@pytest.mark.parametrize("uniform", [True, False], ids=["one-size", "mixed-sizes"])
def test_nested_pairs_matches_pairwise_oracle(uniform):
    rng = random.Random(41 + uniform)
    for _ in range(4000):
        masks = _random_masks(rng, uniform)
        assert list(nested_pairs(_edges(masks))) == list(pairwise_nested_pairs(masks)), masks


def test_nested_pairs_on_wide_one_size_lists():
    masks = [0b11 << i for i in range(300)] + [0b11 << 7, 0b11 << 299, 0b11 << 7]
    assert list(nested_pairs(_edges(masks))) == [(7, 300), (7, 302), (299, 301), (300, 302)]
    masks.append(0b111 << 7)
    assert list(nested_pairs(_edges(masks))) == list(pairwise_nested_pairs(masks))


def test_validate_reads_edge_vertices_without_converting_masks(monkeypatch):
    calls = Counter()

    def counted(mask):
        calls["mask_vertices"] += 1
        return mask_vertices(mask)

    monkeypatch.setattr(graph, "mask_vertices", counted)
    assert validate(loop_pcg(200)).ok
    assert calls["mask_vertices"] == 0


def test_is_colorable_reduces_rows_of_at_most_n_plus_one_bits(monkeypatch):
    widths = []

    def spied(rows, cols):
        widths.extend(row.bit_length() - cols for row in rows)
        return gf2.eliminate(rows, cols)

    monkeypatch.setattr(graph, "eliminate", spied)
    for pcg in (loop_pcg(200), magic_m9_pcg(), triangle_pcg()):
        widths.clear()
        is_colorable(pcg)
        assert len(widths) == pcg.p and max(widths) <= 1


def test_validate_lists_uncovered_vertices_and_components_past_64():
    assert MAX_LISTED_VERTICES == 64
    pcg = PCG.build(140, [((1, 70), 1), ((70, 71), 1), ((72, 130), -1), ((131, 140), 1)])
    covered = {v for e in pcg.edges for v in e.vertices}
    uncovered = sorted(set(range(1, 141)) - covered)
    assert len(uncovered) == 133
    assert [v.message for v in validate(pcg).violations] == [
        f"vertices {uncovered[:64]} (the first 64 of 133 vertices) belong to no edge",
        "edge hypergraph splits into components [[1, 70, 71], [72, 130], [131, 140]]",
    ]
    # 64 vertices are listed in full, 65 are cut
    pcg = PCG.build(66, [((1, 66), 1)])
    assert validate(pcg).violations[0].message == f"vertices {list(range(2, 66))} belong to no edge"
    pcg = PCG.build(67, [((1, 67), 1)])
    assert validate(pcg).violations[0].message == \
        f"vertices {list(range(2, 66))} (the first 64 of 65 vertices) belong to no edge"
    # components share one budget of 64 vertices, cut inside a component if need be
    pairs = PCG.build(200, [((2 * i + 1, 2 * i + 2), 1) for i in range(100)])
    assert [v.message for v in validate(pairs).violations] == [
        f"edge hypergraph splits into 100 components {[[2 * i + 1, 2 * i + 2] for i in range(32)]}"
        " (the first 64 of 200 vertices)",
    ]
    halves = PCG.build(200, [((i, i + 1), 1) for i in range(1, 200) if i != 100])
    assert [v.message for v in validate(halves).violations] == [
        f"edge hypergraph splits into 2 components {[list(range(1, 65))]}"
        " (the first 64 of 200 vertices)",
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


@st.composite
def relabelled_invalid_graphs(draw):
    """An invalid signed hypergraph (n <= 9, p <= 12), and the same one with its
    vertices relabelled and its edges reordered, with each moved edge's old index.

    Small random edge sets leave vertices uncovered, nest or repeat edges,
    split into several components, or hold all n vertices.
    """
    n = draw(st.integers(1, 9))
    vertex_sets = st.sets(st.integers(1, n), min_size=1, max_size=n).map(sorted)
    edges = draw(st.lists(st.tuples(vertex_sets, st.sampled_from((1, -1))),
                          min_size=1, max_size=12))
    pcg = PCG.build(n, edges)
    assume(not validate(pcg).ok)
    images = draw(st.permutations(range(1, n + 1)))
    order = draw(st.permutations(range(pcg.p)))
    moved = PCG.build(n, [([images[v - 1] for v in pcg.edges[i].vertices], pcg.edges[i].theta)
                          for i in order])
    return pcg, moved, order


@settings(max_examples=300, deadline=None)
@given(relabelled_invalid_graphs())
def test_violation_kinds_are_invariant_under_relabelling_and_edge_order(case):
    pcg, moved, order = case
    base, report = validate(pcg).violations, validate(moved).violations
    assert base and Counter(v.kind for v in report) == Counter(v.kind for v in base)
    # each violation names the same edges, read through the reorder
    assert Counter((v.kind, frozenset(order[i] for i in v.edges)) for v in report) == \
        Counter((v.kind, frozenset(v.edges)) for v in base)


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


@pytest.mark.parametrize("pcg", [
    # a red triangle on vertices 1..3: the block-invariant table is 0
    PCG.build(7, [((1, 2), 1), ((2, 3), 1), ((1, 3), 1), ((3, 4), -1), ((4, 5, 6, 7), 1)]),
    # edges through vertex 5 share one high mask, and so do those through 4 and 6
    PCG.build(6, [((1, 5), 1), ((2, 5), -1), ((3, 5), 1), ((1, 4, 6), -1), ((2, 4, 6), 1)]),
    PCG.build(6, [((1, 5), 1), ((2, 5), 1), ((1, 2, 5, 6), 1), ((5, 6), -1), ((3, 4), 1)]),
    # every edge low-only, so all eight blocks hold the same table
    PCG.build(6, [((1, 2), 1), ((2, 3), -1)]),
    PCG.build(6, [((1, 2), 1), ((2, 3), 1), ((1, 3), 1)]),
], ids=["zero-invariant", "shared-high", "shared-high-uncolorable", "low-only", "low-only-zero"])
def test_census_hoisting_matches_oracles(monkeypatch, pcg):
    monkeypatch.setattr(graph, "CENSUS_BLOCK_BITS", 3)
    census = brute_force_colorings(pcg)
    assert (census.total, census.satisfying) == naive_census(pcg)
    assert _witness_bits(census) == naive_first_witness(pcg)
    assert (census.total, census.satisfying, _witness_bits(census)) == truth_table_census(pcg)


@st.composite
def census_instances(draw):
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, max(1, {2: 10, 3: 6, 4: 5, 5: 4, 6: 4}[d])))
    full = (1 << n) - 1
    # masks near full as often as near empty, so supports are built both by
    # adding digits and by taking them out of a larger support
    mask = st.integers(0, full) | st.integers(0, full).map(lambda m: full ^ (m & m >> 1))
    constraints = draw(st.lists(st.tuples(mask, st.integers(0, d - 1)), max_size=6))
    return d, n, constraints


@settings(max_examples=300, deadline=None)
@given(census_instances(), st.sampled_from([1, 2, 3, graph.CENSUS_BLOCK_BITS]))
@example((3, 3, [(0b111, 1), (0b110, 2)]), graph.CENSUS_BLOCK_BITS)  # a digit taken out
@example((5, 4, [(0b1111, 1), (0b1101, 3), (0b0010, 4)]), 2)  # blocks of one assignment
def test_census_matches_product_count(instance, block_bits):
    # any linear constraints mod d, with blocks of 2^1..2^3 assignments so
    # the walk spans many blocks, or one block where it fits
    d, n, constraints = instance
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "CENSUS_BLOCK_BITS", block_bits)
        assert census(d, n, constraints) == product_census(d, n, constraints)


def test_census_and_its_callers_never_name_the_rank_route_or_the_states():
    from pcgraph import gf2, states

    def defined_in(module) -> set[str]:
        return {name for name, obj in vars(module).items() if not name.startswith("__")
                and not isinstance(obj, types.ModuleType)
                and getattr(obj, "__module__", module.__name__) == module.__name__}

    forbidden = {"eliminate", "back_substitute", "is_colorable", "is_irreducible",
                 "irreducibility_status", "gf2"} | defined_in(gf2)
    quantum = {"states"} | defined_in(states)

    def names(code: types.CodeType) -> set[str]:
        # global and attribute names, through every nested function
        found = set(code.co_names)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                found |= names(const)
        return found

    for function in (graph.census, graph.brute_force_colorings):
        assert not names(function.__code__) & (forbidden | quantum), function.__name__
    qudit = sys.modules["pcgraph.verify"].verify_qudit_family
    assert not names(qudit.__code__) & forbidden
    # verify_qudit_family runs the quantum channel as well, so its census
    # arguments are traced back through its assignments instead: every
    # name they read must come from d alone
    body = ast.parse(inspect.getsource(qudit)).body[0]
    assigned = {}
    for node in ast.walk(body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        assigned.setdefault(name.id, []).append(node.value)
    calls = [node for node in ast.walk(body) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "census"]
    assert len(calls) == 1
    pending, seen = list(calls[0].args), set()
    while pending:
        for name in ast.walk(pending.pop()):
            if isinstance(name, ast.Name) and name.id not in seen:
                seen.add(name.id)
                pending.extend(assigned.get(name.id, []))
    assert seen <= {"d", "n", "full", "j", "range"}, seen


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


@st.composite
def signed_hypergraphs(draw):
    """Any edge list on n <= 9 vertices, p <= 12; sometimes closed so its masks XOR to 0."""
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(
        st.tuples(st.sets(st.integers(1, n), min_size=1), st.sampled_from((+1, -1))),
        max_size=11,
    ))
    parity = set()
    for vertices, _ in edges:
        parity ^= vertices
    if parity and draw(st.booleans()):
        edges.append((parity, draw(st.sampled_from((+1, -1)))))
    return PCG.build(n, edges)


@settings(max_examples=400, deadline=None)
@given(signed_hypergraphs())
@example(PCG(3, ()))
@example(PCG.build(3, [((1, 2), +1)]))
@example(PCG.build(3, [((1, 2), +1), ((2, 3), +1), ((1, 3), +1), ((1, 2), +1)]))  # duplicate
@example(PCG.build(3, [((1, 2), +1), ((1, 2), -1)]))  # duplicate, opposite signs
@example(PCG.build(3, [((1, 2), +1), ((1, 2, 3), +1), ((3,), -1)]))  # nested
@example(PCG.build(4, [((2, 3), +1), ((1, 3), +1), ((1, 2), +1)]))  # vertex 4 uncovered
@example(PCG.build(4, [((2, 3), +1), ((1, 3), +1), ((1, 2), +1), ((3, 4), -1)]))  # bridged
@example(PCG.build(6, [  # two disjoint triangles: rank p - 2, masks XOR to 0
    ((1, 2), +1), ((2, 3), +1), ((1, 3), +1), ((4, 5), +1), ((5, 6), +1), ((4, 6), +1),
]))
def test_irreducibility_status_matches_greedy_deletion(pcg):
    expected = greedy_deletion_irreducibility(pcg)
    assert irreducibility_status(pcg) == expected.status
    assert is_irreducible(pcg) == expected


# --- module properties --------------------------------------------------------

def test_rank_criterion_agrees_with_census_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        pcg = random_valid_pcg(rng, max_n=9, max_edges=7)
        decision = is_colorable(pcg)
        census = brute_force_colorings(pcg)
        assert decision.colorable == (census.satisfying > 0)
        assert decision.rank_a == span_rank([e.mask for e in pcg.edges])
        if decision.colorable:
            assert decision.witness == census.first_witness  # free variables green: the least solution
        else:
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
    coloring = Coloring(0b101, 3)
    assert coloring.values == (-1, +1, -1)  # vertices 1 and 3 red
    assert coloring.bits == 0b101
    with pytest.raises(ValueError):
        Coloring(0b1000, 3)  # bit n is vertex n + 1
    with pytest.raises(ValueError):
        Coloring(-1, 3)
