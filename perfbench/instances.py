"""Seeded, constructive instance generators and the benchmark's own oracles.

Every generator here builds a valid graph directly (no rejection of whole
instances), so generation stays a small part of set-up time.  The known
answers come from the construction itself or from the small oracles in
this file, never from the library routine whose output they check.

Masks use bit ``v - 1`` for vertex ``v``, as the library does.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

EDGE_SIZES = (2, 3, 4)
_MAX_EXTRA_TRIES = 100_000


@dataclass(frozen=True)
class Instance:
    """A generated graph and the answers a correct certifier must give."""

    label: str
    n: int
    edges: tuple[tuple[int, int], ...]  # (mask, theta) in edge order
    colorable: bool
    rank_a: int
    rank_b: int

    def vertex_edges(self) -> list[tuple[tuple[int, ...], int]]:
        """Edges as (sorted 1-based vertices, theta), the library's input form."""
        return [(mask_vertices(m), t) for m, t in self.edges]


def mask_vertices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def parity(x: int) -> int:
    return x.bit_count() & 1


def _insert(basis: dict[int, int], row: int) -> bool:
    """Reduce ``row`` against an xor basis keyed on highest bit; True if it grew."""
    while row:
        top = row.bit_length() - 1
        if top not in basis:
            basis[top] = row
            return True
        row ^= basis[top]
    return False


def xor_rank(rows: list[int]) -> int:
    """GF(2) rank by an xor basis keyed on each row's highest bit.

    The library pivots on the lowest column with a row-swap sweep; this
    reduces each row against a basis instead, so the two routes share
    no code and no pivot order.
    """
    basis: dict[int, int] = {}
    return sum(_insert(basis, row) for row in rows)


def satisfies(bits: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Does the colouring with red vertex set ``bits`` meet every edge?"""
    return all(parity(bits & m) == (1 if t == 1 else 0) for m, t in edges)


def success_probability(edges: tuple[tuple[int, int], ...]) -> float:
    """P(all Z = +1 on the union of edge complements) for alpha = 1.

    Only basis patterns inside the intersection of all edges survive
    the conditioning: the all-zero pattern, and any edge pattern that
    fits inside it.
    """
    inter = -1
    for m, _ in edges:
        inter &= m
    inside = sum(1 for m, _ in edges if m | inter == inter)
    return (1 + inside) / (len(edges) + 1)


def make_instance(label: str, n: int, edges: list[tuple[int, int]]) -> Instance:
    masks = [m for m, _ in edges]
    rank_a = xor_rank(masks)
    rank_b = xor_rank([m | ((1 if t == 1 else 0) << n) for m, t in edges])
    return Instance(label, n, tuple(edges), rank_a == rank_b, rank_a, rank_b)


def cycle_labels(rng: random.Random, n: int) -> list[int]:
    """Bit masks of the cycle's vertices in cycle order, rotated and maybe reflected.

    A full random relabelling would change the library's elimination
    fill-in, and with it the cost of one op, by up to 1.7x between
    seeds; a rotation or reflection keeps the cost per seed steady.
    """
    shift = rng.randrange(n)
    order = [(i + shift) % n for i in range(n)]
    if rng.random() < 0.5:
        order.reverse()
    return [1 << v for v in order]


def loop(rng: random.Random, n: int) -> Instance:
    """The mixed-sign loop (one red edge, the rest green), with seeded labels.

    Un-colourable with rank(A) = n - 1 and rank([A|Theta]) = n.
    """
    bit = cycle_labels(rng, n)
    edges = [(bit[0] | bit[n - 1], +1)] + [(bit[i] | bit[i + 1], -1) for i in range(n - 1)]
    return make_instance(f"loop-{n}", n, edges)


def odd_red_loop(rng: random.Random, n: int) -> Instance:
    """All-red loop on an odd number of vertices, with seeded labels."""
    if n % 2 == 0:
        raise ValueError("odd red loops need odd n")
    bit = cycle_labels(rng, n)
    edges = [(bit[i] | bit[(i + 1) % n], +1) for i in range(n)]
    return make_instance(f"odd-red-loop-{n}", n, edges)


def chorded_loop(rng: random.Random, n: int) -> Instance:
    """An even (colourable) all-green cycle plus one red chord.

    The chord spans two or four cycle edges, so it closes a cycle of
    length 3 or 5 whose sign parity is odd: the graph is un-colourable
    but not irreducible, since that short cycle alone is un-colourable.
    """
    bit = cycle_labels(rng, n)
    edges = [(bit[i] | bit[(i + 1) % n], -1) for i in range(n)]
    start = rng.randrange(n)
    span = rng.choice((2, 4))
    chord = (bit[start] | bit[(start + span) % n], +1)
    edges.insert(rng.randrange(len(edges) + 1), chord)
    return make_instance(f"chorded-loop-{n}", n, edges)


def _spanning_masks(rng: random.Random, n: int) -> list[int]:
    """Random connected hypertree: every edge after the first adds new vertices.

    Each later edge holds exactly one covered vertex, so no earlier edge
    (which has at least two covered vertices) can lie inside it, and it
    cannot lie inside an earlier edge because it holds a new vertex.
    """
    order = list(range(n))
    rng.shuffle(order)
    first = rng.choice(EDGE_SIZES)
    masks = [sum(1 << v for v in order[:first])]
    covered = first
    while covered < n:
        fresh = order[covered:covered + rng.choice(EDGE_SIZES) - 1]
        anchor = order[rng.randrange(covered)]
        masks.append((1 << anchor) | sum(1 << v for v in fresh))
        covered += len(fresh)
    return masks


def random_antichain(rng: random.Random, n: int, p: int, colorable: bool) -> Instance:
    """Connected antichain with edge sizes 2-4 and exactly ``p`` edges.

    A random spanning structure comes first, then extra edges drawn at
    random; an extra edge nested with (or equal to) any existing edge is
    rejected.  Signs follow a planted colouring.  For the un-colourable
    variant the sign of the last edge that is a GF(2) sum of earlier
    edges is flipped, which contradicts the planted parity; choosing the
    last one keeps the census from stopping early.
    """
    masks = _spanning_masks(rng, n)
    if len(masks) > p:
        raise ValueError(f"{p} edges cannot span {n} vertices")
    tries = 0
    while len(masks) < p:
        tries += 1
        if tries > _MAX_EXTRA_TRIES:
            raise RuntimeError(f"could not place {p} edges on {n} vertices")
        cand = sum(1 << v for v in rng.sample(range(n), rng.choice(EDGE_SIZES)))
        if any(cand & m in (cand, m) for m in masks):
            continue
        masks.append(cand)
    rng.shuffle(masks)
    planted = rng.getrandbits(n)
    edges = [(m, +1 if parity(planted & m) else -1) for m in masks]
    if not colorable:
        flip = _last_dependent(masks)
        if flip is None:
            raise ValueError(f"{p} edges on {n} vertices are independent; need p > n")
        m, t = edges[flip]
        edges[flip] = (m, -t)
    kind = "colorable" if colorable else "uncolorable"
    inst = make_instance(f"random-{kind}-{n}x{p}", n, edges)
    if inst.colorable != colorable:
        raise AssertionError(f"planted construction failed for {inst.label}")
    return inst


def _last_dependent(masks: list[int]) -> int | None:
    """Index of the last mask that is a GF(2) sum of the masks before it."""
    basis: dict[int, int] = {}
    dependent = [i for i, m in enumerate(masks) if not _insert(basis, m)]
    return dependent[-1] if dependent else None
