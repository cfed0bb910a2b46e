"""Independent oracles and instance generators used across the tests.

Everything here deliberately avoids the library's production code
paths: ranks come from subset-span enumeration or a Gauss-Jordan loop,
censuses from plain nested loops, and state checks from dense numpy
linear algebra.  The Hardy records are the one exception: they reuse
the state kernels, but condition through per-site assignment maps
instead of the site masks that ``verify`` uses.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations, product

import numpy as np

from pcgraph import (
    PCG,
    BTerm,
    SignedEdge,
    build_state,
    joint_z_probability,
    project_z,
    validate,
    x_product_distribution,
)
from pcgraph.search import canonical_form


def span_rank(rows: list[int]) -> int:
    """GF(2) rank as log2 of the row-span size, by full enumeration."""
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    size = len(span)
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def gauss_jordan_eliminate(rows: list[int], cols: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form on columns ``0..cols-1``.

    Returns the pivot columns: row k now leads at ``pivots[k]``, and the
    later rows are zero below ``cols``.  Bits at or above ``cols`` ride
    along with every row operation (a right-hand side, a row tag).
    """
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        bit = 1 << c
        pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r]
        for i, row in enumerate(rows):
            if row & bit and i != r:
                rows[i] = row ^ lead
        pivots.append(c)
    return pivots


def gauss_jordan_witness(rows: list[int], cols: int) -> int | None:
    """Solution with free variables 0 of the system whose right-hand side is bit ``cols``.

    Reads it off the fully reduced pivot rows, or returns None if some
    row reduces to 0 = 1.
    """
    work = list(rows)
    pivots = gauss_jordan_eliminate(work, cols)
    if any(row >> cols & 1 for row in work[len(pivots):]):
        return None
    return sum(1 << c for row, c in zip(work, pivots) if row >> cols & 1)


def pairwise_nested_pairs(masks):
    """Every (i, j) with mask i inside mask j, equal masks once with i < j, by a double loop."""
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if i != j and mi | mj == mj and (i < j or mi != mj):
                yield i, j


def per_site_hardy_records(pcg: PCG, alpha=1.0, b_terms=()):
    """Hardy probabilities and success record by conditioning on per-site assignment maps.

    Each edge's complement is conditioned on Z = +1 through a site ->
    digit map; the success event conditions the union of complements.
    """
    state = build_state(pcg, alpha, b_terms)
    all_sites = set(range(1, pcg.n + 1))
    probabilities = []
    for e in pcg.edges:
        complement = sorted(all_sites - set(e.vertices))
        _, post = project_z(state, dict.fromkeys(complement, 0))
        probabilities.append(x_product_distribution(post, e.vertices)[e.theta_bit])
    union = sorted({v for e in pcg.edges for v in all_sites - set(e.vertices)})
    return probabilities, tuple(union), joint_z_probability(state, union, 0)


def exhaustive_solve_exists(rows: list[int], rhs_bits: list[int], cols: int) -> bool:
    """Is there any x with row.x = rhs (mod 2)?  Checks all 2^cols vectors."""
    for x in range(1 << cols):
        if all((row & x).bit_count() & 1 == b for row, b in zip(rows, rhs_bits)):
            return True
    return False


def naive_census(pcg: PCG) -> tuple[int, int]:
    """Satisfying-coloring count by the plainest possible double loop."""
    sat = 0
    for bits in range(1 << pcg.n):
        ok = True
        for e in pcg.edges:
            parity = 0
            for v in e.vertices:
                parity ^= (bits >> (v - 1)) & 1
            if parity != e.theta_bit:
                ok = False
                break
        sat += ok
    return 1 << pcg.n, sat


def naive_first_witness(pcg: PCG) -> int | None:
    """Least satisfying assignment in binary-counter order, or None."""
    for bits in range(1 << pcg.n):
        if all((bits & e.mask).bit_count() & 1 == e.theta_bit for e in pcg.edges):
            return bits
    return None


def truth_table_census(pcg: PCG) -> tuple[int, int, int | None]:
    """(total, satisfying, least satisfying assignment) from whole 2^n-bit tables.

    Each edge's satisfaction over every assignment is one 2^n-bit int,
    the XOR of per-vertex tables built by doubling a run of 2^(v-1)
    zeros and 2^(v-1) ones; the satisfying set is the AND over edges.
    """
    total = 1 << pcg.n
    ones = (1 << total) - 1
    acc = ones
    for e in pcg.edges:
        parity = 0
        for v in e.vertices:
            run = 1 << (v - 1)
            table, width = ((1 << run) - 1) << run, 2 * run  # set where vertex v is red
            while width < total:
                table |= table << width
                width <<= 1
            parity ^= table
        acc &= parity if e.theta_bit else ~parity & ones
    first = (acc & -acc).bit_length() - 1 if acc else None
    return total, acc.bit_count(), first


def greedy_uncolorable_subset(pcg: PCG) -> tuple[SignedEdge, ...]:
    """Drop edges in order while the rest stays un-colorable, judged by census."""
    keep = list(pcg.edges)
    i = 0
    while i < len(keep):
        trial = keep[:i] + keep[i + 1:]
        if naive_census(PCG(pcg.n, tuple(trial)))[1] == 0:
            keep = trial
        else:
            i += 1
    return tuple(keep)


def _connected_cover(n: int, edges: tuple[frozenset[int], ...]) -> bool:
    """Do the edges reach every vertex 1..n from the first edge?"""
    reached = set(edges[0])
    grew = True
    while grew:
        grew = False
        for e in edges:
            if e & reached and not e <= reached:
                reached |= e
                grew = True
    return reached == set(range(1, n + 1))


def reference_enumeration(n: int, max_edges: int, sizes=None) -> list:
    """Sorted canonical forms of every signing of every labeled valid structure.

    Every connected antichain of allowed edges, in every labeling, times
    every sign vector, goes through ``canonical_form``; nothing is
    skipped on the grounds of symmetry.
    """
    allowed = range(1, n) if sizes is None else sorted({s for s in sizes if 1 <= s < n})
    universe = [frozenset(c) for size in allowed for c in combinations(range(1, n + 1), size)]
    forms = set()
    for p in range(1, max_edges + 1):
        for combo in combinations(universe, p):
            if any(a <= b for a, b in permutations(combo, 2)):
                continue
            if not _connected_cover(n, combo):
                continue
            for signs in product((+1, -1), repeat=p):
                forms.add(canonical_form(PCG(n, tuple(
                    SignedEdge(tuple(e), s) for e, s in zip(combo, signs)
                ))))
    return sorted(forms)


def random_valid_pcg(rng: random.Random, max_n: int = 10, max_edges: int = 8) -> PCG:
    """Rejection-sample a structurally valid instance."""
    while True:
        n = rng.randint(3, max_n)
        p = rng.randint(1, max_edges)
        edges = []
        masks = []
        ok = True
        for _ in range(p):
            size = rng.randint(1, max(1, min(n - 1, 4)))
            verts = tuple(sorted(rng.sample(range(1, n + 1), size)))
            mask = 0
            for v in verts:
                mask |= 1 << (v - 1)
            if any(mask & m in (mask, m) for m in masks):
                ok = False
                break
            masks.append(mask)
            edges.append(SignedEdge(verts, rng.choice((+1, -1))))
        if not ok:
            continue
        pcg = PCG(n, tuple(edges))
        if validate(pcg).ok:
            return pcg


def random_b_terms(rng: random.Random, pcg: PCG, max_terms: int = 2) -> tuple[BTerm, ...]:
    """Random admissible orthogonal-component terms (possibly none)."""
    count = rng.randint(0, max_terms)
    if count == 0:
        return ()
    patterns: list[tuple[int, ...]] = []
    edge_sets = [set(e.vertices) for e in pcg.edges]
    attempts = 0
    while len(patterns) < count and attempts < 200:
        attempts += 1
        size = rng.randint(1, pcg.n)
        verts = tuple(sorted(rng.sample(range(1, pcg.n + 1), size)))
        if verts in patterns:
            continue
        if any(set(verts) <= s for s in edge_sets):
            continue
        patterns.append(verts)
    if not patterns:
        patterns = [tuple(range(1, pcg.n + 1))]  # the all-ones pattern always works
    weights = [rng.random() + 0.1 for _ in patterns]
    phases = [np.exp(2j * np.pi * rng.random()) for _ in patterns]
    total = sum(weights)
    return tuple(
        BTerm(verts, phase * np.sqrt(w / total))
        for verts, w, phase in zip(patterns, weights, phases)
    )


def dense_vector(state) -> np.ndarray:
    """Dense statevector with site 1 as the most significant digit.

    Sparse keys hold site v's digit at place d^(v-1); they are decoded
    here digit by digit, without the library's key helpers.
    """
    dim = state.d ** state.n
    vec = np.zeros(dim, dtype=complex)
    for key, amp in state.amplitudes.items():
        idx, rest = 0, key
        for _ in range(state.n):  # sites 1..n, least significant place first
            rest, digit = divmod(rest, state.d)
            idx = idx * state.d + digit
        assert rest == 0, f"key {key} has digits beyond site {state.n}"
        vec[idx] = amp
    return vec


def dense_shift_product(n: int, d: int, sites: set[int]) -> np.ndarray:
    """Dense matrix of the product over ``sites`` of X with X|m> = |m-1 mod d>."""
    x = np.zeros((d, d), dtype=complex)
    for m in range(d):
        x[(m - 1) % d, m] = 1
    out = np.array([[1.0 + 0j]])
    for site in range(1, n + 1):
        out = np.kron(out, x if site in sites else np.eye(d, dtype=complex))
    return out


def dense_y_product(n: int, sites: set[int]) -> np.ndarray:
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    out = np.array([[1.0 + 0j]])
    for site in range(1, n + 1):
        out = np.kron(out, y if site in sites else np.eye(2, dtype=complex))
    return out


def dense_product_distribution(state, sites: set[int], basis: str = "X") -> dict[int, float]:
    """Spectral distribution of the product observable via dense projectors."""
    vec = dense_vector(state)
    d = state.d
    if basis == "Y":
        w_mat = dense_y_product(state.n, sites)
    else:
        w_mat = dense_shift_product(state.n, d, sites)
    omega = np.exp(2j * np.pi / d)
    dist = {}
    for j in range(d):
        proj = sum(
            np.linalg.matrix_power(w_mat, m) * omega ** (-j * m) for m in range(d)
        ) / d
        dist[j] = float(np.real(vec.conj() @ (proj @ vec)))
    return dist
