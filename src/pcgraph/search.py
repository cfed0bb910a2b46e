"""Exhaustive enumeration of small graphs up to vertex relabeling."""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from typing import Iterable

from .errors import ResourceLimitError
from .graph import PCG, SignedEdge, components, is_colorable, is_irreducible, nested_pairs

MAX_N = 6
MAX_EDGES = 12

CanonicalForm = tuple[int, tuple[tuple[int, int], ...]]  # (n, ((mask, theta), ...))


CANONICAL_MAX_N = 8  # minimization walks all n! relabelings


def canonical_form(pcg: PCG) -> CanonicalForm:
    """Lexicographically minimal signed edge encoding over all relabelings."""
    n = pcg.n
    if n > CANONICAL_MAX_N:
        raise ResourceLimitError(f"canonical form supports n <= {CANONICAL_MAX_N}")
    raw = [(e.mask, e.theta) for e in pcg.edges]
    best: tuple[tuple[int, int], ...] | None = None
    for perm in permutations(range(n)):
        mapped = []
        for mask, theta in raw:
            new_mask = 0
            m = mask
            while m:
                low = m & -m
                new_mask |= 1 << perm[low.bit_length() - 1]
                m ^= low
            mapped.append((new_mask, theta))
        candidate = tuple(sorted(mapped))
        if best is None or candidate < best:
            best = candidate
    return (n, best or ())


def pcg_from_canonical(form: CanonicalForm) -> PCG:
    n, edges = form
    return PCG(n, tuple(
        SignedEdge(tuple(v + 1 for v in range(n) if (mask >> v) & 1), theta)
        for mask, theta in edges
    ))


@cache
def _relabel_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each of the n! relabelings, the relabeled mask indexed by mask (once per n)."""
    tables = []
    for perm in permutations(range(n)):
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _signed_forms(n: int, masks: tuple[int, ...]) -> set[CanonicalForm]:
    """Canonical forms of every signing of the ascending structure ``masks``.

    Empty unless ``masks`` is its own unsigned canonical form, so each
    structure is signed in exactly one labeling.  Signing any other
    labeling would only relabel the same graphs.  The signed form is the
    minimum over every relabeling, not just the unsigned minimum: pairs
    compare edge 1's theta before edge 2's mask.
    """
    tables = _relabel_tables(n)
    for table in tables:  # most structures are relabeled copies: reject them cheaply
        if tuple(sorted(map(table.__getitem__, masks))) < masks:
            return set()
    relabelings = set()
    for table in tables:
        image, order = zip(*sorted((table[m], i) for i, m in enumerate(masks)))
        if image[0] == masks[0]:  # a larger first mask loses whatever the signs
            relabelings.add((image, order))
    return {
        (n, min(tuple(zip(image, map(signs.__getitem__, order))) for image, order in relabelings))
        for signs in product((+1, -1), repeat=len(masks))
    }


def _enumerate_partition(args: tuple[int, tuple[int, ...], int, int]) -> set[CanonicalForm]:
    """All canonical forms whose structure starts at one universe index."""
    n, universe, first_idx, max_edges = args
    found: set[CanonicalForm] = set()
    first = universe[first_idx]
    rest = universe[first_idx + 1:]
    connected = [(1 << n) - 1]
    for extra in range(max_edges):
        for tail in combinations(rest, extra):
            masks = (first,) + tail
            if next(nested_pairs(masks), None) is None and components(masks) == connected:
                found |= _signed_forms(n, masks)
    return found


def enumerate_pcgs(
    n: int,
    max_edges: int,
    sizes: Iterable[int] | None = None,
    workers: int = 1,
) -> list[PCG]:
    """Every valid graph, exactly once up to relabeling, in canonical order.

    ``sizes`` restricts edge cardinalities (default: everything the size
    rule allows).  Work is partitioned by the smallest edge mask and the
    partitions are merged and sorted, so worker count never changes the
    output.  At most min(workers, CPU count, partitions) processes start.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n > MAX_N:
        raise ResourceLimitError(f"enumeration supports n <= {MAX_N}")
    if max_edges > MAX_EDGES:
        raise ResourceLimitError(f"enumeration supports max_edges <= {MAX_EDGES}")
    allowed = set(range(1, n)) if sizes is None else {s for s in sizes if 1 <= s < n}
    universe = tuple(
        m for m in range(1, 1 << n) if m.bit_count() in allowed
    )
    tasks = [(n, universe, i, max_edges) for i in range(len(universe))]
    forms: set[CanonicalForm] = set()
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_enumerate_partition, tasks):
                forms |= part
    else:
        for task in tasks:
            forms |= _enumerate_partition(task)
    return [pcg_from_canonical(f) for f in sorted(forms)]


@dataclass(frozen=True)
class SearchCensus:
    total: int
    colorable: int
    uncolorable: int
    irreducible: int
    representatives: tuple[PCG, ...]  # canonical irreducible instances

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "colorable": self.colorable,
            "uncolorable": self.uncolorable,
            "irreducible": self.irreducible,
            "representatives": [p.to_json_dict() for p in self.representatives],
        }


def classify(pcgs: Iterable[PCG]) -> SearchCensus:
    """Count colorability classes; keep each irreducible instance."""
    total = colorable = uncolorable = 0
    irreducible: list[PCG] = []
    for pcg in pcgs:
        total += 1
        if is_colorable(pcg).colorable:
            colorable += 1
        else:
            uncolorable += 1
            if is_irreducible(pcg).status == "irreducible":
                irreducible.append(pcg)
    return SearchCensus(total, colorable, uncolorable, len(irreducible), tuple(irreducible))
