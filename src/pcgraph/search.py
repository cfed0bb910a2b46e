"""Exhaustive enumeration of small graphs up to vertex relabeling."""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from .errors import ResourceLimitError
from .graph import PCG, SignedEdge, is_colorable, is_irreducible

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


def _is_antichain(masks: Sequence[int]) -> bool:
    for i, mi in enumerate(masks):
        for mj in masks[i + 1:]:
            if mi & mj in (mi, mj):
                return False
    return True


def _is_connected(masks: Sequence[int], n: int) -> bool:
    covered = 0
    for m in masks:
        covered |= m
    if covered != (1 << n) - 1:
        return False
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in masks:
        first = (m & -m).bit_length() - 1
        root = find(first)
        rest = m ^ (1 << first)
        while rest:
            low = rest & -rest
            parent[find(low.bit_length() - 1)] = root
            rest ^= low
    return len({find(v) for v in range(n)}) == 1


def _enumerate_partition(args: tuple[int, tuple[int, ...], int, int]) -> set[CanonicalForm]:
    """All canonical forms whose structure starts at one universe index."""
    n, universe, first_idx, max_edges = args
    found: set[CanonicalForm] = set()
    first = universe[first_idx]
    rest = universe[first_idx + 1:]
    for extra in range(max_edges):
        for tail in combinations(rest, extra):
            masks = (first,) + tail
            if not _is_antichain(masks):
                continue
            if not _is_connected(masks, n):
                continue
            for signs in product((+1, -1), repeat=len(masks)):
                pcg = PCG(n, tuple(
                    SignedEdge(
                        tuple(v + 1 for v in range(n) if (m >> v) & 1), s
                    )
                    for m, s in zip(masks, signs)
                ))
                found.add(canonical_form(pcg))
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
            "representatives": [
                {"n": p.n, "edges": [e.to_json_dict() for e in p.edges]}
                for p in self.representatives
            ],
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
