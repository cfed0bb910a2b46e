"""Exhaustive enumeration of small graphs up to vertex relabeling."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Iterable

from .errors import ResourceLimitError
from .graph import PCG, SignedEdge, components, irreducibility_status, mask_vertices

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


@cache
def _tables_onto(n: int, target: int) -> dict[int, list[tuple[int, ...]]]:
    """The relabel tables of ``n``, grouped by the mask that each sends onto ``target``."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for table in _relabel_tables(n):
        groups.setdefault(table.index(target), []).append(table)
    return groups


def _sorts_lower(n: int, masks: tuple[int, ...]) -> bool:
    """Does some relabeling sort the ascending ``masks`` below themselves?

    ``masks[0]`` must be ``(1 << s) - 1`` and no mask may have fewer than
    s vertices.  Then no image lies below ``masks[0]``, so only a table
    that sends one of ``masks`` onto it can sort them lower, and only
    those tables are tried.
    """
    groups = _tables_onto(n, masks[0])
    return any(
        tuple(sorted(map(table.__getitem__, masks))) < masks
        for m in masks for table in groups.get(m, ())
    )


def _signed_forms(n: int, masks: tuple[int, ...]) -> set[CanonicalForm]:
    """Canonical forms of every signing of the ascending structure ``masks``.

    ``masks`` must be its own unsigned canonical form, so each structure
    is signed in exactly one labeling.  The signed form is the minimum
    over every relabeling, not just the unsigned minimum: pairs compare
    edge 1's theta before edge 2's mask.  Only relabelings that keep
    ``masks[0]`` first compete; a larger first mask loses whatever the
    signs.  A signed tuple is one int of n + 1 bits per edge,
    ``mask << 1 | (theta == +1)``, first edge most significant, so int
    order is tuple order.
    """
    width = n + 1
    shifts = range((len(masks) - 1) * width, -1, -width)
    groups = _tables_onto(n, masks[0])
    placements = {  # (image mask, edge index) pairs in the relabeled order
        tuple(sorted((table[m], i) for i, m in enumerate(masks)))
        for m in masks for table in groups.get(m, ())
    }
    signings = []
    for placement in placements:
        key, flips = 0, [0] * len(masks)
        for shift, (image, i) in zip(shifts, placement):
            key |= (image << 1 | 1) << shift
            flips[i] = 1 << shift
        keys = [key]  # keys[s]: edge i signed -1 for each bit i of s, +1 otherwise
        for flip in flips:
            keys += [k ^ flip for k in keys]
        signings.append(keys)
    full = (1 << n) - 1
    return {
        (n, tuple((key >> (shift + 1) & full, +1 if key >> shift & 1 else -1) for shift in shifts))
        for key in set(map(min, zip(*signings)))
    }


def _forms_led_by(
    n: int, universe: tuple[int, ...], apart: list[int], size: int, max_edges: int
) -> set[CanonicalForm]:
    """All canonical forms whose first edge is ``(1 << size) - 1``.

    An orderly walk (Read 1978) over ascending antichains: a child adds a
    later mask that lies neither inside nor over any mask it holds
    (``apart[j]`` holds the later masks apart from mask j), and a prefix
    that some relabeling sorts lower is dropped with its subtree.  The k
    smallest images of any extension are elementwise at most the sorted
    images of the prefix, so the extension sorts lower as well.  The
    walk starts from the one-edge prefix without testing it: a single
    edge sorts lower under no relabeling and, having fewer than n
    vertices, is never a graph.
    """
    found: set[CanonicalForm] = set()
    full = (1 << n) - 1

    def extend(masks: tuple[int, ...], cover: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            child = masks + (universe[j],)
            if _sorts_lower(n, child):
                continue
            child_cover = cover | universe[j]
            if child_cover == full and components(child) == [full]:
                found.update(_signed_forms(n, child))
            if len(child) < max_edges:
                extend(child, child_cover, candidates & apart[j])

    first = (1 << size) - 1
    # No mask may have fewer vertices than first: relabeling would move it
    # below first.  Every later candidate set is a subset of this one.
    wide_enough = 0
    for k, mk in enumerate(universe):
        if mk.bit_count() >= size:
            wide_enough |= 1 << k
    extend((first,), first, apart[universe.index(first)] & wide_enough)
    return found


def enumerate_pcgs(n: int, max_edges: int, sizes: Iterable[int] | None = None) -> list[PCG]:
    """Every valid graph, exactly once up to relabeling, in canonical order.

    ``sizes`` restricts edge cardinalities (default: everything the size
    rule allows).  Relabeling moves the smallest edge of a structure onto
    ``(1 << s) - 1``, so one walk per edge size s covers every structure.
    A one-vertex edge never leads a valid graph: no other edge may
    contain its vertex, so that vertex is a component of its own.  A
    valid graph needs two edges, since one edge misses a vertex.  Each
    distinct (mask, theta) edge is built once and shared by every graph
    that holds it.
    """
    if n < 1:
        raise ValueError(f"enumeration needs n >= 1, got n = {n}")
    if n > MAX_N:
        raise ResourceLimitError(f"enumeration supports n <= {MAX_N}")
    if max_edges > MAX_EDGES:
        raise ResourceLimitError(f"enumeration supports max_edges <= {MAX_EDGES}")
    allowed = set(range(1, n)) if sizes is None else {s for s in sizes if 1 <= s < n}
    universe = tuple(
        m for m in range(1, 1 << n) if m.bit_count() in allowed
    )
    forms: set[CanonicalForm] = set()
    if max_edges >= 2:
        apart = []  # apart[j]: the later masks that lie neither inside nor over mask j
        for j, mj in enumerate(universe):
            bits = 0
            for k in range(j + 1, len(universe)):
                if mj & universe[k] not in (mj, universe[k]):
                    bits |= 1 << k
            apart.append(bits)
        for size in allowed - {1}:
            forms |= _forms_led_by(n, universe, apart, size, max_edges)
    edges = {
        (mask, theta): SignedEdge(tuple(mask_vertices(mask)), theta)
        for mask, theta in {e for _, form_edges in forms for e in form_edges}
    }
    return [PCG(n, tuple(map(edges.__getitem__, form_edges))) for _, form_edges in sorted(forms)]


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
    """Count colorability classes; keep each irreducible instance.

    One tag-free elimination per graph: :func:`irreducibility_status`
    answers "not_applicable" exactly when the graph is colorable, and
    builds no reducible witness.
    """
    total = colorable = 0
    irreducible: list[PCG] = []
    for pcg in pcgs:
        total += 1
        status = irreducibility_status(pcg)
        if status == "not_applicable":
            colorable += 1
        elif status == "irreducible":
            irreducible.append(pcg)
    return SearchCensus(total, colorable, total - colorable, len(irreducible), tuple(irreducible))
