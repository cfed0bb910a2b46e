"""Projected-coloring graphs: structure rules, colorability, census, irreducibility.

A projected-coloring graph (PCG) is a connected signed hypergraph on
vertices 1..n whose edges form an antichain under inclusion.  Each edge
carries a sign theta in {+1, -1} (drawn red for +1, green for -1).  The
coloring game assigns C(v) in {+1 (green), -1 (red)} to each vertex and
asks that prod_{v in S} C(v) = -theta_S for every edge S.

Bit convention used throughout: b_v = (1 - C(v)) / 2, so green is 0 and
red is 1, and the game becomes the parity system A.b = Theta over GF(2),
where A is the edge/vertex incidence matrix and Theta_i = 1 iff
theta_i = +1.  Column j of A is vertex j+1; assignment integers place
vertex 1 in the least significant bit, as in every vertex mask; the one
converter each way is :func:`site_mask` and :func:`mask_vertices`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import PcgValidationError, ResourceLimitError
from .gf2 import back_substitute, eliminate

DEFAULT_CENSUS_CAP = 24
# The blocked census keeps process RSS flat (about 20 MB at n = 24..30).
# Where no subtree of its walk can be skipped, its time doubles per
# vertex: about 20 ms at n = 30 on a 2-CPU host, for a star whose hub is
# vertex 17, the first high digit, so every group is ANDed at the leaves.
MAX_CENSUS_CAP = 30
# A census block covers at most 2^16 assignments, so a table is at most 8 KB.
CENSUS_BLOCK_BITS = 16
# A "disconnected" message lists at most this many vertices, then their count.
MAX_LISTED_VERTICES = 64


@dataclass(frozen=True, slots=True)
class SignedEdge:
    """Edge vertex set (sorted, 1-based) with sign theta in {+1, -1}."""

    vertices: tuple[int, ...]
    theta: int
    _mask: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if not verts:
            raise ValueError("edge must contain at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError(f"edge {verts} repeats a vertex")
        if any(v < 1 for v in verts):
            raise ValueError(f"edge {verts} has a vertex below 1")
        if self.theta not in (+1, -1):
            raise ValueError(f"theta must be +1 or -1, got {self.theta}")
        object.__setattr__(self, "vertices", verts)

    @property
    def mask(self) -> int:
        """Bit v-1 set for each vertex v; built once, on first use rather than
        at construction, so a graph can reject an out-of-range vertex first."""
        if self._mask is None:
            object.__setattr__(self, "_mask", site_mask(self.vertices))
        return self._mask

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def theta_bit(self) -> int:
        """1 iff theta = +1, i.e. (theta + |theta|) / 2."""
        return 1 if self.theta == 1 else 0

    def to_json_dict(self) -> dict:
        """The edge as it appears in instance files, certificates and search output."""
        return {"vertices": list(self.vertices), "theta": self.theta}


@dataclass(frozen=True)
class PCG:
    """Signed hypergraph on vertices 1..n with an ordered edge list.

    Construction only enforces well-formedness (vertex ranges, edge
    shape).  The domain rules (edge sizes, antichain, connectivity) are
    checked by :func:`validate`, which reports violations as data.
    """

    n: int
    edges: tuple[SignedEdge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if e.vertices[-1] > self.n:
                raise ValueError(f"edge {e.vertices} exceeds vertex count {self.n}")

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[Sequence[int], int]]) -> "PCG":
        return cls(n, tuple(SignedEdge(tuple(vs), t) for vs, t in edges))

    @property
    def p(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        """The graph as it appears in search output and certificate digests."""
        return {"n": self.n, "edges": [e.to_json_dict() for e in self.edges]}


@dataclass(frozen=True)
class Violation:
    kind: str  # "edge-size" | "nested-edges" | "disconnected"
    message: str
    edges: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Coloring:
    """A coloring as its red-vertex mask: bit v-1 set iff C(v) = -1 (red)."""

    bits: int
    n: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"coloring mask {self.bits:#b} has a bit outside vertices 1..{self.n}")

    @property
    def values(self) -> tuple[int, ...]:
        """C(v) for v = 1..n: +1 for green, -1 for red."""
        return tuple(1 - 2 * (self.bits >> i & 1) for i in range(self.n))

    def satisfies(self, pcg: PCG) -> bool:
        return all((self.bits & e.mask).bit_count() & 1 == e.theta_bit for e in pcg.edges)


@dataclass(frozen=True)
class ColorabilityResult:
    colorable: bool
    rank_a: int
    rank_b: int
    witness: Coloring | None


@dataclass(frozen=True)
class ColoringCensus:
    total: int
    satisfying: int
    first_witness: Coloring | None


@dataclass(frozen=True)
class IrreducibilityResult:
    status: str  # "irreducible" | "reducible" | "not_applicable"
    witness: tuple[SignedEdge, ...] | None = None


def nested_pairs(edges: Sequence[SignedEdge]) -> Iterator[tuple[int, int]]:
    """(i, j) for each edge i whose vertices lie in edge j, in order of i then j.

    Equal vertex sets are reported once, with i < j; none means an
    antichain.  Edges are indexed by vertex: an edge containing edge i
    contains each of i's vertices, so edge i is tested only against the
    edges through its least-used vertex.
    """
    through: dict[int, list[int]] = {}  # vertex -> indices of the edges containing it
    for j, e in enumerate(edges):
        for v in e.vertices:
            if v in through:
                through[v].append(j)
            else:
                through[v] = [j]
    masks = [e.mask for e in edges]
    for i, e in enumerate(edges):
        candidates = through[e.vertices[0]]
        for v in e.vertices:
            if len(through[v]) < len(candidates):
                candidates = through[v]
        mi = masks[i]
        for j in candidates:
            mj = masks[j]
            if mi & mj == mi and j != i and (mj != mi or j > i):
                yield i, j


def components(masks: Iterable[int]) -> list[int]:
    """Vertex masks of the connected components of the edges with these masks."""
    parts: list[int] = []
    for m in masks:
        apart = []
        for part in parts:
            if part & m:
                m |= part
            else:
                apart.append(part)
        apart.append(m)
        parts = apart
    return parts


def site_mask(sites: Iterable[int]) -> int:
    """Mask with bit v-1 set for every listed 1-based vertex or site v."""
    mask = 0
    for v in sites:
        mask |= 1 << v
    return mask >> 1


def mask_vertices(mask: int) -> list[int]:
    """The vertices (1-based bit positions) of ``mask``, ascending, in O(bit length)."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    found, at = [], bits.find("1")
    while at >= 0:
        found.append(at + 1)
        at = bits.find("1", at + 1)
    return found


def validate(pcg: PCG) -> ValidationReport:
    """Check the domain rules; violations are returned, never raised."""
    violations: list[Violation] = []
    for i, e in enumerate(pcg.edges):
        if not 1 <= e.size < pcg.n:
            violations.append(Violation(
                "edge-size",
                f"edge #{i} {set(e.vertices)} has size {e.size}, need 1 <= size < {pcg.n}",
                (i,),
            ))
    for i, j in nested_pairs(pcg.edges):
        violations.append(Violation(
            "nested-edges",
            f"edge #{i} {set(pcg.edges[i].vertices)} is contained in "
            f"edge #{j} {set(pcg.edges[j].vertices)}",
            (i, j),
        ))
    # Connected with no isolated sub-structures: every vertex covered and
    # the edge hypergraph forms a single component.
    parts = components(e.mask for e in pcg.edges)
    covered = 0
    for part in parts:
        covered |= part
    uncovered = ((1 << pcg.n) - 1) & ~covered
    if uncovered:
        vertices = mask_vertices(uncovered)
        shown = vertices[:MAX_LISTED_VERTICES]
        violations.append(Violation(
            "disconnected",
            f"vertices {shown}{_unlisted(len(shown), len(vertices))} belong to no edge",
        ))
    if len(parts) > 1:
        vertex_lists = sorted(mask_vertices(part) for part in parts)
        shown_lists, left = [], MAX_LISTED_VERTICES
        for vertices in vertex_lists:
            if not left:
                break
            shown_lists.append(vertices[:left])
            left -= len(shown_lists[-1])
        total = sum(map(len, vertex_lists))
        unlisted = _unlisted(MAX_LISTED_VERTICES - left, total)
        count = f"{len(parts)} " if unlisted else ""
        violations.append(Violation(
            "disconnected",
            f"edge hypergraph splits into {count}components {shown_lists}{unlisted}",
        ))
    return ValidationReport(tuple(violations))


def _unlisted(shown: int, total: int) -> str:
    """Note on a truncated vertex listing; empty when every vertex is shown."""
    return f" (the first {shown} of {total} vertices)" if shown < total else ""


def require_valid(pcg: PCG) -> None:
    report = validate(pcg)
    if not report.ok:
        raise PcgValidationError(report)


def _reduce_hardy_system(pcg: PCG) -> tuple[list[int], list[int]]:
    """Rows ``e.mask | theta_bit << n`` reduced on the n vertex columns, with the pivots.

    Pivot rows give rank(A) and, through back substitution, the coloring
    with free variables green.  The other rows vanished on the vertex
    columns, so each holds only its theta bit: the graph is colorable
    iff all of them are 0.
    """
    n = pcg.n
    rows = [e.mask | e.theta_bit << n for e in pcg.edges]
    return rows, eliminate(rows, n)


def is_colorable(pcg: PCG) -> ColorabilityResult:
    """Decide the coloring game by the GF(2) rank criterion.

    The graph is colorable iff rank(A) == rank([A | Theta]).  The witness
    is the solution with all free variables green, so repeated calls
    return the identical coloring.
    """
    rows, pivots = _reduce_hardy_system(pcg)
    rank_a = len(pivots)
    if any(rows[rank_a:]):
        return ColorabilityResult(False, rank_a, rank_a + 1, None)
    bits = back_substitute(rows, pivots, pcg.n)
    return ColorabilityResult(True, rank_a, rank_a, Coloring(bits, pcg.n))


def census(d: int, n: int, constraints: Sequence[tuple[int, int]]) -> tuple[int, int | None]:
    """Count the x in Z_d^n with sum_{v in S} x_v = c (mod d) for every constraint (S, c).

    S is a site mask, bit v-1 for site v.  Returns the count and the least
    solution in counter order, as its index sum_v x_v d^(v-1), or None.

    Blocks of d^k assignments share their high n - k digits h, one bit per
    low part.  Over a block, (S, c) holds where the low digits of S sum to
    c - s_H(h), s_H the sum of h over S's high digits H: one of the d
    digit-sum tables of its low support L, built once per distinct L.  For
    d = 2 the odd table is the XOR of the tables of x_m = 1 over m in L; for
    d > 2 adding (or removing) digit m rotates the tables by x_m, from the
    nearest support already built.  Constraints with no high digit are ANDed
    once into a block-invariant table; those sharing H merge into d tables
    indexed by s_H.  The blocks are walked depth first, most significant
    digit first, d children per node; a group is ANDed in at the node that
    fixes its last high digit, and a subtree whose table is 0 is skipped.
    Every assignment is checked against every constraint, from digit sums.

    Block size: tables take a few d^k-bit operations per constraint, and
    each of up to d^(n-k) leaves about one per constraint plus an
    interpreter overhead worth some 2^6 table bits (fitted to the fastest
    k measured for the qudit family and binary graphs at n = 23..30).  The
    total p (d^k + 2^6 d^(n-k)) is least near d^(2k) = 2^6 d^n, so k is the
    largest value with d^(2k - n) <= 2^6, k <= n and d^k <= 2^CENSUS_BLOCK_BITS:
    k = 3, 4, 4, 4, 5 for the qudit family at d = 3..7, 15 for d = 2 at n = 24.
    """
    k = min(n, CENSUS_BLOCK_BITS)  # d >= 2, so the cap alone keeps k <= CENSUS_BLOCK_BITS
    while d ** k > 1 << CENSUS_BLOCK_BITS or d ** (2 * k) > d ** n << 6:
        k -= 1
    size, top = d ** k, n - k
    ones = (1 << size) - 1
    # last[m] marks x_m = d - 1.  XOR with itself moved down d^m marks x_m = d - 1
    # under x_(m+1) = d - 2 and d - 1; moves by even numbers of periods d^(m+1) fill the rest.
    last = [ones ^ (1 << size - size // d) - 1] if k else []
    for m in range(k - 2, -1, -1):
        pair = last[0] ^ last[0] >> d ** m
        last.insert(0, pair)
        for j in range(2, d, 2):
            last[0] |= pair >> j * d ** (m + 1)

    def rotate(tables: list[int], m: int, sign: int) -> list[int]:
        # the tables of a support with digit m added (sign 1) or taken out (sign -1)
        out = [0] * d
        for v in range(d):
            digit = last[m] >> (d - 1 - v) * d ** m  # x_m = v
            for r in range(d):
                out[(r + sign * v) % d] |= tables[r] & digit
        return out

    low_digits = (1 << k) - 1
    by_low = {0: [ones] + [0] * (d - 1)}  # low support -> its d digit-sum tables
    supports = {mask & low_digits for mask, _ in constraints} - {0}
    if d == 2:
        for low in supports:
            odd, rest = last[(low & -low).bit_length() - 1], low & (low - 1)
            while rest:
                odd ^= last[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            by_low[low] = [ones ^ odd, odd]
    else:
        for low in sorted(supports, key=int.bit_count, reverse=True):
            base = min(by_low, key=lambda built: (built ^ low).bit_count())
            tables = by_low[base]
            for rest, sign in ((low & ~base, 1), (base & ~low, -1)):
                while rest:
                    tables = rotate(tables, (rest & -rest).bit_length() - 1, sign)
                    rest &= rest - 1
            by_low[low] = tables
    invariant = ones  # AND of the constraints with no high digit: the same in every block
    by_high: dict[int, list[int]] = {}  # high support -> merged tables indexed by s_H
    for mask, c in constraints:
        tables, high = by_low[mask & low_digits], mask >> k
        if not high:
            invariant &= tables[c % d]
        elif high in by_high:
            merged = by_high[high]
            for s in range(d):
                merged[s] &= tables[(c - s) % d]
        else:
            by_high[high] = [tables[(c - s) % d] for s in range(d)]
    # h holds high digit i as bit i of planes 0 .. x_i - 1, plane j from bit j*top, so
    # s_H(h) is the popcount of h AND H copied into every plane (unary[v]: v planes).
    unary = [sum(1 << j * top for j in range(v)) for v in range(d)]
    # A group's sum is fixed once its lowest high digit is assigned; walking
    # the high digits from the most significant down, that is depth top - digit.
    ready: list[list[tuple[int, list[int]]]] = [[] for _ in range(top + 1)]
    for high, merged in by_high.items():
        ready[top - (high & -high).bit_length() + 1].append((high * unary[-1], merged))
    steps = [[copies << top - 1 - depth for copies in unary] for depth in range(top)]
    satisfying = 0
    first = None

    def walk(depth: int, h: int, acc: int) -> None:
        # acc holds the groups ready at depth; a child is entered if its own leave any bit
        nonlocal satisfying, first
        if depth == top:
            satisfying += acc.bit_count()
            if first is None:
                first = sum((h >> i & unary[-1]).bit_count() * size * d ** i for i in range(top))
                first += (acc & -acc).bit_length() - 1
            return
        for step in steps[depth]:
            child, sub = h | step, acc
            for fields, merged in ready[depth + 1]:
                sub &= merged[(child & fields).bit_count() % d]
                if not sub:
                    break
            else:
                walk(depth + 1, child, sub)

    if invariant:
        walk(0, 0, invariant)
    return satisfying, first


def brute_force_colorings(pcg: PCG, cap: int = DEFAULT_CENSUS_CAP) -> ColoringCensus:
    """Exhaustive census of all 2^n colorings: :func:`census` with d = 2 and one
    constraint per edge, its vertices' bits summing to its theta bit; the first
    witness is the least solution in binary-counter order, vertex 1 least significant.
    """
    if cap > MAX_CENSUS_CAP:
        raise ResourceLimitError(f"census cap {cap} exceeds the ceiling of {MAX_CENSUS_CAP}")
    if pcg.n > cap:
        raise ResourceLimitError(f"census over 2^{pcg.n} assignments exceeds cap {cap}")
    satisfying, first = census(2, pcg.n, [(e.mask, e.theta_bit) for e in pcg.edges])
    witness = None if first is None else Coloring(first, pcg.n)
    return ColoringCensus(1 << pcg.n, satisfying, witness)


def irreducibility_status(pcg: PCG) -> str:
    """Irreducibility status of ``pcg`` from one elimination.

    Returns "not_applicable" for a colorable graph, else "irreducible"
    or "reducible".  Irreducible means no proper sub-list of edges is
    already un-colorable and every vertex is constrained by some edge.
    The reduction is :func:`is_colorable`'s, with no row tags; the
    graph is colorable iff no row that vanished kept its theta bit.  The
    proofs of un-colorability are the odd vectors y of the left kernel
    K = {y : y A = 0}, and no edge can be dropped iff the only odd y
    selects every edge.  Any other nonzero y in K, or its sum with that
    all-ones proof, would be an odd y that misses an edge, so this holds
    iff K = {0, all-ones}: rank A = p - 1 and every vertex lies on an
    even number of edges (the XOR of the edge masks is 0).  The argument
    needs no domain rule, so it holds for any edge list, duplicates and
    p = 0 included.
    """
    rows, pivots = _reduce_hardy_system(pcg)
    rank = len(pivots)
    if not any(rows[rank:]):
        return "not_applicable"
    if rank != len(rows) - 1:
        return "reducible"
    parity = covered = 0
    for e in pcg.edges:
        m = e.mask
        parity ^= m
        covered |= m
    return "irreducible" if not parity and covered == (1 << pcg.n) - 1 else "reducible"


def is_irreducible(pcg: PCG) -> IrreducibilityResult:
    """Classify an un-colorable graph as irreducible or reducible.

    The status is :func:`irreducibility_status`.  Only a reducible
    graph gets a second, tagged elimination, which builds its witness:
    a minimal un-colorable edge subset found by greedy deletion in edge
    order.  Deleting edge i restricts the proofs of un-colorability
    (left-kernel y with y.Theta = 1) to y_i = 0, and the deletion is
    kept iff an odd proof survives.  Checking single-edge deletions
    suffices: dropping constraints only enlarges the solution set.
    """
    status = irreducibility_status(pcg)
    if status != "reducible":
        return IrreducibilityResult(status)
    # With row i tagged by bit n + 1 + i, the rows that vanish, shifted right by n,
    # span the left kernel {y : y A = 0} with bit 0 = y.Theta and bit i + 1 = y_i.
    n = pcg.n
    rows = [e.mask | e.theta_bit << n | 1 << (n + 1 + i) for i, e in enumerate(pcg.edges)]
    proofs = [row >> n for row in rows[len(eliminate(rows, n)):]]
    keep = []
    for i, e in enumerate(pcg.edges):
        bit = 2 << i
        lead = next((y for y in proofs if y & bit), 0)  # 0: every proof already has y_i = 0
        restricted = [y ^ lead if y & bit else y for y in proofs if y != lead]
        if any(y & 1 for y in restricted):
            proofs = restricted
        else:
            keep.append(e)
    return IrreducibilityResult("reducible", tuple(keep))
