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
vertex 1 in the least significant bit.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import PcgValidationError, ResourceLimitError
from .gf2 import back_substitute, eliminate

DEFAULT_CENSUS_CAP = 24
# The blocked census keeps process RSS flat (34 MB at n = 24..30) while
# its time doubles per vertex: 0.24-0.33 s at n = 30 on a 2-CPU host.
MAX_CENSUS_CAP = 30
# Each census block covers 2^16 assignments, so each truth table is 8 KB.
CENSUS_BLOCK_BITS = 16


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
            m = 0
            for v in self.vertices:
                m |= 1 << (v - 1)
            object.__setattr__(self, "_mask", m)
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


def edge(vertices: Iterable[int], theta: int = 1) -> SignedEdge:
    return SignedEdge(tuple(vertices), theta)


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
    """Per-vertex color values, +1 for green and -1 for red."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (+1, -1) for v in self.values):
            raise ValueError("coloring values must be +1 or -1")

    @classmethod
    def from_bits(cls, bits: int, n: int) -> "Coloring":
        return cls(tuple(1 - 2 * ((bits >> i) & 1) for i in range(n)))

    @property
    def bits(self) -> int:
        out = 0
        for i, v in enumerate(self.values):
            out |= (0 if v == 1 else 1) << i
        return out

    def satisfies(self, pcg: PCG) -> bool:
        b = self.bits
        return all((b & e.mask).bit_count() & 1 == e.theta_bit for e in pcg.edges)


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


# Up to this many masks, testing every pair is faster than bucketing them:
# the search tests lists of 2-6 masks about a million times at n = 6.
PAIRWISE_MAX = 8


def nested_pairs(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(i, j) for each edge mask i contained in edge mask j, in order of i then j.

    Equal masks are reported once, with i < j; none means an antichain.
    Masks are bucketed by size: mask i can lie in a mask of larger size,
    and in a mask of its own size only if the two are equal, which a
    lookup finds.  So masks of one size cost O(p), not O(p^2).
    """
    if len(masks) <= PAIRWISE_MAX:
        for i, mi in enumerate(masks):
            for j, mj in enumerate(masks):
                if mi | mj == mj and (i < j or mi != mj):  # i == j fails both
                    yield i, j
        return
    by_size: dict[int, list[int]] = {}
    by_mask: dict[int, list[int]] = {}
    for j, m in enumerate(masks):
        by_size.setdefault(m.bit_count(), []).append(j)
        by_mask.setdefault(m, []).append(j)
    for i, mi in enumerate(masks):
        size = mi.bit_count()
        js = [j for s, bucket in by_size.items() if s > size
              for j in bucket if mi & masks[j] == mi]
        equal = by_mask[mi]
        js += equal[bisect_right(equal, i):]
        js.sort()
        for j in js:
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
    masks = [e.mask for e in pcg.edges]
    for i, j in nested_pairs(masks):
        violations.append(Violation(
            "nested-edges",
            f"edge #{i} {set(pcg.edges[i].vertices)} is contained in "
            f"edge #{j} {set(pcg.edges[j].vertices)}",
            (i, j),
        ))
    # Connected with no isolated sub-structures: every vertex covered and
    # the edge hypergraph forms a single component.
    parts = components(masks)
    covered = 0
    for part in parts:
        covered |= part
    uncovered = ((1 << pcg.n) - 1) & ~covered
    if uncovered:
        violations.append(Violation(
            "disconnected",
            f"vertices {mask_vertices(uncovered)} belong to no edge",
        ))
    if len(parts) > 1:
        vertex_lists = sorted(mask_vertices(part) for part in parts)
        violations.append(Violation(
            "disconnected",
            f"edge hypergraph splits into components {vertex_lists}",
        ))
    return ValidationReport(tuple(violations))


def require_valid(pcg: PCG) -> None:
    report = validate(pcg)
    if not report.ok:
        raise PcgValidationError(report)


def _reduce_hardy_system(pcg: PCG) -> tuple[list[int], list[int]]:
    """Rows ``e.mask | theta_bit << n | 1 << (n + 1 + i)`` reduced on the n vertex columns.

    Pivot rows give rank(A) and, through back substitution, the coloring
    with free variables green.
    The other rows, shifted right by n, span the left kernel {y : y A = 0}
    with bit 0 = y.Theta and bit i + 1 = y_i; an odd y is a proof that
    the edges it selects cannot all be satisfied.
    """
    n = pcg.n
    rows = [e.mask | e.theta_bit << n | 1 << (n + 1 + i) for i, e in enumerate(pcg.edges)]
    return rows, eliminate(rows, n)


def is_colorable(pcg: PCG) -> ColorabilityResult:
    """Decide the coloring game by the GF(2) rank criterion.

    The graph is colorable iff rank(A) == rank([A | Theta]).  The witness
    is the solution with all free variables green, so repeated calls
    return the identical coloring.
    """
    rows, pivots = _reduce_hardy_system(pcg)
    rank_a = len(pivots)
    theta_bit = 1 << pcg.n
    if any(row & theta_bit for row in rows[rank_a:]):
        return ColorabilityResult(False, rank_a, rank_a + 1, None)
    bits = back_substitute(rows, pivots, pcg.n)
    return ColorabilityResult(True, rank_a, rank_a, Coloring.from_bits(bits, pcg.n))


def _variable_table(v_idx: int, n: int) -> int:
    """Truth table of bit v over all 2^n assignments, packed into one int.

    Bit b of the result is the value of bit ``v_idx`` in assignment b.
    Built by doubling, so cost is O(n) big-int operations.
    """
    width = 1 << (v_idx + 1)
    table = ((1 << (1 << v_idx)) - 1) << (1 << v_idx)
    total = 1 << n
    while width < total:
        table |= table << width
        width <<= 1
    return table


def brute_force_colorings(pcg: PCG, cap: int = DEFAULT_CENSUS_CAP) -> ColoringCensus:
    """Exhaustive census of all 2^n colorings against every edge constraint.

    Enumeration is the plain binary counter with vertex 1 least
    significant.  The counter is walked in blocks of 2^k assignments,
    k = min(n, CENSUS_BLOCK_BITS), that share their high n - k bits h.
    Within a block an edge's parity over its high vertices is a
    constant, so its satisfaction over the block is a fixed 2^k-bit
    truth table of its low vertices, complemented when that constant
    is odd.  Every assignment is still checked, independently of the
    rank criterion, and memory stays O(p 2^k) bits for any n.
    """
    if cap > MAX_CENSUS_CAP:
        raise ResourceLimitError(f"census cap {cap} exceeds the ceiling of {MAX_CENSUS_CAP}")
    if pcg.n > cap:
        raise ResourceLimitError(f"census over 2^{pcg.n} assignments exceeds cap {cap}")
    k = min(pcg.n, CENSUS_BLOCK_BITS)
    ones = (1 << (1 << k)) - 1
    low = [_variable_table(v, k) for v in range(k)]
    constraints = []
    for e in pcg.edges:
        satisfied = 0 if e.theta_bit else ones  # for even high parity
        for v in e.vertices:
            if v <= k:
                satisfied ^= low[v - 1]
        constraints.append((e.mask >> k, (satisfied, satisfied ^ ones)))
    satisfying = 0
    first = None
    for h in range(1 << (pcg.n - k)):
        acc = ones
        for high, tables in constraints:
            acc &= tables[(h & high).bit_count() & 1]
            if not acc:
                break
        if acc:
            satisfying += acc.bit_count()
            if first is None:
                first = h << k | (acc & -acc).bit_length() - 1
    witness = None if first is None else Coloring.from_bits(first, pcg.n)
    return ColoringCensus(1 << pcg.n, satisfying, witness)


def is_irreducible(pcg: PCG) -> IrreducibilityResult:
    """Classify an un-colorable graph as irreducible or reducible.

    Irreducible means no proper sub-list of edges is already
    un-colorable and every vertex is constrained by some edge.  Checking
    single-edge deletions suffices: dropping constraints only enlarges
    the solution set.  The reducible witness is a minimal un-colorable
    edge subset found by greedy deletion in edge order.  Both answers
    come from one elimination: deleting edge i restricts the proofs of
    un-colorability (left-kernel y with y.Theta = 1) to y_i = 0, and the
    deletion is kept iff an odd proof survives.
    """
    rows, pivots = _reduce_hardy_system(pcg)
    proofs = [row >> pcg.n for row in rows[len(pivots):]]
    if not any(y & 1 for y in proofs):
        return IrreducibilityResult("not_applicable")
    keep = []
    for i, e in enumerate(pcg.edges):
        bit = 2 << i
        lead = next((y for y in proofs if y & bit), 0)  # 0: every proof already has y_i = 0
        restricted = [y ^ lead if y & bit else y for y in proofs if y != lead]
        if any(y & 1 for y in restricted):
            proofs = restricted
        else:
            keep.append(e)
    covered = {v for e in pcg.edges for v in e.vertices}
    if len(keep) == pcg.p and len(covered) == pcg.n:
        return IrreducibilityResult("irreducible")
    return IrreducibilityResult("reducible", tuple(keep))


def from_adjacency_map(regions: int, adjacency: Iterable[tuple[int, int]]) -> PCG:
    """PCG for a map-coloring instance: one red pair edge per border.

    Each adjacent pair of regions must end up with different colors,
    which is exactly a theta = +1 constraint on the pair.
    """
    pairs = []
    seen = set()
    for a, b in adjacency:
        if a == b:
            raise ValueError(f"region {a} cannot border itself")
        if not (1 <= a <= regions and 1 <= b <= regions):
            raise ValueError(f"border ({a},{b}) outside regions 1..{regions}")
        key = (min(a, b), max(a, b))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    pcg = PCG(regions, tuple(SignedEdge(pair, +1) for pair in sorted(pairs)))
    require_valid(pcg)
    return pcg
