"""Exact linear algebra over GF(2) on bit-packed rows.

Rows are Python ints used as bitsets; bit ``j`` of a row is the entry in
column ``j``.  The one elimination kernel, :func:`eliminate`, inserts
rows into a row echelon form keyed by each row's lowest set column, so
a row is reduced only along its own bits and every result is
deterministic.  :func:`back_substitute` reads the solution with free
variables 0 off that echelon form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Gf2Vector:
    """Bit vector of fixed length; bit i of ``bits`` is component i."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("vector length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def from_bits(cls, entries: Iterable[int]) -> "Gf2Vector":
        bits = 0
        n = 0
        for i, e in enumerate(entries):
            if e not in (0, 1):
                raise ValueError(f"entry {i} is {e}, expected 0 or 1")
            bits |= e << i
            n = i + 1
        return cls(n, bits)

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"component {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]


@dataclass(frozen=True)
class Gf2Matrix:
    """Bit matrix stored one int per row."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be non-negative")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match storage")
        for r, bits in enumerate(self.row_bits):
            if bits < 0 or bits >> self.cols:
                raise ValueError(f"row {r} has bits outside {self.cols} columns")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Gf2Matrix":
        parsed = []
        width = cols
        for r, row in enumerate(rows):
            entries = list(row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError(f"row {r} has {len(entries)} entries, expected {width}")
            bits = 0
            for j, e in enumerate(entries):
                if e not in (0, 1):
                    raise ValueError(f"entry ({r},{j}) is {e}, expected 0 or 1")
                bits |= e << j
            parsed.append(bits)
        return cls(len(parsed), width or 0, tuple(parsed))

    @classmethod
    def from_bitmasks(cls, masks: Iterable[int], cols: int) -> "Gf2Matrix":
        masks = tuple(masks)
        return cls(len(masks), cols, masks)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols, (0,) * rows)

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r},{c}) out of range for {self.rows}x{self.cols}")
        return (self.row_bits[r] >> c) & 1

    def transpose(self) -> "Gf2Matrix":
        cols = []
        for c in range(self.cols):
            bits = 0
            for r in range(self.rows):
                bits |= ((self.row_bits[r] >> c) & 1) << r
            cols.append(bits)
        return Gf2Matrix(self.cols, self.rows, tuple(cols))

    def augment_column(self, rhs: Gf2Vector) -> "Gf2Matrix":
        """Append ``rhs`` as an extra final column."""
        if rhs.length != self.rows:
            raise ValueError(f"rhs length {rhs.length} != row count {self.rows}")
        rows = tuple(bits | (rhs.get(r) << self.cols) for r, bits in enumerate(self.row_bits))
        return Gf2Matrix(self.rows, self.cols + 1, rows)

    def mul_vec(self, v: Gf2Vector) -> Gf2Vector:
        if v.length != self.cols:
            raise ValueError(f"vector length {v.length} != column count {self.cols}")
        out = 0
        for r, bits in enumerate(self.row_bits):
            out |= ((bits & v.bits).bit_count() & 1) << r
        return Gf2Vector(self.rows, out)


def eliminate(rows: list[int], cols: int) -> list[int]:
    """Reduce ``rows`` in place to row echelon form on columns ``0..cols-1``.

    Each row in turn cancels its lowest set column against the pivot row
    that leads there, until it leads at a new column or vanishes below
    ``cols``.  Returns the pivot columns in ascending order: row k now
    leads at ``pivots[k]``, and the later rows are zero below ``cols``.
    Pivot rows are not reduced above their lead.  The pivot columns are
    the lowest set columns of the row space, so they do not depend on
    the row order.  Bits at or above ``cols`` ride along with every row
    operation (a right-hand side, a row tag).
    """
    low = (1 << cols) - 1
    lead_row: dict[int, int] = {}
    zero_rows = []
    for row in rows:
        while bits := row & low:
            c = (bits & -bits).bit_length() - 1
            pivot = lead_row.get(c)
            if pivot is None:
                lead_row[c] = row
                break
            row ^= pivot
        else:
            zero_rows.append(row)
    pivots = sorted(lead_row)
    rows[:] = [lead_row[c] for c in pivots] + zero_rows
    return pivots


def back_substitute(rows: list[int], pivots: list[int], cols: int) -> int:
    """The solution of the echelon system with every free variable 0.

    ``rows`` and ``pivots`` are as :func:`eliminate` leaves them; bit
    ``cols`` of each row is its right-hand side.  Pivot variables are
    fixed from the last pivot back, each from the variables above it.
    """
    x = 0
    for row, c in zip(reversed(rows[:len(pivots)]), reversed(pivots)):
        if ((row & x).bit_count() ^ row >> cols) & 1:
            x |= 1 << c
    return x


def rank(m: Gf2Matrix) -> int:
    """Row rank over GF(2) via :func:`eliminate`; input untouched."""
    return len(eliminate(list(m.row_bits), m.cols))


def solve(a: Gf2Matrix, rhs: Gf2Vector) -> Gf2Vector | None:
    """One solution of ``a @ x = rhs`` over GF(2), or None if inconsistent.

    Free variables are set to 0, which makes the result the
    lexicographically least solution by column index.
    """
    if rhs.length != a.rows:
        raise ValueError(f"rhs length {rhs.length} != row count {a.rows}")
    rhs_bit = 1 << a.cols
    work = [bits | (rhs.get(r) << a.cols) for r, bits in enumerate(a.row_bits)]
    pivots = eliminate(work, a.cols)
    if any(row & rhs_bit for row in work[len(pivots):]):
        return None
    return Gf2Vector(a.cols, back_substitute(work, pivots, a.cols))
