"""Exact linear algebra over GF(2) on bit-packed rows.

Rows are Python ints used as bitsets; bit ``j`` of a row is the entry in
column ``j``.  The one elimination kernel, :func:`eliminate`, inserts
rows into a row echelon form keyed by each row's lowest set column, so
a row is reduced only along its own bits and every result is
deterministic.  :func:`back_substitute` reads the solution with free
variables 0 off that echelon form.  :func:`rank` and :func:`solve` wrap
the two for callers that hold plain rows; the library itself calls the
kernel directly.
"""
from __future__ import annotations

from typing import Sequence


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


def rank(rows: Sequence[int], cols: int) -> int:
    """Row rank over GF(2) on columns ``0..cols-1`` via :func:`eliminate`; input untouched."""
    return len(eliminate(list(rows), cols))


def solve(rows: Sequence[int], rhs: int, cols: int) -> int | None:
    """One x with ``(row & x).bit_count() % 2 == rhs >> r & 1`` for each row r, or None.

    Bit r of ``rhs`` is row r's right-hand side.  Free variables are 0,
    which makes the result the least solution read as an integer.  Row
    bits at or above ``cols`` are ignored.
    """
    if rhs < 0 or rhs >> len(rows):
        raise ValueError(f"rhs {rhs:#x} has a bit at or above the row count {len(rows)}")
    low = (1 << cols) - 1
    work = [row & low | (rhs >> r & 1) << cols for r, row in enumerate(rows)]
    pivots = eliminate(work, cols)
    if any(row >> cols for row in work[len(pivots):]):
        return None
    return back_substitute(work, pivots, cols)
