import random

import pytest
from hypothesis import given, settings, strategies as st

from pcgraph.gf2 import back_substitute, eliminate, rank, solve

from _oracles import (
    exhaustive_solve_exists,
    gauss_jordan_eliminate,
    gauss_jordan_witness,
    span_rank,
)

TRIANGLE = [0b110, 0b101, 0b011]  # the three rows XOR to zero


def identity(n):
    return [1 << i for i in range(n)]


def transpose(rows, cols):
    return [sum((row >> c & 1) << r for r, row in enumerate(rows)) for c in range(cols)]


def test_rank_identity():
    assert rank(identity(3), 3) == 3


def test_rank_zero_matrix():
    assert rank([0, 0, 0], 3) == 0


def test_rank_dependent_rows():
    # the three rows XOR to zero, so only two are independent
    assert span_rank(TRIANGLE) == 2
    assert rank(TRIANGLE, 3) == 2


def test_rank_input_not_modified():
    rows = list(TRIANGLE)
    rank(rows, 3)
    solve(rows, 0b011, 3)
    assert rows == TRIANGLE


def test_solve_identity_system():
    assert solve(identity(3), 0b101, 3) == 0b101


def test_solve_inconsistent_triangle():
    assert not exhaustive_solve_exists(TRIANGLE, [1, 1, 1], 3)
    assert solve(TRIANGLE, 0b111, 3) is None


def test_solve_free_variable_defaults_to_zero():
    assert solve([0b11], 1, 2) == 0b01


def test_bits_at_or_above_cols_are_ignored():
    wide = [row | 0b1000 for row in identity(3)]
    assert rank(wide, 3) == 3
    assert solve(wide, 0b101, 3) == 0b101


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(3), 1 << 3, 3)
    with pytest.raises(ValueError):
        solve(identity(2), 0b100, 2)
    with pytest.raises(ValueError):
        solve([], 1, 2)
    with pytest.raises(ValueError):
        solve(identity(3), -1, 3)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """(rows, cols): 1..max_rows rows over 1..max_cols columns."""
    n_rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=n_rows, max_size=n_rows))
    return rows, cols


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_equals_transpose_rank(m):
    rows, cols = m
    assert rank(rows, cols) == rank(transpose(rows, cols), len(rows))


@given(matrices(), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_rank_invariant_under_row_operations(m, seed):
    rows, cols = m
    rng = random.Random(seed)
    work = list(rows)
    for _ in range(10):
        i, j = rng.randrange(len(work)), rng.randrange(len(work))
        if rng.random() < 0.5:
            work[i], work[j] = work[j], work[i]
        elif i != j:
            work[i] ^= work[j]
    assert rank(work, cols) == rank(rows, cols)


@given(matrices(max_cols=6), st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_solve_matches_exhaustive_search(m, rhs_bits):
    rows, cols = m
    rhs = rhs_bits & ((1 << len(rows)) - 1)
    solution = solve(rows, rhs, cols)
    exists = exhaustive_solve_exists(rows, [rhs >> r & 1 for r in range(len(rows))], cols)
    if solution is None:
        assert not exists
    else:
        assert exists
        assert all((row & solution).bit_count() & 1 == rhs >> r & 1 for r, row in enumerate(rows))
        pivot_mask = sum(1 << c for c in eliminate(list(rows), cols))
        assert solution & ~pivot_mask == 0  # free variables are 0


@given(matrices(), st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_augmented_rank_and_consistency(m, rhs_bits):
    rows, cols = m
    rhs = rhs_bits & ((1 << len(rows)) - 1)
    r = rank(rows, cols)
    r_aug = rank([row | (rhs >> i & 1) << cols for i, row in enumerate(rows)], cols + 1)
    assert r_aug in (r, r + 1)
    assert (solve(rows, rhs, cols) is not None) == (r_aug == r)


# --- the echelon kernel against the Gauss-Jordan oracle ----------------------------

def _span(rows: list[int]) -> set[int]:
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return span


@st.composite
def tagged_systems(draw):
    """(rows, cols): up to 10 rows over 1..80 columns with bits above ``cols``.

    Rows may be zero or repeat an earlier row; bit ``cols`` serves as a
    right-hand side, and each row also carries its own tag bit above all
    others, so the rows that vanish below ``cols`` span the left kernel.
    """
    cols = draw(st.integers(1, 80))
    width = cols + draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        choices = [st.just(0), st.integers(0, (1 << width) - 1)]
        if rows:
            choices.append(st.sampled_from(rows))
        rows.append(draw(st.one_of(*choices)))
    return [row | 1 << (width + i) for i, row in enumerate(rows)], cols


@given(tagged_systems())
@settings(max_examples=300, deadline=None)
def test_eliminate_matches_gauss_jordan(system):
    rows, cols = system
    low = (1 << cols) - 1
    expected_rows = list(rows)
    expected = gauss_jordan_eliminate(expected_rows, cols)
    work = list(rows)
    pivots = eliminate(work, cols)
    r = len(pivots)
    assert pivots == expected
    assert r == span_rank([row & low for row in rows])
    assert len(work) == len(rows) and _span(work) == _span(rows)
    assert [(row & low & -(row & low)).bit_length() - 1 for row in work[:r]] == pivots
    assert all(row & low == 0 for row in work[r:])
    assert _span(work[r:]) == _span(expected_rows[r:])  # the same left kernel
    witness = gauss_jordan_witness(rows, cols)
    consistent = not any(row >> cols & 1 for row in work[r:])
    assert consistent == (witness is not None)
    if consistent:
        x = back_substitute(work, pivots, cols)
        assert x == witness
        assert all((row & x).bit_count() & 1 == row >> cols & 1 for row in rows)


@given(tagged_systems(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_eliminate_pivots_ignore_row_order(system, rng):
    rows, cols = system
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert eliminate(list(rows), cols) == eliminate(shuffled, cols)
