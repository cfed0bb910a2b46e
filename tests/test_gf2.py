import random

import pytest
from hypothesis import given, settings, strategies as st

from pcgraph.gf2 import Gf2Matrix, Gf2Vector, back_substitute, eliminate, rank, solve

from _oracles import (
    exhaustive_solve_exists,
    gauss_jordan_eliminate,
    gauss_jordan_witness,
    span_rank,
)


def mat(rows, cols=None):
    return Gf2Matrix.from_rows(rows, cols)


def vec(entries):
    return Gf2Vector.from_bits(entries)


def test_rank_identity():
    assert rank(Gf2Matrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(Gf2Matrix.zeros(3, 3)) == 0


def test_rank_dependent_rows():
    # the three rows XOR to zero, so only two are independent
    m = mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert span_rank(list(m.row_bits)) == 2
    assert rank(m) == 2


def test_rank_input_not_modified():
    m = mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    before = m.row_bits
    rank(m)
    assert m.row_bits == before


def test_solve_identity_system():
    solution = solve(Gf2Matrix.identity(3), vec([1, 0, 1]))
    assert solution is not None
    assert solution.to_list() == [1, 0, 1]


def test_solve_inconsistent_triangle():
    m = mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    rhs = vec([1, 1, 1])
    assert not exhaustive_solve_exists(list(m.row_bits), rhs.to_list(), 3)
    assert solve(m, rhs) is None


def test_solve_free_variable_defaults_to_zero():
    solution = solve(mat([[1, 1]]), vec([1]))
    assert solution is not None
    assert solution.to_list() == [1, 0]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Gf2Matrix.identity(3), vec([1, 0]))


def test_augment_and_mul():
    m = mat([[1, 1, 0], [0, 1, 1]])
    aug = m.augment_column(vec([1, 0]))
    assert aug.cols == 4
    assert aug.get(0, 3) == 1 and aug.get(1, 3) == 0
    out = m.mul_vec(vec([1, 1, 1]))
    assert out.to_list() == [0, 0]


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return Gf2Matrix.from_bitmasks(bits, cols)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@given(matrices(), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_rank_invariant_under_row_operations(m, seed):
    rng = random.Random(seed)
    work = list(m.row_bits)
    for _ in range(10):
        i, j = rng.randrange(len(work)), rng.randrange(len(work))
        if rng.random() < 0.5:
            work[i], work[j] = work[j], work[i]
        elif i != j:
            work[i] ^= work[j]
    shuffled = Gf2Matrix.from_bitmasks(work, m.cols)
    assert rank(shuffled) == rank(m)


@given(matrices(max_cols=6), st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_solve_matches_exhaustive_search(m, rhs_bits):
    rhs = Gf2Vector(m.rows, rhs_bits & ((1 << m.rows) - 1))
    solution = solve(m, rhs)
    exists = exhaustive_solve_exists(list(m.row_bits), rhs.to_list(), m.cols)
    if solution is None:
        assert not exists
    else:
        assert exists
        assert m.mul_vec(solution).bits == rhs.bits


@given(matrices(), st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_augmented_rank_and_consistency(m, rhs_bits):
    rhs = Gf2Vector(m.rows, rhs_bits & ((1 << m.rows) - 1))
    r = rank(m)
    r_aug = rank(m.augment_column(rhs))
    assert r_aug in (r, r + 1)
    assert (solve(m, rhs) is not None) == (r_aug == r)


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
