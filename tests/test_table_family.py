"""The table family's byte-row kernels against the entry-by-entry list kernels.

Every q here runs in the table family. Its sums take three routes: XOR in
characteristic 2 (4, 8, 16), one translate of x q + y through the addition
table for other q <= 16 (5, 7, 9), and byte by byte (17, 25). Rows 70 wide,
and rows of q - 1 throughout (the largest byte x q + y, q^2 - 1), push every
route to its most terms and its largest bytes.
"""

import random

import pytest

import rankmetric.matrix as mx
from rankmetric.errors import Singular
from rankmetric.gf import field_for_order
from rankmetric.matrix import Matrix, Subspace, invert, kernel_basis, random_matrix, random_unit, rank

from oracles import (intersect, subspace_sum, table_intersection, table_inverse, table_kernel,
                     table_product, table_rank, table_rref, table_sum, table_transpose)

FIELDS = [4, 5, 7, 8, 9, 16, 17, 25]


def _full(spec, rows, cols):
    return Matrix(spec, rows, cols, [spec.q - 1] * (rows * cols))


def _low_rank(spec, rows, cols, r, rng):
    return random_matrix(spec, rows, r, rng) * random_matrix(spec, r, cols, rng)


def _cases(spec, rng):
    """(a, b) with a * b defined: empty, 1 x 1, random, rank-deficient, all q - 1, 70 wide."""
    shapes = [(0, 5, 3), (5, 0, 3), (3, 5, 0), (0, 0, 0), (1, 1, 1), (2, 3, 4), (6, 6, 6),
              (5, 9, 2), (9, 4, 7)]
    cases = [(random_matrix(spec, r, k, rng), random_matrix(spec, k, c, rng))
             for r, k, c in shapes]
    cases += [(_low_rank(spec, 7, 7, 3, rng), _low_rank(spec, 7, 5, 2, rng)),
              (_full(spec, 1, 1), _full(spec, 1, 1)), (_full(spec, 4, 6), _full(spec, 6, 3)),
              (_full(spec, 3, 70), _full(spec, 70, 4)),
              # each row of the product sums 70 rows of q - 1
              (Matrix(spec, 3, 70, [1] * 210), _full(spec, 70, 4)),
              (random_matrix(spec, 70, 70, rng), _full(spec, 70, 70))]
    return cases


@pytest.mark.parametrize("q", FIELDS)
def test_products_ranks_transposes_and_kernels_match_list_kernels(q):
    spec, rng = field_for_order(q), random.Random(q)
    for a, b in _cases(spec, rng):
        assert a * b == table_product(a, b)
        for m in (a, b):
            assert rank(m) == table_rank(m)
            assert m.transpose() == table_transpose(m)
            if m.rows <= 9:
                assert kernel_basis(m).basis == table_kernel(m)
    full = _full(spec, 70, 70)
    assert (full * full).entries == table_product(full, full).entries
    assert rank(full) == 1 and kernel_basis(full).basis == table_kernel(full)


@pytest.mark.parametrize("q", FIELDS)
def test_inverses_match_list_kernels(q):
    spec, rng = field_for_order(q), random.Random(100 + q)
    units = [Matrix.identity(spec, 0), Matrix(spec, 1, 1, [q - 1])]
    units += [random_unit(spec, n, rng) for n in (1, 2, 5, 16, 70)]
    # q - 1 on and below the diagonal: lower triangular, so a unit
    units.append(Matrix(spec, 6, 6, [q - 1 if j <= i else 0 for i in range(6) for j in range(6)]))
    for u in units:
        assert invert(u) == table_inverse(u)
    singular = [Matrix.zero(spec, 1), _full(spec, 3, 3), _low_rank(spec, 8, 8, 5, rng),
                _low_rank(spec, 70, 70, 69, rng)]
    for m in singular:
        with pytest.raises(Singular):
            invert(m)
        with pytest.raises(Singular):
            table_inverse(m)


@pytest.mark.parametrize("q", FIELDS)
def test_generic_rref_matches_list_rref_on_list_and_byte_rows(q):
    spec, rng = field_for_order(q), random.Random(200 + q)
    for a, _ in _cases(spec, rng):
        if a.rows > 9:
            continue
        rows = a.row_lists()
        for ncols in {0, a.cols // 2, a.cols}:
            want_pivots, want = table_rref(rows, ncols, spec)
            for given in (rows, [bytes(r) for r in rows]):
                pivots, reduced = mx._g_rref(given, ncols, spec)
                assert pivots == want_pivots
                assert [list(r) for r in reduced] == want


@pytest.mark.parametrize("q", FIELDS)
def test_subspace_sums_and_meets_match_list_kernels(q):
    spec, rng = field_for_order(q), random.Random(300 + q)
    n = 7
    spaces = [Subspace(spec, n, []), Subspace(spec, n, Matrix.identity(spec, n).row_lists()),
              Subspace(spec, n, [[q - 1] * n])]
    for dim in (1, 2, 3, 4, 5):
        spaces.append(Subspace(spec, n, _low_rank(spec, dim + 1, n, dim, rng).row_lists()))
    # two spaces that share a plane
    shared = random_matrix(spec, 2, n, rng).row_lists()
    spaces += [Subspace(spec, n, shared + random_matrix(spec, 2, n, rng).row_lists())
               for _ in range(2)]
    for s in spaces:
        for t in spaces:
            assert subspace_sum(s, t).basis == table_sum(s, t)
            assert intersect(s, t).basis == table_intersection(s, t)
    assert intersect(spaces[-2], spaces[-1]).dim >= 2
