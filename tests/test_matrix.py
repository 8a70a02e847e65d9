import ast
import inspect
import itertools
import pathlib
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import rankmetric.families as families
import rankmetric.matrix as mx
from rankmetric.errors import (
    DimensionMismatch,
    FormatError,
    RelationsNotSatisfied,
    Singular,
    SpecMismatch,
)
from rankmetric.gf import field_for_order, field_make
from rankmetric.matrix import (
    Matrix,
    RankDistance,
    Subspace,
    apply,
    image_basis,
    invert,
    kassabov_generators,
    kernel_basis,
    kron,
    matrix_units,
    rank,
    rank_distance,
    random_matrix,
    random_unit,
    read_matrices,
    read_matrix,
    write_matrix,
)
from rankmetric.ramsey import base_copy_basis, gl_order, iterate_units, span_fingerprint

import oracles
from oracles import (annihilator, direct_sum, intersect, mat_vec, matrix_units_by_products,
                     rank_by_minors, solve, span_dimension, stacked_kernel, subspace_sum,
                     table_transpose)


# -- rank and distance -------------------------------------------------------


def test_rank_identity(gf2):
    assert rank(Matrix.identity(gf2, 4)) == 4


def test_rank_zero(gf2):
    assert rank(Matrix.zero(gf2, 3)) == 0


def test_rank_kassabov_lower_shift(gf2):
    a, _ = kassabov_generators(3, gf2)
    # the lower shift has n-1 nonzero rows; minors oracle agrees
    assert rank(a) == 2
    assert rank_by_minors(a) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rank_matches_minor_oracle(q, rng):
    spec = field_for_order(q)
    for _ in range(25):
        rows, cols, inner = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 3)
        m = random_matrix(spec, rows, cols, rng)
        low = random_matrix(spec, rows, inner, rng) * random_matrix(spec, inner, cols, rng)
        assert rank(m) == rank_by_minors(m)
        assert rank(low) == rank_by_minors(low)


def test_rank_distance_identity_of_indiscernibles(gf2):
    i = Matrix.identity(gf2, 4)
    assert rank_distance(i, i) == 0


def test_rank_distance_full(gf2):
    assert rank_distance(Matrix.identity(gf2, 2), Matrix.zero(gf2, 2)) == 1


def test_rank_distance_unit(gf2):
    e11 = Matrix.unit(gf2, 2, 1, 1)
    d = rank_distance(e11, Matrix.zero(gf2, 2))
    assert (d.numerator, d.denominator) == (1, 2)


def test_rank_distance_errors(gf2, gf3):
    with pytest.raises(DimensionMismatch):
        rank_distance(Matrix.identity(gf2, 2), Matrix.identity(gf2, 3))
    with pytest.raises(SpecMismatch):
        rank_distance(Matrix.identity(gf2, 2), Matrix.identity(gf3, 2))


def test_rank_distance_cross_multiplied_comparison():
    assert RankDistance(2, 4) == RankDistance(1, 2)
    assert RankDistance(1, 3) < RankDistance(1, 2)
    assert RankDistance(1, 3) <= Fraction(1, 3)
    assert str(RankDistance(0, 12)) == "0/12"


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (2, 6), (3, 3), (3, 5)])
def test_metric_axioms_random_triples(q, n, rng):
    spec = field_make(q)
    for _ in range(60):
        x = random_matrix(spec, n, n, rng)
        y = random_matrix(spec, n, n, rng)
        z = random_matrix(spec, n, n, rng)
        dxy = rank_distance(x, y).as_fraction()
        dyx = rank_distance(y, x).as_fraction()
        assert dxy == dyx
        assert (dxy == 0) == (x == y)
        dxz = rank_distance(x, z).as_fraction()
        dyz = rank_distance(y, z).as_fraction()
        assert dxz <= dxy + dyz


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
def test_metric_symmetry_and_triangle_hypothesis(cx, cy):
    spec = field_make(2)
    x = Matrix(spec, 4, 4, [(cx >> i) & 1 for i in range(16)])
    y = Matrix(spec, 4, 4, [(cy >> i) & 1 for i in range(16)])
    z = Matrix.zero(spec, 4)
    assert rank_distance(x, y) == rank_distance(y, x)
    assert rank_distance(x, z).as_fraction() <= (
        rank_distance(x, y).as_fraction() + rank_distance(y, z).as_fraction()
    )


def test_bi_invariance(rng):
    spec = field_make(3)
    for _ in range(20):
        x = random_matrix(spec, 4, 4, rng)
        y = random_matrix(spec, 4, 4, rng)
        u = random_unit(spec, 4, rng)
        v = random_unit(spec, 4, rng)
        assert rank(u * (x - y) * v) == rank(x - y)
        assert rank_distance(u * x * v, u * y * v) == rank_distance(x, y)


# -- kron / direct_sum -------------------------------------------------------


def test_kron_unit(gf2, rng):
    x = random_matrix(gf2, 3, 3, rng)
    assert kron(x, Matrix.identity(gf2, 1)) == x


def test_kron_rank_multiplicative(gf2, rng):
    x = Matrix.unit(gf2, 2, 1, 2)  # rank 1
    assert rank(kron(x, Matrix.identity(gf2, 3))) == 3
    for _ in range(10):
        a = random_matrix(gf2, 3, 3, rng)
        k = rng.randrange(1, 4)
        assert rank(kron(a, Matrix.identity(gf2, k))) == k * rank(a)


def test_kron_associativity_of_padding(gf2, rng):
    # x (x) 1_j (x) 1_k equals x (x) 1_{jk} entrywise
    for j, k in [(2, 3), (3, 2), (2, 2)]:
        x = random_matrix(gf2, 2, 2, rng)
        lhs = kron(kron(x, Matrix.identity(gf2, j)), Matrix.identity(gf2, k))
        rhs = kron(x, Matrix.identity(gf2, j * k))
        assert lhs == rhs


def test_direct_sum_single(gf2, rng):
    x = random_matrix(gf2, 3, 3, rng)
    assert direct_sum([x], 0) == x


def test_direct_sum_with_padding(gf2):
    one = Matrix.identity(gf2, 1)
    m = direct_sum([one, one], 1)
    assert (m.rows, m.cols) == (3, 3)
    assert rank(m) == 2


def test_direct_sum_rank_additive(gf2):
    a, _ = kassabov_generators(2, gf2)
    m = direct_sum([a, a], 1)
    assert (m.rows, m.cols) == (5, 5)
    assert rank(m) == 2


# -- the generator pair ------------------------------------------------------


def test_kassabov_n2_gf2(gf2):
    a, b = kassabov_generators(2, gf2)
    assert b * a + a * b == Matrix.identity(gf2, 2)


def test_kassabov_n1_degenerate(gf3):
    a, b = kassabov_generators(1, gf3)
    assert a.is_zero() and b.is_zero()
    # relation reads (p+1) * 1 = 1 mod p
    coeff = (3 + 1) % 3
    assert Matrix.identity(gf3, 1).scale(coeff) == Matrix.identity(gf3, 1)


def test_kassabov_n4_gf3(gf3):
    a, b = kassabov_generators(4, gf3)
    assert (a ** 4).is_zero()
    assert (b ** 4).is_zero()
    assert a ** 3 * b ** 3 == Matrix.unit(gf3, 4, 4, 4)
    assert b * a + a ** 3 * b ** 3 == Matrix.identity(gf3, 4)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
@pytest.mark.parametrize("n", range(1, 9))
def test_kassabov_relations_full_grid(p, k, n):
    spec = field_make(p, k)
    a, b = kassabov_generators(n, spec)
    assert (a ** n).is_zero()
    assert (b ** n).is_zero()
    coeff = (p + 1) % p
    rel = b * a + (a ** (n - 1) * b ** (n - 1)).scale(coeff)
    assert rel == Matrix.identity(spec, n)


# -- matrix units ------------------------------------------------------------


def test_matrix_units_n2(gf2):
    a, b = kassabov_generators(2, gf2)
    units = matrix_units(a, b, 2)
    assert units[0][0] == Matrix(gf2, 2, 2, [1, 0, 0, 0])
    assert units[1][1] == Matrix(gf2, 2, 2, [0, 0, 0, 1])
    assert units[0][1] * units[1][0] == units[0][0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_units_product_identities(n, gf3):
    a, b = kassabov_generators(n, gf3)
    units = matrix_units(a, b, n)  # construction already checks all n^4
    total = Matrix.zero(gf3, n)
    for i in range(n):
        total = total + units[i][i]
    assert total == Matrix.identity(gf3, n)


def test_matrix_units_padded_pair(gf2):
    a, b = kassabov_generators(2, gf2)
    ap = direct_sum([a, a], 1)
    bp = direct_sum([b, b], 1)
    units = matrix_units(ap, bp, 2)
    total = units[0][0] + units[1][1]
    assert rank(total) == 4  # the unit of the padded copy


def test_matrix_units_rejects_bad_pair(gf2):
    a, b = kassabov_generators(2, gf2)
    with pytest.raises(RelationsNotSatisfied):
        matrix_units(a, a, 2)
    with pytest.raises(RelationsNotSatisfied):
        matrix_units(Matrix.identity(gf2, 2), b, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_units_agree_with_product_oracle(q):
    """The n^2 corner identities reject exactly the pairs the n^4 product
    identities reject, and the same units come out of the pairs accepted."""
    spec = field_make(q)
    rng = random.Random(4100 + q)
    seen = Counter()
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        copies = rng.choice([1, 2])
        amb = n * copies + rng.choice([0, 1])
        change = rng.choice(["none", "swap", "bump", "twist", "triangular"])
        if change == "triangular":  # a random nilpotent pair, rarely a shift pair
            a, b = (Matrix(spec, amb, amb, [rng.randrange(q) if j < i else 0
                                            for i in range(amb) for j in range(amb)])
                    for _ in range(2))
        else:
            a, b = kassabov_generators(n, spec)
            if change == "swap":
                a, b = b, a
            a = direct_sum([a] * copies, amb - n * copies)
            b = direct_sum([b] * copies, amb - n * copies)
        g = random_unit(spec, amb, rng)
        gi = invert(g)
        a, b = g * a * gi, g * b * gi
        if change == "twist":  # both stay nilpotent; the identities decide
            h = random_unit(spec, amb, rng)
            b = h * b * invert(h)
        for _ in range(rng.choice([1, 2]) if change == "bump" else 0):
            bump = Matrix.unit(spec, amb, rng.randrange(1, amb + 1),
                               rng.randrange(1, amb + 1)).scale(rng.randrange(1, q))
            if rng.randrange(2):
                a = a + bump
            else:
                b = b + bump
        outcomes = []
        for build in (matrix_units, matrix_units_by_products):
            try:
                outcomes.append(build(a, b, n))
            except RelationsNotSatisfied as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        seen[outcomes[0] if isinstance(outcomes[0], str) else "accepted"] += 1
    # each check decides some pairs
    assert len(seen) == 4, seen


def test_matrix_units_rejects_source_larger_than_ambient(gf2):
    a, b = kassabov_generators(2, gf2)
    for n in (0, -1, 3):
        with pytest.raises(DimensionMismatch):
            matrix_units(a, b, n)


# -- subspace calculus -------------------------------------------------------


def test_kernel_identity(gf2):
    assert kernel_basis(Matrix.identity(gf2, 4)).dim == 0


def test_kernel_zero(gf2):
    s = kernel_basis(Matrix.zero(gf2, 3))
    assert s.dim == 3


def test_rank_nullity(rng):
    for q in (2, 3):
        spec = field_make(q)
        for _ in range(20):
            m = random_matrix(spec, rng.randrange(1, 7), rng.randrange(1, 7), rng)
            assert kernel_basis(m).dim + rank(m) == m.cols
            for b in kernel_basis(m).basis:
                assert all(v == 0 for v in mat_vec(m, b))


def test_intersect_idempotent(rng):
    spec = field_make(2)
    for _ in range(15):
        m = random_matrix(spec, 6, rng.randrange(1, 6), rng)
        s = image_basis(m)
        assert intersect(s, s) == s
        assert subspace_sum(s, s) == s


def test_image_dimension_is_rank(rng):
    spec = field_make(3)
    for _ in range(15):
        m = random_matrix(spec, 5, 5, rng)
        assert image_basis(m).dim == rank(m)


def test_subspace_canonical_form_is_unique(gf3, rng):
    for _ in range(10):
        vecs = [[rng.randrange(3) for _ in range(5)] for _ in range(3)]
        s1 = Subspace(gf3, 5, vecs)
        shuffled = list(reversed(vecs))
        s2 = Subspace(gf3, 5, shuffled)
        assert s1 == s2
        assert span_dimension(vecs, gf3) == s1.dim


def test_intersect_sum_dimension_formula(rng):
    spec = field_make(2)
    for _ in range(10):
        s1 = image_basis(random_matrix(spec, 6, 3, rng))
        s2 = image_basis(random_matrix(spec, 6, 3, rng))
        inter = intersect(s1, s2)
        total = subspace_sum(s1, s2)
        assert inter.dim + total.dim == s1.dim + s2.dim
        for b in inter.basis:
            assert s1.contains(b) and s2.contains(b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_annihilator_is_the_reduced_echelon_basis_of_the_perp(q, rng):
    spec = field_for_order(q)
    for n in (0, 1, 4, 7, 9):
        for _ in range(6):
            s = image_basis(random_matrix(spec, n, rng.randrange(0, n + 1), rng))
            ann = annihilator(s)
            # every row is orthogonal to s, there are n - dim s of them, and they are
            # already the canonical basis of their span
            assert (ann.rows, ann.cols) == (n - s.dim, n)
            assert (s.matrix * ann.transpose()).is_zero()
            assert Subspace(spec, n, ann.row_lists()).matrix == ann
            assert ann == kernel_basis(s.matrix).matrix


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_annihilator_and_intersect_over_every_field(q, rng):
    spec = field_for_order(q)
    for _ in range(25):
        n = rng.randrange(1, 8)
        s1, s2 = (image_basis(random_matrix(spec, n, rng.randrange(0, n + 1), rng)) for _ in range(2))
        assert kernel_basis(annihilator(s1)) == s1
        inter = intersect(s1, s2)
        # inside both, and as large as s1 + s2 allows: the whole intersection
        assert all(s1.contains(b) and s2.contains(b) for b in inter.basis)
        assert inter.dim == s1.dim + s2.dim - subspace_sum(s1, s2).dim


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_joint_kernel_and_row_forms(q, forced, rng, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec = field_for_order(q)
    for _ in range(20):
        c = rng.randrange(0, 8)
        mats = [random_matrix(spec, rng.randrange(0, 5), c, rng) for _ in range(rng.randrange(1, 4))]
        # the joint kernel is the kernel of the stack, and the meet of the single kernels
        stacked = Matrix(spec, sum(m.rows for m in mats), c, list(chain(*(m.entries for m in mats))))
        meet = kernel_basis(mats[0])
        for m in mats[1:]:
            meet = intersect(meet, kernel_basis(m))
        assert kernel_basis(*mats) == kernel_basis(stacked) == meet
        # rows taken out of a matrix stack back as its columns, and insert as its entries do
        rows = mx.row_forms(stacked)
        assert mx.column_stack(spec, rows, c) == stacked.transpose()
        tables = {}, {}
        assert [mx.echelon_insert(tables[0], r, spec, c) for r in rows] == \
            [mx.echelon_insert(tables[1], v, spec) for v in stacked.row_lists()]
        assert tables[0] == tables[1]
    other = field_for_order(7)
    with pytest.raises(DimensionMismatch):
        kernel_basis(random_matrix(spec, 2, 3, rng), random_matrix(spec, 2, 4, rng))
    with pytest.raises(SpecMismatch):
        kernel_basis(Matrix.identity(spec, 2), Matrix.identity(other, 2))


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_side_by_side_kernel_matches_the_stacked_transpose(q, forced, rng, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec = field_for_order(q)
    for _ in range(40):
        c = rng.randrange(0, 70)
        mats = [random_matrix(spec, rng.randrange(0, 70), c, rng)
                for _ in range(rng.randrange(1, 4))]
        if rng.randrange(2) and c:  # a low-rank part: a kernel of more than cols - rows
            k = rng.randrange(1, c + 1)
            mats[-1] = random_matrix(spec, mats[-1].rows, k, rng) * random_matrix(spec, k, c, rng)
        assert kernel_basis(*mats) == stacked_kernel(*mats)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_lazy_transpose_matches_the_entrywise_transpose(q, forced, rng, monkeypatch):
    # the source is built before the flip, held as entries or as rows; its transpose is
    # built on its first read, of its entries or of its rows, by the family then running
    spec = field_for_order(q)
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (3, 7), (7, 3), (1, 65), (65, 1), (70, 66)]
    sources = [random_matrix(spec, r, c, rng) for r, c in shapes * 2]
    sources += [m * Matrix.identity(spec, m.cols) for m in sources]
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    fresh = forced and q in (2, 3)  # a transpose is kept only while the native family runs
    for i, m in enumerate(sources):
        want, t = table_transpose(m), m.transpose()
        assert (t.rows, t.cols, t._ent, t._rw) == (m.cols, m.rows, None, None)
        (Matrix._packed, Matrix.entries.fget)[i // len(shapes) % 2](t)  # rows or entries first
        assert t == want and want == t and hash(t) == hash(want)
        assert t.entries == want.entries and t.row_lists() == want.row_lists()
        assert t.transpose() == m and (t.transpose() is m) != fresh
        assert (m.transpose() is t) != fresh


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_transpose_is_kept_and_linked_both_ways(q, rng):
    spec = field_for_order(q)
    for m in (random_matrix(spec, 4, 6, rng), Matrix.identity(spec, 3), Matrix.zero(spec, 0, 2)):
        t = m.transpose()
        assert m.transpose() is t and t.transpose() is m
        assert m.transpose().transpose() is m and t.transpose().transpose() is t
        assert t.row_lists() == table_transpose(m).row_lists()  # reading it keeps the link
        assert m.transpose() is t and t.transpose() is m


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 65), (65, 1), (70, 66)])
def test_gf3_planes_transpose_as_one_side_by_side_bit_transpose(shape, rng, monkeypatch):
    # one _b_transpose of the rows plus | minus << cols, against each plane on its own
    rows, cols = shape
    planes = mx._t_pack([rng.randrange(3) for _ in range(rows * cols)], rows, cols)
    each = tuple(zip(*[mx._b_transpose([r[k] for r in planes], cols) for k in (0, 1)]))
    calls = []
    real = mx._b_transpose
    monkeypatch.setattr(mx, "_b_transpose", lambda r, c: calls.append(c) or real(r, c))
    assert mx._t_transpose(planes, cols) == each and calls == [2 * cols]


def test_apply_image(gf2, rng):
    m = random_matrix(gf2, 5, 5, rng)
    full = image_basis(Matrix.identity(gf2, 5))
    assert apply(m, full) == image_basis(m)


def test_invert_roundtrip(rng):
    for q in (2, 3, 4):
        p, k = (2, 2) if q == 4 else (q, 1)
        spec = field_make(p, k)
        u = random_unit(spec, 4, rng)
        assert u * invert(u) == Matrix.identity(spec, 4)


def test_invert_singular(gf2):
    with pytest.raises(Singular):
        invert(Matrix.zero(gf2, 3))


# -- generic elimination -----------------------------------------------------


def _elimination_cases(spec, rng):
    """(row lists, ncols): random, low-rank, sparse, wide, tall and augmented inputs."""
    q = spec.q
    low = (random_matrix(spec, 7, 2, rng) * random_matrix(spec, 2, 9, rng)).row_lists()
    sparse = [[rng.randrange(1, q) if rng.random() < 0.15 else 0 for _ in range(8)]
              for _ in range(8)]
    wide = random_matrix(spec, 3, 11, rng).row_lists()
    tall = random_matrix(spec, 11, 4, rng).row_lists()

    def augmented(m):
        return [row + [int(i == j) for j in range(m.cols)] for i, row in enumerate(m.row_lists())]

    singular = random_matrix(spec, 5, 3, rng) * random_matrix(spec, 3, 5, rng)
    # the last two rows have no pivot among the first 4 columns
    no_pivot = random_matrix(spec, 3, 8, rng).row_lists() + [
        [0] * 4 + [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(3)] for _ in range(2)]
    return [(random_matrix(spec, 6, 6, rng).row_lists(), 6), (low, 9), (low, 5), (sparse, 8),
            (wide, 11), (wide, 6), (tall, 4), (augmented(random_unit(spec, 5, rng)), 5),
            (augmented(singular), 5), (augmented(singular), 10), (no_pivot, 4), (no_pivot, 8)]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_generic_rref_is_the_reduced_echelon_form(q, rng):
    spec = field_for_order(q)
    add, mul = spec._add, spec._mul

    def left_rank(vectors, ncols):
        return rank(Matrix(spec, len(vectors), ncols, [v for vec in vectors for v in vec[:ncols]]))

    for _ in range(3):
        for rows, ncols in _elimination_cases(spec, rng):
            width = len(rows[0])
            pivots, reduced = mx._g_rref(rows, ncols, spec)
            assert len(pivots) == len(reduced)
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            assert all(pc < ncols for pc in pivots)
            for k, (pc, row) in enumerate(zip(pivots, reduced)):
                assert len(row) == width
                assert not any(row[:pc]) and row[pc] == 1
                assert all(other[pc] == 0 for i, other in enumerate(reduced) if i != k)
            # a vector in the span of reduced rows is the sum of those rows weighted
            # by its entries at the pivot columns: the input lies in their span
            for vec in rows:
                comb = [0] * width
                for pc, row in zip(pivots, reduced):
                    comb = [add[x * q + mul[vec[pc] * q + y]] for x, y in zip(comb, row)]
                assert comb[:ncols] == list(vec[:ncols])
                if ncols == width:
                    assert comb == list(vec)
            # ... and the reduced rows lie in the input's span, as many as its rank
            assert len(reduced) == left_rank(rows, ncols)
            assert left_rank(rows + reduced, width) == left_rank(rows, width)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_invert_and_solve_round_trips(q, rng):
    spec = field_for_order(q)
    for n in range(1, 8):
        u = random_unit(spec, n, rng)
        one = Matrix.identity(spec, n)
        assert u * invert(u) == one and invert(u) * u == one
        assert invert(invert(u)) == u
        if n > 1:
            with pytest.raises(Singular):
                invert(random_matrix(spec, n, n - 1, rng) * random_matrix(spec, n - 1, n, rng))
    for _ in range(20):
        r, c, inner = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 7)
        m = random_matrix(spec, r, inner, rng) * random_matrix(spec, inner, c, rng)
        x = [rng.randrange(q) for _ in range(c)]
        image = mat_vec(m, x)
        sol = solve(m, image)
        assert sol is not None and mat_vec(m, sol) == image
        rhs = [rng.randrange(q) for _ in range(r)]
        aug = Matrix(spec, r, c + 1, [v for row, b in zip(m.row_lists(), rhs) for v in row + [b]])
        sol = solve(m, rhs)
        if rank(aug) > rank(m):
            assert sol is None
        else:
            assert sol is not None and mat_vec(m, sol) == tuple(rhs)


# -- bit-packed differential tests -------------------------------------------


def test_gf2_bitpack_invert_matches_generic(rng, monkeypatch):
    spec = field_make(2)
    units = [random_unit(spec, 5, rng) for _ in range(5)]
    fast = [invert(u) for u in units]
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = [invert(u) for u in units]
    assert fast == slow


@pytest.mark.parametrize("q", [2, 3])
def test_equality_and_hash_agree_across_constructors(q, rng):
    spec = field_make(q)
    a = random_matrix(spec, 5, 7, rng)
    b = random_matrix(spec, 7, 4, rng)
    public = Matrix(spec, 5, 4, list((a * b)._e))
    kernel = a * b
    # hash first: comparing may fill in the other form of either side
    assert hash(public) == hash(kernel)
    assert public == kernel and kernel == public
    assert len({public, kernel}) == 1
    flipped = list(public._e)
    flipped[3] = (flipped[3] + 1) % q
    assert Matrix(spec, 5, 4, flipped) != kernel


@pytest.mark.parametrize("n", [2, 3])
def test_gf2_unit_walk_matches_generic(n, monkeypatch):
    spec = field_make(2)
    fast = list(iterate_units(n, spec))
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = list(iterate_units(n, spec))
    assert len(fast) == gl_order(n, 2)
    assert fast == slow
    assert [m._e for m in fast] == [m._e for m in slow]


def test_gf2_census_fingerprints_match_generic(rng, monkeypatch):
    spec = field_make(2)
    base = base_copy_basis(2, 4, spec)
    units = [random_unit(spec, 4, rng) for _ in range(24)]

    def fingerprints():
        return [span_fingerprint([g * m * invert(g) for m in base], spec, 4)
                for g in units]

    fast = fingerprints()
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = fingerprints()
    assert fast == slow
    assert len(set(fast)) > 1


# -- row families against the table family -----------------------------------

# empty shapes, 1 x 1, and widths on both sides of a 64-bit word
_ROW_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 63), (3, 64), (2, 65), (63, 2),
               (65, 3), (5, 5)]


def _row_family_cases(spec, rng):
    """(a, b, d, v): a * b, a + d, a - d and a v are defined; a is random or all q - 1."""
    q = spec.q
    cases = []
    shapes = _ROW_SHAPES + [(rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(25)]
    for r, c in shapes:
        for a in (random_matrix(spec, r, c, rng), Matrix(spec, r, c, [q - 1] * (r * c))):
            b = random_matrix(spec, c, rng.randrange(0, 8), rng)
            v = [rng.choice((q - 1, rng.randrange(q))) for _ in range(c)]
            cases.append((a, b, random_matrix(spec, r, c, rng), v))
    return cases


@pytest.mark.parametrize("q", [2, 3])
def test_row_family_matches_table_family(q, rng, monkeypatch):
    # every operation on matrices built before the flip, in the row family and then the table one
    spec = field_make(q)
    cases = _row_family_cases(spec, rng)
    # subspaces of F^cols(a), built in the row family: one held as rows, one as entries
    spaces = [(image_basis(b), kernel_basis(d)) for a, b, d, v in cases]

    def outputs():
        return [dict(mul=a * b, add=a + d, sub=a - d, neg=-a, transpose=a.transpose(),
                     scaled=[a.scale(s) for s in range(q)], zero=Matrix.zero(spec, a.rows, a.cols),
                     identity=Matrix.identity(spec, a.cols), rank=rank(a),
                     kernel=kernel_basis(a).basis, image=image_basis(a).basis,
                     apply=mat_vec(a, v), is_zero=a.is_zero(),
                     diff_zero=(a - a).is_zero(), solve=solve(a, mat_vec(a, v)),
                     mapped=apply(a, s).basis, sum=subspace_sum(s, t).basis,
                     meet=intersect(s, t).basis, ann=annihilator(s),
                     contains=[w.contains(u) for w in (s, t) for u in (v, *s.basis, *t.basis)])
                for (a, b, d, v), (s, t) in zip(cases, spaces)]

    def matrices(outs):
        return [m for out in outs
                for k in ("mul", "add", "sub", "neg", "transpose", "zero", "identity", "scaled")
                for m in (out[k] if k == "scaled" else [out[k]])]

    fast = outputs()
    # kernel outputs, zero and identity included, hold rows only
    assert all(m._ent is None for m in matrices(fast))
    assert all(out["diff_zero"] and out["is_zero"] == (not any(a._e))
               for out, (a, *_) in zip(fast, cases))
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = outputs()
    assert all(m._rw is None for m in matrices(slow))
    assert fast == slow
    fast_mats, slow_mats = matrices(fast), matrices(slow)
    assert [m._e for m in fast_mats] == [m._e for m in slow_mats]
    # row-only outputs of the row family now run in the table family
    def again(mats):
        return [(-m, m + m, m.scale(1)) for m in mats]

    assert again(fast_mats) == again(slow_mats)
    # a matrix built from rows equals and hashes as one built from entries
    for m in fast_mats:
        public = Matrix(m.spec, m.rows, m.cols, list(m._e))
        assert hash(public) == hash(m) and public == m and m == public
    # and a span built in the row family equals and hashes as one built in the table family
    for s in chain.from_iterable(spaces):
        table = Subspace(spec, s.ambient_dim, s.basis)
        assert table.matrix._rw is None
        assert hash(table) == hash(s) and table == s and s == table


@pytest.mark.parametrize("q", [2, 3])
def test_row_family_transpose_edge_shapes_match_table_family(q, rng, monkeypatch):
    # empty shapes and rows wider than one 64-bit word, from rows and from entries
    spec = field_make(q)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 65), (65, 1), (3, 130), (70, 66)]
    mats = [random_matrix(spec, r, c, rng) for r, c in shapes]
    mats += [m * Matrix.identity(spec, m.cols) for m in mats]  # the same, held as rows

    def outputs():
        return [m.transpose() for m in mats]

    fast = outputs()
    for t in fast:  # a transpose is built on first read: read it in the row family
        t._packed()
    assert all(t._ent is None for t in fast)
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = outputs()
    assert fast == slow and [t._e for t in fast] == [t._e for t in slow]
    for m, t in zip(mats, fast):
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert t._e == tuple(m._e[i * m.cols + j] for j in range(m.cols) for i in range(m.rows))
        assert t.transpose() == m


@pytest.mark.parametrize("q", [2, 3])
def test_row_family_invert_matches_table_family(q, rng, monkeypatch):
    spec = field_make(q)
    units = [Matrix.identity(spec, 0), Matrix(spec, 1, 1, [q - 1])]
    units += [random_unit(spec, n, rng) for n in (1, 2, 5, 63, 64, 65)]
    singular = [Matrix.zero(spec, 1), Matrix(spec, 3, 3, [q - 1] * 9),
                random_matrix(spec, 64, 3, rng) * random_matrix(spec, 3, 64, rng)]

    def outputs():
        for m in singular:
            with pytest.raises(Singular):
                invert(m)
        return [invert(u) for u in units]

    fast = outputs()
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = outputs()
    assert fast == slow
    assert [m._e for m in fast] == [m._e for m in slow]
    assert all(u * w == Matrix.identity(spec, u.rows) for u, w in zip(units, fast))


@pytest.mark.parametrize("q", [2, 3])
def test_row_family_chained_outputs_match_table_family(q, rng, monkeypatch):
    # products, sums and inverses of kernel outputs, not of parsed inputs
    spec = field_make(q)
    mats = [random_matrix(spec, 6, 6, rng) for _ in range(6)]
    units = [random_unit(spec, 6, rng) for _ in range(4)]
    rhs = [rng.randrange(q) for _ in range(6)]
    # rank 2, and a right-hand side outside its column space
    low = random_matrix(spec, 6, 2, rng) * random_matrix(spec, 2, 6, rng)
    outside = next(w for w in ([rng.randrange(q) for _ in range(6)] for _ in range(100))
                   if solve(low, w) is None)
    base = base_copy_basis(2, 4, spec)
    conj = [random_unit(spec, 4, rng) for _ in range(12)]
    vectors = {}
    for n in (1, 64, 65):
        vecs = [[rng.randrange(q) for _ in range(n)] for _ in range(4)]
        vecs += [[q - 1] * n, [0] * n, [(x - y) % q for x, y in zip(vecs[0], vecs[1])]]
        vectors[n] = vecs + [vecs[2]]

    def chain():
        prod = mats[0] * mats[1] * mats[2]
        mixed = (prod + mats[3] - mats[4]) * mats[5]
        invs = [invert(u * v) for u, v in zip(units, units[1:])]
        back = [invert(w) * invert(u) for w, u in zip(invs, units)]
        inserted = {}
        for n, vecs in vectors.items():
            table = {}
            inserted[n] = [mx.echelon_insert(table, v, spec) for v in vecs]
        fingerprints = [span_fingerprint([g * m * invert(g) for m in base], spec, 4)
                        for g in conj]
        return (prod, mixed, mixed ** 3, -mixed, invs, back, rank(prod * mixed),
                kernel_basis(mixed).basis, (prod - prod).is_zero(), solve(mixed, rhs),
                solve(low, outside), inserted, fingerprints,
                [write_matrix(m) for m in invs + back])

    fast = chain()
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    slow = chain()
    assert fast == slow
    assert [m._e for m in fast[4] + fast[5]] == [m._e for m in slow[4] + slow[5]]
    assert fast[10] is None
    assert fast[11][64][-1] is False and fast[11][65][-3:] == [False, False, False]
    assert len(set(fast[12])) > 1


def _combination(spec, vecs, rng):
    """A random linear combination of equal-length encoding vectors."""
    q, add, mul = spec.q, spec._add, spec._mul
    out = [0] * len(vecs[0])
    for v in vecs:
        c = rng.randrange(q)
        out = [add[x * q + mul[c * q + y]] for x, y in zip(out, v)]
    return out


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_echelon_loop_stores_what_table_insert_stores(q, forced, monkeypatch):
    # GF(2) bits, GF(3) planes and byte rows in characteristic 2 and odd characteristic:
    # the family's one echelon loop, fed a table that already holds rows, stores the rows
    # the entry-by-entry oracle stores one at a time, and says how many
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec, rng = field_for_order(q), random.Random(f"echelon/{q}/{forced}")
    f = mx._family(spec)
    assert f is (mx._TABLE if forced else {2: mx._BITS, 3: mx._PLANES}.get(q, mx._TABLE))
    for ncols, extra in [(1, 1), (6, 3), (70, 5)]:  # 70: wider than a word
        width = ncols + extra
        head = [[rng.randrange(q) for _ in range(ncols)] + [0] * extra
                for _ in range(ncols // 2 + 1)]
        fresh = [rng.randrange(q) for _ in range(width)]
        tail = [[0] * width, fresh, fresh,  # the second copy reduces to zero
                *(_combination(spec, head, rng) for _ in range(3)),  # reduce to zero
                # only pivots at or beyond ncols left once reduced
                *([*_combination(spec, head, rng)[:ncols], *([0] * (extra - 1)), 1]
                  for _ in range(2)),
                *([rng.randrange(q) for _ in range(width)] for _ in range(3))]
        rng.shuffle(tail)
        table, want = {}, {}
        for vecs in (head, tail):
            rows = f.pack(bytes(chain.from_iterable(vecs)), len(vecs), width)
            stored = [oracles.table_insert(want, v, ncols, spec) for v in vecs]
            assert f.echelon(table, rows, ncols, spec) == sum(stored)
        assert 0 < len(want) <= ncols
        assert {k if f is mx._TABLE else k.bit_length() - 1: list(f.unpack([r], width))
                for k, r in table.items()} == want
        # one row at a time through echelon_insert, pivots anywhere in the row
        tables, want = ({}, {}), {}
        vecs = head + tail
        stored = [oracles.table_insert(want, v, width, spec) for v in vecs]
        assert [mx.echelon_insert(tables[0], v, spec) for v in vecs] == stored
        assert [mx.echelon_insert(tables[1], r, spec, width)
                for r in f.pack(bytes(chain.from_iterable(vecs)), len(vecs), width)] == stored
        assert tables[0] == tables[1] and len(tables[0]) == len(want)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_outside_vectors_are_reduced_mod_q(q, forced, rng, monkeypatch):
    # like the entries of Matrix(...) and the right-hand side of solve
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec = field_for_order(q)
    for n in (1, 2, 7, 65):
        vecs = [[rng.randrange(q) for _ in range(n)] for _ in range(4)]
        # shifted by -q, 2q, -3q, q or 0 in turn: some entries negative, some q or more
        wild = [[x + q * (-1, 2, -3, 1, 0)[(i * n + j) % 5] for j, x in enumerate(v)]
                for i, v in enumerate(vecs)]
        m = random_matrix(spec, 3, n, rng)
        assert [mat_vec(m, w) for w in wild] == [mat_vec(m, v) for v in vecs]
        sub = Subspace(spec, n, wild[:2])
        assert sub == Subspace(spec, n, vecs[:2])
        assert [sub.contains(w) for w in wild] == [sub.contains(v) for v in vecs]
        assert sub.contains(wild[0]) and sub.contains(wild[1])
        tables = {}, {}
        assert [mx.echelon_insert(tables[0], w, spec) for w in wild] == \
            [mx.echelon_insert(tables[1], v, spec) for v in vecs]
        assert tables[0] == tables[1]
    assert mat_vec(Matrix.identity(spec, 2), [-1, 0]) == (q - 1, 0)
    assert Subspace(spec, 2, [[q, 1]]).basis == ((0, 1),)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_outside_entries_are_read_as_matrix_reads_them(q, forced, monkeypatch):
    # ints (bools too) and this field's elements become encodings; nothing else does
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec, other = field_for_order(q), field_for_order(5)
    row, want = [spec.element(q - 1), True, -1, q + 1], (q - 1, 1, q - 1, 1)
    assert Matrix(spec, 1, 4, row).entries == want
    assert Subspace(spec, 4, [row]) == Subspace(spec, 4, [want])
    tables = {}, {}
    assert mx.echelon_insert(tables[0], row, spec) and mx.echelon_insert(tables[1], want, spec)
    assert tables[0] == tables[1]
    builds = (lambda r: Matrix(spec, 1, 2, r), lambda r: Subspace(spec, 2, [r]),
              lambda r: mx.echelon_insert({}, r, spec))
    for bad, error in [(other.element(1), SpecMismatch), (1.5, FormatError),
                       (None, FormatError), (float("nan"), FormatError), ("1", FormatError)]:
        for build in builds:
            with pytest.raises(error):
                build([bad, 1])


def _coordinates(spec, rows, cols, cells, rng):
    """Random nonzero encodings at the given cells: the coordinate dict and its matrix."""
    entries = {cell: rng.randrange(1, spec.q) for cell in cells}
    flat = [entries.get((i, j), 0) for i in range(rows) for j in range(cols)]
    return entries, Matrix(spec, rows, cols, flat)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_coordinate_rank_matches_dense_rank(q, forced, rng, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec = field_for_order(q)
    assert mx.coordinate_rank(spec, {}) == 0
    cases = []
    for rows, cols in [(1, 1), (3, 7), (12, 12), (40, 25)]:
        grid = list(itertools.product(range(rows), range(cols)))
        for density in (1, 3, 8):
            size = min(len(grid), density * max(rows, cols) // 4 + 1)
            cases.append((rows, cols, rng.sample(grid, size)))
        # isolated entries: a partial permutation, rank = its size
        cases.append((rows, cols, [(i, (i + 1) % cols) for i in range(min(rows, cols))]))
        # one component touching every row and column: a row, a column and the diagonal
        cases.append((rows, cols, sorted({(0, j) for j in range(cols)} | {(i, 0) for i in range(rows)}
                                         | {(i, i) for i in range(min(rows, cols))})))
    for rows, cols, cells in cases:
        for _ in range(3):
            entries, m = _coordinates(spec, rows, cols, cells, rng)
            assert mx.coordinate_rank(spec, entries) == rank(m), (rows, cols, sorted(entries))
    # one dense component, and one of rank 1
    entries, m = _coordinates(spec, 6, 6, list(itertools.product(range(6), repeat=2)), rng)
    assert mx.coordinate_rank(spec, entries) == rank(m)
    ones = {(i, j): 1 for i in range(5) for j in range(4)}
    assert mx.coordinate_rank(spec, ones) == 1


def test_the_family_lookup_is_the_one_decision_point():
    # only _family reads _FORCE_GENERIC or compares q with 2 or 3
    tree = ast.parse(pathlib.Path(mx.__file__).read_text())
    found = []

    def is_q(node):
        return (isinstance(node, ast.Attribute) and node.attr == "q") or (
            isinstance(node, ast.Name) and node.id == "q")

    def constants(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {c.value for c in items if isinstance(c, ast.Constant)}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "_FORCE_GENERIC" and isinstance(
                    child.ctx, ast.Load):
                found.append(("reads _FORCE_GENERIC", owner))
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(map(is_q, operands)) and {2, 3} & set().union(*map(constants, operands)):
                    found.append(("compares q with 2 or 3", owner))
            visit(child, owner)

    visit(tree, None)
    assert found and all(owner == "_family" for _, owner in found), found
    assert not hasattr(mx, "_use_packed") and not hasattr(mx, "_use_planes")


def test_traced_kernels_keep_their_names_and_signatures(rng, monkeypatch):
    # the benchmark's layer tracing replaces these module attributes and reads spec as
    # _g_rref's third argument, so the families must call them through the module that
    # defines them: matrix, and families for _g_rref
    signatures = {"_b_pack": ["entries", "rows", "cols"], "_b_unpack": ["rowints", "cols"],
                  "_b_rref": ["rowints", "ncols"], "_g_rref": ["rowlists", "ncols", "spec"]}
    calls = Counter()
    for name, params in signatures.items():
        kernel = getattr(mx, name)
        assert list(inspect.signature(kernel).parameters) == params

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(families if name == "_g_rref" else mx, name, counted)
    gf2, gf4 = field_make(2), field_make(2, 2)
    u = random_unit(gf2, 5, rng)
    assert invert(u).entries == invert(Matrix(gf2, 5, 5, list(u.entries))).entries
    assert set(calls) == {"_b_pack", "_b_unpack", "_b_rref"}
    invert(random_unit(gf4, 3, rng))
    assert calls["_g_rref"] == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_kernel_basis_is_the_canonical_kernel_basis(q, rng):
    # the basis spans the kernel and re-echeloning leaves it unchanged, so it
    # is the kernel's reduced echelon basis
    spec = field_for_order(q)
    mats = [Matrix.zero(spec, 3, 5), Matrix.identity(spec, 4), Matrix.zero(spec, 0, 4),
            Matrix.zero(spec, 4, 0)]
    for _ in range(12):
        r, c, inner = rng.randrange(1, 9), rng.randrange(1, 13), rng.randrange(1, 5)
        mats += [random_matrix(spec, r, c, rng),
                 random_matrix(spec, r, inner, rng) * random_matrix(spec, inner, c, rng)]
    for m in mats:
        basis = kernel_basis(m).basis
        assert len(basis) == m.cols - rank(m)
        assert all(not any(mat_vec(m, v)) for v in basis)
        assert Subspace(spec, m.cols, basis).basis == basis


_OUT_OF_RANGE = {
    "unit row 0": lambda spec: Matrix.unit(spec, 3, 0, 1),
    "unit column 0": lambda spec: Matrix.unit(spec, 3, 2, 0),
    "unit row n + 1": lambda spec: Matrix.unit(spec, 3, 4, 1),
    "at column past the end": lambda spec: Matrix.identity(spec, 2).at(0, 2),
    "at negative column": lambda spec: Matrix.identity(spec, 2).at(0, -1),
    "at row past the end": lambda spec: Matrix.identity(spec, 2).at(2, 0),
    "direct_sum negative padding": lambda spec: direct_sum([Matrix.identity(spec, 2)],
                                                           pad_zeros=-1),
    "zero negative rows": lambda spec: Matrix.zero(spec, -1),
    "zero negative cols": lambda spec: Matrix.zero(spec, 2, -1),
    "identity negative size": lambda spec: Matrix.identity(spec, -2),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_public_constructors_refuse_out_of_range_input(q, case):
    # unchecked, the flat index lands on another entry: unit(3, 0, 1) would be E_31, at(0, 2)
    # on a 2x2 entry (1, 0), and pad_zeros=-1 a "1x1" matrix holding 3 entries
    with pytest.raises(DimensionMismatch):
        _OUT_OF_RANGE[case](field_for_order(q))


# -- text format -------------------------------------------------------------


def test_matrix_text_roundtrip(rng):
    for q in (2, 3, 4, 9):
        p, k = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2)}[q]
        spec = field_make(p, k)
        m = random_matrix(spec, 3, 4, rng)
        assert read_matrix(write_matrix(m)) == m


def test_matrix_text_rejects_trailing_garbage(gf2, rng):
    m = random_matrix(gf2, 2, 2, rng)
    with pytest.raises(FormatError):
        read_matrix(write_matrix(m) + "1 1\n")


def test_matrix_text_rejects_bad_entries(gf2):
    with pytest.raises(FormatError):
        read_matrix("2 1 2\n0 5\n")
    with pytest.raises(FormatError):
        read_matrix("2 2 2\n0 1\n")


def test_read_matrices_consecutive_blocks(gf2, rng):
    a = random_matrix(gf2, 2, 2, rng)
    b = random_matrix(gf2, 3, 3, rng)
    parsed = read_matrices(write_matrix(a) + write_matrix(b), 2)
    assert parsed == [a, b]


def test_matrix_immutability_and_hash(gf2, rng):
    m = random_matrix(gf2, 3, 3, rng)
    again = Matrix(gf2, 3, 3, list(m._e))
    assert m == again and hash(m) == hash(again)
    assert {m, again} == {m}
