import ast
import inspect
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    direct_sum,
    image_basis,
    intersect,
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
    solve,
    subspace_sum,
    write_matrix,
)
from rankmetric.ramsey import base_copy_basis, gl_order, iterate_units, span_fingerprint

from oracles import matrix_units_by_products, rank_by_minors, span_dimension


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
                assert all(v == 0 for v in m.apply_to_vector(b))


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
def test_annihilator_and_intersect_over_every_field(q, rng):
    spec = field_for_order(q)
    for _ in range(25):
        n = rng.randrange(1, 8)
        s1, s2 = (image_basis(random_matrix(spec, n, rng.randrange(0, n + 1), rng)) for _ in range(2))
        assert kernel_basis(mx.annihilator(s1)) == s1
        inter = intersect(s1, s2)
        # inside both, and as large as s1 + s2 allows: the whole intersection
        assert all(s1.contains(b) and s2.contains(b) for b in inter.basis)
        assert inter.dim == s1.dim + s2.dim - subspace_sum(s1, s2).dim


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
        image = m.apply_to_vector(x)
        sol = solve(m, image)
        assert sol is not None and m.apply_to_vector(sol) == image
        rhs = [rng.randrange(q) for _ in range(r)]
        aug = Matrix(spec, r, c + 1, [v for row, b in zip(m.row_lists(), rhs) for v in row + [b]])
        sol = solve(m, rhs)
        if rank(aug) > rank(m):
            assert sol is None
        else:
            assert sol is not None and m.apply_to_vector(sol) == tuple(rhs)


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

    def outputs():
        return [dict(mul=a * b, add=a + d, sub=a - d, neg=-a,
                     scaled=[a.scale(s) for s in range(q)], zero=Matrix.zero(spec, a.rows, a.cols),
                     identity=Matrix.identity(spec, a.cols), rank=rank(a),
                     kernel=kernel_basis(a).basis, image=image_basis(a).basis,
                     apply=a.apply_to_vector(v), is_zero=a.is_zero(),
                     diff_zero=(a - a).is_zero(), solve=solve(a, a.apply_to_vector(v)))
                for a, b, d, v in cases]

    def matrices(outs):
        return [m for out in outs for k in ("mul", "add", "sub", "neg", "zero", "identity", "scaled")
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
        assert [m.apply_to_vector(w) for w in wild] == [m.apply_to_vector(v) for v in vecs]
        sub = Subspace(spec, n, wild[:2])
        assert sub == Subspace(spec, n, vecs[:2])
        assert [sub.contains(w) for w in wild] == [sub.contains(v) for v in vecs]
        assert sub.contains(wild[0]) and sub.contains(wild[1])
        tables = {}, {}
        assert [mx.echelon_insert(tables[0], w, spec) for w in wild] == \
            [mx.echelon_insert(tables[1], v, spec) for v in vecs]
        assert tables[0] == tables[1]
    assert Matrix.identity(spec, 2).apply_to_vector([-1, 0]) == (q - 1, 0)
    assert Subspace(spec, 2, [[q, 1]]).basis == ((0, 1),)


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
    # _g_rref's third argument, so the families must call them through the module
    signatures = {"_b_pack": ["entries", "rows", "cols"], "_b_unpack": ["rowints", "cols"],
                  "_b_rref": ["rowints", "ncols"], "_g_rref": ["rowlists", "ncols", "spec"]}
    calls = Counter()
    for name, params in signatures.items():
        kernel = getattr(mx, name)
        assert list(inspect.signature(kernel).parameters) == params

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(mx, name, counted)
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
        assert all(not any(m.apply_to_vector(v)) for v in basis)
        assert Subspace(spec, m.cols, basis).basis == basis


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
