"""Conjugators of block embeddings, held as a twist T times a permutation P
kept as images, against the dense products they replace.

``delta_apply_dense`` evaluates B (x^{+mult} (+) 0) B^{-1} by two products
and a fresh inverse of the dense conjugator B; every ``DeltaEmbedding``
must agree with it, and every conjugator built from images and twists
must equal the dense product it stands for.
"""

import io
import itertools
import random
from fractions import Fraction

import pytest

from rankmetric import embeddings
from rankmetric import matrix as mx
from rankmetric.cli import run
from rankmetric.errors import Singular
from rankmetric.gf import field_for_order
from rankmetric.matrix import Matrix, invert, random_matrix, random_unit, write_matrix
from rankmetric.embeddings import (
    DeltaEmbedding,
    Homomorphism,
    _composed,
    _merge_permutation,
    _shuffle_conjugator,
    _tile,
    amalgamate,
    back_embedding,
    block_embedding,
    compose,
    iota_embedding,
    skolem_noether_conjugator,
)
from rankmetric.fraisse import (
    approximate_extension,
    approximate_homogeneity,
    back_and_forth,
    tower_make,
)

from oracles import (by_columns, composed_by_steps, delta_apply_dense, direct_sum, merge_by_set,
                     moved_by_tuples, permutation_images_by_entries, shuffle_by_steps,
                     tile_by_steps)


def _is_permutation_path(e: DeltaEmbedding) -> bool:
    return e._twist is None


def _permutation_matrix(spec, images) -> Matrix:
    """The matrix sending basis vector j to basis vector images[j]."""
    n = len(images)
    return by_columns(spec, [[int(i == t) for i in range(n)] for t in images], n)


def _random_permutation(spec, n, rng) -> Matrix:
    images = list(range(n))
    rng.shuffle(images)
    return _permutation_matrix(spec, images)


def _padded(block: Matrix, copies: int, total: int) -> Matrix:
    blocks = [block] * copies
    if total > copies * block.rows:
        blocks.append(Matrix.identity(block.spec, total - copies * block.rows))
    return direct_sum(blocks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("order", ["factorial-powers", "powers-factorial"])
def test_back_and_forth_maps_apply_like_dense_oracle(q, order):
    spec = field_for_order(q)
    rng = random.Random(1000 + q)
    rules = order.split("-")
    prefix = {"factorial": 6, "powers": 9}
    tx, ty = (tower_make("powers_of_2" if r == "powers" else r, prefix[r], spec)
              for r in rules)
    probes = [tx.one_at(0), ty.one_at(0), *tx.generators_at(1), *ty.generators_at(1)]
    cert = back_and_forth(tx, ty, 3, probes)
    for rec in cert.maps:
        e = rec.embedding
        assert _is_permutation_path(e)
        for x in (random_matrix(spec, e.m, e.m, rng), Matrix.identity(spec, e.m)):
            assert e.apply(x) == delta_apply_dense(e, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_random_permutation_conjugators_match_dense_oracle(q):
    spec = field_for_order(q)
    rng = random.Random(2000 + q)
    for m, n, mult in [(1, 1, 1), (2, 7, 3), (3, 12, 4), (4, 9, 1), (2, 5, 0)]:
        p = _random_permutation(spec, n, rng)
        e = DeltaEmbedding(m, n, mult, p)
        assert _is_permutation_path(e)
        assert e.conjugator == p
        again = DeltaEmbedding.from_text(e.to_text())
        assert _is_permutation_path(again) and again.conjugator == p
        for _ in range(3):
            x = random_matrix(spec, m, m, rng)
            assert e.apply(x) == delta_apply_dense(e, x)


def test_packed_apply_matches_generic(monkeypatch):
    spec = field_for_order(2)
    rng = random.Random(7)
    e = DeltaEmbedding(3, 20, 5, _random_permutation(spec, 20, rng))
    xs = [random_matrix(spec, 3, 3, rng) for _ in range(5)]
    packed = [e.apply(x) for x in xs]
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    assert [e.apply(x) for x in xs] == packed
    assert packed == [delta_apply_dense(e, x) for x in xs]


def test_gf3_planes_apply_matches_generic(monkeypatch):
    spec = field_for_order(3)
    rng = random.Random(7)
    e = DeltaEmbedding(3, 20, 5, _random_permutation(spec, 20, rng))
    xs = [random_matrix(spec, 3, 3, rng) for _ in range(5)] + [Matrix(spec, 3, 3, [2] * 9)]
    fast = [e.apply(x) for x in xs]
    dense = [delta_apply_dense(e, x) for x in xs]
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    assert [e.apply(x) for x in xs] == fast
    assert fast == dense == [delta_apply_dense(e, x) for x in xs]


@pytest.mark.parametrize("q", [2, 3])
def test_dense_conjugators_keep_the_dense_path(q):
    spec = field_for_order(q)
    rng = random.Random(3000 + q)
    for m, n, mult in [(2, 7, 3), (3, 12, 4), (2, 6, 0)]:
        u = random_unit(spec, n, rng)
        e = DeltaEmbedding(m, n, mult, u)
        assert not _is_permutation_path(e)
        assert e._images == tuple(range(n))
        assert e._twist[0] is u and e._twist[1] == invert(u)
        for _ in range(3):
            x = random_matrix(spec, m, m, rng)
            assert e.apply(x) == delta_apply_dense(e, x)


def test_monomial_and_near_permutation_matrices_stay_dense(gf3):
    # a 2 in place of a 1 is invertible but not a permutation
    mono = Matrix(gf3, 3, 3, [0, 2, 0, 1, 0, 0, 0, 0, 1])
    e = DeltaEmbedding(1, 3, 2, mono)
    assert not _is_permutation_path(e)
    x = Matrix(gf3, 1, 1, [2])
    assert e.apply(x) == delta_apply_dense(e, x)
    # n ones in n rows but two in one column: singular
    with pytest.raises(Singular):
        DeltaEmbedding(1, 3, 2, Matrix(gf3, 3, 3, [1, 0, 0, 1, 0, 0, 0, 0, 1]))


@pytest.mark.parametrize("q", [2, 3])
def test_singular_conjugator_raises_at_construction(q):
    spec = field_for_order(q)
    with pytest.raises(Singular):
        DeltaEmbedding(2, 4, 2, Matrix.zero(spec, 4))
    rows = [1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]  # rows 1 and 2 equal
    with pytest.raises(Singular):
        DeltaEmbedding(2, 4, 2, Matrix(spec, 4, 4, rows))


def test_singular_conjugator_in_delta_file_exit_2(tmp_path, gf3):
    path = tmp_path / "phi.txt"
    path.write_text("DELTA 2 4 2\n" + write_matrix(Matrix.zero(gf3, 4)))
    out = io.StringIO()
    code = run(["homog", "--phi", str(path), "--psi", str(path)], out)
    assert code == 2
    assert out.getvalue().startswith("error Singular:")


def _conjugators(spec, n, rng):
    """A random permutation and a random unit that is not one."""
    return [_random_permutation(spec, n, rng), random_unit(spec, n, rng)]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_compose_conjugator_equals_dense_product(q):
    spec = field_for_order(q)
    rng = random.Random(4000 + q)
    m, n, p = 2, 5, 13
    for k1, k2 in [(2, 2), (1, 2), (2, 1), (0, 2), (2, 0)]:
        for c_in in _conjugators(spec, n, rng):
            for c_out in _conjugators(spec, p, rng):
                inner = DeltaEmbedding(m, n, k1, c_in)
                outer = DeltaEmbedding(n, p, k2, c_out)
                comp = compose(outer, inner)
                if k1 * k2:
                    merge = _permutation_matrix(spec, _merge_permutation(k2, n, k1, m, p))
                    assert comp.conjugator == c_out * _padded(c_in, k2, p) * merge
                    assert _is_permutation_path(comp) == (
                        _is_permutation_path(inner) and _is_permutation_path(outer))
                else:  # the zero map keeps the identity conjugator
                    assert comp.mult == 0 and _is_permutation_path(comp)
                    assert comp.conjugator == Matrix.identity(spec, p)
                x = random_matrix(spec, m, m, rng)
                assert comp.apply(x) == outer.apply(inner.apply(x)) == delta_apply_dense(comp, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_extension_conjugator_equals_dense_product(q):
    spec = field_for_order(q)
    rng = random.Random(5000 + q)
    tower = tower_make([2, 24], 0, spec)
    for conj in _conjugators(spec, 5, rng):
        phi = DeltaEmbedding(2, 5, 2, conj)
        k_prime, psi, _ = approximate_extension(phi, tower, Fraction(1, 4))
        m_p = tower.dims[k_prime]
        s = m_p // 5
        shuffle = _permutation_matrix(spec, _shuffle_conjugator(2, m_p // 2))
        # a zero phi (multiplicity 0) has the same back embedding up to the merge
        for mult, back in [(2, psi), (0, back_embedding(DeltaEmbedding(2, 5, 0, conj), m_p))]:
            merge = _permutation_matrix(spec, _merge_permutation(s, 5, mult, 2, m_p))
            assert back.conjugator == shuffle * invert(merge) * _padded(invert(conj), s, m_p)
            assert _is_permutation_path(back) == _is_permutation_path(phi)
            y = random_matrix(spec, 5, 5, rng)
            assert back.apply(y) == delta_apply_dense(back, y)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_homogeneity_unit_equals_dense_product(q):
    spec = field_for_order(q)
    rng = random.Random(6000 + q)
    for c_phi in _conjugators(spec, 12, rng):
        for c_psi in _conjugators(spec, 12, rng):
            phi = DeltaEmbedding(2, 12, 6, c_phi)
            psi = DeltaEmbedding(2, 12, 6, c_psi)
            beta, residual = approximate_homogeneity(phi, psi)
            assert residual == 0
            assert beta == c_psi * invert(c_phi)
            x = random_matrix(spec, 2, 2, rng)
            assert beta * phi.apply(x) * invert(beta) == psi.apply(x)


def test_merge_permutation_fixed_layout():
    # copies of x fill the outer blocks in order, and the padding rows go
    # to the remaining rows in increasing order; DELTA files and
    # certificates record the conjugator, so this layout is frozen
    assert _merge_permutation(2, 5, 2, 2, 13) == (0, 1, 2, 3, 5, 6, 7, 8, 4, 9, 10, 11, 12)
    assert _shuffle_conjugator(2, 3) == (0, 3, 1, 4, 2, 5)


def test_permutation_builders_match_step_by_step_oracles():
    # the builders read ranges and strided slices; over a grid with no copies, no outer
    # blocks, no padding (total = copies k), m = 1 and k in {0, 1}, on both sides of each
    # builder's choice of loop, they give the tuples of the one-step-per-index builders
    rng = random.Random(27)
    for m, k in itertools.product(range(1, 7), range(0, 7)):
        assert _shuffle_conjugator(m, k) == shuffle_by_steps(m, k)
    for k, copies, pad in itertools.product(range(0, 7), range(0, 7), range(0, 3)):
        images = tuple(rng.sample(range(k), k))
        assert _tile(images, copies, copies * k + pad) == tile_by_steps(images, copies,
                                                                       copies * k + pad)
    for outer, inner, copies, spare, pad in itertools.product(range(0, 6), range(1, 4),
                                                              range(0, 4), range(0, 3),
                                                              range(0, 3)):
        block = copies * inner + spare
        args = (outer, block, copies, inner, outer * block + pad)
        assert _merge_permutation(*args) == merge_by_set(*args)
    for n in (0, 1, 2, 5, 24):
        factors = [tuple(rng.sample(range(n), n)) for _ in range(3)]
        for count in (1, 2, 3):
            assert _composed(*factors[:count]) == composed_by_steps(*factors[:count])


@pytest.mark.parametrize("d_is_m", [False, True])
def test_moved_copies_match_the_tuple_per_copy_oracle(gf3, d_is_m):
    # one-row copies (d = 1) are compared as rows, the others as tuples of rows; either
    # way, both sides equal the sets of the oracle that builds a tuple for every copy
    rng = random.Random(2700 + d_is_m)
    for m, n in ((1, 7), (2, 7), (3, 12), (4, 16), (6, 13)):
        d = m if d_is_m else 1
        for _ in range(4):
            left, right = (DeltaEmbedding(m, n, rng.randrange(n // m + 1),
                                          _random_permutation(gf3, n, rng)) for _ in range(2))
            for a, b in ((left, right), (right, left), (left, left)):
                plus, minus = embeddings._moved(a, b, d)
                want_plus, want_minus = moved_by_tuples(a, b, d)
                assert (set(plus), set(minus)) == (set(want_plus), want_minus)
                assert len(plus) == len(want_plus)


def test_same_conjugator_by_images_and_by_dense_matrices(gf3):
    # a twisted map whose twist T is a permutation matrix, over P = 1, has the conjugator
    # of the untwisted map with T's images, and stops having it once one image moves
    rng = random.Random(2701)
    images = tuple(rng.sample(range(9), 9))
    t = _permutation_matrix(gf3, images)
    twisted = embeddings._embedding(3, 9, 2, gf3, range(9), (t, invert(t)))
    plain = DeltaEmbedding(3, 9, 2, t)
    assert not _is_permutation_path(twisted) and _is_permutation_path(plain)
    assert twisted.same_conjugator(plain) and plain.same_conjugator(twisted)
    moved = images[1::-1] + images[2:]
    other = DeltaEmbedding(3, 9, 2, _permutation_matrix(gf3, moved))
    assert _is_permutation_path(other)
    assert not twisted.same_conjugator(other) and not other.same_conjugator(twisted)
    assert not plain.same_conjugator(other) and other.same_conjugator(other)
    dense = DeltaEmbedding(3, 9, 2, t * (Matrix.identity(gf3, 9) + Matrix.unit(gf3, 9, 1, 2)))
    assert dense.same_conjugator(dense) and not dense.same_conjugator(plain)
    # the same images over another field are another conjugator
    assert not plain.same_conjugator(DeltaEmbedding(3, 9, 2,
                                                    _permutation_matrix(field_for_order(5),
                                                                        images)))


def test_builders_keep_images(gf3):
    assert block_embedding(2, 7, gf3).conjugator == Matrix.identity(gf3, 7)
    e = iota_embedding(6, 2, gf3)
    assert _is_permutation_path(e)
    assert e.conjugator == _permutation_matrix(gf3, _shuffle_conjugator(2, 3))


def _spy(monkeypatch):
    """Record the size of every ``invert`` of the embeddings module and every product."""
    seen = {"invert": [], "mul": []}
    invert_, mul_ = embeddings.invert, Matrix.__mul__

    def counting_invert(a):
        seen["invert"].append(a.rows)
        return invert_(a)

    def counting_mul(a, b):
        seen["mul"].append(max(a.rows, b.cols))
        return mul_(a, b)

    monkeypatch.setattr(embeddings, "invert", counting_invert)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    return seen


@pytest.mark.parametrize("q", [3, 5])
def test_amalgamate_makes_no_product_or_invert_at_size_c(q, monkeypatch):
    # each leg's straightening unit and its inverse are scatters of phi's own twist pair
    spec = field_for_order(q)
    rng = random.Random(7000 + q)
    phis = [Homomorphism.inclusion(b, 2, spec).conjugate(random_unit(spec, b, rng))
            for b in (4, 6)]
    seen = _spy(monkeypatch)
    c, psi0, psi1 = amalgamate(*phis)
    assert c == 24 and seen == {"invert": [], "mul": []}
    monkeypatch.undo()
    x = random_matrix(spec, 2, 2, rng)
    assert psi0.apply(phis[0].apply(x)) == psi1.apply(phis[1].apply(x))


@pytest.mark.parametrize("q", [2, 5])
def test_conjugate_inverts_only_u(q, monkeypatch):
    spec = field_for_order(q)
    rng = random.Random(8000 + q)
    inc = Homomorphism.inclusion(32, 4, spec)
    u = random_unit(spec, 32, rng)
    seen = _spy(monkeypatch)
    h = inc.conjugate(u)
    assert seen == {"invert": [32], "mul": []}
    images = _permutation_matrix(spec, rng.sample(range(32), 32))
    p = inc.conjugate(images)
    assert seen == {"invert": [32], "mul": []}
    monkeypatch.undo()
    assert not _is_permutation_path(h.embedding) and _is_permutation_path(p.embedding)
    x = random_matrix(spec, 4, 4, rng)
    assert h.apply(x) == u * inc.apply(x) * invert(u)
    assert p.apply(x) == images * inc.apply(x) * invert(images)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_permutation_test_on_rows_matches_the_entry_test(q, forced, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec, rng = field_for_order(q), random.Random(f"perm/{q}")
    assert mx.permutation_columns(Matrix(spec, 1, 2, [1, 0])) is None
    for n in (1, 2, 5, 9):
        images = list(range(n))
        rng.shuffle(images)
        p = _permutation_matrix(spec, images)
        cases = [p, Matrix.identity(spec, n), Matrix.zero(spec, n), p.scale(q - 1),
                 random_unit(spec, n, rng)]
        for k in rng.sample(range(n * n), min(4, n * n)):  # one entry moved off 0 or 1
            e = list(p.entries)
            e[k] = (e[k] + 1) % q
            cases.append(Matrix(spec, n, n, e))
        if n > 1:  # two rows with their 1 in one column
            cases.append(Matrix(spec, n, n, [int(j == images[0]) for _ in range(n)
                                             for j in range(n)]))
        for m in cases:
            want = permutation_images_by_entries(m)
            cols = mx.permutation_columns(m)
            assert (cols is None) == (want is None)
            if cols is not None:
                e = DeltaEmbedding(1, n, n, m)
                assert tuple(sorted(range(n), key=cols.__getitem__)) == want == e._images
                assert _is_permutation_path(e)
        assert DeltaEmbedding(1, n, n, p)._images == tuple(images)


def test_every_unital_m2_to_m4_over_gf2_is_conjugate_to_the_base_and_amalgamates():
    # the class axioms on every object at the smallest size: the 3,360 unital maps M_2 -> M_4
    # over GF(2), the inclusion conjugated by each of the 20,160 units of GL_4(2), whose
    # images are built as block images, are each conjugate to the inclusion by their
    # Skolem-Noether unit, and each amalgamates with it into a square commuting on both
    # generators, compared by entries
    spec = field_for_order(2)
    base = Homomorphism.inclusion(4, 2, spec)
    maps = {}
    for g in mx.code_units(spec, 4):
        phi = base.conjugate(g)
        maps.setdefault((phi.img_a, phi.img_b), phi)
    assert len(maps) == 20160 // 6  # |GL_4(2)| / |GL_2(2)|
    for images, phi in maps.items():
        u = skolem_noether_conjugator(base, phi)
        ui = invert(u)
        assert [u * g * ui for g in (base.img_a, base.img_b)] == list(images)
        c, psi0, psi1 = amalgamate(base, phi)
        assert c == 16
        for g0, g1 in zip((base.img_a, base.img_b), images):
            assert psi0.apply(g0).entries == psi1.apply(g1).entries
