import random
from fractions import Fraction

import pytest

from rankmetric.errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolated,
    NotDivisor,
    NotUnital,
    RelationsNotSatisfied,
    Singular,
    SpecMismatch,
)
from rankmetric.matrix import (
    Matrix,
    invert,
    kassabov_generators,
    matrix_units,
    rank,
    rank_distance,
    random_matrix,
    random_unit,
    write_matrix,
)
from rankmetric import embeddings
from rankmetric import matrix as mx
from rankmetric.gf import field_for_order
from rankmetric.embeddings import (
    DeltaEmbedding,
    Homomorphism,
    amalgamate,
    compose,
    image_distance,
    image_distances,
    iota,
    iota_embedding,
    skolem_noether_conjugator,
)

from oracles import image_distance_by_scatters, skolem_noether_by_adapted_bases


# -- iota ---------------------------------------------------------------------


def test_iota_identity(gf2, rng):
    x = random_matrix(gf2, 3, 3, rng)
    assert iota(3, 3, x) == x


def test_iota_isometry_rank_one(gf2):
    x = Matrix.unit(gf2, 2, 1, 2)
    lifted = iota(4, 2, x)
    assert rank(lifted) == 2
    zero2, zero4 = Matrix.zero(gf2, 2), Matrix.zero(gf2, 4)
    assert rank_distance(x, zero2) == rank_distance(lifted, zero4)


def test_iota_isometry_random(gf3, rng):
    for _ in range(30):
        x = random_matrix(gf3, 3, 3, rng)
        y = random_matrix(gf3, 3, 3, rng)
        assert rank_distance(iota(6, 3, x), iota(6, 3, y)) == rank_distance(x, y)


def test_iota_functoriality(gf2, rng):
    for _ in range(10):
        x = random_matrix(gf2, 2, 2, rng)
        assert iota(12, 4, iota(4, 2, x)) == iota(12, 2, x)


def test_iota_rejects_non_divisor(gf2):
    with pytest.raises(NotDivisor):
        iota(5, 2, Matrix.identity(gf2, 2))


def test_iota_embedding_equals_iota(gf3, rng):
    e = iota_embedding(6, 2, gf3)
    assert e.unital and e.delta == 0
    for _ in range(10):
        x = random_matrix(gf3, 2, 2, rng)
        assert e.apply(x) == iota(6, 2, x)


def test_identity_conjugator_differs_from_iota_by_fixed_shuffle(gf2, rng):
    # the plain block layout and the inclusion are the same map up to the
    # fixed shuffle permutation, which the inclusion's conjugator carries
    from rankmetric.embeddings import block_embedding
    block = block_embedding(2, 6, gf2)
    shuffled = iota_embedding(6, 2, gf2)
    q_perm = shuffled.conjugator
    qi = invert(q_perm)
    for _ in range(5):
        x = random_matrix(gf2, 2, 2, rng)
        assert q_perm * block.apply(x) * qi == iota(6, 2, x)


# -- delta embeddings ---------------------------------------------------------


def _random_embedding(spec, m, n, mult, rng):
    return DeltaEmbedding(m, n, mult, random_unit(spec, n, rng))


def test_delta_apply_zero(gf2, rng):
    e = _random_embedding(gf2, 2, 5, 2, rng)
    assert e.apply(Matrix.zero(gf2, 2)).is_zero()


def test_delta_apply_is_ring_hom(gf2, rng):
    e = _random_embedding(gf2, 2, 5, 2, rng)
    for _ in range(20):
        x = random_matrix(gf2, 2, 2, rng)
        y = random_matrix(gf2, 2, 2, rng)
        assert e.apply(x * y) == e.apply(x) * e.apply(y)
        assert e.apply(x + y) == e.apply(x) + e.apply(y)


def test_delta_value_and_idempotent_rank(gf2, rng):
    e = _random_embedding(gf2, 2, 5, 2, rng)
    assert e.delta.as_fraction() == Fraction(1, 5)
    image_one = e.apply(Matrix.identity(gf2, 2))
    assert rank(image_one) == 4
    assert image_one * image_one == image_one
    assert rank_distance(image_one, Matrix.identity(gf2, 5)).as_fraction() == Fraction(1, 5)


def test_unital_limit_behavior(gf3, rng):
    # d(phi(1), 1) <= delta for every constructed block embedding
    for (m, n, mult) in [(2, 6, 3), (2, 7, 3), (3, 10, 3), (2, 5, 1)]:
        e = _random_embedding(gf3, m, n, mult, rng)
        d = rank_distance(e.apply(Matrix.identity(gf3, m)),
                          Matrix.identity(gf3, n))
        assert d.as_fraction() <= e.delta_fraction


def test_lipschitz_expansion_sandwich(gf2, rng):
    e = _random_embedding(gf2, 2, 5, 2, rng)
    delta = e.delta_fraction
    for _ in range(20):
        x = random_matrix(gf2, 2, 2, rng)
        y = random_matrix(gf2, 2, 2, rng)
        dxy = rank_distance(x, y).as_fraction()
        dim = rank_distance(e.apply(x), e.apply(y)).as_fraction()
        assert dim <= dxy
        assert dim >= (1 - delta) * dxy


def test_compose_multiplies_and_agrees(gf2, rng):
    inner = _random_embedding(gf2, 2, 5, 2, rng)
    outer = _random_embedding(gf2, 5, 12, 2, rng)
    comp = compose(outer, inner)
    assert comp.mult == 4 and comp.m == 2 and comp.n == 12
    for _ in range(10):
        x = random_matrix(gf2, 2, 2, rng)
        assert comp.apply(x) == outer.apply(inner.apply(x))


def test_delta_embedding_rejects_overfull(gf2):
    with pytest.raises(DimensionMismatch):
        DeltaEmbedding(2, 5, 3, Matrix.identity(gf2, 5))


def test_delta_text_roundtrip(gf2, rng):
    e = _random_embedding(gf2, 2, 6, 2, rng)
    again = DeltaEmbedding.from_text(e.to_text())
    assert (again.m, again.n, again.mult) == (2, 6, 2)
    assert again.conjugator == e.conjugator


# -- joint embedding ----------------------------------------------------------


def test_joint_embed_scalars(gf3):
    ea = iota_embedding(4, 1, gf3)
    assert ea.n == 4
    two = Matrix.scalar(gf3, 1, 2)
    assert ea.apply(two) == Matrix.scalar(gf3, 4, 2)


# -- homomorphisms ------------------------------------------------------------


def test_homomorphism_inclusion_is_unital(gf2):
    h = Homomorphism.inclusion(6, 2, gf2)
    assert h.unital
    a, b = kassabov_generators(2, gf2)
    assert h.apply(a) == h.img_a and h.apply(b) == h.img_b


def test_homomorphism_apply_is_multiplicative(gf2, rng):
    h = Homomorphism.inclusion(4, 2, gf2).conjugate(random_unit(gf2, 4, rng))
    for _ in range(10):
        x = random_matrix(gf2, 2, 2, rng)
        y = random_matrix(gf2, 2, 2, rng)
        assert h.apply(x * y) == h.apply(x) * h.apply(y)
        assert h.apply(x + y) == h.apply(x) + h.apply(y)


def test_homomorphism_is_its_block_embedding(gf2, gf3):
    # besides the embedding, only its generator images, read off it once
    assert Homomorphism.__slots__ == ("m", "n", "spec", "embedding", "_imgs")
    h = Homomorphism.inclusion(4, 2, gf2)
    assert h._imgs is None
    assert (h.img_a, h.img_b) == h.embedding.generator_images() == h._imgs
    assert h.img_a is h._imgs[0] and h.img_b is h._imgs[1]
    with pytest.raises(SpecMismatch):
        h.apply(Matrix.identity(gf3, 2))
    with pytest.raises(DimensionMismatch):
        h.apply(Matrix.identity(gf2, 3))


def test_homomorphism_text_roundtrip(gf2, rng):
    h = Homomorphism.inclusion(4, 2, gf2).conjugate(random_unit(gf2, 4, rng))
    again = Homomorphism.from_text(h.to_text())
    assert again == h


def test_homomorphism_rejects_garbage(gf2):
    with pytest.raises(FormatError):
        Homomorphism.from_text("HOM 2\n")


# -- derived maps against the validating constructor --------------------------
# inclusion, conjugate and the amalgamate legs are block embeddings by
# construction; Homomorphism(m, n, img_a, img_b) checks every unit identity
# and reads its block embedding off the units.


def _same_as_validated(h, rng, block=None):
    """h agrees with the map validated from its generator images: units (also
    those of matrix_units), images, multiplicity, unitality and values; so
    does ``block``, the DeltaEmbedding h was built from, when given."""
    v = Homomorphism(h.m, h.n, h.img_a, h.img_b)
    assert v.units == h.units == matrix_units(h.img_a, h.img_b, h.m)
    assert (v.img_a, v.img_b, v.unital) == (h.img_a, h.img_b, h.unital)
    assert v.embedding.mult == h.embedding.mult == (block or h.embedding).mult
    assert v == h and hash(v) == hash(h)
    for _ in range(3):
        x = random_matrix(h.spec, h.m, h.m, rng)
        assert v.apply(x) == h.apply(x) == (block or h).apply(x)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n, m", [(4, 2), (6, 3), (8, 4), (5, 1), (3, 3)])
def test_inclusion_and_conjugates_match_validating_constructor(q, n, m):
    spec = field_for_order(q)
    rng = random.Random(f"derived/{q}/{n}/{m}")
    inc = Homomorphism.inclusion(n, m, spec)
    once = inc.conjugate(random_unit(spec, n, rng))
    twice = once.conjugate(random_unit(spec, n, rng))
    for h in (inc, once, twice):
        _same_as_validated(h, rng)
    assert inc.unital and twice.unital


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("a, b0, b1", [(2, 4, 6), (1, 3, 2), (3, 3, 6)])
def test_amalgamate_legs_match_validating_constructor(q, a, b0, b1):
    spec = field_for_order(q)
    rng = random.Random(f"legs/{q}/{a}/{b0}/{b1}")
    phis = [Homomorphism.inclusion(b, a, spec).conjugate(random_unit(spec, b, rng))
            for b in (b0, b1)]
    c, psi0, psi1 = amalgamate(*phis)
    for psi in (psi0, psi1):
        _same_as_validated(psi, rng)
    x = random_matrix(spec, a, a, rng)
    assert psi0.apply(phis[0].apply(x)) == psi1.apply(phis[1].apply(x))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("m, n", [(2, 5), (3, 7), (2, 4), (4, 8)])
def test_validating_constructor_reads_any_block_embedding(q, m, n):
    # multiplicity 0 (the zero map) up to n // m, unital only when k m = n
    spec = field_for_order(q)
    rng = random.Random(f"blocks/{q}/{m}/{n}")
    for k in range(n // m + 1):
        e = DeltaEmbedding(m, n, k, random_unit(spec, n, rng))
        h = Homomorphism(m, n, *e.generator_images())
        assert h.embedding.mult == k
        assert h.unital == (k * m == n)
        _same_as_validated(h, rng, e)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_validating_constructor_scalar_source_is_unital(q):
    spec = field_for_order(q)
    zero = Matrix.zero(spec, 3)
    h = Homomorphism(1, 3, zero, zero)
    assert h.unital and h.embedding.mult == 3
    assert h.units == [[Matrix.identity(spec, 3)]]
    assert h.apply(Matrix.scalar(spec, 1, q - 1)) == Matrix.scalar(spec, 3, q - 1)


def test_derived_maps_build_no_unit_check(gf3, rng, monkeypatch):
    phis = [Homomorphism.inclusion(b, 2, gf3).conjugate(random_unit(gf3, b, rng))
            for b in (4, 6)]

    def refuse(*args):
        raise AssertionError("matrix_units called")

    monkeypatch.setattr(embeddings, "matrix_units", refuse)
    amalgamate(*phis)
    Homomorphism.inclusion(8, 4, gf3).conjugate(random_unit(gf3, 8, rng))
    with pytest.raises(AssertionError, match="matrix_units called"):
        Homomorphism(2, 4, phis[0].img_a, phis[0].img_b)


def test_conjugate_rejects_singular_unit(gf3, rng):
    inc = Homomorphism.inclusion(4, 2, gf3)
    rank_one = random_matrix(gf3, 4, 4, rng) * Matrix.unit(gf3, 4, 2, 3)
    for u in (Matrix.zero(gf3, 4), Matrix.unit(gf3, 4, 1, 1), rank_one):
        with pytest.raises(Singular):
            inc.conjugate(u)


def test_conjugate_rejects_wrong_sized_unit(gf3, rng):
    inc = Homomorphism.inclusion(4, 2, gf3)
    for u in (random_unit(gf3, 6, rng), random_unit(gf3, 2, rng),
              random_matrix(gf3, 4, 3, rng)):
        with pytest.raises(DimensionMismatch):
            inc.conjugate(u)
    with pytest.raises(SpecMismatch):
        inc.conjugate(random_unit(field_for_order(5), 4, rng))


@pytest.mark.parametrize("n, m", [(5, 2), (4, 3), (2, 4), (4, 0)])
def test_inclusion_rejects_non_divisor(gf2, n, m):
    with pytest.raises(NotDivisor):
        Homomorphism.inclusion(n, m, gf2)


def test_validating_constructor_rejects_bad_images(gf3, rng):
    h = Homomorphism.inclusion(4, 2, gf3).conjugate(random_unit(gf3, 4, rng))
    bad = [(Matrix.identity(gf3, 4), h.img_b),  # not nilpotent
           (h.img_a, h.img_a),                 # ba + ab = 2a^2 = 0, not 1
           (h.img_a.scale(2), h.img_b)]        # ba + ab = 2, not 1
    for img_a, img_b in bad:
        with pytest.raises(RelationsNotSatisfied):
            Homomorphism(2, 4, img_a, img_b)
        with pytest.raises(RelationsNotSatisfied):
            Homomorphism.from_text("HOM 2 4\n" + write_matrix(img_a) + write_matrix(img_b))


# -- skolem-noether -----------------------------------------------------------


def test_conjugator_self(gf2):
    inc = Homomorphism.inclusion(4, 2, gf2)
    u = skolem_noether_conjugator(inc, inc)
    ui = invert(u)
    assert u * inc.img_a * ui == inc.img_a
    assert u * inc.img_b * ui == inc.img_b


def test_conjugator_known_twist(gf2, rng):
    # returned unit need not equal the twisting unit, only intertwine
    inc = Homomorphism.inclusion(4, 2, gf2)
    g = random_unit(gf2, 4, rng)
    tw = inc.conjugate(g)
    u = skolem_noether_conjugator(inc, tw)
    ui = invert(u)
    assert u * inc.img_a * ui == tw.img_a
    assert u * inc.img_b * ui == tw.img_b


def test_conjugator_random_pair_many(gf2, gf3, rng):
    for spec, b in [(gf2, 4), (gf2, 6), (gf3, 6)]:
        inc = Homomorphism.inclusion(b, 2, spec)
        phi0 = inc.conjugate(random_unit(spec, b, rng))
        phi1 = inc.conjugate(random_unit(spec, b, rng))
        u = skolem_noether_conjugator(phi0, phi1)
        assert rank(u) == b
        ui = invert(u)
        assert u * phi0.img_a * ui == phi1.img_a
        assert u * phi0.img_b * ui == phi1.img_b


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_conjugator_is_the_adapted_basis_change(q):
    # validated maps and inclusions hold the basis that the oracle builds from
    # their units, so the conjugator is the oracle's change of basis; the
    # pinned CLI conjugator and amalgamate outputs rest on this
    spec = field_for_order(q)
    rng = random.Random(f"adapted/{q}")
    for n, m in [(4, 2), (6, 3), (6, 2), (3, 1)]:
        inc = Homomorphism.inclusion(n, m, spec)
        twisted = [inc.conjugate(random_unit(spec, n, rng)) for _ in range(2)]
        maps = [inc, Homomorphism.from_text(twisted[0].to_text()),
                *(Homomorphism(m, n, h.img_a, h.img_b) for h in twisted)]
        for phi0 in maps:
            for phi1 in maps:
                u = skolem_noether_conjugator(phi0, phi1)
                assert u == skolem_noether_by_adapted_bases(phi0, phi1)


def test_conjugator_requires_unital(gf2, rng):
    inc = Homomorphism.inclusion(4, 2, gf2)
    padded = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    ha, hb = padded.generator_images()
    nonunital = Homomorphism(2, 5, ha, hb)
    with pytest.raises(NotUnital):
        skolem_noether_conjugator(nonunital, nonunital)
    with pytest.raises(DimensionMismatch):
        skolem_noether_conjugator(inc, Homomorphism.inclusion(6, 2, gf2))


# -- amalgamation -------------------------------------------------------------


def test_amalgamate_plain_inclusions(gf2, rng):
    phi0 = Homomorphism.inclusion(4, 2, gf2)
    phi1 = Homomorphism.inclusion(6, 2, gf2)
    c, psi0, psi1 = amalgamate(phi0, phi1)
    assert c == 24
    a, b = kassabov_generators(2, gf2)
    for x in (a, b, random_matrix(gf2, 2, 2, rng)):
        assert psi0.apply(phi0.apply(x)) == psi1.apply(phi1.apply(x))


def test_amalgamate_scalar_source(gf2):
    phi0 = Homomorphism.inclusion(2, 1, gf2)
    phi1 = Homomorphism.inclusion(3, 1, gf2)
    c, psi0, psi1 = amalgamate(phi0, phi1)
    assert c == 6
    one = Matrix.identity(gf2, 1)
    assert psi0.apply(phi0.apply(one)) == psi1.apply(phi1.apply(one))


def test_amalgamate_random_twists(gf2, rng):
    phi0 = Homomorphism.inclusion(4, 2, gf2).conjugate(random_unit(gf2, 4, rng))
    phi1 = Homomorphism.inclusion(6, 2, gf2).conjugate(random_unit(gf2, 6, rng))
    c, psi0, psi1 = amalgamate(phi0, phi1)
    assert c == 24
    assert psi0.unital and psi1.unital
    a, b = kassabov_generators(2, gf2)
    for x in (a, b):
        assert psi0.apply(phi0.apply(x)) == psi1.apply(phi1.apply(x))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_amalgamate_legs_equal_inverted_lift(q):
    # each leg once conjugated by the inverse of the lifted unit that twists
    # the inclusion onto phi
    spec = field_for_order(q)
    rng = random.Random(q)
    phis = [Homomorphism.inclusion(b, 2, spec).conjugate(random_unit(spec, b, rng))
            for b in (4, 6)]
    c, *legs = amalgamate(*phis)
    for phi, leg in zip(phis, legs):
        u = skolem_noether_conjugator(Homomorphism.inclusion(phi.n, 2, spec), phi)
        old = Homomorphism.inclusion(c, phi.n, spec).conjugate(invert(iota(c, phi.n, u)))
        assert leg == old


def test_amalgamate_rejects_nonunital(gf2, rng):
    padded = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    ha, hb = padded.generator_images()
    nonunital = Homomorphism(2, 5, ha, hb)
    with pytest.raises(NotUnital):
        amalgamate(nonunital, Homomorphism.inclusion(4, 2, gf2))


def _permutation_map(spec, m: int, n: int, mult: int, images) -> DeltaEmbedding:
    """The block map M_m -> M_n with ``mult`` copies and conjugator P e_j = e_images[j]."""
    p = [0] * (n * n)
    for j, i in enumerate(images):
        p[i * n + j] = 1
    return DeltaEmbedding(m, n, mult, Matrix(spec, n, n, p))


def _map_pairs(spec, m: int, n: int, rng):
    """Pairs of permutation maps M_m -> M_n: independent ones with unequal multiplicities,
    and ones that share most copies (two rows moved, two copies exchanged, one copy less)."""
    images = list(range(n))
    rng.shuffle(images)
    k = n // m
    left = _permutation_map(spec, m, n, k, images)
    moved = images[:]
    i, j = rng.sample(range(n), 2)
    moved[i], moved[j] = moved[j], moved[i]
    swapped = images[m:2 * m] + images[:m] + images[2 * m:] if k >= 2 else images
    other = rng.sample(range(n), n)
    return [(left, _permutation_map(spec, m, n, rng.randrange(k), other)),
            (left, _permutation_map(spec, m, n, k, moved)),
            (left, _permutation_map(spec, m, n, k, swapped)),
            (_permutation_map(spec, m, n, k - 1, images), left)]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_image_distance_of_moved_copies_matches_both_scatters(q):
    # ranking only the copies the two maps place differently gives the distance of the
    # two full scatters of x (x in M_d, both maps composed with iota(m, d)) and of the
    # dense images, for identity, generator and random x, with d = m and with d < m
    spec, rng = field_for_order(q), random.Random(2400 + q)
    for m, n in ((1, 5), (2, 7), (4, 9), (6, 13), (6, 12), (4, 16)):
        for d in (d for d in range(1, m + 1) if m % d == 0):
            xs = [Matrix.identity(spec, d), *kassabov_generators(d, spec),
                  random_matrix(spec, d, d, rng)]
            up = iota_embedding(m, d, spec)
            for left, right in _map_pairs(spec, m, n, rng):
                by_scatters = [image_distance_by_scatters(compose(left, up), compose(right, up), x)
                               for x in xs]
                dense = [rank_distance(left.apply(iota(m, d, x)), right.apply(iota(m, d, x)))
                         for x in xs]
                moved = image_distances(left, right, xs)
                assert [(r.numerator, r.denominator) for r in moved] == \
                    [(r.numerator, r.denominator) for r in by_scatters]
                assert moved == dense == [image_distance(left, right, x) for x in xs]
                assert image_distances(left, left, xs) == [0] * len(xs)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_image_distances_unchanged_by_one_permutation_of_the_target(q, forced, monkeypatch):
    # a permutation sigma of the target is an isometry of the rank metric, so following
    # both maps by it moves their images but not their distance, for d = 1 and d > 1 probes
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec, rng, seen = field_for_order(q), random.Random(2710 + q), set()
    for m, n in ((1, 5), (2, 7), (4, 9), (6, 13)):
        sigma = _permutation_map(spec, n, n, 1, rng.sample(range(n), n))
        xs = [x for d in {1, 2, m} if m % d == 0
              for x in (Matrix.identity(spec, d), random_matrix(spec, d, d, rng))]
        for left, right in _map_pairs(spec, m, n, rng):
            moved = image_distances(compose(sigma, left), compose(sigma, right), xs)
            assert moved == image_distances(left, right, xs)
            seen.update(r.as_fraction() for r in moved)
    assert 0 in seen and len(seen) > 2


def test_image_distance_refuses_other_shapes_and_twists(gf3):
    straight = iota_embedding(6, 3, gf3)
    for x in (Matrix.identity(gf3, 2), Matrix.zero(gf3, 3, 1), Matrix.identity(gf3, 0)):
        with pytest.raises(DimensionMismatch):
            image_distance(straight, straight, x)
    with pytest.raises(DimensionMismatch):
        image_distance(straight, iota_embedding(12, 3, gf3), Matrix.identity(gf3, 3))
    twisted = DeltaEmbedding(3, 6, 2, Matrix.identity(gf3, 6) + Matrix.unit(gf3, 6, 1, 2))
    with pytest.raises(InvariantViolated, match="permutation conjugators"):
        image_distance(straight, twisted, Matrix.identity(gf3, 1))
