"""Seeded randomized sweeps: every certificate a pipeline hands back is
re-verified from scratch, whatever the input looked like."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankmetric.errors import NotRepairable, RankMetricError
from rankmetric.gf import field_make
from rankmetric.matrix import (
    Matrix,
    invert,
    kassabov_generators,
    kron,
    rank,
    rank_distance,
    random_matrix,
    random_unit,
    read_matrix,
)
from rankmetric.embeddings import DeltaEmbedding, Homomorphism, skolem_noether_conjugator
from rankmetric.stability import relation_defect, repair


@pytest.mark.parametrize("q", [2, 3])
def test_repair_fuzz_random_perturbations(q):
    spec = field_make(q)
    rng = random.Random(9000 + q)
    repaired = 0
    for _ in range(60):
        n = rng.choice([2, 3])
        m = rng.choice([3, 4, 6])
        amb = n * m + rng.choice([0, 1])
        a, b = kassabov_generators(n, spec)
        from rankmetric.matrix import direct_sum
        x = direct_sum([a] * m, amb - n * m)
        y = direct_sum([b] * m, amb - n * m)
        g = random_unit(spec, amb, rng)
        gi = invert(g)
        x, y = g * x * gi, g * y * gi
        for _ in range(rng.randrange(0, 3)):
            i = rng.randrange(1, amb + 1)
            j = rng.randrange(1, amb + 1)
            which = rng.randrange(2)
            bump = Matrix.unit(spec, amb, i, j).scale(rng.randrange(1, q))
            if which:
                x = x + bump
            else:
                y = y + bump
        defect = relation_defect(x, y, n)
        try:
            psi, b_unit, cert = repair(x, y, n)
        except NotRepairable:
            assert defect.delta > 0
            continue
        repaired += 1
        x2, y2 = psi.generator_images()
        assert rank_distance(x, x2) == cert.d_x
        assert rank_distance(y, y2) == cert.d_y
        assert cert.d_x.as_fraction() <= cert.residual_rank_bound
        assert cert.d_y.as_fraction() <= cert.residual_rank_bound
        assert cert.dim_V == n * cert.dims_W[-1]
        assert (x2 ** n).is_zero() and (y2 ** n).is_zero()
        if amb % n == 0:
            assert relation_defect(x2, y2, n).delta == 0
        if defect.delta < Fraction(1, (4 + n) * n):
            assert cert.residual_rank_bound <= (4 + n) * n * defect.delta
    assert repaired >= 40  # the sweep must mostly exercise the success path


def test_skolem_noether_multiplicity_two_and_three(gf2, gf3):
    rng = random.Random(31337)
    for spec, a_dim, b_dim in [(gf2, 3, 6), (gf2, 2, 8), (gf3, 3, 6), (gf3, 2, 6)]:
        inc = Homomorphism.inclusion(b_dim, a_dim, spec)
        phi0 = inc.conjugate(random_unit(spec, b_dim, rng))
        phi1 = inc.conjugate(random_unit(spec, b_dim, rng))
        u = skolem_noether_conjugator(phi0, phi1)
        ui = invert(u)
        assert u * phi0.img_a * ui == phi1.img_a
        assert u * phi0.img_b * ui == phi1.img_b
        # and on a full random element through the validated evaluation
        x = random_matrix(spec, a_dim, a_dim, rng)
        assert u * phi0.apply(x) * ui == phi1.apply(x)


def test_delta_and_hom_formats_fuzz():
    rng = random.Random(2024)
    for q, p, k in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (9, 3, 2)]:
        spec = field_make(p, k)
        e = DeltaEmbedding(2, 6, rng.choice([1, 2, 3]),
                           random_unit(spec, 6, rng))
        e2 = DeltaEmbedding.from_text(e.to_text())
        assert (e2.m, e2.n, e2.mult, e2.conjugator) == (e.m, e.n, e.mult, e.conjugator)
        h = Homomorphism.inclusion(6, 2, spec).conjugate(random_unit(spec, 6, rng))
        assert Homomorphism.from_text(h.to_text()) == h


def test_iota_rank_scaling_fuzz():
    rng = random.Random(555)
    for q in (2, 3):
        spec = field_make(q)
        for _ in range(30):
            m = rng.choice([2, 3, 4])
            k = rng.choice([2, 3])
            x = random_matrix(spec, m, m, rng)
            from rankmetric.embeddings import iota
            assert rank(iota(m * k, m, x)) == k * rank(x)


# Text shaped like the formats (an optional DELTA/HOM header, then matrix
# blocks "q rows cols" with rows of entries) with junk in any field, or
# plain junk.
_FIELD = st.one_of(st.integers(-1, 4).map(str), st.integers().map(str), st.text(max_size=3))
_BLOCK = st.tuples(st.one_of(st.sampled_from([2, 3, 4, 6]), st.integers()),
                   st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda head: st.lists(st.lists(_FIELD, min_size=head[2], max_size=head[2]).map(" ".join),
                          min_size=head[1], max_size=head[1])
    .map(lambda rows: "\n".join([" ".join(map(str, head)), *rows])))
_HEADER = st.tuples(st.sampled_from(["HOM", "DELTA"]), st.lists(_FIELD, max_size=4)).map(
    lambda h: " ".join([h[0], *h[1]]))
_TEXT = st.one_of(
    st.text(max_size=80),
    st.tuples(st.lists(_HEADER, max_size=1), st.lists(_BLOCK, max_size=3)).map(
        lambda parts: "\n".join(parts[0] + parts[1])),
)


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_text_readers_raise_only_rankmetric_errors(text):
    for reader in (read_matrix, DeltaEmbedding.from_text, Homomorphism.from_text):
        try:
            reader(text)
        except RankMetricError:
            pass
