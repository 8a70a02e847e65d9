import random
from fractions import Fraction

import pytest

import rankmetric.embeddings as emb
import rankmetric.matrix as mx
import rankmetric.stability as stab
from rankmetric.errors import DimensionMismatch, NotRepairable
from rankmetric.gf import field_for_order
from rankmetric.matrix import (
    Matrix,
    Subspace,
    kassabov_generators,
    kron,
    rank,
    rank_distance,
    random_unit,
    invert,
)
from rankmetric.stability import (
    relation_defect,
    repair,
    v_space,
    w_chain,
)
from oracles import (delta_for_target, direct_sum, ladder_repair, ladder_v_space, ladder_w_chain,
                     mat_vec, residual_matrix)


def exact_model(n, m, spec):
    a, b = kassabov_generators(n, spec)
    eye = Matrix.identity(spec, m)
    return kron(a, eye), kron(b, eye)


# -- relation defect ----------------------------------------------------------


def test_defect_zero_on_exact_model(gf2, gf3):
    for spec, n, m in [(gf2, 2, 6), (gf2, 3, 4), (gf3, 2, 5), (gf3, 3, 3)]:
        x, y = exact_model(n, m, spec)
        d = relation_defect(x, y, n)
        assert d.delta == 0
        assert d.d_xn == 0 and d.d_yn == 0 and d.d_rel == 0
        assert d.d_rx == 0 and d.d_ry == 0


def test_defect_zero_pair(gf2):
    z = Matrix.zero(gf2, 4)
    d = relation_defect(z, z, 2)
    # yx + x y - 1 = -1 has full rank
    assert d.d_rel.as_fraction() == 1
    assert d.delta == 1


def test_defect_single_entry_flip(gf2):
    # flipping one entry perturbs each residual by rank at most 1 plus the
    # original; the defect is exactly the max of the recomputed ranks
    n, m = 2, 6
    x, y = exact_model(n, m, gf2)
    xp = x + Matrix.unit(gf2, 12, 1, 7)
    d = relation_defect(xp, y, n)
    amb = 12
    expected = max(
        Fraction(rank(xp ** n), amb),
        Fraction(rank(y ** n), amb),
        Fraction(rank(residual_matrix(xp, y, n)), amb),
        abs(Fraction(rank(xp), amb) - Fraction(n - 1, n)),
        abs(Fraction(rank(y), amb) - Fraction(n - 1, n)),
    )
    assert d.delta == expected
    assert 0 < d.delta <= Fraction(3, amb)


def test_defect_dimension_checks(gf2):
    with pytest.raises(DimensionMismatch):
        relation_defect(Matrix.zero(gf2, 3), Matrix.zero(gf2, 4), 2)
    with pytest.raises(DimensionMismatch):
        relation_defect(Matrix.zero(gf2, 3), Matrix.zero(gf2, 3), 5)


def test_defect_common_denominator_rendering(gf2):
    a, b = kassabov_generators(3, gf2)
    nums, den = relation_defect(a, b, 3).components_over_common_denominator()
    assert den == 9
    assert nums == [0, 0, 0, 0, 0]


# -- the W chain --------------------------------------------------------------


def test_w_chain_exact_model_matches_hand_built_spans(gf2):
    # oracle: for the tensor model, W_k is the span of the standard vectors
    # e_{(k, w)} (block index k, copy index w), built here by hand
    n, m = 3, 4
    x, y = exact_model(n, m, gf2)
    chain = w_chain(x, y, n)
    for k, w in enumerate(chain):
        vectors = []
        for copy in range(m):
            vec = [0] * (n * m)
            vec[k * m + copy] = 1
            vectors.append(vec)
        assert w == Subspace(gf2, n * m, vectors)
        assert w.dim == m


def test_w_chain_zero_pair(gf2):
    z = Matrix.zero(gf2, 4)
    chain = w_chain(z, z, 2)
    assert [w.dim for w in chain] == [0, 0]


def test_w_chain_n1(gf3):
    # degenerate base: W_0 = ker y intersect ker x intersect ker(yx)
    z = Matrix.zero(gf3, 3)
    chain = w_chain(z, z, 1)
    assert len(chain) == 1
    assert chain[0].dim == 3  # everything is killed by the zero pair


def test_w_chain_dims_non_increasing_with_bounded_drop(gf2, rng):
    n, m = 2, 6
    x, y = exact_model(n, m, gf2)
    xp = x + Matrix.unit(gf2, 12, 2, 5)
    d = relation_defect(xp, y, n)
    chain = w_chain(xp, y, n)
    amb = 12
    for prev, nxt in zip(chain, chain[1:]):
        assert nxt.dim <= prev.dim
        assert Fraction(prev.dim - nxt.dim) <= amb * d.delta


# -- the V space --------------------------------------------------------------


def test_v_space_exact_model_is_everything(gf2):
    n, m = 2, 6
    x, y = exact_model(n, m, gf2)
    v = v_space(x, y, n, w_chain(x, y, n)[-1])
    assert v.dim == n * m == 12


def test_v_space_trivial_w(gf2):
    z = Matrix.zero(gf2, 4)
    chain = w_chain(z, z, 2)
    v = v_space(z, z, 2, chain[-1])
    assert v.dim == 0


def test_v_space_dimension_lower_bound(gf2):
    # dim V >= ambient (1 - (4+n) n delta) for a mild perturbation
    n, m = 2, 6
    x, y = exact_model(n, m, gf2)
    xp = x + Matrix.unit(gf2, 12, 1, 7)
    d = relation_defect(xp, y, n)
    v = v_space(xp, y, n, w_chain(xp, y, n)[-1])
    amb = 12
    assert Fraction(v.dim) >= amb * (1 - (4 + n) * n * d.delta)


# -- repair -------------------------------------------------------------------


def test_repair_exact_model_is_identity(gf2, gf3):
    for spec, n, m in [(gf2, 2, 6), (gf3, 3, 4)]:
        x, y = exact_model(n, m, spec)
        psi, b_unit, cert = repair(x, y, n)
        assert cert.d_x == 0 and cert.d_y == 0
        x2, y2 = psi.generator_images()
        assert x2 == x and y2 == y
        assert psi.unital  # n divides ambient and delta = 0


def test_repair_remainder_case_is_fractional_embedding(gf2):
    # ambient 13 = 6*2 + 1: the repaired embedding misses exactly 1/13
    a, b = kassabov_generators(2, gf2)
    x = direct_sum([a] * 6, 1)
    y = direct_sum([b] * 6, 1)
    psi, _, cert = repair(x, y, 2)
    assert psi.mult == 6
    assert psi.delta.as_fraction() == Fraction(1, 13)
    assert cert.d_x == 0 and cert.d_y == 0


def test_repair_perturbed_certificate(gf2):
    n, amb = 2, 12
    x, y = exact_model(n, 6, gf2)
    xp = x + Matrix.unit(gf2, amb, 1, 7)
    d = relation_defect(xp, y, n)
    psi, b_unit, cert = repair(xp, y, n)
    x2, y2 = psi.generator_images()
    # independent re-verification of everything the certificate claims
    assert relation_defect(x2, y2, n).delta == 0
    assert rank_distance(xp, x2) == cert.d_x
    assert rank_distance(y, y2) == cert.d_y
    assert cert.dim_V == n * cert.dims_W[-1]
    assert cert.d_x.as_fraction() <= cert.residual_rank_bound
    assert cert.d_y.as_fraction() <= cert.residual_rank_bound
    if d.delta < Fraction(1, (4 + n) * n):
        assert cert.residual_rank_bound <= (4 + n) * n * d.delta
    assert cert.check()


def test_repair_agreement_on_v(gf2):
    n, amb = 2, 12
    x, y = exact_model(n, 6, gf2)
    xp = x + Matrix.unit(gf2, amb, 1, 7)
    v = v_space(xp, y, n, w_chain(xp, y, n)[-1])
    psi, _, _ = repair(xp, y, n)
    x2, y2 = psi.generator_images()
    zero = tuple([0] * amb)
    for vec in v.basis:
        assert mat_vec(xp - x2, vec) == zero
        assert mat_vec(y - y2, vec) == zero


def test_repair_idempotent(gf2, gf3, rng):
    for spec, n, amb in [(gf2, 2, 12), (gf3, 3, 12), (gf2, 2, 13)]:
        a, b = kassabov_generators(n, spec)
        mult, r = divmod(amb, n)
        g = random_unit(spec, amb, rng)
        gi = invert(g)
        x = g * direct_sum([a] * mult, r) * gi
        y = g * direct_sum([b] * mult, r) * gi
        psi, _, cert = repair(x, y, n)
        x2, y2 = psi.generator_images()
        psi2, _, cert2 = repair(x2, y2, n)
        assert cert2.d_x == 0 and cert2.d_y == 0
        x3, y3 = psi2.generator_images()
        assert x3 == x2 and y3 == y2


def test_repair_not_repairable(gf2):
    z = Matrix.zero(gf2, 4)
    with pytest.raises(NotRepairable):
        repair(z, z, 2)


def test_repair_defect_soundness_over_grid_sample(gf2, gf3, rng):
    # broad soundness sweep (the full acceptance grid runs elsewhere)
    for spec, n, amb, t in [(gf2, 2, 12, 1), (gf3, 2, 12, 2), (gf2, 3, 12, 1)]:
        x, y = exact_model(n, amb // n, spec)
        for _ in range(t):
            i, j = rng.randrange(1, amb + 1), rng.randrange(1, amb + 1)
            x = x + Matrix.unit(spec, amb, i, j)
        try:
            psi, _, cert = repair(x, y, n)
        except NotRepairable:
            continue
        x2, y2 = psi.generator_images()
        assert relation_defect(x2, y2, n).delta == 0
        assert cert.check()


def test_delta_for_target():
    n = 2
    eps = Fraction(1, 4)
    delta = delta_for_target(n, eps)
    assert delta == Fraction(1, 52)
    # the selection rule makes the end-to-end chain land inside eps
    assert ((4 + n) * n) * delta + delta <= eps


def test_certificate_text_fields(gf2):
    x, y = exact_model(2, 6, gf2)
    _, _, cert = repair(x, y, 2)
    text = cert.to_text()
    assert "d_x 0/12" in text and "d_y 0/12" in text
    assert "dim_V 12" in text


# -- joint kernels against the intersect ladder --------------------------------


def _perturbed_pairs(spec, rng):
    """(x, y, n): padded exact models with seeded rank-0..3 perturbations of x, y or both."""
    q = spec.q
    for n, mult, pad in [(1, 4, 1), (2, 3, 0), (2, 3, 1), (3, 2, 1), (3, 3, 0)]:
        x0, y0 = (direct_sum([g], pad) for g in exact_model(n, mult, spec))
        amb = x0.rows
        for t in range(4):
            for side in ("x", "y", "both"):
                x, y = x0, y0
                for _ in range(t):
                    unit = Matrix.unit(spec, amb, rng.randrange(1, amb + 1),
                                       rng.randrange(1, amb + 1)).scale(rng.randrange(1, q))
                    x = x + unit if side != "y" else x
                    y = y + unit if side != "x" else y
                yield x, y, n
    yield Matrix.zero(spec, 6), Matrix.zero(spec, 6), 2  # W_1 = 0: not repairable


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_chain_and_repair_match_the_intersect_ladder(q, forced, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec, rng = field_for_order(q), random.Random(f"ladder/{q}")
    refused = 0
    for x, y, n in _perturbed_pairs(spec, rng):
        chain = w_chain(x, y, n)
        assert [w.basis for w in chain] == [w.basis for w in ladder_w_chain(x, y, n)]
        if chain[-1].dim:
            assert v_space(x, y, n, chain[-1]) == ladder_v_space(y, n, chain[-1])
        try:
            psi, b, cert = repair(x, y, n)
        except NotRepairable:
            refused += 1
            with pytest.raises(NotRepairable):
                ladder_repair(x, y, n)
            continue
        psi_l, b_l, cert_l = ladder_repair(x, y, n)
        assert b == b_l and b.entries == b_l.entries
        assert psi.to_text() == psi_l.to_text() and cert.to_text() == cert_l.to_text()
    assert refused >= 1


def _model_pair_as_given(q, n, mult):
    """The model pair of size n tensored up by mult, with one entry of x moved, as Matrix(...)
    builds it from outside entries: rows and transposes are all still to be made."""
    spec = field_for_order(q)
    x, y = exact_model(n, mult, spec)
    x = x + Matrix.unit(spec, n * mult, 2, 9)
    return tuple(Matrix(spec, m.rows, m.cols, list(m.entries)) for m in (x, y))


@pytest.mark.parametrize("q", [2, 3])
def test_repair_transposes_only_x_y_and_b(q, monkeypatch):
    # the relations are built from x^T and y^T, the chain runs in transposed coordinates
    # and the kernels read the transposes they are handed, so only x^T, y^T and B are made
    x, y = _model_pair_as_given(q, 3, 40)
    calls = []
    real = mx._b_transpose
    monkeypatch.setattr(mx, "_b_transpose", lambda r, c: calls.append(c) or real(r, c))
    _, _, cert = repair(x, y, 3)
    assert cert.dim_V < 120 and len(calls) == 3
    assert x.transpose()._rw is not None and y.transpose()._rw is not None


def test_v_space_spans_the_rows_it_holds_without_a_transpose(monkeypatch):
    # V is the row span of the propagated rows, one rref of them: no matrix with those rows
    # as columns is built and transposed back. The chain has already made y^T
    x, y = _model_pair_as_given(2, 3, 40)
    w_last = w_chain(x, y, 3)[-1]
    calls = []
    real = mx._b_transpose
    monkeypatch.setattr(mx, "_b_transpose", lambda r, c: calls.append(c) or real(r, c))
    v = v_space(x, y, 3, w_last)
    assert calls == []
    monkeypatch.undo()
    assert v.dim == 3 * w_last.dim > 0 and v == ladder_v_space(y, 3, w_last)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_w_chain_alone_is_the_chain_repair_certifies(q, forced, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    x, y = _model_pair_as_given(q, 3, 5)
    alone = w_chain(*_model_pair_as_given(q, 3, 5), 3)  # its own pair: nothing built before
    given = w_chain(x, y, 3, *stab._measure(x, y, 3)[1:])
    assert [w.basis for w in alone] == [w.basis for w in given]
    assert tuple(w.dim for w in alone) == repair(x, y, 3)[2].dims_W


def test_repair_makes_at_most_n_plus_2_kernels(gf2, monkeypatch):
    # one kernel per chain subspace and one for the complement: no intersect ladder
    calls = []
    real = mx.kernel_basis

    def counting(*mats):
        calls.append(len(mats))
        return real(*mats)

    for module in (mx, stab, emb):
        monkeypatch.setattr(module, "kernel_basis", counting)
    n = 3
    x, y = (direct_sum([g], 2) for g in exact_model(n, 4, gf2))
    x = x + Matrix.unit(gf2, 14, 2, 9)
    _, _, cert = repair(x, y, n)
    assert cert.dim_V < 14  # the complement was needed
    assert 0 < len(calls) <= n + 2
