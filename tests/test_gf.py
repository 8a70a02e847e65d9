import pytest
from hypothesis import given, settings, strategies as st

from rankmetric.errors import (
    NoBuiltinModulus,
    NonPrime,
    ReducibleModulus,
    SpecMismatch,
    ZeroInverse,
)
from rankmetric.gf import (
    FieldSpec,
    field_for_order,
    field_make,
)

from oracles import enumerate_elements, poly_mul_mod


def test_prime_field_construction():
    spec = field_make(2)
    assert (spec.p, spec.k, spec.q) == (2, 1, 2)
    assert spec.modulus == (0, 1)


def test_gf4_modulus_irreducible_by_root_check():
    # x^2 + x + 1 has no root in {0, 1}: 0+0+1 = 1, 1+1+1 = 1
    for r in (0, 1):
        assert (r * r + r + 1) % 2 == 1
    spec = field_make(2, 2, [1, 1, 1])
    assert spec.q == 4


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field_make(2, 2, [0, 0, 1])  # x^2 = x * x


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        field_make(4)
    with pytest.raises(NonPrime):
        field_make(1)


def test_no_builtin_modulus():
    with pytest.raises(NoBuiltinModulus):
        field_make(2, 9)


def test_builtin_moduli_all_construct():
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64):
        p = 2
        for cand in (2, 3, 5, 7):
            if q % cand == 0:
                p = cand
                break
        k = 0
        m = q
        while m > 1:
            m //= p
            k += 1
        spec = field_make(p, k)
        assert spec.q == q


def test_char2_addition(gf2):
    one = gf2.element(1)
    assert (one + one).val == 0


def test_gf4_generator_square(gf4):
    # x * x reduced mod x^2 + x + 1 is x + 1; frozen via the poly oracle
    assert poly_mul_mod([0, 1], [0, 1], [1, 1, 1], 2) == [1, 1]
    g = gf4.element((0, 1))
    assert (g * g).coeffs == (1, 1)


def test_gf4_inverse(gf4):
    g = gf4.element((0, 1))
    inv = g.inverse()
    assert inv.coeffs == (1, 1)
    assert (g * inv).val == 1


def test_zero_inverse_raises(gf4):
    with pytest.raises(ZeroInverse):
        gf4.zero.inverse()


def test_spec_mismatch(gf2, gf4):
    with pytest.raises(SpecMismatch):
        gf2.element(1) + gf4.element(1)


def test_enumerate_prime_fields(gf2, gf3):
    assert [e.val for e in enumerate_elements(gf2)] == [0, 1]
    assert [e.val for e in enumerate_elements(gf3)] == [0, 1, 2]


def test_enumerate_gf4(gf4):
    els = enumerate_elements(gf4)
    assert len(els) == 4
    assert els[0].val == 0
    assert len({e.val for e in els}) == 4
    coeff_lists = [e.coeffs for e in els]
    assert coeff_lists == sorted(coeff_lists)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, k):
    # full-field property check for q <= 16
    spec = field_make(p, k)
    els = enumerate_elements(spec)
    one = spec.one
    for a in els:
        assert a + spec.zero == a
        assert a * one == a
        if a.val:
            assert a * a.inverse() == one
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_sampled_gf25(x, y, z):
    spec = field_make(5, 2)
    a, b, c = spec.element(x), spec.element(y), spec.element(z)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a.val:
        assert a * a.inverse() == spec.one


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_frobenius(p, k):
    spec = field_make(p, k)
    els = enumerate_elements(spec)
    for a in els:
        for b in els:
            assert (a + b) ** p == a ** p + b ** p


def test_element_integer_encoding(gf4):
    for e in enumerate_elements(gf4):
        c = e.coeffs
        assert e.val == c[0] + 2 * c[1]
        assert 0 <= e.val < 4


def test_equal_specs_hash_equal():
    # the hash is taken once, at construction, from the reduced modulus
    a, b = FieldSpec(2, 2, (1, 1, 1)), FieldSpec(2, 2, (3, -1, 1))
    assert a is not b and a == b == field_for_order(4)
    assert hash(a) == hash(b) == hash(field_for_order(4)) == hash((2, 2, (1, 1, 1)))
    assert {a: "gf4"}[b] == "gf4"
    assert len({a, b, field_make(2, 2), FieldSpec(3, 1, (0, 1)), field_for_order(3)}) == 2
    assert a != FieldSpec(2, 3, (1, 1, 0, 1)) and hash(a) != hash(FieldSpec(2, 3, (1, 1, 0, 1)))
