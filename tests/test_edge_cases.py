"""Degenerate sizes, junk padding, and less-traveled option paths."""

import ast
import io
from fractions import Fraction
from pathlib import Path

import pytest

import rankmetric
from rankmetric.cli import run
from rankmetric.errors import NonPrime, TooLarge
from rankmetric.gf import field_for_order, field_make
from rankmetric.matrix import (
    Matrix,
    kassabov_generators,
    rank,
    random_matrix,
    random_unit,
    write_matrix,
)
from rankmetric.embeddings import DeltaEmbedding, Homomorphism, iota
from rankmetric.stability import relation_defect, repair
from rankmetric.fraisse import back_and_forth, tower_make, verify_certificate

from oracles import direct_sum, enumerate_elements


def _run(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


# -- degenerate model sizes -----------------------------------------------------


def test_repair_n1_zero_pair(gf2):
    z = Matrix.zero(gf2, 4)
    psi, b_unit, cert = repair(z, z, 1)
    assert psi.mult == 4 and psi.unital
    x2, y2 = psi.generator_images()
    assert x2.is_zero() and y2.is_zero()
    assert cert.d_x == 0 and cert.d_y == 0


def test_repair_n1_near_zero_pair(gf3):
    x = Matrix.unit(gf3, 5, 2, 3)
    y = Matrix.zero(gf3, 5)
    d = relation_defect(x, y, 1)
    assert d.delta == Fraction(1, 5)
    psi, _, cert = repair(x, y, 1)
    x2, _ = psi.generator_images()
    assert x2.is_zero()
    assert cert.d_x.as_fraction() == Fraction(1, 5)
    assert cert.d_x.as_fraction() <= cert.residual_rank_bound


def test_repair_exact_on_block_with_junk_pad(gf2, rng):
    # exact model on 12 of 13 dimensions, arbitrary action on the 13th:
    # the repaired map is still a multiplicity-6 embedding missing 1/13,
    # and the distances stay within the residual bound
    a, b = kassabov_generators(2, gf2)
    junk = Matrix.zero(gf2, 13) + Matrix.unit(gf2, 13, 13, 13)
    x = direct_sum([a] * 6, 1) + junk
    y = direct_sum([b] * 6, 1)
    psi, _, cert = repair(x, y, 2)
    assert psi.mult == 6
    assert psi.delta.as_fraction() == Fraction(1, 13)
    assert cert.d_x.as_fraction() <= cert.residual_rank_bound
    x2, y2 = psi.generator_images()
    assert relation_defect(x2, y2, 2).d_xn == 0


def test_delta_embedding_zero_multiplicity(gf2):
    e = DeltaEmbedding(2, 5, 0, Matrix.identity(gf2, 5))
    assert e.delta.as_fraction() == 1
    assert e.apply(Matrix.identity(gf2, 2)).is_zero()


def test_back_and_forth_single_map(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    cert = back_and_forth(fact, pows, 1, [fact.one_at(0)])
    assert len(cert.maps) == 1
    assert cert.round_trips == ()
    assert verify_certificate(cert, fact, pows, [fact.one_at(0)])


def test_back_and_forth_custom_start(gf2):
    pows = tower_make("powers_of_2", 9, gf2)
    fact = tower_make("factorial", 6, gf2)
    a, b = fact.generators_at(2)
    cert = back_and_forth(fact, pows, 2, [a, b], start_x=2, start_y=1)
    assert cert.stage_pairs[0] == (2, 1)
    # generators at the starting stage do get recorded on the first trip
    assert cert.round_trips[0].errors
    for pe in cert.round_trips[0].errors:
        assert pe.error <= cert.round_trips[0].bound
    assert verify_certificate(cert, fact, pows, [a, b])


# -- wider field sampling --------------------------------------------------------


@pytest.mark.parametrize("p,k", [(3, 3), (2, 5), (7, 2), (2, 6)])
def test_larger_fields_sampled_axioms(p, k, rng):
    spec = field_make(p, k)
    els = enumerate_elements(spec)
    assert len(els) == spec.q
    assert len({e.val for e in els}) == spec.q
    one = spec.one
    for _ in range(40):
        a = spec.element(rng.randrange(spec.q))
        b = spec.element(rng.randrange(spec.q))
        c = spec.element(rng.randrange(spec.q))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a.val:
            assert a * a.inverse() == one
        assert (a + b) ** p == a ** p + b ** p


def test_field_for_order_rejects_non_prime_power():
    with pytest.raises(NonPrime):
        field_for_order(6)
    with pytest.raises(NonPrime):
        field_for_order(12)


def test_field_for_order_caps_the_table_size(tmp_path):
    # a prime order builds q^2-entry tables: 10007 would need 10^8 entries
    assert field_for_order(251).q == 251
    for q in (257, 10007, 10 ** 18 + 3):
        with pytest.raises(TooLarge):
            field_for_order(q)
    path = tmp_path / "m.txt"
    path.write_text("10007 1 1\n0\n")
    code, out = _run(["rank", "--in", str(path)])
    assert (code, out) == (3, "error TooLarge: field order 10007 exceeds 256\n")


def test_matrix_arithmetic_over_extension_field(rng):
    spec = field_make(2, 2)
    for _ in range(5):
        u = random_unit(spec, 3, rng)
        m = random_matrix(spec, 3, 3, rng)
        from rankmetric.matrix import invert
        assert rank(u * m * invert(u)) == rank(m)


def test_kassabov_over_gf4_relations(gf4):
    a, b = kassabov_generators(5, gf4)
    assert (a ** 5).is_zero() and (b ** 5).is_zero()
    assert b * a + a ** 4 * b ** 4 == Matrix.identity(gf4, 5)


# -- extra CLI paths --------------------------------------------------------------


def test_cli_copies_orbit_stabilizer_only():
    code, out = _run(["copies", "--a", "1", "--b", "2", "--q", "3",
                      "--method", "orbit_stabilizer"])
    assert code == 0
    assert out == "k 1 method orbit_stabilizer\n"


def test_cli_homog_out_file(tmp_path, gf2, rng):
    phi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng))
    psi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng))
    p1, p2, po = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "beta.txt"
    p1.write_text(phi.to_text())
    p2.write_text(psi.to_text())
    code, out = _run(["homog", "--phi", str(p1), "--psi", str(p2),
                      "--out", str(po)])
    assert code == 0
    from rankmetric.matrix import invert, read_matrix
    beta = read_matrix(po.read_text())
    ga, _ = kassabov_generators(2, gf2)
    assert beta * phi.apply(ga) * invert(beta) == psi.apply(ga)


def test_cli_repair_out_is_replayable_delta(tmp_path, gf2):
    from rankmetric.matrix import kron
    a, b = kassabov_generators(2, gf2)
    eye = Matrix.identity(gf2, 6)
    x = kron(a, eye) + Matrix.unit(gf2, 12, 1, 7)
    pair = tmp_path / "pair.txt"
    out = tmp_path / "psi.txt"
    pair.write_text(write_matrix(x) + write_matrix(kron(b, eye)))
    code, report = _run(["repair", "--n", "2", "--in", str(pair),
                         "--out", str(out)])
    assert code == 0
    psi = DeltaEmbedding.from_text(out.read_text())
    x2, y2 = psi.generator_images()
    assert relation_defect(x2, y2, 2).delta == 0
    # the reported d_x matches a fresh distance computation
    from rankmetric.matrix import rank_distance
    line = next(ln for ln in report.splitlines() if ln.startswith("d_x"))
    assert line == f"d_x {rank_distance(x, x2)}"


def test_cli_amalgamate_out_files(tmp_path, gf2, rng):
    phi0 = Homomorphism.inclusion(4, 2, gf2).conjugate(random_unit(gf2, 4, rng))
    phi1 = Homomorphism.inclusion(6, 2, gf2).conjugate(random_unit(gf2, 6, rng))
    p0, p1 = tmp_path / "p0.txt", tmp_path / "p1.txt"
    o0, o1 = tmp_path / "o0.txt", tmp_path / "o1.txt"
    p0.write_text(phi0.to_text())
    p1.write_text(phi1.to_text())
    code, _ = _run(["amalgamate", "--phi0", str(p0), "--phi1", str(p1),
                    "--out0", str(o0), "--out1", str(o1)])
    assert code == 0
    psi0 = Homomorphism.from_text(o0.read_text())
    psi1 = Homomorphism.from_text(o1.read_text())
    ga, gb = kassabov_generators(2, gf2)
    for g in (ga, gb):
        assert psi0.apply(phi0.apply(g)) == psi1.apply(phi1.apply(g))


def test_cli_defect_full_report_lines(tmp_path, gf2):
    from rankmetric.matrix import kron
    a, b = kassabov_generators(2, gf2)
    eye = Matrix.identity(gf2, 6)
    pair = tmp_path / "pair.txt"
    pair.write_text(write_matrix(kron(a, eye)) + write_matrix(kron(b, eye)))
    code, out = _run(["defect", "--n", "2", "--in", str(pair)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "DEFECT 2 12"
    assert "delta 0/1" in lines[-1]


def test_cli_backforth_probe_parsing_both_sides():
    code, out = _run(["backforth", "--rounds", "2", "--q", "2",
                      "--probes", "x:0,y:0"])
    assert code == 0
    assert "BACKFORTH rounds 2" in out


def test_library_has_no_assert_or_assertion_error():
    # python -O strips assert statements, and an AssertionError escapes the
    # CLI as a traceback: library invariants raise InvariantViolated
    found = []
    for path in sorted(Path(rankmetric.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
