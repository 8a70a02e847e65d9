import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import rankmetric.embeddings as embeddings
import rankmetric.fraisse as fraisse

from rankmetric.errors import (
    BoundsNotMet,
    DimensionMismatch,
    EmptyRoundTrip,
    InconsistentTarget,
    InvariantViolated,
    MultiplicityMismatch,
    NotFactorSequence,
    NotRepairable,
    RankMetricError,
    StageOrder,
    TowerPrefixTooShort,
)
from rankmetric.matrix import (
    Matrix,
    invert,
    kassabov_generators,
    rank_distance,
    random_matrix,
    random_unit,
)
from rankmetric.embeddings import DeltaEmbedding, block_embedding, compose, iota, iota_embedding
from rankmetric.fraisse import (
    BackForthCertificate,
    MapRecord,
    ProbeError,
    RoundTrip,
    approximate_extension,
    approximate_homogeneity,
    back_and_forth,
    include_to,
    inner_approximate,
    tower_make,
    verify_certificate,
)
from rankmetric.gf import field_for_order
from rankmetric.stability import repair

from oracles import inner_approximate_by_solve, probe_errors_dense


# -- towers --------------------------------------------------------------------


def test_factorial_tower(gf2):
    t = tower_make("factorial", 5, gf2)
    assert t.dims == (1, 1, 2, 6, 24)


def test_powers_tower(gf2):
    t = tower_make("powers_of_2", 4, gf2)
    assert t.dims == (1, 2, 4, 8)


def test_explicit_tower_divisibility(gf2):
    t = tower_make([2, 4, 24], 0, gf2)
    assert t.dims == (2, 4, 24)
    with pytest.raises(NotFactorSequence):
        tower_make([2, 3, 6], 0, gf2)


def test_include_to_same_stage(gf2, rng):
    t = tower_make("powers_of_2", 4, gf2)
    e = t.element(2, random_matrix(gf2, 4, 4, rng))
    assert include_to(e, 2) is e


def test_include_to_rule(gf2, rng):
    t = tower_make("factorial", 5, gf2)
    x = random_matrix(gf2, 2, 2, rng)
    e = include_to(t.element(2, x), 3)
    assert e.value == iota(6, 2, x)


def test_include_functoriality(gf2, rng):
    t = tower_make("factorial", 6, gf2)
    x = t.element(2, random_matrix(gf2, 2, 2, rng))
    assert include_to(include_to(x, 3), 5).value == include_to(x, 5).value


def test_include_refuses_down(gf2, rng):
    t = tower_make("powers_of_2", 4, gf2)
    e = t.element(2, random_matrix(gf2, 4, 4, rng))
    with pytest.raises(StageOrder):
        include_to(e, 1)


def test_tower_element_identification(gf2, rng):
    t = tower_make("powers_of_2", 4, gf2)
    x = random_matrix(gf2, 2, 2, rng)
    low = t.element(1, x)
    high = t.element(2, iota(4, 2, x))
    assert low == high


# -- approximate homogeneity ----------------------------------------------------


def test_homogeneity_same_map(gf2, rng):
    phi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng))
    beta, residual = approximate_homogeneity(phi, phi)
    assert residual == 0
    bi = invert(beta)
    a, b = kassabov_generators(2, gf2)
    for g in (a, b):
        assert beta * phi.apply(g) * bi == phi.apply(g)


def test_homogeneity_random_conjugates(gf2, rng):
    # two conjugated inclusions M_2 -> M_12 carried onto each other exactly
    base = iota_embedding(12, 2, gf2)
    phi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng) * base.conjugator)
    psi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng) * base.conjugator)
    beta, residual = approximate_homogeneity(phi, psi)
    assert residual == 0
    bi = invert(beta)
    a, b = kassabov_generators(2, gf2)
    for g in (a, b):
        assert beta * phi.apply(g) * bi == psi.apply(g)


def test_homogeneity_of_repairs_composes_bounds(gf2, rng):
    # repairs of two perturbed embeddings: the conjugation carries one
    # repaired map to the other exactly, and the distance to the original
    # data is bounded by the sum of the certificates
    n, amb = 2, 12
    a, b = kassabov_generators(n, gf2)
    pairs = []
    for _ in range(2):
        g = random_unit(gf2, amb, rng)
        gi = invert(g)
        x = g * iota(amb, n, a) * gi + Matrix.unit(gf2, amb, 1, 2)
        y = g * iota(amb, n, b) * gi
        pairs.append((x, y))
    (x0, y0), (x1, y1) = pairs
    psi0, _, cert0 = repair(x0, y0, n)
    psi1, _, cert1 = repair(x1, y1, n)
    beta, _ = approximate_homogeneity(psi0, psi1)
    bi = invert(beta)
    assert beta * psi0.apply(a) * bi == psi1.apply(a)
    # caller-level assembly: moving x0's exact model onto x1's stays within
    # the sum of the two certified distances of the data to the models
    d_models = rank_distance(beta * psi0.apply(a) * bi, x1).as_fraction()
    assert d_models <= cert1.d_x.as_fraction()
    total = cert0.d_x.as_fraction() + cert1.d_x.as_fraction()
    assert d_models <= total


def test_homogeneity_multiplicity_mismatch(gf2, rng):
    phi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng))
    psi = DeltaEmbedding(2, 12, 5, random_unit(gf2, 12, rng))
    with pytest.raises(MultiplicityMismatch):
        approximate_homogeneity(phi, psi)


# -- approximate extension -------------------------------------------------------


def test_extension_exact_divisible_case(gf2, rng):
    tower = tower_make([2, 8], 0, gf2)
    phi = DeltaEmbedding(2, 4, 2, random_unit(gf2, 4, rng))
    k_prime, psi, err = approximate_extension(phi, tower, Fraction(1))
    assert tower.dims[k_prime] == 8
    assert err == 0
    assert psi.delta == 0


def test_extension_formula_value(gf2, rng):
    # the worked configuration: source 2, target 5, multiplicity 2,
    # landing dimension 24 with s = 4 gives commuting defect 1/3
    tower = tower_make([2, 24], 0, gf2)
    phi = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    k_prime, psi, err = approximate_extension(phi, tower, Fraction(1, 4))
    assert tower.dims[k_prime] == 24
    assert psi.mult == 4
    assert err == Fraction(1, 3)
    assert err <= phi.delta_fraction + Fraction(1, 4)


def test_extension_formula_matches_matrix_computation(gf2, gf3, rng):
    # the closed form equals the measured distance on invertible probes,
    # and dominates it on every probe
    cases = []
    for spec in (gf2, gf3):
        cases += [
            (spec, 2, 5, 2, [2, 24], Fraction(1, 4)),
            (spec, 2, 4, 2, [2, 8], Fraction(1)),
            (spec, 2, 7, 3, [2, 16], Fraction(1, 2)),
            (spec, 3, 7, 2, [3, 30], Fraction(1, 4)),
            (spec, 2, 9, 4, [2, 20], Fraction(1, 2)),
        ]
    for spec, m, n, mult, dims, dp in cases:
        tower = tower_make(dims, 0, spec)
        phi = DeltaEmbedding(m, n, mult, random_unit(spec, n, rng))
        k_prime, psi, err = approximate_extension(phi, tower, dp)
        composite = compose(psi, phi)
        m_prime = tower.dims[k_prime]
        eye = Matrix.identity(spec, m)
        measured = rank_distance(composite.apply(eye), iota(m_prime, m, eye))
        assert measured.as_fraction() == err
        assert err <= phi.delta_fraction + dp
        x = random_matrix(spec, m, m, rng)
        d_x = rank_distance(composite.apply(x), iota(m_prime, m, x))
        assert d_x.as_fraction() <= err


def test_extension_prefix_too_short(gf2, rng):
    tower = tower_make([2, 4], 0, gf2)
    phi = DeltaEmbedding(2, 4, 2, random_unit(gf2, 4, rng))
    with pytest.raises(TowerPrefixTooShort):
        approximate_extension(phi, tower, Fraction(1, 100))


def test_extension_source_not_a_stage(gf2, rng):
    tower = tower_make([3, 6], 0, gf2)
    phi = DeltaEmbedding(2, 4, 2, random_unit(gf2, 4, rng))
    with pytest.raises(DimensionMismatch):
        approximate_extension(phi, tower, Fraction(1, 2))


# -- back and forth ---------------------------------------------------------------


def test_back_and_forth_same_tower_all_zero(gf2):
    t = tower_make("powers_of_2", 9, gf2)
    a, b = t.generators_at(1)
    probes = [a, b, t.one_at(1), t.one_at(0)]
    cert = back_and_forth(t, t, 3, probes)
    assert cert.all_bounds_hold()
    for rt in cert.round_trips:
        for pe in rt.errors:
            assert pe.error == 0  # powers stages align divisibly throughout


def test_back_and_forth_factorial_vs_powers(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    ya, yb = pows.generators_at(1)
    probes = [ya, yb, pows.one_at(1), fact.one_at(0)]
    cert = back_and_forth(fact, pows, 3, probes)
    assert cert.stage_pairs == ((0, 0), (3, 1), (4, 7))
    assert [m.embedding.n for m in cert.maps] == [1, 6, 128]
    for rt in cert.round_trips:
        for pe in rt.errors:
            assert pe.error <= rt.bound
            assert pe.error.denominator >= 1  # exact rationals
    final = cert.round_trips[-1]
    assert max(pe.error for pe in final.errors) <= cert.final_bound
    assert cert.final_bound == Fraction(1, 8)
    assert verify_certificate(cert, fact, pows, probes)


def test_back_and_forth_certificate_detects_tampering(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    probes = [pows.one_at(1), fact.one_at(0)]  # one probe per round trip
    cert = back_and_forth(fact, pows, 3, probes)
    cert.round_trips[-1].errors[0].error += Fraction(1, 128)
    assert not verify_certificate(cert, fact, pows, probes)


def test_back_and_forth_rejects_round_trip_no_probe_reaches(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    # round trip 1 returns to X at stage 0; the only probe lives in Y
    with pytest.raises(EmptyRoundTrip, match="round trip 1 .* home stage 0"):
        back_and_forth(fact, pows, 3, [pows.one_at(1)])


def test_certificate_with_empty_round_trip_fails(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    probes = [pows.one_at(1), fact.one_at(0)]
    cert = back_and_forth(fact, pows, 3, probes)
    assert cert.all_bounds_hold() and verify_certificate(cert, fact, pows, probes)
    cert.round_trips[0].errors = ()
    assert not cert.all_bounds_hold()
    assert not verify_certificate(cert, fact, pows, probes)
    # replayed without the probe that round trip 1 needs, the emptied
    # record matches its replay, and still fails
    assert not verify_certificate(cert, fact, pows, probes[:1])


def test_hand_built_certificate_names_each_broken_rule(gf2):
    # a map above its tolerance, or a row without probe errors, fails the certificate on
    # its own, and the refusal line names it
    emb = block_embedding(2, 3, gf2)  # mult 1 in M_3: delta 1/3
    row = RoundTrip(1, Fraction(1, 2), [ProbeError(0, Fraction(1, 3))])
    cert = BackForthCertificate(1, [(0, 0), (0, 1)], [MapRecord(1, "xy", emb, Fraction(1, 4))],
                                [row], [])
    assert not cert.all_bounds_hold()
    assert list(cert._failures()) == ["map 1 delta 1/3 exceeds tol 1/4"]
    cert.maps[0].tolerance = Fraction(1, 3)
    assert cert.all_bounds_hold() and not list(cert._failures())
    row.errors = ()
    assert not cert.all_bounds_hold()
    assert list(cert._failures()) == ["roundtrip 1 has no probe errors"]


def _loosen(cert):
    for m in cert.maps:
        m.tolerance = Fraction(1)
    for rt in cert.round_trips:
        rt.bound = Fraction(2)


def _set_successive_errors(cert, value):
    for rt in cert.successive:
        for pe in rt.errors:
            pe.error = value


def _twist_conjugator(cert):
    emb = cert.maps[1].embedding
    spec, n = emb.spec, emb.n
    emb.conjugator = emb.conjugator * (Matrix.identity(spec, n) + Matrix.unit(spec, n, 1, 2))


def _move_image(cert, index=2):
    """Swap the first two images of a map's permutation: its conjugator stays a permutation,
    with no twist, but is another one."""
    emb = cert.maps[index].embedding
    emb._images = emb._images[1::-1] + emb._images[2:]


_ALTERATIONS = {
    "rounds": lambda c: setattr(c, "rounds", 2),
    "rounds without its last map": lambda c: (setattr(c, "maps", c.maps[:2]),
                                              setattr(c, "round_trips", c.round_trips[:1])),
    "first stage pair": lambda c: setattr(c, "stage_pairs", ((1, 0),) + c.stage_pairs[1:]),
    "stage pair": lambda c: setattr(c, "stage_pairs", c.stage_pairs[:2] + ((5, 7),)),
    "no stage pairs": lambda c: setattr(c, "stage_pairs", ()),
    "map index": lambda c: setattr(c.maps[1], "index", 2),
    "map direction": lambda c: setattr(c.maps[1], "direction", "xy"),
    "map tolerance": lambda c: setattr(c.maps[2], "tolerance", Fraction(1, 2)),
    "map source": lambda c: setattr(c.maps[2].embedding, "m", 6),
    "map target": lambda c: setattr(c.maps[1].embedding, "n", 24),
    "map multiplicity": lambda c: setattr(c.maps[2].embedding, "mult", 4),
    "map conjugator": _twist_conjugator,
    "map image moved": _move_image,
    "all tolerances and round-trip bounds": _loosen,
    "round-trip map index": lambda c: setattr(c.round_trips[1], "map_index", 1),
    "round-trip bound": lambda c: setattr(c.round_trips[0], "bound", Fraction(2)),
    "round-trip probe index": lambda c: setattr(c.round_trips[1].errors[0], "probe_index", 6),
    "round-trip error": lambda c: setattr(c.round_trips[1].errors[0], "error", Fraction(0)),
    "round-trip probe dropped": lambda c: setattr(c.round_trips[1], "errors",
                                                  c.round_trips[1].errors[1:]),
    "successive map index": lambda c: setattr(c.successive[0], "map_index", 1),
    "successive bound": lambda c: setattr(c.successive[0], "bound", Fraction(4)),
    "successive probe index": lambda c: setattr(c.successive[0].errors[0], "probe_index", 1),
    "successive errors": lambda c: _set_successive_errors(c, Fraction(99, 100)),
    "successive rows dropped": lambda c: setattr(c, "successive", ()),
    "final bound": lambda c: setattr(c, "final_bound", Fraction(1, 4)),
}


@pytest.mark.parametrize("alteration", sorted(_ALTERATIONS))
def test_verify_certificate_rejects_altered_field(gf3, alteration):
    fact = tower_make("factorial", 6, gf3)
    pows = tower_make("powers_of_2", 9, gf3)
    probes = [fact.one_at(0), fact.one_at(1), pows.one_at(0),
              *pows.generators_at(1), pows.one_at(1)]
    cert = back_and_forth(fact, pows, 3, probes)
    assert cert.stage_pairs == ((0, 0), (3, 1), (4, 7))
    _ALTERATIONS[alteration](cert)
    assert verify_certificate(cert, fact, pows, probes) is False


@pytest.mark.parametrize("q", [2, 3])
def test_verify_certificate_beyond_any_dense_conjugator(q, monkeypatch):
    # the last map is M_5040 -> M_32768: a dense conjugator would hold 2^30 entries, so the
    # replay must compare every map by its images and build no conjugator at all
    spec = field_for_order(q)
    fx, pw = tower_make("factorial", 8, spec), tower_make("powers_of_2", 16, spec)
    probes = [fx.one_at(0), *pw.generators_at(1), pw.one_at(1)]
    cert = back_and_forth(fx, pw, 3, probes, 0, 5)
    assert cert.stage_pairs == ((0, 5), (6, 6), (7, 15))
    last = cert.maps[2].embedding
    assert (last.m, last.n, last.mult) == (5040, 32768, 6)
    built = []
    times_permutation = embeddings._times_permutation
    monkeypatch.setattr(embeddings, "_times_permutation",
                        lambda *args: built.append(args) or times_permutation(*args))
    assert verify_certificate(cert, fx, pw, probes) is True
    _move_image(cert)
    assert verify_certificate(cert, fx, pw, probes) is False
    assert built == []


def test_back_and_forth_successive_row_takes_stage_from_stage_pairs(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    probes = [fact.one_at(0), fact.one_at(1), pows.one_at(1)]
    # 0! = 1! = 1: only the stage pairs say that map 0 starts at stage 1
    cert = back_and_forth(fact, pows, 3, probes, start_x=1)
    assert [pe.probe_index for pe in cert.round_trips[0].errors] == [0, 1]
    assert [pe.probe_index for pe in cert.successive[0].errors] == [0, 1]
    assert verify_certificate(cert, fact, pows, probes)


@pytest.mark.parametrize("start", [(9, 0), (-1, 0), (0, 9), (0, -1)],
                         ids=["x9", "x-1", "y9", "y-1"])
def test_back_and_forth_start_stage_not_realized(gf2, start):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    with pytest.raises(StageOrder):
        back_and_forth(fact, pows, 2, [fact.one_at(0)], *start)


def test_back_and_forth_prefix_too_short(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    with pytest.raises(TowerPrefixTooShort):
        back_and_forth(fact, pows, 4, [fact.one_at(0), pows.one_at(1)])


def test_back_and_forth_successive_bound(gf2):
    fact = tower_make("factorial", 6, gf2)
    pows = tower_make("powers_of_2", 9, gf2)
    probes = [fact.one_at(0), pows.one_at(1)]
    cert = back_and_forth(fact, pows, 3, probes)
    assert cert.successive, "same-direction pair should be recorded"
    for rt in cert.successive:
        for pe in rt.errors:
            assert pe.error <= rt.bound


_SURVEY_TOWERS = {"factorial": 7, "powers_of_2": 10}


@pytest.mark.parametrize("rule_y", sorted(_SURVEY_TOWERS))
@pytest.mark.parametrize("rule_x", sorted(_SURVEY_TOWERS))
def test_back_and_forth_returns_only_certificates_that_hold(gf2, rule_x, rule_y):
    # every run over rounds 1-2 and start stages 0-2 holds or raises
    tx = tower_make(rule_x, _SURVEY_TOWERS[rule_x], gf2)
    ty = tower_make(rule_y, _SURVEY_TOWERS[rule_y], gf2)
    probes = [*tx.generators_at(0), tx.one_at(0), ty.one_at(0)]
    for rounds in (1, 2):
        for start in ((sx, sy) for sx in range(3) for sy in range(3)):
            try:
                cert = back_and_forth(tx, ty, rounds, probes, *start)
            except BoundsNotMet:
                continue
            assert cert.all_bounds_hold()
            assert verify_certificate(cert, tx, ty, probes)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_probe_errors_match_the_dense_oracle(q, monkeypatch):
    # every round-trip and successive probe error of the grid above, with random probes
    # at stages 1 and 2 and two 3-round runs, equals the rank of the dense difference
    spec, rng = field_for_order(q), random.Random(q)
    probe_errors, successive, rows = fraisse._probe_errors, fraisse._successive, []

    def checked(probes, tower, stage, left, right):
        errors = probe_errors(probes, tower, stage, left, right)
        rows.append([(pe.probe_index, pe.error) for pe in errors])
        assert rows[-1] == probe_errors_dense(probes, tower, stage, left, right)
        return errors

    def counted(*args):
        rows.append("successive")
        return successive(*args)

    monkeypatch.setattr(fraisse, "_probe_errors", checked)
    monkeypatch.setattr(fraisse, "_successive", counted)
    for rule_x, rule_y in itertools.product(sorted(_SURVEY_TOWERS), repeat=2):
        tx = tower_make(rule_x, _SURVEY_TOWERS[rule_x], spec)
        ty = tower_make(rule_y, _SURVEY_TOWERS[rule_y], spec)
        probes = [*tx.generators_at(0), tx.one_at(0), ty.one_at(0)]
        probes += [t.element(s, random_matrix(spec, t.dim(s), t.dim(s), rng))
                   for t in (tx, ty) for s in (1, 2)]
        for rounds, start in [*itertools.product((1, 2), itertools.product(range(3), repeat=2)),
                              (3, (0, 0)), (3, (1, 0))]:
            try:
                back_and_forth(tx, ty, rounds, probes, *start)
            except (BoundsNotMet, TowerPrefixTooShort):
                pass
    errors = [e for row in rows if row != "successive" for _, e in row]
    assert rows.count("successive") == 8 and len(errors) == 216
    assert any(e > 0 for e in errors) and any(e == 0 for e in errors)


def test_probe_errors_compose_no_map(gf3, monkeypatch):
    # a probe row reads the copies of its two maps as strided slices of their own images,
    # so it composes nothing, whatever its probe dimensions; composes happen between rows
    probe_errors, calls, depth, dims = fraisse._probe_errors, [], [], set()

    def counted(outer, inner):
        calls.append(bool(depth))
        return compose(outer, inner)

    def watched(probes, tower, stage, left, right):
        depth.append(stage)
        errors = probe_errors(probes, tower, stage, left, right)
        depth.pop()
        dims.update(probes[pe.probe_index].value.rows for pe in errors)
        return errors

    monkeypatch.setattr(fraisse, "compose", counted)
    monkeypatch.setattr(embeddings, "compose", counted)
    monkeypatch.setattr(fraisse, "_probe_errors", watched)
    fact, pows = tower_make("factorial", 6, gf3), tower_make("powers_of_2", 9, gf3)
    probes = [*fact.generators_at(0), fact.one_at(0), *pows.generators_at(1), pows.one_at(0),
              fact.element(2, random_matrix(gf3, 2, 2, random.Random(24)))]
    cert = back_and_forth(fact, pows, 3, probes)
    assert calls and not any(calls) and dims == {1, 2}
    assert verify_certificate(cert, fact, pows, probes) and not any(calls)


def test_probe_errors_refuse_a_dense_conjugator(gf3):
    # every map of a run has a permutation conjugator; any other is an invariant breach,
    # never a silent dense fallback
    t = tower_make("powers_of_2", 3, gf3)
    straight = iota_embedding(4, 2, gf3)
    same = compose(straight, iota_embedding(2, 2, gf3))
    [pe] = fraisse._probe_errors([t.one_at(1)], t, 1, straight, same)
    assert (pe.probe_index, pe.error) == (0, 0)
    twisted = DeltaEmbedding(2, 4, 2, Matrix.identity(gf3, 4) + Matrix.unit(gf3, 4, 1, 2))
    for pair in ((straight, twisted), (twisted, straight)):
        with pytest.raises(InvariantViolated, match="permutation conjugators"):
            fraisse._probe_errors([t.one_at(1)], t, 1, *pair)


def test_equal_tower_elements_hash_equal(gf3):
    # equality goes through the inclusions, so the hash must survive them too
    t = tower_make("powers_of_2", 4, gf3)
    one_0, one_2 = t.element(0, Matrix.identity(gf3, 1)), t.element(2, Matrix.identity(gf3, 4))
    assert one_0 == one_2 and hash(one_0) == hash(one_2) and len({one_0, one_2}) == 1
    x = Matrix(gf3, 2, 2, [1, 2, 0, 0])
    low, high = t.element(1, x), t.element(3, iota(8, 2, x))
    assert low == high and hash(low) == hash(high) and len({low, high, one_0}) == 2


def test_back_and_forth_grid_digest():
    # every run of the grid over q = 2-5, both tower orders on each side, rounds 1-4 and
    # start stages 0-2, once with probes at stage 0 and once with probes at stage 2 only
    # (which no round trip into stage 0 or 1 reaches): each certificate's report, each map's
    # images and twist and its verify verdict, or each refusal's class and message, hashed
    digest, tally = hashlib.sha256(), {}
    for q in (2, 3, 4, 5):
        spec = field_for_order(q)
        for rule_x, rule_y in itertools.product(sorted(_SURVEY_TOWERS), repeat=2):
            tx = tower_make(rule_x, _SURVEY_TOWERS[rule_x], spec)
            ty = tower_make(rule_y, _SURVEY_TOWERS[rule_y], spec)
            probe_sets = [[*tx.generators_at(0), tx.one_at(0), ty.one_at(0)],
                          [tx.one_at(2), ty.one_at(2)]]
            for probes, rounds, start in itertools.product(
                    probe_sets, range(1, 5), itertools.product(range(3), repeat=2)):
                try:
                    cert = back_and_forth(tx, ty, rounds, probes, *start)
                except RankMetricError as exc:
                    kind, line = type(exc).__name__, f"{type(exc).__name__}: {exc}"
                else:
                    maps = [(m.embedding._images, None if m.embedding._twist is None
                             else tuple(t.entries for t in m.embedding._twist))
                            for m in cert.maps]
                    kind = "certificate"
                    line = f"{cert.to_text()}{maps}{verify_certificate(cert, tx, ty, probes)}"
                tally[kind] = tally.get(kind, 0) + 1
                digest.update(line.encode() + b"\n")
    assert tally == {"certificate": 564, "BoundsNotMet": 92, "TowerPrefixTooShort": 176,
                     "EmptyRoundTrip": 320}
    assert digest.hexdigest() == (
        "12119064d509c7778197dedc0d9c44ef861fd8b5f4c2e400daccbee087578931")


def test_back_and_forth_refuses_final_error_above_bound(gf2):
    fact = tower_make("factorial", 7, gf2)
    probes = [*fact.generators_at(0), fact.one_at(0), fact.one_at(0)]
    with pytest.raises(BoundsNotMet, match="^roundtrip 1 p2=1/1 exceeds final_bound 1/2$"):
        back_and_forth(fact, fact, 2, probes, 2, 0)


# -- inner approximation -----------------------------------------------------------


def test_inner_identity_targets(gf2):
    t = tower_make("factorial", 6, gf2)
    a, b = t.generators_at(2)
    res = inner_approximate([(a, a), (b, b)], Fraction(1, 3))
    assert res.unit == Matrix.identity(gf2, 2)
    assert all(r == 0 for r in res.residuals)
    assert res.within


def test_inner_known_conjugation(gf2, rng):
    t = tower_make("factorial", 6, gf2)
    a, b = t.generators_at(2)
    g = random_unit(gf2, 2, rng)
    gi = invert(g)
    targets = [
        (a, t.element(2, g * a.value * gi)),
        (b, t.element(2, g * b.value * gi)),
    ]
    res = inner_approximate(targets, Fraction(1, 3))
    assert all(r == 0 for r in res.residuals)
    assert res.within


def test_inner_stage_shift_with_perturbation(gf2, rng):
    # targets live two stages up and one image is slightly perturbed;
    # residuals stay within the composed certificate bound
    t = tower_make("factorial", 6, gf2)
    a, b = t.generators_at(2)
    g = random_unit(gf2, 24, rng)
    gi = invert(g)
    img_a = g * iota(24, 2, a.value) * gi + Matrix.unit(gf2, 24, 1, 2)
    img_b = g * iota(24, 2, b.value) * gi
    targets = [(a, t.element(4, img_a)), (b, t.element(4, img_b))]
    res = inner_approximate(targets, Fraction(1, 2))
    assert res.stage == 4
    # generator probes make the residuals exactly the certified repair
    # distances of the extracted pair
    assert res.certificate is not None
    assert res.residuals[0] == res.certificate.d_x.as_fraction()
    assert res.residuals[1] == res.certificate.d_y.as_fraction()
    assert all(r <= res.certificate.residual_rank_bound for r in res.residuals)
    assert res.within


def test_inner_inconsistent_nongenerating(gf2):
    t = tower_make("factorial", 6, gf2)
    one = t.one_at(2)
    with pytest.raises(InconsistentTarget):
        inner_approximate([(one, one)], Fraction(1, 2))


def test_inner_conflicting_dependent_images(gf2):
    t = tower_make("factorial", 6, gf2)
    a, b = t.generators_at(2)
    sum_el = t.element(2, a.value + b.value)
    bad = [(a, a), (b, b), (sum_el, t.element(2, a.value))]
    with pytest.raises(InconsistentTarget):
        inner_approximate(bad, Fraction(1, 2))


def test_inner_far_from_hom_not_repairable(gf2):
    t = tower_make("factorial", 6, gf2)
    a, b = t.generators_at(2)
    z = t.element(2, Matrix.zero(gf2, 2))
    with pytest.raises(NotRepairable):
        inner_approximate([(a, z), (b, z)], Fraction(1, 2))


def test_eps_third_assembly(gf2, rng):
    # probes within eps/3 of targets and an inner unit within eps/3 on the
    # targets give a composed residual under eps, by exact arithmetic
    eps = Fraction(1, 2)
    t = tower_make("factorial", 6, gf2)
    a, _ = t.generators_at(2)
    x = include_to(a, 4).value
    y = x + Matrix.unit(gf2, 24, 1, 5)  # d(x, y) = 1/24 < eps/3
    g = random_unit(gf2, 24, rng)
    gi = invert(g)
    phi_x = g * x * gi
    phi_y = g * y * gi
    psi_unit = g  # trivially within eps/3 of the automorphism on y
    moved = psi_unit * y * invert(psi_unit)
    d_probe = rank_distance(x, y).as_fraction()
    d_target = rank_distance(moved, phi_y).as_fraction()
    assert d_probe < eps / 3 and d_target < eps / 3
    total = rank_distance(psi_unit * x * invert(psi_unit), phi_x).as_fraction()
    assert total <= 2 * d_probe + d_target + eps / 3
    assert total < eps


# -- inner approximation against the per-insertion solve ----------------------


def _inner_targets(q, src, dst, variant):
    """Generator pairs at stage ``src`` of the factorial tower (dims 1, 1, 2,
    6, 24), or their conjugates by a seeded unit, sent to a seeded conjugate
    of their inclusion at stage ``dst``."""
    spec = field_for_order(q)
    t = tower_make("factorial", 5, spec)
    rng = random.Random(f"{q}:{src}:{dst}:{variant}")
    n_s, n_k = t.dims[src], t.dims[dst]
    g = random_unit(spec, n_k, rng)
    gi = invert(g)
    a, b = t.generators_at(src)
    if variant.startswith("twisted"):
        # probes other than the generators: their images come from products
        h = random_unit(spec, n_s, rng)
        hi = invert(h)
        a, b = (t.element(src, h * x.value * hi) for x in (a, b))
    img_a, img_b = (g * iota(n_k, n_s, x.value) * gi for x in (a, b))
    if variant.endswith("perturbed"):
        img_a = img_a + Matrix.unit(spec, n_k, 1, min(2, n_k))
    pairs = [(a, t.element(dst, img_a)), (b, t.element(dst, img_b))]
    if variant == "identity":
        pairs.append((t.one_at(src), t.one_at(dst)))
    if variant == "one generator":
        pairs = pairs[:1]
    return pairs


def _inner_outcome(inner, pairs):
    try:
        r = inner(pairs, Fraction(1, 3))
    except RankMetricError as exc:
        return type(exc), str(exc)
    return r.unit, r.stage, r.residuals, r.within, r.certificate.to_text()


@pytest.mark.parametrize("variant", ["exact", "perturbed", "identity", "one generator",
                                     "twisted", "twisted perturbed"])
@pytest.mark.parametrize("src, dst", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_inner_approximate_matches_solve_oracle(q, src, dst, variant):
    pairs = _inner_targets(q, src, dst, variant)
    assert (_inner_outcome(inner_approximate, pairs)
            == _inner_outcome(inner_approximate_by_solve, pairs))
