import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import rankmetric.matrix as mx
from rankmetric.errors import (
    DimensionMismatch,
    InvariantViolated,
    NonPrime,
    NotDivisor,
    NotLipschitz,
    TooLarge,
)
from rankmetric.gf import field_for_order, field_make
from rankmetric.matrix import Matrix, invert, random_matrix, random_unit
from rankmetric.ramsey import (
    COPY_ELEMENT_LIMIT,
    Coloring,
    _copy_units,
    base_copy_basis,
    constant_coloring,
    copy_distance,
    copy_elements,
    count_copies,
    distance_to_copy_coloring,
    gl_order,
    iterate_units,
    ln_bounds,
    monochromatic_search,
    oscillation,
    ramsey_dimension,
    sl_order,
    span_fingerprint,
)

from oracles import det_leibniz, hausdorff_by_ranks


# -- closed-form orders -------------------------------------------------------


def test_sl_order_n1():
    for q in (2, 3, 4, 5):
        assert sl_order(1, q) == 1


@pytest.mark.parametrize("n, q", [(2, 2 ** 61 - 1), (2, 2 ** 32 + 15), (120, 2), (80, 5)])
def test_sl_order_refuses_sizes_it_cannot_answer_exactly(n, q):
    with pytest.raises(TooLarge):
        sl_order(n, q)


def test_sl_order_at_the_caps():
    assert sl_order(1, 2 ** 32 - 5) == 1  # 2^32 - 5 is prime
    assert sl_order(119, 2) == gl_order(119, 2) < 2 ** (119 * 119)
    assert sl_order(51, 7) * 6 == gl_order(51, 7)  # 7^(51^2) has 7298 bits


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_sl_order_rejects_non_prime_power(q):
    with pytest.raises(NonPrime):
        sl_order(2, q)


def test_orbit_stabilizer_identity_failure_raises(gf2, monkeypatch):
    import rankmetric.ramsey as rp

    monkeypatch.setattr(rp, "sl_order", lambda n, q: 7)
    with pytest.raises(InvariantViolated):
        count_copies(1, 2, gf2, "orbit_stabilizer")


def _tampered_walk(rp, monkeypatch, change):
    """Patch ramsey's coset walk so that ``change`` rewrites its list of (unit, key, size)."""
    walk = rp._coset_walk
    monkeypatch.setattr(rp, "_coset_walk", lambda *args: change(list(walk(*args))))


@pytest.mark.parametrize("method", ["brute_force", "orbit_stabilizer"])
@pytest.mark.parametrize("tamper", ["extra key", "stabilizer", "closed form"])
def test_count_copies_raises_unless_all_three_counts_agree(gf2, monkeypatch, method, tamper):
    import rankmetric.ramsey as rp

    base_key = rp.span_key(Matrix.identity(gf2, 4), 2)
    if tamper == "extra key":  # a key no coset of GL_4(2) has
        _tampered_walk(rp, monkeypatch, lambda walk: walk + [(walk[0][0], ("extra",), 0)])
    elif tamper == "stabilizer":
        # twice the stabilizer and half the orbit still multiply to |GL_4(2)| = 20,160, so
        # only the distinct keys (560) and the closed form can tell
        _tampered_walk(rp, monkeypatch, lambda walk: [
            (g, key, 2 * size if key == base_key else size) for g, key, size in walk])
    else:
        closed_form = rp._closed_form
        monkeypatch.setattr(rp, "_closed_form", lambda *args: closed_form(*args) + 1)
    with pytest.raises(InvariantViolated, match="^copy counts disagree: "):
        count_copies(2, 4, gf2, method)


def test_sl_order_22_against_enumeration(gf2):
    # oracle: count invertible 2x2 matrices over GF(2) with determinant 1
    count = 0
    for u in iterate_units(2, gf2):
        if det_leibniz(u) == gf2.one:
            count += 1
    assert count == 6
    assert sl_order(2, 2) == 6


def test_sl_order_23():
    # (1/2) * (9-1)(9-3) = 24
    assert sl_order(2, 3) == 24


def test_sl_order_divides_gl_order():
    for n, q in [(2, 2), (3, 2), (2, 3), (4, 2), (2, 5)]:
        assert gl_order(n, q) % sl_order(n, q) == 0
        assert sl_order(n, q) * (q - 1) == gl_order(n, q)


# -- copy counting ------------------------------------------------------------


def test_count_copies_same_size(gf2):
    assert count_copies(2, 2, gf2, "brute_force") == 1


def test_count_copies_scalar(gf2, gf3):
    assert count_copies(1, 2, gf2, "brute_force") == 1
    assert count_copies(1, 2, gf3, "orbit_stabilizer") == 1


def test_count_copies_methods_agree_small(gf3):
    kb = count_copies(1, 3, gf3, "brute_force")
    ko = count_copies(1, 3, gf3, "orbit_stabilizer")
    assert kb == ko == 1


def test_count_copies_not_divisor(gf2):
    with pytest.raises(NotDivisor):
        count_copies(2, 3, gf2)


def test_count_copies_guard(gf2):
    with pytest.raises(TooLarge):
        count_copies(2, 6, gf2, "brute_force")


def test_census_transitivity_from_any_base(gf2):
    # the census from the standard copy equals the census from a twisted
    # base copy: the conjugation action is transitive on enumerated copies
    from rankmetric.matrix import invert, random_unit
    import random

    full = tuple(_copy_units(1, 2, gf2))
    rng = random.Random(5)
    g = random_unit(gf2, 2, rng)
    gi = invert(g)
    twisted = [g * m * gi for m in base_copy_basis(1, 2, gf2)]
    seen = set()
    for u in iterate_units(2, gf2):
        ui = invert(u)
        seen.add(span_fingerprint([u * m * ui for m in twisted], gf2, 2))
    assert seen == set(full)


def test_distinct_copies_under_common_conjugation(gf2):
    # conjugating all copies by one unit permutes them without collisions
    from rankmetric.matrix import invert, random_unit
    import random

    copies = tuple(_copy_units(2, 4, gf2))[:12]
    rng = random.Random(9)
    g = random_unit(gf2, 4, rng)
    gi = invert(g)
    mapped = set()
    for fp in copies:
        mats = [Matrix(gf2, 4, 4, list(v)) for v in fp]
        mapped.add(span_fingerprint([g * m * gi for m in mats], gf2, 4))
    assert len(mapped) == len(copies)


# -- the copy metric ----------------------------------------------------------


def _copies_m2_f2(gf2):
    return tuple(_copy_units(2, 4, gf2))


def test_copy_distance_self(gf2):
    fp = span_fingerprint(base_copy_basis(2, 4, gf2), gf2, 4)
    assert copy_distance(fp, fp, gf2, 4) == 0


def test_copy_distance_symmetric_and_exhaustive_oracle(gf2):
    # oracle: Hausdorff distance via explicit pairwise ranks over the
    # full element sets of two conjugate scalar-span copies in M_2
    mats = base_copy_basis(1, 2, gf2)
    fp0 = span_fingerprint(mats, gf2, 2)
    elements = copy_elements(fp0, gf2, 2)
    assert len(elements) == 2  # 0 and 1
    d = copy_distance(fp0, fp0, gf2, 2)
    assert d == 0

    copies = _copies_m2_f2(gf2)
    s, t = copies[0], copies[1]
    assert copy_distance(s, t, gf2, 4) == copy_distance(t, s, gf2, 4)
    assert copy_distance(s, t, gf2, 4) == hausdorff_by_ranks(s, t, gf2, 4)


def test_copy_distance_metric_axioms(gf2):
    copies = _copies_m2_f2(gf2)[:6]
    for s, t in combinations(copies, 2):
        d = copy_distance(s, t, gf2, 4)
        assert d > 0
        assert d == copy_distance(t, s, gf2, 4)
    for s, t, u in combinations(copies, 3):
        dst = copy_distance(s, t, gf2, 4)
        dtu = copy_distance(t, u, gf2, 4)
        dsu = copy_distance(s, u, gf2, 4)
        assert dsu <= dst + dtu


def _spans(spec, n, count, rng):
    """Seeded spans of two n x n matrices, as fingerprints. Each after the first adds a
    matrix of rank at most r, r random, to one basis matrix of an earlier span, so pairs
    of spans lie at different distances."""
    bases = [(random_matrix(spec, n, n, rng), random_matrix(spec, n, n, rng))]
    while len(bases) < count:
        a, b = rng.choice(bases)
        r = rng.randrange(1, n + 1)
        bases.append((b, a + random_matrix(spec, n, r, rng) * random_matrix(spec, r, n, rng)))
    return [span_fingerprint(list(basis), spec, n) for basis in bases]


def test_copy_distance_matches_pairwise_ranks_on_the_packed_path(gf2):
    # the nearest-element search stops early, yet the distance is the exhaustive one: the
    # base copy of M_2 in M_4 against every other copy, then seeded pairs of copies
    copies = _copies_m2_f2(gf2)
    seen = set()
    for fp in copies[1:]:
        d = copy_distance(copies[0], fp, gf2, 4)
        assert d == hausdorff_by_ranks(copies[0], fp, gf2, 4)
        seen.add(d)
    assert len(seen) > 1
    rng = random.Random(2901)
    for _ in range(200):
        s, t = rng.sample(copies, 2)
        assert copy_distance(s, t, gf2, 4) == hausdorff_by_ranks(s, t, gf2, 4)


def test_copy_distance_matches_pairwise_ranks_in_the_table_family(gf2, monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    copies, rng = _copies_m2_f2(gf2), random.Random(2902)
    for _ in range(40):
        s, t = rng.sample(copies, 2)
        assert copy_distance(s, t, gf2, 4) == hausdorff_by_ranks(s, t, gf2, 4)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_copy_distance_matches_pairwise_ranks_over_larger_fields(q):
    spec, rng = field_for_order(q), random.Random(2903 + q)
    seen = set()
    for s, t in combinations(_spans(spec, 3, 6, rng), 2):
        d = copy_distance(s, t, spec, 3)
        assert d == hausdorff_by_ranks(s, t, spec, 3) == copy_distance(t, s, spec, 3)
        seen.add(d)
    assert len(seen) > 1


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_copy_distance_unchanged_by_one_conjugation(q, forced, monkeypatch):
    # x -> u x u^-1 is an isometry of the rank metric that carries spans to spans
    monkeypatch.setattr(mx, "_FORCE_GENERIC", forced)
    spec, rng = field_for_order(q), random.Random(2904 + q)
    pairs = [(s, t, 3) for s, t in combinations(_spans(spec, 3, 4 if q < 9 else 3, rng), 2)]
    if q == 2:
        pairs += [(*rng.sample(_copies_m2_f2(spec), 2), 4) for _ in range(10)]
    seen = set()
    for s, t, n in pairs:
        u = random_unit(spec, n, rng)
        ui = invert(u)
        us, ut = (span_fingerprint([u * Matrix(spec, n, n, list(vec)) * ui for vec in fp],
                                   spec, n) for fp in (s, t))
        seen.add(copy_distance(s, t, spec, n))
        assert copy_distance(us, ut, spec, n) == copy_distance(s, t, spec, n)
    assert len(seen) > 1


def test_distinct_copies_are_at_least_one_step_apart(gf2):
    # the Lipschitz pruning in Coloring.value rests on this bound
    copies = _copies_m2_f2(gf2)
    assert len(copies) == 560
    base = copies[0]
    for fp in copies[1:]:
        assert copy_distance(base, fp, gf2, 4) >= Fraction(1, 4)


def test_copy_distance_guard(gf4):
    # 4 basis vectors over GF(4) is 256 elements; force the guard with a
    # fat fingerprint over a bigger field
    spec = field_make(2, 4)
    fake_fp = tuple(tuple(1 if i == j else 0 for i in range(9))
                    for j in range(5))
    with pytest.raises(TooLarge):
        copy_distance(fake_fp, fake_fp[:4], spec, 3)


def test_copy_guard_names_its_limit(gf2):
    # 2^12 elements is the largest copy the guard admits; the refusal of 2^13 names the
    # limit that decided it, on the dense path and on the packed GF(2) path alike
    fp = tuple(tuple(int(i == j) for i in range(16)) for j in range(13))
    assert len(copy_elements(fp[:12], gf2, 4)) == COPY_ELEMENT_LIMIT == 4096
    message = r"^copy has 8192 elements, above COPY_ELEMENT_LIMIT=4096$"
    with pytest.raises(TooLarge, match=message):
        copy_elements(fp, gf2, 4)
    with pytest.raises(TooLarge, match=message):
        copy_distance(fp, fp[:12], gf2, 4)


def _fp(a, b, spec):
    return span_fingerprint(base_copy_basis(a, b, spec), spec, b)


@pytest.mark.parametrize("field", ["gf2", "gf3"])
def test_copy_distance_rejects_fingerprints_of_another_ambient(field, request):
    # GF(2) expands spans as packed codes, GF(3) as generic element lists
    spec = request.getfixturevalue(field)
    for s, t, ambient in [(_fp(1, 2, spec), _fp(2, 4, spec), 4),
                          (_fp(2, 4, spec), _fp(1, 4, spec), 3),
                          (_fp(1, 4, spec), _fp(1, 2, spec), 4)]:
        with pytest.raises(DimensionMismatch):
            copy_distance(s, t, spec, ambient)
        with pytest.raises(DimensionMismatch):
            copy_distance(t, s, spec, ambient)
    gamma = distance_to_copy_coloring(_fp(1, 4, spec), 1, 4, spec)
    with pytest.raises(DimensionMismatch):
        gamma.value(_fp(1, 2, spec))
    assert gamma.evaluated() == {}
    with pytest.raises(DimensionMismatch):
        copy_elements(_fp(1, 2, spec), spec, 4)


# -- colorings and oscillation --------------------------------------------------


def test_constant_coloring_oscillation_zero(gf2):
    copies = _copies_m2_f2(gf2)[:8]
    gamma = constant_coloring(Fraction(1, 3), 2, 4, gf2)
    assert oscillation(gamma, copies) == 0


def test_singleton_oscillation_zero(gf2):
    copies = _copies_m2_f2(gf2)[:1]
    gamma = distance_to_copy_coloring(copies[0], 2, 4, gf2)
    assert oscillation(gamma, copies) == 0


def test_distance_coloring_oscillation_matches_direct_evaluation(gf2):
    copies = _copies_m2_f2(gf2)
    base = copies[0]
    gamma = distance_to_copy_coloring(base, 2, 4, gf2)
    probe = copies[:3]
    values = [copy_distance(fp, base, gf2, 4) for fp in probe]
    assert oscillation(gamma, probe) == max(values) - min(values)


def test_coloring_rejects_out_of_range(gf2):
    copies = _copies_m2_f2(gf2)
    gamma = Coloring(lambda fp: Fraction(3, 2), 2, 4, gf2)
    with pytest.raises(NotLipschitz):
        gamma.value(copies[0])


def test_coloring_gap_above_distance_raises_despite_pruning(gf2):
    copies = _copies_m2_f2(gf2)
    base = copies[0]
    near = next(fp for fp in copies[1:]
                if copy_distance(base, fp, gf2, 4) == Fraction(1, 2))
    # gaps above 1/c are still measured: equal to the distance is allowed,
    # beyond it is not
    within = Coloring(lambda fp: Fraction(1, 2) if fp == near else Fraction(0),
                      2, 4, gf2)
    within.value(base)
    assert within.value(near) == Fraction(1, 2)
    beyond = Coloring(lambda fp: Fraction(3, 4) if fp == near else Fraction(0),
                      2, 4, gf2)
    beyond.value(base)
    with pytest.raises(NotLipschitz):
        beyond.value(near)


def test_coloring_rejects_lipschitz_violation(gf2):
    copies = _copies_m2_f2(gf2)
    special = copies[1]
    gamma = Coloring(lambda fp: Fraction(1) if fp == special else Fraction(0),
                     2, 4, gf2)
    gamma.value(copies[0])
    with pytest.raises(NotLipschitz):
        gamma.value(special)


def test_distance_coloring_is_lipschitz_on_sample(gf2):
    copies = _copies_m2_f2(gf2)[:10]
    gamma = distance_to_copy_coloring(copies[0], 2, 4, gf2)
    for fp in copies:
        gamma.value(fp)  # internal pairwise validation must not raise


# -- the dimension bound --------------------------------------------------------


def test_ln_bounds_encloses_float_log():
    for n in (2, 3, 12, 32, 1000):
        lo, hi = ln_bounds(n)
        assert float(lo) <= math.log(n) <= float(hi)
        assert hi - lo < Fraction(1, 10 ** 12)


def test_ramsey_dimension_trivial_pair():
    rep = ramsey_dimension(1, 1, 2, Fraction(1, 2))
    assert rep.k == 1
    assert rep.log_arg == 12
    assert rep.coeff == 256
    assert rep.c == 637
    assert abs(rep.bound_float - 256 * math.log(12)) < 1e-9


def test_ramsey_dimension_envelope():
    rep = ramsey_dimension(1, 2, 2, Fraction(1, 2), k_mode="envelope")
    assert rep.k == 16
    assert rep.log_arg == 32
    assert rep.c == 888


def test_ramsey_dimension_eps_one():
    rep = ramsey_dimension(1, 1, 2, Fraction(1))
    # 64 * max(ln 2, ln 6) = 64 ln 6 ~ 114.67, so the next integer is 115
    assert rep.coeff == 64
    assert rep.log_arg == 6
    assert rep.c == 115


def test_ramsey_dimension_is_strictly_above_bound():
    # c - b < coeff ln(arg) < c, under an enclosure far finer than the one c came from
    for eps in (Fraction(1, 3), Fraction(2, 3), *(Fraction(1, 2 ** e) for e in range(7))):
        for a, b, q, k_mode in [(1, 1, 2, "envelope"), (1, 2, 2, "envelope"),
                                (1, 3, 2, "envelope"), (1, 1, 2, "auto"), (1, 2, 3, "auto"),
                                (2, 4, 2, "exact"), (1, 3, 4, "auto"), (2, 4, 3, "auto"),
                                (3, 3, 5, "envelope")]:
            rep = ramsey_dimension(a, b, q, eps, k_mode)
            lo, hi = ln_bounds(rep.log_arg, 200)
            assert rep.c % b == 0
            assert rep.c - b < rep.coeff * lo and rep.coeff * hi < rep.c


def test_ramsey_dimension_validates_eps():
    with pytest.raises(ValueError):
        ramsey_dimension(1, 1, 2, Fraction(3, 2))
    with pytest.raises(ValueError):
        ramsey_dimension(1, 1, 2, Fraction(0))


# -- search ----------------------------------------------------------------------


def test_search_constant_coloring_immediate(gf2):
    gamma = constant_coloring(Fraction(0), 1, 4, gf2)
    rep = monochromatic_search(2, 4, gamma, Fraction(0))
    assert rep.found and rep.oscillation == 0
    assert rep.examined == 1


def test_search_scalar_copies_unique_inside(gf2):
    # a = 1: the scalar copy inside every conjugate of M_2 is the same,
    # so the oscillation report is zero and deterministic
    base = span_fingerprint(base_copy_basis(1, 4, gf2), gf2, 4)
    gamma = distance_to_copy_coloring(base, 1, 4, gf2)
    rep = monochromatic_search(2, 4, gamma, Fraction(0))
    assert rep.found and rep.oscillation == 0


def test_search_deterministic(gf2):
    reports = []
    for _ in range(2):
        gamma = constant_coloring(Fraction(1, 7), 1, 4, gf2)
        reports.append(monochromatic_search(2, 4, gamma, Fraction(0),
                                            "random", seed=11, trials=5))
    assert reports[0] == reports[1]


def test_search_exhausted_report(gf2):
    # an unreachable eps yields a minimum-oscillation report, not a crash
    gamma = constant_coloring(Fraction(1, 5), 1, 4, gf2)
    rep = monochromatic_search(2, 4, gamma, Fraction(-1))
    assert not rep.found
    assert rep.oscillation == 0
    assert rep.examined == 560  # every copy of M_2 in M_4 was inspected
    assert rep.fingerprint is not None


def test_search_rejects_bad_shapes(gf2):
    gamma = constant_coloring(Fraction(0), 2, 4, gf2)
    with pytest.raises(NotDivisor):
        monochromatic_search(3, 4, gamma, Fraction(0))
