"""The packed span-key walk of the copy census against the product walk.

``tests/oracles.py`` keeps the census as it ran by dense ``Matrix``
products: every unit g conjugates each basis matrix, and each copy is the
``span_fingerprint`` of the products. The library walk keys each unit by
``span_key`` instead and must give the same copies, in the same order, with
the same first units (so the same bases), counts and search reports.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest

import rankmetric.matrix as mx
import rankmetric.ramsey as rp
from rankmetric.errors import InvariantViolated, NotLipschitz, Singular
from rankmetric.gf import field_for_order, field_make
from rankmetric.matrix import (
    Matrix,
    copy_fingerprint,
    coset_span_keys,
    invert,
    kron,
    random_matrix,
    random_unit,
    rank,
    rank_table,
    span_fingerprint,
    span_key,
)

from oracles import (
    _product_walk,
    lipschitz_checks,
    product_count_copies,
    product_search,
)

CASES = ([(2, a, b) for a, b in [(1, 2), (2, 2), (1, 3), (3, 3), (1, 4), (2, 4), (4, 4)]]
         + [(3, a, b) for a, b in [(1, 2), (2, 2), (1, 3), (3, 3)]]
         + [(4, a, b) for a, b in [(1, 2), (2, 2)]])


def _oracle_units(q, a, b):
    """Fingerprint -> first unit of every copy, from the product walk."""
    return {fp: g for fp, (g, _) in _product_walk(a, b, field_for_order(q))[0].items()}


def _same_units(lib: dict, ref: dict):
    assert list(lib) == list(ref)
    assert [g._e for g in lib.values()] == [g._e for g in ref.values()]


@pytest.mark.parametrize("q, a, b", CASES)
def test_copy_bases_match_product_walk(q, a, b):
    # a copy's basis is its first unit's conjugate of the standard one
    spec = field_for_order(q)
    _same_units(rp._copy_units.__wrapped__(a, b, spec), _oracle_units(q, a, b))
    assert tuple(rp._copy_units(a, b, spec)) == tuple(_oracle_units(q, a, b))


@pytest.mark.parametrize("q, a, b", CASES)
def test_count_copies_match_product_walk(q, a, b):
    spec = field_for_order(q)
    bound = rp.ramsey_dimension(a, b, q, Fraction(1, 2))  # k by Skolem-Noether's count
    assert bound.k_method == "exact"
    assert rp.count_copies(a, b, spec, "brute_force") == len(_oracle_units(q, a, b)) == bound.k
    assert (rp.count_copies(a, b, spec, "orbit_stabilizer")
            == product_count_copies(a, b, spec, "orbit_stabilizer") == bound.k)


def test_coset_walk_keys_one_unit_per_copy(monkeypatch):
    # every unit of a coset of GL_2 (x) GL_2 gives the same copy of M_2 in M_4
    keyed = []
    real = mx.span_key

    def counting(g, s):
        keyed.append(g)
        return real(g, s)

    monkeypatch.setattr(mx, "span_key", counting)
    spec = field_make(2)
    assert len(rp._copy_units.__wrapped__(2, 4, spec)) == 560 and len(keyed) == 560
    keyed.clear()
    assert rp.count_copies(2, 4, spec, "brute_force") == 560 and len(keyed) == 560


def _walk_args(q, b, s):
    """The arguments ramsey's walk passes to coset_span_keys: (H as a list, spec, b, s, order)."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mx, "coset_span_keys", lambda hs, *rest: calls.append((list(hs), *rest)) or [])
        list(rp._coset_walk(b, s, field_for_order(q)))
    return calls[0]


@pytest.mark.parametrize("q, b, s", [(2, 4, 2), (2, 2, 1), (2, 3, 3), (3, 2, 2), (4, 2, 1)])
def test_coset_walk_partition_check(q, b, s, monkeypatch):
    spec = field_for_order(q)
    units = list(rp.iterate_units(b, spec))
    firsts = {}
    for g in units:
        firsts.setdefault(span_key(g, s), g)
    whole = list(rp._coset_walk(b, s, spec))
    assert [(g, key) for g, key, _ in whole] == [(g, key) for key, g in firsts.items()]
    assert {size * len(whole) for _, _, size in whole} == {len(units)}
    hs, _, _, _, order = _walk_args(q, b, s)
    assert order == len(units) and len(hs) == len(units) // len(whole)
    # H one unit short, H without the identity, |GL_b| off by one either way
    for tampered, total in [(hs[:-1], order), ([h for h in hs if h != Matrix.identity(spec, b)],
                                               order), (hs, order + 1), (hs, order - 1)]:
        with pytest.raises(InvariantViolated):
            list(coset_span_keys(tampered, spec, b, s, total))
    table = rank_table(spec, b)
    if table is not None:
        # one unit code read as singular, and the zero code read as a unit
        unit = next(code for code in range(len(table)) if table[code] == b)
        for code, r in [(unit, b - 1), (0, b)]:
            monkeypatch.setattr(mx, "rank_table", lambda *_, c=code, r=r: (
                table[:c] + (r,) + table[c + 1:]))
            with pytest.raises(InvariantViolated, match="two cosets"):
                list(coset_span_keys(hs, spec, b, s, order))


def test_coset_walk_rejects_overlapping_cosets():
    # one unit outside GL_2 (x) GL_2 makes the "cosets" overlap
    spec = field_make(2)
    hs, *rest = _walk_args(2, 4, 2)
    extra = next(g for g in rp.iterate_units(4, spec) if g not in hs)
    with pytest.raises(InvariantViolated, match="two cosets"):
        list(coset_span_keys(hs + [extra], *rest))


def test_coset_walk_builds_a_matrix_per_coset(monkeypatch):
    # over GF(2) only each coset's first unit becomes a Matrix: 560 of 20,160 for (2, 4)
    hs, *rest = _walk_args(2, 4, 2)
    built = []
    real = Matrix._trusted.__func__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Matrix, "_trusted", classmethod(counting))
    assert len(list(coset_span_keys(hs, *rest))) == 560
    assert len(built) <= 560 + len(hs)


def _recording(monkeypatch, stop_at):
    """Replace ramsey.oscillation: record each inside list, return 0 from call stop_at on."""
    calls = []

    def osc(gamma, inside):
        calls.append(list(inside))
        return Fraction(0) if len(calls) >= stop_at else Fraction(1)

    monkeypatch.setattr(rp, "oscillation", osc)
    return calls


def _coloring(q, a, c, kind):
    spec = field_for_order(q)
    if kind == "constant":
        return rp.constant_coloring(Fraction(1, 3), a, c, spec)
    base = span_fingerprint(rp.base_copy_basis(a, c, spec), spec, c)
    return rp.distance_to_copy_coloring(base, a, c, spec)


@pytest.mark.parametrize("q, b, c", CASES)
def test_exhausted_search_matches_product_walk(q, b, c):
    # a = b: the inside copy is the B-copy's own fingerprint
    lib = rp.monochromatic_search(b, c, _coloring(q, b, c, "distance"), -1)
    gamma = _coloring(q, b, c, "distance")
    ref = product_search(b, c, gamma, -1)
    assert lib == ref and not lib.found
    assert lib.examined == len(_oracle_units(q, b, c))


@pytest.mark.parametrize("q, b, c", CASES)
@pytest.mark.parametrize("a_is_b", [False, True])
def test_search_stopping_early_matches_product_walk(q, b, c, a_is_b, monkeypatch):
    a = b if a_is_b else 1
    k = len(_oracle_units(q, b, c))
    stop_at = min(7, k)  # strictly between 1 and k where k allows it
    lib_calls = _recording(monkeypatch, stop_at)
    lib = rp.monochromatic_search(b, c, _coloring(q, a, c, "constant"), 0)
    ref_calls = _recording(monkeypatch, stop_at)
    ref = product_search(b, c, _coloring(q, a, c, "constant"), 0)
    assert lib == ref and lib.found and lib.examined == stop_at
    assert lib_calls == ref_calls
    if k > 2:
        assert 1 < lib.examined < k


@pytest.mark.parametrize("q, b, c", CASES)
@pytest.mark.parametrize("a_is_b", [False, True])
def test_random_search_matches_product_walk(q, b, c, a_is_b):
    a = b if a_is_b else 1
    lib = rp.monochromatic_search(b, c, _coloring(q, a, c, "distance"), -1,
                                  "random", seed=17, trials=30)
    ref = product_search(b, c, _coloring(q, a, c, "distance"), -1, "random", seed=17, trials=30)
    assert lib == ref and lib.strategy == "random:17:30"


def test_search_with_a_strictly_between_matches_product_walk(monkeypatch):
    # a = 2, b = c = 4: the one B-copy holds all 560 copies of M_2 in M_4
    lib = rp.monochromatic_search(4, 4, _coloring(2, 2, 4, "distance"), -1)
    ref = product_search(4, 4, _coloring(2, 2, 4, "distance"), -1)
    assert lib == ref and not lib.found and lib.oscillation == Fraction(3, 4)
    lib = rp.monochromatic_search(4, 4, _coloring(2, 2, 4, "distance"), -1,
                                  "random", seed=17, trials=30)
    ref = product_search(4, 4, _coloring(2, 2, 4, "distance"), -1, "random", seed=17, trials=30)
    assert lib == ref and lib.strategy == "random:17:30"
    lib_calls = _recording(monkeypatch, 1)
    rp.monochromatic_search(4, 4, _coloring(2, 2, 4, "constant"), 0)
    ref_calls = _recording(monkeypatch, 1)
    product_search(4, 4, _coloring(2, 2, 4, "constant"), 0)
    assert lib_calls == ref_calls and len(lib_calls) == 1 and len(lib_calls[0]) == 560


def test_equal_a_and_b_reuses_the_b_copy_fingerprint():
    # the one lifted A-copy spans M_b (x) I, so its product-built fingerprint is fp_b
    spec = field_make(2)
    rng = random.Random(23)
    for b, c in [(1, 2), (2, 2), (2, 4), (1, 4)]:
        (h,) = rp._copy_units(b, b, spec).values()
        hi = invert(h)
        eye = Matrix.identity(spec, c // b)
        lifted = [kron(h * m * hi, eye) for m in rp.base_copy_basis(b, b, spec)]
        for g in [random_unit(spec, c, rng) for _ in range(12)]:
            gi = invert(g)
            assert copy_fingerprint(span_key(g, c // b), spec, c) == span_fingerprint(
                [g * m * gi for m in lifted], spec, c)


@pytest.mark.parametrize("b, s", [(2, 1), (3, 3), (4, 2), (4, 4), (6, 2), (6, 3), (8, 2),
                                  (8, 4), (9, 3), (10, 5)])
def test_packed_keys_match_products_and_generic(b, s, monkeypatch):
    # b <= 8 takes the packed branch, 9 and 10 the product branch
    spec = field_make(2)
    rng = random.Random(b * 31 + s)
    units = [random_unit(spec, b, rng) for _ in range(6)] + [Matrix.identity(spec, b)]
    base = rp.base_copy_basis(b // s, b, spec)

    def fingerprints():
        return [copy_fingerprint(span_key(g, s), spec, b) for g in units]

    fast = fingerprints()
    assert fast == [span_fingerprint([g * m * invert(g) for m in base], spec, b) for g in units]
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    assert fingerprints() == fast


@pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (1, 3), (3, 3)])
def test_gf2_copy_bases_match_forced_generic(a, b, monkeypatch):
    spec = field_make(2)
    fast = rp._copy_units.__wrapped__(a, b, spec)
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    _same_units(rp._copy_units.__wrapped__(a, b, spec), fast)


@pytest.mark.parametrize("q, b, s", [(2, 4, 2), (2, 9, 3), (3, 2, 1), (4, 2, 2)])
def test_singular_unit_raises(q, b, s):
    spec = field_make(q) if q != 4 else field_make(2, 2)
    rng = random.Random(5)
    low = random_matrix(spec, b, b - 1, rng) * random_matrix(spec, b - 1, b, rng)
    span_key(Matrix.identity(spec, b), s)
    for m in (Matrix.zero(spec, b), low):
        with pytest.raises(Singular):
            span_key(m, s)


def test_rank_table_matches_rank():
    spec = field_make(2)
    for n in (1, 2, 3, 4):
        table = rank_table(spec, n)
        assert len(table) == 1 << (n * n)
        shifts = range(n * n)
        assert all(table[code] == rank(Matrix(spec, n, n, [code >> i & 1 for i in shifts]))
                   for code in range(1 << (n * n)))
    assert rank_table(spec, 5) is None and rank_table(field_make(3), 2) is None


def test_rank_table_is_none_when_forced_generic(monkeypatch):
    monkeypatch.setattr(mx, "_FORCE_GENERIC", True)
    assert rank_table(field_make(2), 2) is None


def _lipschitz_runs(evaluator, fps, monkeypatch):
    measured = []
    real = rp.copy_distance

    def recording(s, t, spec, ambient):
        measured.append((s, t))
        return real(s, t, spec, ambient)

    monkeypatch.setattr(rp, "copy_distance", recording)
    gamma = rp.Coloring(evaluator, 2, 4, field_make(2))
    failed = None
    for idx, fp in enumerate(fps):
        try:
            gamma.value(fp)
        except NotLipschitz:
            failed = idx
            break
    monkeypatch.setattr(rp, "copy_distance", real)
    ref_pairs, ref_failed = lipschitz_checks(evaluator, fps, 4,
                                             lambda s, t: real(s, t, field_make(2), 4))
    return measured, failed, gamma, ref_pairs, ref_failed


@pytest.mark.parametrize("kind", ["distance", "sum-mod-5", "eighths"])
def test_coloring_measures_the_same_pairs_in_order(kind, monkeypatch):
    spec = field_make(2)
    copies = tuple(rp._copy_units(2, 4, spec))
    rng = random.Random(kind)
    fps = list(copies[:200]) + rng.sample(copies, 60)  # repeats hit the cache
    distance = rp.copy_distance  # the evaluator's own distances are not checks
    evaluator = {
        "distance": lambda fp: distance(fp, copies[0], spec, 4),
        "sum-mod-5": lambda fp: Fraction(sum(map(sum, fp)) % 5, 4),
        # distinct copies here lie 1/2 or 3/4 apart, so values in [0, 1/2] never fail,
        # and a value 1/2 meets two earlier far groups (0 and 1/8) in turn
        "eighths": lambda fp: Fraction(copies.index(fp) % 5, 8),
    }[kind]
    measured, failed, gamma, ref_pairs, ref_failed = _lipschitz_runs(evaluator, fps, monkeypatch)
    assert measured == ref_pairs
    assert failed == ref_failed
    if failed is None:
        expected = list(dict.fromkeys(fps))
        assert list(gamma.evaluated()) == expected
        assert list(gamma.evaluated().values()) == [evaluator(fp) for fp in expected]
    if kind == "distance":
        assert failed is None and len({gamma.value(fp) for fp in fps}) == 3


@pytest.mark.parametrize("b, c", [(2, 4), (4, 4)])
def test_equal_a_and_b_walks_only_gl_c(b, c, monkeypatch):
    rp._copy_units.cache_clear()
    walks = []
    real = rp.coset_span_keys

    def recording(hs, spec, n, s, order):
        walks.append((n, s))
        return real(hs, spec, n, s, order)

    monkeypatch.setattr(mx, "coset_span_keys", recording)
    spec = field_make(2)
    report = rp.monochromatic_search(b, c, rp.constant_coloring(Fraction(1, 2), b, c, spec), -1)
    assert walks == [(c, c // b)] and not report.found


def test_only_matrix_imports_underscore_names_from_matrix():
    package = pathlib.Path(rp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "matrix.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("matrix", "rankmetric.matrix"):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_no_module_reaches_into_another_modules_private_names():
    package = pathlib.Path(rp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.startswith("rankmetric")):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
            if isinstance(node, ast.Attribute) and (
                    (path.name == "fraisse.py" and node.attr in ("_images", "_twist"))
                    or (path.name != "matrix.py" and node.attr == "_e")):
                offenders.append(f"{path.name}: .{node.attr}")
    assert offenders == []
