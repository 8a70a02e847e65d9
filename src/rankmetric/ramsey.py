"""Copy counting, explicit partition-dimension bounds, and oscillation search.

Embedded copies of a small matrix algebra inside a larger one are
fingerprinted by the canonical echelon basis of their linear span, so a
copy is a hashable value and censuses are exact. A census walks GL_b on
unit codes by cosets of the standard copy's stabilizer H = GL_a (x)
GL_(b/a), drawn from ``iterate_units`` (GL_b itself if a is 1 or b), keys
one unit per coset and checks that the cosets tile GL_b
(``coset_span_keys``). One walk gives both counts, distinct keys and the
orbit-stabilizer quotient, and both must equal Skolem-Noether's closed form k;
the bound 64 eps^-2 max(log 2k, log 6 ceil(1/eps)) takes k from that form, and
certified rational log enclosures make the returned multiple of b exact. Every
enumeration of GL_n is guarded: infeasible sizes fail fast with ``TooLarge``.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from fractions import Fraction

from .errors import (DimensionMismatch, InvalidParameter, InvariantViolated, NotDivisor,
                     NotLipschitz, TooLarge)
from .gf import FieldSpec, field_for_order, prime_power
from . import matrix

# An enumeration touching more than this many matrices fails fast.
ENUMERATION_LIMIT = 1 << 20
# Copies with more than this many elements refuse exhaustive distances.
COPY_ELEMENT_LIMIT = 4096
ORDER_BIT_LIMIT = 14284  # longer ints pass the 4300 digits Python prints by default


def __getattr__(name):  # PEP 562: matrix's census helpers, read here too (bench, tests)
    if name in ("base_copy_basis", "coset_span_keys", "span_fingerprint", "span_key"):
        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _power(q: int, e: int) -> int:
    value = q ** e if e * (q - 1).bit_length() <= 2 * ORDER_BIT_LIMIT else None  # <= 2 e log2 q
    if value is None or value.bit_length() > ORDER_BIT_LIMIT:
        raise TooLarge(f"{q}^{e} has more than {ORDER_BIT_LIMIT} bits")
    return value


def sl_order(n: int, q: int) -> int:
    """|SL_n(F_q)| = (1/(q-1)) * prod_{i<n} (q^n - q^i), exactly."""
    if n < 1:
        raise NotDivisor("n must be positive")
    prime_power(q)
    prod = gl_order(n, q)
    if prod % (q - 1):
        raise InvariantViolated(f"q - 1 = {q - 1} does not divide |GL_{n}({q})|")
    return prod // (q - 1)


def gl_order(n: int, q: int) -> int:
    _power(q, n * n)  # |GL_n(q)| < q^(n^2)
    prod = 1
    for i in range(n):
        prod *= q ** n - q ** i
    return prod


# ---------------------------------------------------------------------------
# enumeration of units and copy fingerprints


def _check_enumeration(n: int, q: int):
    total = _power(q, n * n)
    if total > ENUMERATION_LIMIT:
        raise TooLarge(f"enumerating {total} candidate {n}x{n} matrices over GF({q}), "
                       f"above ENUMERATION_LIMIT={ENUMERATION_LIMIT}")
    return total


def iterate_units(n: int, spec: FieldSpec):
    """All invertible n x n matrices, in integer-encoding order (guarded)."""
    _check_enumeration(n, spec.q)
    yield from matrix.code_units(spec, n)


def _coset_walk(b: int, s: int, spec: FieldSpec):
    """``coset_span_keys`` over GL_b (guarded) by H = GL_(b/s) (x) GL_s from ``iterate_units``
    (kron(cv, w / c) = kron(v, w) kept once), or H = GL_b in one pass if b/s or s is 1."""
    _check_enumeration(b, spec.q)
    pairs = (matrix.kron(v, w) for v in iterate_units(b // s, spec)
             for w in iterate_units(s, spec))
    hs = iterate_units(b, spec) if s in (1, b) else list(dict.fromkeys(pairs))
    return matrix.coset_span_keys(hs, spec, b, s, gl_order(b, spec.q))


@functools.cache
def _copy_units(a: int, b: int, spec: FieldSpec) -> dict:
    """Fingerprint -> first unit g, in encoding order, of every copy g M_a g^-1 of M_a in M_b.

    The census is deterministic, so the walk runs once per (a, b, field). Each copy is one
    coset, as by Skolem-Noether its stabilizer is H, so each coset's first unit is its copy's.
    """
    return {matrix.copy_fingerprint(key, spec, b): g for g, key, _ in _coset_walk(b, b // a, spec)}


def _closed_form(a: int, b: int, q: int) -> int:
    """Skolem-Noether's count of the copies of M_a in M_b: |GL_b| (q - 1) / |GL_a| |GL_(b/a)|."""
    return gl_order(b, q) * (q - 1) // (gl_order(a, q) * gl_order(b // a, q))


def count_copies(a: int, b: int, q_or_spec, method: str = "brute_force") -> int:
    """Number of embedded copies of M_a in M_b.

    One walk of the units by cosets of H = GL_a (x) GL_(b/a) (``coset_span_keys``, guarded
    by ``TooLarge``) gives both counts: ``brute_force``, the distinct keys, and
    ``orbit_stabilizer``, sl_order(b, q) divided by the stabilizer of the first copy walked
    modulo scalars, |H| times the cosets keyed like it, with orbit times stabilizer checked
    against |GL_b|. Both must equal the closed form |GL_b| (q - 1) / |GL_a| |GL_(b/a)| of
    ``ramsey_dimension``, else ``InvariantViolated``; ``method`` names the count returned.
    """
    spec = q_or_spec if isinstance(q_or_spec, FieldSpec) else field_for_order(q_or_spec)
    _check_enumeration(b, spec.q)  # before base_copy_basis builds b x b matrices
    if method not in ("brute_force", "orbit_stabilizer"):
        raise InvalidParameter(f"unknown method {method!r}")
    matrix.base_copy_basis(a, b, spec)  # a must divide b
    walk = [(key, size) for _, key, size in _coset_walk(b, b // a, spec)]
    distinct = len({key for key, _ in walk})
    stab = sum(size for key, size in walk if key == walk[0][0])
    q, aut, units = spec.q, sl_order(b, spec.q), gl_order(b, spec.q)
    # the q - 1 scalar units lie in the stabilizer, the stabilizer modulo
    # them divides |SL|, and orbit times stabilizer is the unit group
    k, rest = divmod(aut, stab // (q - 1) or 1)
    if not stab or stab % (q - 1) or rest or k * stab != units:
        raise InvariantViolated(f"orbit-stabilizer fails: stabilizer {stab}, "
                                f"|SL| {aut}, units {units}")
    closed = _closed_form(a, b, q)
    if not distinct == k == closed:
        raise InvariantViolated(f"copy counts disagree: {distinct} distinct keys, "
                                f"orbit-stabilizer {k}, closed form {closed}")
    return distinct if method == "brute_force" else k


# ---------------------------------------------------------------------------
# the copy metric and colorings


def _check_copy(fp: tuple, ambient: int, count: int):
    if any(len(vec) != ambient * ambient for vec in fp):
        raise DimensionMismatch(f"copy vectors are not {ambient} x {ambient} matrices")
    if count > COPY_ELEMENT_LIMIT:
        raise TooLarge(f"copy has {count} elements, above COPY_ELEMENT_LIMIT={COPY_ELEMENT_LIMIT}")


def copy_elements(fp: tuple, spec: FieldSpec, ambient: int) -> list[tuple]:
    """Every element of the span (guarded), as flattened vectors: the rows of the product
    of every coefficient vector, by code (base-q digits, least significant first), with fp."""
    q, dim_span = spec.q, len(fp)
    count = q ** dim_span
    _check_copy(fp, ambient, count)
    coeffs = matrix.Matrix(spec, count, dim_span,
                           [code // q ** i % q for code in range(count) for i in range(dim_span)])
    basis = matrix.Matrix(spec, dim_span, ambient * ambient, [v for vec in fp for v in vec])
    return list(map(tuple, (coeffs * basis).row_lists()))


@functools.cache
def _packed_elements(fp: tuple, ambient: int) -> list[int]:
    """Every element of a GF(2) span as a flattened int, in copy_elements order."""
    _check_copy(fp, ambient, 1 << len(fp))
    return matrix.span_codes(fp, ambient)


def copy_distance(s: tuple, t: tuple, spec: FieldSpec, ambient: int) -> Fraction:
    """Hausdorff distance between two copies under the rank metric.

    Both spans are expanded to their full (guarded) element sets; the
    distance is exact and symmetric by construction. A nearest-element search stops at the
    first element within the distance found so far (Taha & Hanbury, IEEE TPAMI 2015).
    """
    if s == t:
        return Fraction(0)
    worst = 0
    table = matrix.rank_table(spec, ambient)
    if table is not None:
        ps = _packed_elements(s, ambient)
        pt = _packed_elements(t, ambient)
        # both spans contain 0, so an element's distance to the other span
        # is at most its own rank: ranks at or below worst cannot raise it
        for one, other in ((ps, pt), (pt, ps)):
            for x in one:
                if table[x] > worst:
                    nearest = ambient
                    for y in other:
                        d = table[x ^ y]
                        if d <= worst:
                            break
                        if d < nearest:
                            nearest = d
                    else:
                        worst = nearest
        return Fraction(worst, ambient)
    es = copy_elements(s, spec, ambient)
    et = copy_elements(t, spec, ambient)
    # rank(u - v) = rank(v - u); each span lists 0 first, so u's own rank is measured first
    for one, other in ((es, et), (et, es)):
        for u in one:
            nearest = ambient
            for v in other:
                d = matrix.rank(matrix.Matrix(spec, ambient, ambient,
                                              [spec.sub_v(x, y) for x, y in zip(u, v)]))
                if d <= worst:
                    break
                nearest = min(nearest, d)
            else:
                worst = nearest
    return Fraction(worst, ambient)


class Coloring:
    """A [0,1]-valued map on copy fingerprints, 1-Lipschitz for the copy metric.

    Values are cached; every new evaluation is checked against every
    previous one and the coloring is rejected (``NotLipschitz``) the
    moment a pair violates the contract. The cached fingerprints are also
    grouped by value, and each distinct value's far groups (those whose gap
    to it passes 1/c) are worked out once, again only when a new value appears.
    """

    __slots__ = ("evaluator", "a_dim", "c_dim", "spec", "_cache", "_by_value", "_far")

    def __init__(self, evaluator, a_dim: int, c_dim: int, spec: FieldSpec):
        self.evaluator = evaluator
        self.a_dim = a_dim
        self.c_dim = c_dim
        self.spec = spec
        self._cache: dict[tuple, Fraction] = {}
        # value -> [(evaluation index, fingerprint, value)] in evaluation order
        self._by_value: dict[Fraction, list] = {}
        self._far: dict[Fraction, tuple] = {}  # value -> (gaps by value, its far groups)

    def value(self, fp: tuple) -> Fraction:
        cached = self._cache.get(fp)
        if cached is not None:
            return cached
        v = Fraction(self.evaluator(fp))
        if not 0 <= v <= 1:
            raise NotLipschitz(f"coloring value {v} outside [0, 1]")
        far = self._far.get(v)
        if far is None:
            # distinct fingerprints are distinct spans, so one holds an element
            # outside the other and copy_distance >= 1/c: a smaller gap is safe
            step = Fraction(1, self.c_dim)
            gaps = {w: abs(v - w) for w in self._by_value}
            far = self._far[v] = gaps, [g for w, g in self._by_value.items() if gaps[w] > step]
        gaps, groups = far
        # merged by evaluation index, the pairs are measured in evaluation order
        for _, other_fp, other_v in heapq.merge(*groups):
            if gaps[other_v] > copy_distance(fp, other_fp, self.spec, self.c_dim):
                raise NotLipschitz(
                    "coloring moves faster than the copy metric allows"
                )
        if v not in self._by_value:
            self._far.clear()  # every far group list may gain this value's group
        self._by_value.setdefault(v, []).append((len(self._cache), fp, v))
        self._cache[fp] = v
        return v

    def evaluated(self) -> dict:
        return dict(self._cache)


def constant_coloring(value, a_dim: int, c_dim: int, spec: FieldSpec) -> Coloring:
    v = Fraction(value)
    return Coloring(lambda fp: v, a_dim, c_dim, spec)


def distance_to_copy_coloring(base_fp: tuple, a_dim: int, c_dim: int,
                              spec: FieldSpec) -> Coloring:
    """gamma(S) = Hausdorff distance from S to a fixed copy (1-Lipschitz)."""
    return Coloring(lambda fp: copy_distance(fp, base_fp, spec, c_dim), a_dim, c_dim, spec)


def oscillation(gamma: Coloring, copies) -> Fraction:
    """max - min of the coloring over a set of copies (0 on empty/singleton)."""
    values = [gamma.value(fp) for fp in copies]
    if len(values) < 2:
        return Fraction(0)
    return max(values) - min(values)


# ---------------------------------------------------------------------------
# the explicit dimension bound, with certified log enclosures


def _atanh_series_bounds(num: int, den: int, terms: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(num/den) for 0 < num < den via the odd series."""
    u = Fraction(num, den)
    u2 = u * u
    total = Fraction(0)
    power = u
    for j in range(terms):
        total += power / (2 * j + 1)
        power *= u2
    # remaining terms are positive and dominated by a geometric series
    tail = power / ((2 * terms + 1) * (1 - u2))
    return total, total + tail


def ln_bounds(n: int, terms: int = 24) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of ln(n) for an integer n >= 1."""
    if n < 1:
        raise InvalidParameter("ln_bounds needs n >= 1")
    if n == 1:
        return Fraction(0), Fraction(0)
    e = 0
    z = Fraction(n)
    while z > Fraction(3, 2):
        z /= 2
        e += 1
    ln2_lo, ln2_hi = _atanh_series_bounds(1, 3, terms)
    ln2_lo, ln2_hi = 2 * ln2_lo, 2 * ln2_hi
    # ln z = 2 atanh((z-1)/(z+1)), 3/4 < z <= 3/2 so the argument is small
    uz = (z - 1) / (z + 1)
    if uz == 0:
        z_lo = z_hi = Fraction(0)
    else:
        z_lo, z_hi = _atanh_series_bounds(uz.numerator, uz.denominator, terms)
        z_lo, z_hi = 2 * z_lo, 2 * z_hi
    return e * ln2_lo + z_lo, e * ln2_hi + z_hi


class BoundReport:
    """The exact bound expression coeff * ln(arg) and the chosen dimension."""

    __slots__ = ("a_dim", "b_dim", "q", "eps", "k", "k_method", "coeff",
                 "log_arg", "c")

    def __init__(self, a_dim, b_dim, q, eps, k, k_method, coeff, log_arg, c):
        self.a_dim = a_dim
        self.b_dim = b_dim
        self.q = q
        self.eps = eps
        self.k = k
        self.k_method = k_method
        self.coeff = coeff
        self.log_arg = log_arg
        self.c = c

    @property
    def bound_float(self) -> float:
        return float(self.coeff) * math.log(self.log_arg)

    def exact_expression(self) -> str:
        return (f"({self.coeff.numerator}/{self.coeff.denominator})"
                f"*ln({self.log_arg})")


def ramsey_dimension(a: int, b: int, q: int, eps, k_mode: str = "auto") -> BoundReport:
    """Smallest multiple of b strictly above 64 eps^-2 max(ln 2k, ln 6 ceil(1/eps)).

    ``k`` counts the copies by Skolem-Noether, |GL_b| (q - 1) / (|GL_a| |GL_(b/a)|), where
    ``count_copies`` could walk them (``k_mode="exact"`` insists), else is the envelope q^(b^2).
    c is the multiple of b just above coeff * hi for an enclosure lo <= ln(arg) <= hi,
    accepted once c - b <= coeff * lo (else the enclosure is refined), so c is exact.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise InvalidParameter("eps must lie in (0, 1]")
    field_for_order(q)
    if a < 1 or b < 1 or b % a != 0:
        raise NotDivisor(f"need positive a dividing b, got a = {a}, b = {b}")

    if k_mode not in ("auto", "exact", "envelope"):
        raise InvalidParameter(f"unknown k_mode {k_mode!r}")
    k, k_method = 1, "exact"  # a = b: M_b is its own one copy
    if a < b and k_mode != "envelope":
        try:
            _check_enumeration(b, q)
            k = _closed_form(a, b, q)
        except TooLarge:
            if k_mode == "exact":
                raise
            k_mode = "envelope"
    if k_mode == "envelope":
        k, k_method = _power(q, b * b), "envelope"

    coeff = 64 * eps ** -2
    ceil_inv = -((-eps.denominator) // eps.numerator)  # ceil(1/eps)
    log_arg = max(2 * k, 6 * ceil_inv)

    terms = 24
    while True:
        lo, hi = ln_bounds(log_arg, terms)
        c = b * (coeff * hi // b + 1)
        if c - b <= coeff * lo:
            break
        terms *= 2
        if terms > 3000:
            raise InvariantViolated("log enclosure failed to separate the bound")
    return BoundReport(a, b, q, eps, k, k_method, coeff, log_arg, c)


# ---------------------------------------------------------------------------
# oscillation search


class SearchReport:
    """Outcome of a monochromatic search: best copy and its oscillation."""

    __slots__ = ("found", "fingerprint", "oscillation", "examined", "strategy",
                 "eps")

    def __init__(self, found, fingerprint, oscillation, examined, strategy, eps):
        self.found = found
        self.fingerprint = fingerprint
        self.oscillation = oscillation
        self.examined = examined
        self.strategy = strategy
        self.eps = eps

    def __eq__(self, other):
        return isinstance(other, SearchReport) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def to_text(self) -> str:
        status = "found" if self.found else "exhausted"
        osc = self.oscillation
        return (f"SEARCH {status} strategy {self.strategy} examined {self.examined}\n"
                f"oscillation {osc.numerator}/{osc.denominator}\n"
                f"span_dim {len(self.fingerprint) if self.fingerprint else 0}\n")

    def __repr__(self):
        return (f"SearchReport(found={self.found}, osc={self.oscillation}, "
                f"examined={self.examined})")


def monochromatic_search(b_dim: int, c_dim: int, gamma: Coloring, eps,
                         strategy: str = "exhaustive", seed: int = 0,
                         trials: int = 100) -> SearchReport:
    """Look for a conjugate of M_b in M_c on which the coloring barely moves.

    Exhaustive strategy: walk GL_c in encoding order by cosets of the B-copy's
    stabilizer (``coset_span_keys``), deduplicate the copies of B, and return the
    first whose induced set of A-copies has oscillation at most eps; if none
    qualifies, report the minimum oscillation observed. Random strategy: seeded
    unit sampling for a fixed number of trials, each sample keyed (samples may
    repeat and need not fill a coset), deterministic and reproducible.
    """
    eps = Fraction(eps)
    spec = gamma.spec
    a_dim = gamma.a_dim
    if c_dim != gamma.c_dim:
        raise DimensionMismatch("coloring ambient does not match c")
    if min(a_dim, b_dim, c_dim) < 1 or c_dim % b_dim != 0 or b_dim % a_dim != 0:
        raise NotDivisor("need positive a, b, c with a | b and b | c")
    # h M_a h^-1 in M_b lifts into M_c as the copy of M_a conjugated by h (x) I_s; no lifts for
    # a = b (the B-copy itself) or a = 1 (the scalar line, refused where its census would be)
    s = c_dim // b_dim
    if a_dim == 1:
        _check_enumeration(b_dim, spec.q)
    lifts = [] if a_dim in (1, b_dim) else [matrix.kron(h, matrix.Matrix.identity(spec, s))
                                            for h in _copy_units(a_dim, b_dim, spec).values()]
    if strategy == "exhaustive":
        keyed, label = _coset_walk(c_dim, s, spec), "exhaustive"
    elif strategy == "random":
        if trials < 1:
            raise InvalidParameter(f"trials must be at least 1, got {trials}")
        _check_enumeration(c_dim, spec.q)
        rng = random.Random(seed)
        keyed = ((g, matrix.span_key(g, s)) for g in (matrix.random_unit(spec, c_dim, rng)
                                                        for _ in range(trials)))
        label = f"random:{seed}:{trials}"
    else:
        raise InvalidParameter(f"unknown strategy {strategy!r}")
    scalars = None
    if a_dim == 1:
        scalars = [matrix.span_fingerprint([matrix.Matrix.identity(spec, c_dim)], spec, c_dim)]

    best_key = best_osc = None
    examined = 0
    seen = set()
    for g, key, *_ in keyed:
        if key in seen:
            continue
        seen.add(key)
        examined += 1
        if lifts:
            inside = [matrix.copy_fingerprint(matrix.span_key(g * h, c_dim // a_dim), spec, c_dim)
                      for h in lifts]
        else:
            inside = scalars or [matrix.copy_fingerprint(key, spec, c_dim)]
        osc = oscillation(gamma, inside)
        if best_osc is None or osc < best_osc:
            best_osc, best_key = osc, key
        if osc <= eps:
            break
    return SearchReport(osc <= eps, matrix.copy_fingerprint(best_key, spec, c_dim), best_osc,
                        examined, label, eps)
