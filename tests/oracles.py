"""Independent brute-force oracles used to freeze expected test values.

Ranks come from minor determinants expanded over permutations, and field
products from schoolbook polynomial arithmetic, so those share no code with
the library's elimination kernels. The entry-by-entry table kernels
(``table_mul``, ``table_insert``, ``table_rref``) are the reference for the
byte-row kernels of the table family. The copy-census walks keep the
conjugation census by dense Matrix products that the packed span-key walk
replaced, ``adapted_basis`` keeps the basis that Skolem-Noether conjugators
were read from before homomorphisms became block embeddings, and
``inner_approximate_by_solve`` keeps the probe closure that re-solved its
whole basis on every insertion, and ``probe_errors_dense`` ranks each
back-and-forth probe error from two dense images. ``ladder_w_chain`` and
``ladder_repair`` keep the repair chain that met every subspace by
``intersect`` before each became one joint kernel,
``permutation_images_by_entries`` the conjugator test that read all n^2
entries, and ``stacked_kernel`` the joint kernel that transposed the stacked
matrix whole. ``image_distance_by_scatters`` ranks a probe error from every
copy of both maps, as ``image_distance`` did before it scattered only the
moved copies, and ``moved_by_tuples`` finds those copies as a tuple per copy
even when a copy is one row. ``shuffle_by_steps``, ``tile_by_steps``,
``merge_by_set`` and ``composed_by_steps`` build permutation images one
generator step per index, as the embeddings did before they built them from
ranges and slices. ``solve``, ``delta_for_target``, ``subspace_sum``,
``annihilator`` and ``intersect`` left the library, which no longer
called them, and ``direct_sum`` and ``enumerate_elements``, which only tests
called; ``hausdorff_by_ranks`` measures two copies from every pairwise rank,
with no early exit; ``mat_vec``, ``by_columns`` and ``residual_matrix``
write out a product with one column, a matrix given by its columns and
the relation residual, which the library no longer offers as calls.
Slow on purpose; only for small inputs.
"""

import functools
import random
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from types import MappingProxyType

import rankmetric.matrix as mx
import rankmetric.ramsey as rp
from rankmetric.embeddings import DeltaEmbedding, iota_embedding
from rankmetric.errors import (DimensionMismatch, InconsistentTarget, InvariantViolated,
                               NotRepairable, RelationsNotSatisfied, Singular, SpecMismatch)
from rankmetric.fraisse import InnerApproximation, approximate_homogeneity, include_to
from rankmetric.gf import FieldElement, FieldSpec
from rankmetric.matrix import (Matrix, RankDistance, Subspace, apply, coordinate_rank,
                               echelon_insert, image_basis, invert, kassabov_generators,
                               kernel_basis, kron, random_unit, rank_distance, span_fingerprint)
from rankmetric.stability import RepairCertificate, relation_defect, repair


def poly_mul_mod(u, v, modulus, p):
    """Schoolbook product of coefficient lists reduced mod (modulus, p)."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] = (prod[i + j] + x * y) % p
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            for j, d in enumerate(modulus):
                prod[i - k + j] = (prod[i - k + j] - c * d) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return out


def enumerate_elements(spec: FieldSpec) -> list[FieldElement]:
    """All q elements, ordered lexicographically by coefficient vector."""
    order = sorted(range(spec.q), key=spec.coeffs_of)
    return [FieldElement(spec, v) for v in order]


def direct_sum(blocks, pad_zeros: int = 0) -> Matrix:
    """Block-diagonal sum of square blocks plus a trailing zero block."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionMismatch("need at least one block")
    spec = blocks[0].spec
    for b in blocks:
        if b.spec != spec:
            raise SpecMismatch("blocks over different fields")
        if not b.is_square():
            raise DimensionMismatch("blocks must be square")
    n = sum(b.rows for b in blocks) + mx._check_dims(pad_zeros)[0]
    out, off = [0] * (n * n), 0
    for b in blocks:
        for i, row in enumerate(b.row_lists(), off):
            out[i * n + off:i * n + off + b.cols] = row
        off += b.rows
    return Matrix._trusted(spec, n, n, tuple(out))


def mat_vec(m: Matrix, vec) -> tuple[int, ...]:
    """m times vec as encodings, the vector taken as a one-column matrix."""
    return (m * Matrix(m.spec, len(vec), 1, vec)).entries


def by_columns(spec: FieldSpec, columns, nrows: int) -> Matrix:
    """The nrows-high matrix with these columns of encodings: the transpose of their rows."""
    cols = [tuple(c) for c in columns]
    return Matrix(spec, len(cols), nrows, [v for c in cols for v in c]).transpose()


def residual_matrix(x: Matrix, y: Matrix, n: int) -> Matrix:
    """The relation residual yx + x^(n-1) y^(n-1) - 1, written out."""
    return y * x + x ** (n - 1) * y ** (n - 1) - Matrix.identity(x.spec, x.rows)


def det_leibniz(m: Matrix):
    """Exact determinant by permutation expansion (tiny matrices only)."""
    n = m.rows
    spec = m.spec
    total = spec.zero
    for perm in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        prod = spec.one
        for i in range(n):
            prod = prod * m.at(i, perm[i])
        total = total + (-prod if inv % 2 else prod)
    return total


def rank_by_minors(m: Matrix) -> int:
    """Largest r with an invertible r x r minor; independent of elimination."""
    for r in range(min(m.rows, m.cols), 0, -1):
        for ri in combinations(range(m.rows), r):
            for ci in combinations(range(m.cols), r):
                sub = Matrix(m.spec, r, r,
                             [m.at(i, j) for i in ri for j in ci])
                if det_leibniz(sub) != sub.spec.zero:
                    return r
    return 0


def span_dimension(vectors, spec: FieldSpec) -> int:
    """Dimension of a span by greedy exhaustive membership testing."""
    q = spec.q
    chosen = []
    for v in vectors:
        v = tuple(v)
        in_span = False
        for coeffs in product(range(q), repeat=len(chosen)):
            acc = [0] * len(v)
            for c, w in zip(coeffs, chosen):
                for idx, e in enumerate(w):
                    acc[idx] = spec.add_v(acc[idx], spec.mul_v(c, e))
            if tuple(acc) == v:
                in_span = True
                break
        if not in_span:
            chosen.append(v)
    return len(chosen)


# -- entry-by-entry table kernels ---------------------------------------------
# The table family's kernels before its rows became bytes: a row is a list of
# encodings and every entry of a row operation is one lookup in the field's
# add and mul tables. The reference for the byte-row kernels of
# rankmetric.matrix, which share no row arithmetic with them.


def table_mul(arows, brows, spec: FieldSpec, out_cols: int) -> tuple:
    """The product's flat entries."""
    q, add, mul = spec.q, spec._add, spec._mul
    out = []
    for arow in arows:
        acc = [0] * out_cols
        for k, s in enumerate(arow):
            if s:
                sm = mul[s * q:(s + 1) * q]
                acc = [add[x * q + sm[y]] for x, y in zip(acc, brows[k])]
        out += acc
    return tuple(out)


def table_insert(table, vec, limit: int, spec: FieldSpec) -> bool:
    """Reduce a list row against an echelon table (pivot column -> monic row); store it
    if a pivot below limit remains, and say whether it was stored."""
    q, add, mul = spec.q, spec._add, spec._mul
    c, n = 0, len(vec)
    while True:
        while c < n and not vec[c]:
            c += 1
        if c == n:
            return False
        row = table.get(c)
        if row is None:
            if c >= limit:
                return False
            if vec[c] != 1:
                s = spec._inv[vec[c]]
                sm = mul[s * q:(s + 1) * q]
                vec = [sm[v] for v in vec]
            table[c] = vec
            return True
        f = spec._neg[vec[c]]
        fm = mul[f * q:(f + 1) * q]
        vec = [add[x * q + fm[y]] for x, y in zip(vec, row)]


def table_rref(rowlists, ncols: int, spec: FieldSpec):
    """Pivot columns and reduced echelon list rows: the echelon table, then
    back-substitution one pivot at a time."""
    table = {}
    for r in rowlists:
        table_insert(table, list(r), ncols, spec)
    q, add, mul, neg = spec.q, spec._add, spec._mul, spec._neg
    pivots = sorted(table)
    for i in range(len(pivots) - 1, -1, -1):
        row = table[pivots[i]]
        for d in pivots[i + 1:]:
            if row[d]:
                f = neg[row[d]]
                fm = mul[f * q:(f + 1) * q]
                row = [add[x * q + fm[y]] for x, y in zip(row, table[d])]
        table[pivots[i]] = row
    return pivots, [table[c] for c in pivots]


def table_product(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.spec, a.rows, b.cols, table_mul(a.row_lists(), b.row_lists(), a.spec, b.cols))


def table_rank(m: Matrix) -> int:
    table = {}
    for row in m.row_lists():
        table_insert(table, row, m.cols, m.spec)
    return len(table)


def table_inverse(m: Matrix) -> Matrix:
    """The right block of the reduced [m | I]; ``Singular`` unless m has n pivots."""
    n = m.rows
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.row_lists())]
    pivots, reduced = table_rref(rows, n, m.spec)
    if len(pivots) != n:
        raise Singular("matrix is singular")
    return Matrix(m.spec, n, n, [v for row in reduced for v in row[n:]])


def table_transpose(m: Matrix) -> Matrix:
    return Matrix(m.spec, m.cols, m.rows, [m.at(i, j).val for j in range(m.cols)
                                           for i in range(m.rows)])


def stacked_kernel(m: Matrix, *more: Matrix) -> Subspace:
    """The kernel of m stacked on ``more`` by the route ``kernel_basis`` took before it laid
    the parts' transposes side by side: the stores joined into one stacked matrix, that
    matrix transposed whole, and one elimination of [stacked^T | I] in the running family,
    the identity block appended entry by entry."""
    f, spec = mx._family(m.spec), m.spec
    stacked = f.made(spec, m.rows + sum(o.rows for o in more), m.cols,
                     sum((f.store(o) for o in more), f.store(m)))
    r, n = stacked.rows, stacked.cols
    aug = Matrix(spec, n, r + n, [v for i, row in enumerate(stacked.transpose().row_lists())
                                  for v in row + [int(i == j) for j in range(n)]])
    pivots, rows = f.rref(f.rows(aug), r + n, spec)
    rank = sum(p < r for p in pivots)
    return Subspace._of(f.made(spec, n - rank, n, f.cut(rows[rank:], r)))


def table_kernel(m: Matrix) -> tuple:
    """The reduced echelon basis of the right kernel: one vector per free column f of the
    reduced rows (1 at f, minus the row's entry at f at each pivot), then re-echeloned."""
    spec, n = m.spec, m.cols
    pivots, reduced = table_rref(m.row_lists(), n, spec)
    vectors = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for pc, row in zip(pivots, reduced):
            v[pc] = spec._neg[row[f]]
        vectors.append(v)
    return tuple(map(tuple, table_rref(vectors, n, spec)[1]))


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Span of the union: stack both reduced bases and re-echelon."""
    if s1.spec != s2.spec:
        raise SpecMismatch("subspaces over different fields")
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient spaces")
    return Subspace(s1.spec, s1.ambient_dim, [*s1.basis, *s2.basis])


def annihilator(s: Subspace) -> Matrix:
    """Constraint rows whose kernel is exactly s: the reduced echelon basis of s-perp."""
    return kernel_basis(s.matrix).matrix


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection: the joint kernel of the two annihilators."""
    return kernel_basis(annihilator(s1), annihilator(s2))


def table_sum(s, t) -> tuple:
    """The reduced echelon basis of the span of two subspaces' bases."""
    return tuple(map(tuple, table_rref([*s.basis, *t.basis], s.ambient_dim, s.spec)[1]))


def table_intersection(s, t) -> tuple:
    """The reduced echelon basis of s meet t by Zassenhaus: reduce the rows [u | u] for
    u in s and [w | 0] for w in t; the rows whose left half is zero carry the meet."""
    n = s.ambient_dim
    rows = [[*u, *u] for u in s.basis] + [[*w, *[0] * n] for w in t.basis]
    pivots, reduced = table_rref(rows, 2 * n, s.spec)
    meet = [row[n:] for pc, row in zip(pivots, reduced) if pc >= n]
    return tuple(map(tuple, table_rref(meet, n, s.spec)[1]))


def matrix_units_by_products(a: Matrix, b: Matrix, n: int):
    """Matrix units of a shift pair by the n^4 product check.

    E[i][j] = b^(n-1-i) a^(n-1) b^(n-1) a^(n-1-j). Raises
    ``RelationsNotSatisfied`` with the library's message for the first
    check that fails, in the library's order: a^n = b^n = 0, then
    E[i][j] E[k][l] = [j = k] E[i][l] for every index quadruple, then the
    units reassembling a and b.
    """
    spec, amb = a.spec, a.rows
    zero = Matrix.zero(spec, amb)
    if a ** n != zero or b ** n != zero:
        raise RelationsNotSatisfied("images are not n-step nilpotent")
    corner = a ** (n - 1) * b ** (n - 1)
    units = [[b ** (n - 1 - i) * corner * a ** (n - 1 - j) for j in range(n)]
             for i in range(n)]
    for i, j, k, l in product(range(n), repeat=4):
        if units[i][j] * units[k][l] != (units[i][l] if j == k else zero):
            raise RelationsNotSatisfied("matrix-unit product identities fail")
    rebuilt_a = sum((units[i + 1][i] for i in range(n - 1)), zero)
    rebuilt_b = sum((units[i][i + 1] for i in range(n - 1)), zero)
    if rebuilt_a != a or rebuilt_b != b:
        raise RelationsNotSatisfied("units do not reassemble the generators")
    return units


def adapted_basis(phi) -> Matrix:
    """The basis adapted to a unital homomorphism: the canonical basis of the
    E_11 image, each vector carried through every E_i1 image, from units
    rebuilt by the product check."""
    units = matrix_units_by_products(phi.img_a, phi.img_b, phi.m)
    cols = [mat_vec(units[i][0], v)
            for v in image_basis(units[0][0]).basis for i in range(phi.m)]
    return by_columns(phi.spec, cols, phi.n)


def skolem_noether_by_adapted_bases(phi0, phi1) -> Matrix:
    """The change of basis between the adapted bases of two unital maps."""
    return adapted_basis(phi1) * invert(adapted_basis(phi0))


def probe_errors_dense(probes, tower, stage: int, left, right):
    """The (probe index, error) pairs of ``fraisse._probe_errors`` computed densely: each
    probe included up to ``stage`` as a matrix, both n x n images built, and the rank of
    their dense difference."""
    out = []
    for idx, probe in enumerate(probes):
        if probe.tower is tower and probe.stage <= stage:
            x = include_to(probe, stage).value
            out.append((idx, rank_distance(left.apply(x), right.apply(x)).as_fraction()))
    return out


def _scatter(images, copies: int, x: Matrix):
    """The nonzero entries ((row, col), value) of P (x^{+copies} (+) 0) P^{-1}:
    entry (i, j) of each copy of x lands at (pos[i], pos[j])."""
    m = x.rows
    nonzero = [(divmod(k, m), v) for k, v in enumerate(x.entries) if v]
    for pos in (images[c * m:(c + 1) * m] for c in range(copies)):
        for (i, j), v in nonzero:
            yield (pos[i], pos[j]), v


def image_distance_by_scatters(left, right, x: Matrix) -> RankDistance:
    """rank_distance(left(x), right(x)) for maps M_m -> M_n with permutation conjugators
    and x in M_m, ranked from the nonzero entries of the difference of the two scatters
    of x through every copy of each map."""
    if left._twist is not None or right._twist is not None:
        raise InvariantViolated("image distance needs permutation conjugators")
    if (left.m, left.n) != (right.m, right.n) or (x.rows, x.cols) != (left.m, left.m):
        raise DimensionMismatch("maps and element of different shapes")
    q, add, neg = x.spec.q, x.spec._add, x.spec._neg
    diff = dict(_scatter(left._images, left.mult, x))
    for key, v in _scatter(right._images, right.mult, x):
        d = add[diff.pop(key, 0) * q + neg[v]]
        if d:
            diff[key] = d
    return RankDistance(coordinate_rank(x.spec, diff), left.n)


def moved_by_tuples(left, right, d: int):
    """``embeddings._moved`` with every copy a tuple of rows, one-row copies included: the
    copies of left o iota(m, d) that right o iota(m, d) does not place on the same ordered
    rows (a list), and the other way round (a set)."""
    def copies(e):
        cols = [e._images[j:e.mult * e.m:e.m] for j in range(e.m)]  # row j of each copy of e
        return chain.from_iterable(zip(*cols[w::e.m // d]) for w in range(e.m // d))
    minus = set(copies(right))
    plus = [c for c in copies(left) if c not in minus]
    minus.difference_update(copies(left))
    return plus, minus


def shuffle_by_steps(m: int, k: int) -> tuple:
    """Images of Q with Q (x^{+k}) Q^{-1} = x (x) 1_k, one step per index."""
    return tuple(i * k + w for w in range(k) for i in range(m))


def tile_by_steps(images, copies: int, total: int) -> tuple:
    """``copies`` copies of a permutation down the diagonal, then 1 up to ``total``."""
    k = len(images)
    return tuple(j - j % k + images[j % k] if j < copies * k else j for j in range(total))


def merge_by_set(outer: int, block: int, copies: int, inner: int, total: int) -> tuple:
    """Images of P with (x^{+copies} (+) 0)^{+outer} (+) 0 = P (x^{+outer*copies} (+) 0) P^-1:
    the rows of the copies, then every row not among them, in order."""
    used = [t * block + c * inner + i
            for t in range(outer) for c in range(copies) for i in range(inner)]
    taken = set(used)
    return tuple(used + [j for j in range(total) if j not in taken])


def composed_by_steps(*factors) -> tuple:
    """The images of the product of permutations given by their images."""
    return functools.reduce(lambda f, g: tuple(f[i] for i in g), factors)


def delta_apply_dense(e, x: Matrix) -> Matrix:
    """A block embedding evaluated by dense products: P (x^{+mult} (+) 0) P^{-1}."""
    if e.mult == 0:
        return Matrix.zero(x.spec, e.n)
    blocks = direct_sum([x] * e.mult, e.n - e.m * e.mult)
    return e.conjugator * blocks * invert(e.conjugator)


# -- the copy census by Matrix products ----------------------------------------
# The walks below run every unit through public Matrix products, invert and
# span_fingerprint, one conjugated basis matrix at a time: the reference for
# the packed span-key walk of rankmetric.matrix.span_key.


@functools.cache
def _product_walk(a: int, b: int, spec: FieldSpec) -> tuple:
    """One walk of GL_b by products, kept read-only: fingerprint -> (first unit g, its
    conjugated basis) in first-seen order, the units fixing the standard copy, all units."""
    base = rp.base_copy_basis(a, b, spec)
    base_fp = span_fingerprint(base, spec, b)
    firsts = {}
    stab = total = 0
    for g in rp.iterate_units(b, spec):
        total += 1
        gi = invert(g)
        mats = tuple(g * m * gi for m in base)
        fp = span_fingerprint(mats, spec, b)
        firsts.setdefault(fp, (g, mats))
        stab += fp == base_fp
    return MappingProxyType(firsts), stab, total


@functools.cache
def product_copy_bases(a: int, b: int, spec: FieldSpec) -> MappingProxyType:
    """Fingerprint -> first-seen conjugated basis of every copy of M_a in M_b.

    The walk runs once per (a, b, field); every caller shares the result,
    so it is read-only: a mapping proxy of tuples.
    """
    return MappingProxyType({fp: mats for fp, (_, mats) in _product_walk(a, b, spec)[0].items()})


def product_count_copies(a: int, b: int, spec: FieldSpec, method: str) -> int:
    """Copies of M_a in M_b by the census or by the orbit-stabilizer quotient."""
    if method == "brute_force":
        return len(product_copy_bases(a, b, spec))
    _, stab, total = _product_walk(a, b, spec)
    k = rp.sl_order(b, spec.q) // (stab // (spec.q - 1))
    if k * stab != total:
        raise AssertionError(f"orbit-stabilizer fails: stabilizer {stab}, units {total}")
    return k


def product_search(b_dim: int, c_dim: int, gamma, eps, strategy="exhaustive",
                   seed=0, trials=100):
    """monochromatic_search with every fingerprint built from Matrix products.

    The oscillation comes from ``rankmetric.ramsey.oscillation`` as the library
    looks it up, so a test may replace it on both sides at once.
    """
    eps = Fraction(eps)
    spec = gamma.spec
    base_b = rp.base_copy_basis(b_dim, c_dim, spec)
    eye = Matrix.identity(spec, c_dim // b_dim)
    lifted_a_copies = [[kron(m, eye) for m in basis]
                       for basis in product_copy_bases(gamma.a_dim, b_dim, spec).values()]
    if strategy == "exhaustive":
        # a unit whose B-copy an earlier unit reached is skipped below: walk only first units
        units = (g for g, _ in _product_walk(b_dim, c_dim, spec)[0].values())
        label = "exhaustive"
    else:
        rng = random.Random(seed)
        units = (random_unit(spec, c_dim, rng) for _ in range(trials))
        label = f"random:{seed}:{trials}"
    best_fp = best_osc = None
    examined = 0
    seen = set()
    for g in units:
        gi = invert(g)
        fp_b = span_fingerprint([g * m * gi for m in base_b], spec, c_dim)
        if fp_b in seen:
            continue
        seen.add(fp_b)
        examined += 1
        inside = [span_fingerprint([g * m * gi for m in lifted], spec, c_dim)
                  for lifted in lifted_a_copies]
        osc = rp.oscillation(gamma, inside)
        if best_osc is None or osc < best_osc:
            best_osc, best_fp = osc, fp_b
        if osc <= eps:
            return rp.SearchReport(True, fp_b, osc, examined, label, eps)
    return rp.SearchReport(False, best_fp, best_osc, examined, label, eps)


def hausdorff_by_ranks(s, t, spec: FieldSpec, ambient: int) -> Fraction:
    """The Hausdorff distance between two spans of flattened ambient x ambient matrices, from
    the rank of every difference of an element of one and an element of the other, with no
    early exit. Each span is expanded as every combination of its basis by Matrix sums."""
    def elements(fp):
        basis = [Matrix(spec, ambient, ambient, list(vec)) for vec in fp]
        return [sum((m.scale(c) for m, c in zip(basis, coeffs)), Matrix.zero(spec, ambient))
                for coeffs in product(range(spec.q), repeat=len(fp))]

    es, et = elements(s), elements(t)
    worst = max(max(min(mx.rank(u - v) for v in et) for u in es),
                max(min(mx.rank(u - v) for u in es) for v in et))
    return Fraction(worst, ambient)


def lipschitz_checks(evaluator, fps, c_dim, distance):
    """The pairs a Coloring measures, by comparing each new value with every earlier one.

    Returns the (new, earlier) fingerprint pairs passed to ``distance``, in
    order, and the index of the fingerprint whose check fails (None if none does).
    """
    step = Fraction(1, c_dim)
    values = {}
    pairs = []
    for idx, fp in enumerate(fps):
        if fp in values:
            continue
        v = Fraction(evaluator(fp))
        for other_fp, other_v in values.items():
            gap = abs(v - other_v)
            if gap > step:
                pairs.append((fp, other_fp))
                if gap > distance(fp, other_fp):
                    return pairs, idx
        values[fp] = v
    return pairs, None


# -- inner approximation by per-insertion solves --------------------------------
# The probe closure as first written: every insertion re-solves the whole
# probe basis, and generator images are read off solved coordinates. The
# reference for rankmetric.fraisse.inner_approximate, which keeps one echelon
# table instead.


def inner_approximate_by_solve(targets, eps) -> InnerApproximation:
    """Find a conjugating unit realizing approximate automorphism data.

    ``targets`` is a list of (element, image) tower-element pairs, all in
    one tower. The elements must generate the stage algebra that contains
    them (together with 1, which is implicitly sent to 1): the associated
    generator images are extracted by closing the probes under products
    with expression tracking, the resulting approximate pair is repaired
    to an exact embedding, and homogeneity against the straight inclusion
    turns that into a single inner unit. Residuals are exact per pair.

    Raises ``InconsistentTarget`` when dependent probes carry conflicting
    images or the probes fail to generate, and propagates
    ``NotRepairable`` when the data is too far from any homomorphism.
    """
    eps = Fraction(eps)
    pairs = list(targets)
    if not pairs:
        raise InconsistentTarget("no target pairs supplied")
    tower = pairs[0][0].tower
    for y, img in pairs:
        if y.tower is not tower or img.tower is not tower:
            raise InconsistentTarget("all pairs must live in one tower")
    src_stage = max(y.stage for y, _ in pairs)
    dst_stage = max(max(img.stage for _, img in pairs), src_stage)
    n_s = tower.dims[src_stage]
    n_k = tower.dims[dst_stage]
    spec = tower.spec

    seed = [(Matrix.identity(spec, n_s), Matrix.identity(spec, n_k))]
    for y, img in pairs:
        seed.append((include_to(y, src_stage).value,
                     include_to(img, dst_stage).value))

    basis: list[tuple[Matrix, Matrix]] = []

    def coords_in_basis(mat: Matrix):
        if not basis:
            return None
        cols = by_columns(spec, [m._e for m, _ in basis], n_s * n_s)
        return solve(cols, mat._e)

    def try_insert(mat: Matrix, img: Matrix, hard: bool) -> bool:
        coords = coords_in_basis(mat)
        if coords is not None:
            if hard:
                expect = Matrix.zero(spec, n_k)
                for c, (_, bimg) in zip(coords, basis):
                    if c:
                        expect = expect + bimg.scale(c)
                if expect != img:
                    raise InconsistentTarget(
                        "dependent probes carry conflicting images"
                    )
            return False
        basis.append((mat, img))
        return True

    for mat, img in seed:
        try_insert(mat, img, hard=True)

    full = n_s * n_s
    grew = True
    while grew and len(basis) < full:
        grew = False
        snapshot = list(basis)
        for m1, i1 in snapshot:
            for m2, i2 in snapshot:
                if len(basis) == full:
                    break
                if try_insert(m1 * m2, i1 * i2, hard=False):
                    grew = True
    if len(basis) < full:
        raise InconsistentTarget(
            "probes do not generate the stage algebra"
        )

    gen_a, gen_b = kassabov_generators(n_s, spec)
    cols = by_columns(spec, [m._e for m, _ in basis], n_s * n_s)

    def image_of(mat: Matrix) -> Matrix:
        coords = solve(cols, mat._e)
        out = Matrix.zero(spec, n_k)
        for c, (_, bimg) in zip(coords, basis):
            if c:
                out = out + bimg.scale(c)
        return out

    x_img = image_of(gen_a)
    y_img = image_of(gen_b)

    psi, _, cert = repair(x_img, y_img, n_s)
    straight = iota_embedding(n_k, n_s, spec)
    beta, _ = approximate_homogeneity(straight, psi)

    beta_inv = invert(beta)
    residuals = []
    for y, img in pairs:
        lifted = include_to(y, dst_stage).value
        moved = beta * lifted * beta_inv
        want = include_to(img, dst_stage).value
        residuals.append(rank_distance(moved, want).as_fraction())
    return InnerApproximation(beta, dst_stage, residuals, eps, cert)


# -- the repair chain as an intersect ladder ----------------------------------
# w_chain, v_space and repair before every subspace became one joint kernel:
# each meet is an ``intersect`` (two annihilators and a kernel), and each
# propagated vector is unpacked to entries before its independence test.


def ladder_w_chain(x: Matrix, y: Matrix, n: int) -> list:
    ker_rel = kernel_basis(residual_matrix(x, y, n))
    w = intersect(intersect(kernel_basis(y), kernel_basis(x ** n)), ker_rel)
    chain = [w]
    for _ in range(1, n):
        w = intersect(apply(x, w), ker_rel)
        chain.append(w)
    return chain


def ladder_v_space(y: Matrix, n: int, w_last):
    v = cur = w_last
    for _ in range(1, n):
        cur = apply(y, cur)
        v = subspace_sum(v, cur)
    return v


def ladder_repair(x: Matrix, y: Matrix, n: int):
    """(psi, B, cert) as ``repair`` assembled them on the ladder chain."""
    spec, amb = x.spec, x.rows
    chain = ladder_w_chain(x, y, n)
    w_last = chain[-1]
    if w_last.dim == 0:
        raise NotRepairable("the final chain subspace is trivial")
    v = ladder_v_space(y, n, w_last)
    if v.dim != n * w_last.dim:
        raise InvariantViolated("summands not independent")
    yt, powers = y.transpose(), [w_last.matrix]
    for _ in range(n - 1):
        powers.append(powers[-1] * yt)
    cols, table = [], {}
    for i in range(w_last.dim):
        for p in reversed(powers):
            vec = p.entries[i * amb:(i + 1) * amb]
            if not echelon_insert(table, vec, spec):
                raise InvariantViolated("propagated basis unexpectedly dependent")
            cols.append(vec)
    quiet = intersect(kernel_basis(x), kernel_basis(y))
    for cand in [*quiet.basis, *Matrix.identity(spec, amb).row_lists()]:
        if len(cols) == amb:
            break
        if echelon_insert(table, cand, spec):
            cols.append(tuple(cand))
    b = by_columns(spec, cols, amb)
    psi = DeltaEmbedding(n, amb, amb // n, b)
    gen_a, gen_b = kassabov_generators(n, spec)
    cert = RepairCertificate(n, amb, relation_defect(x, y, n).delta, [w.dim for w in chain],
                             v.dim, rank_distance(x, psi.apply(gen_a)),
                             rank_distance(y, psi.apply(gen_b)))
    return psi, b, cert


def permutation_images_by_entries(a: Matrix):
    """The images (P e_j = e_images[j]) of a permutation matrix, or None for any other
    matrix, read off all n^2 entries."""
    n, e = a.rows, a.entries
    if e.count(1) != n:
        return None
    nonzero = [k for k, v in enumerate(e) if v]
    if [k // n for k in nonzero] != list(range(n)) or len({k % n for k in nonzero}) != n:
        return None
    cols = [k % n for k in nonzero]
    return tuple(sorted(range(n), key=cols.__getitem__))


def delta_for_target(n: int, eps: Fraction) -> Fraction:
    """Largest input defect guaranteeing repair distance below eps.

    Choosing delta <= eps / ((4+n) n + 1) keeps the repaired pair within
    eps of the input even after adding the defect itself on top of the
    certified (4+n) n delta distance.
    """
    return Fraction(eps) / ((4 + n) * n + 1)


def solve(m: Matrix, rhs) -> tuple[int, ...] | None:
    """One solution of m v = rhs (raw encodings, reduced mod q), or None if inconsistent:
    read off the reduced echelon rows of [m | rhs], free unknowns 0."""
    if len(rhs) != m.rows:
        raise DimensionMismatch("right-hand side of wrong length")
    c = m.cols
    sol = [0] * c
    for row in Subspace(m.spec, c + 1, [(*r, x) for r, x in zip(m.row_lists(), rhs)]).basis:
        if (pc := row.index(1)) == c:
            return None
        sol[pc] = row[c]
    return tuple(sol)
