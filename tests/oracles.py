"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code with the library's elimination kernels: ranks
come from minor determinants expanded over permutations, and field
products from schoolbook polynomial arithmetic. Slow on purpose; only
for small inputs.
"""

from itertools import combinations, permutations, product

from rankmetric.errors import RelationsNotSatisfied
from rankmetric.gf import FieldSpec
from rankmetric.matrix import Matrix, direct_sum, invert


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


def delta_apply_dense(e, x: Matrix) -> Matrix:
    """A block embedding evaluated by dense products: P (x^{+mult} (+) 0) P^{-1}."""
    if e.mult == 0:
        return Matrix.zero(x.spec, e.n)
    blocks = direct_sum([x] * e.mult, e.n - e.m * e.mult)
    return e.conjugator * blocks * invert(e.conjugator)
