"""Exact finite-field arithmetic for checking benchmark outputs.

Written apart from ``rankmetric`` and using only the standard library, so
a fault in the package's kernels cannot hide itself in the checks. Field
elements use the package's documented integer encoding
``sum(coeffs[i] * p**i)``; GF(4) is built here from x^2 + x + 1.

Matrices are lists of rows of ints. Over a prime field, products and
eliminations pack each row into one big integer with a fixed-width slot
per entry and reduce mod p only where an entry is read, which keeps
120 x 120 checks to tens of milliseconds.
"""

from __future__ import annotations

from array import array

_TYPECODES = [(code, array(code).itemsize) for code in ("H", "I", "Q")]


class Field:
    """GF(p) for a prime p, or GF(4) from x^2 + x + 1."""

    def __init__(self, q: int):
        if q == 4:
            self.p, self.prime = 2, False
        elif q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1)):
            self.p, self.prime = q, True
        else:
            raise ValueError(f"no reference field of order {q}")
        self.q = q
        if self.prime:
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            # a = a0 + a1 x, x^2 = x + 1 over GF(2)
            def times(a, b):
                a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
                c0 = (a0 & b0) ^ (a1 & b1)
                c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
                return c0 | (c1 << 1)
            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            self.mul = [[times(a, b) for b in range(4)] for a in range(4)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        for a in range(1, q):
            if sum(1 for b in range(q) if self.mul[a][b] == 1) != 1:
                raise ValueError(f"table for GF({q}) is not a field")


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def shift_pair(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Lower shift a and upper shift b: a^n = b^n = 0, ba + a^(n-1) b^(n-1) = 1."""
    a = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    b = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return a, b


def block_diag(blocks, total: int) -> list[list[int]]:
    """Block-diagonal matrix of square blocks, zero-padded to total x total."""
    out = [[0] * total for _ in range(total)]
    off = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[off + i][off:off + len(row)] = row
        off += len(blk)
    return out


def kron_identity(x, k: int) -> list[list[int]]:
    """x (x) 1_k."""
    n = len(x)
    out = [[0] * (n * k) for _ in range(n * k)]
    for i in range(n):
        for j in range(n):
            v = x[i][j]
            if v:
                for t in range(k):
                    out[i * k + t][j * k + t] = v
    return out


def add(F: Field, x, y):
    t = F.add
    return [[t[a][b] for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def sub(F: Field, x, y):
    t, neg = F.add, F.neg
    return [[t[a][neg[b]] for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


# ---------------------------------------------------------------------------
# packed rows over a prime field


def _slot_code(bound: int):
    for code, size in _TYPECODES:
        if bound < 1 << (8 * size):
            return code, size
    raise ValueError("entries too large for packed rows")


def _pack(row, code):
    return int.from_bytes(array(code, row).tobytes(), "little")


def _unpack(v: int, ncols: int, code, size: int, p: int) -> list[int]:
    arr = array(code)
    arr.frombytes(v.to_bytes(ncols * size, "little"))
    return [e % p for e in arr]


def mul(F: Field, x, y):
    """Exact product x y."""
    inner, cols = len(y), len(y[0])
    if len(x[0]) != inner:
        raise ValueError("shapes do not match")
    if not F.prime:
        add_t, mul_t = F.add, F.mul
        out = []
        for row in x:
            acc = [0] * cols
            for a, yrow in zip(row, y):
                if a:
                    ma = mul_t[a]
                    acc = [add_t[s][ma[e]] for s, e in zip(acc, yrow)]
            out.append(acc)
        return out
    p = F.p
    code, size = _slot_code((p - 1) ** 2 * inner + 1)
    packed = [_pack(r, code) for r in y]
    out = []
    for row in x:
        acc = 0
        for a, yv in zip(row, packed):
            if a:
                acc += a * yv
        out.append(_unpack(acc, cols, code, size, p))
    return out


def power(F: Field, x, e: int):
    out = identity(len(x))
    for _ in range(e):
        out = mul(F, out, x)
    return out


def _echelon(F: Field, rows, ncols: int, pivot_cols: int):
    """Gauss-Jordan over a prime field with pivots in the first pivot_cols columns."""
    if not F.prime:
        raise ValueError("elimination is only implemented over prime fields")
    p = F.p
    code, size = _slot_code((p - 1) + ncols * (p - 1) ** 2 + 1)
    width = 8 * size
    mask = (1 << width) - 1
    packed = [_pack(r, code) for r in rows]
    nrows = len(packed)
    pivots = []
    r = 0
    for c in range(pivot_cols):
        if r == nrows:
            break
        shift = c * width
        piv = -1
        for i in range(r, nrows):
            if ((packed[i] >> shift) & mask) % p:
                piv = i
                break
        if piv < 0:
            continue
        packed[r], packed[piv] = packed[piv], packed[r]
        prow = _unpack(packed[r], ncols, code, size, p)
        s = pow(prow[c], p - 2, p)
        prow = _pack([(e * s) % p for e in prow], code)
        packed[r] = prow
        for i in range(nrows):
            if i != r:
                v = ((packed[i] >> shift) & mask) % p
                if v:
                    packed[i] += (p - v) * prow
        pivots.append(c)
        r += 1
    return pivots, [_unpack(v, ncols, code, size, p) for v in packed[:r]]


def rank(F: Field, x) -> int:
    if not x:
        return 0
    pivots, _ = _echelon(F, x, len(x[0]), len(x[0]))
    return len(pivots)


def inverse(F: Field, x):
    """Exact inverse, or None when x is singular."""
    n = len(x)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(x)]
    pivots, rows = _echelon(F, aug, 2 * n, n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in rows]


def is_identity(x) -> bool:
    return all(v == (1 if i == j else 0) for i, row in enumerate(x) for j, v in enumerate(row))


def is_zero(x) -> bool:
    return not any(any(row) for row in x)
