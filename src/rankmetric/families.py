"""The GF(3) plane and byte-table row families of ``rankmetric.matrix``, which
``matrix._family`` runs on first use and whose names ``matrix`` serves as its own.
The table family calls ``_g_rref`` by its name here, where layer tracing wraps it.
"""

from functools import cache, reduce

from . import matrix
from .gf import FieldSpec

# ---------------------------------------------------------------------------
# GF(3) bit-sliced kernels: a row is a pair of ints (plus, minus) with disjoint
# bits; bit j of plus is set when entry j is 1, bit j of minus when it is 2.

_PLUS = bytes.maketrans(b"\x00\x01\x02", b"010")
_MINUS = bytes.maketrans(b"\x00\x01\x02", b"001")


def _t_pack(entries, rows, cols):
    """Plane pairs of a row-major sequence of 0/1/2 encodings."""
    raw = bytes(entries)
    plus, minus = raw.translate(_PLUS), raw.translate(_MINUS)
    return [(int(plus[i * cols:(i + 1) * cols][::-1] or b"0", 2),
             int(minus[i * cols:(i + 1) * cols][::-1] or b"0", 2)) for i in range(rows)]


def _t_unpack(planes, cols):
    """Row-major 0/1/2 encodings of plane pairs, as one flat tuple."""
    fmt = f"0{cols}b"
    plus, minus = (int.from_bytes(b"".join(format(r[k], fmt)[::-1].encode() for r in planes)
                                  .translate(matrix._TO_BITS), "big") for k in (0, 1))
    # one byte per entry, 0 or 1 in each plane, so plus + 2 * minus never carries
    return tuple((plus + 2 * minus).to_bytes(len(planes) * cols, "big"))


def _t_transpose(planes, cols):
    """Plane pairs of the transpose: one GF(2) transpose of the planes side by side."""
    t = matrix._b_transpose([p | m << cols for p, m in planes], 2 * cols)
    return tuple(zip(t[:cols], t[cols:]))


def _t_add(a, b):
    """Entrywise sum of two plane pairs; a - b is ``_t_add(a, b[::-1])``."""
    t = (a[0] | b[1]) ^ (a[1] | b[0])
    return (a[1] | b[1]) ^ t, (a[0] | b[0]) ^ t


def _t_mul(arows, brows):
    """Each row of a adds the rows of b at its plus bits and subtracts those at its minus bits."""
    out = []
    for ap, am in arows:
        cp = cm = 0
        while ap:
            low = ap & -ap
            bp, bm = brows[low.bit_length() - 1]
            t = (cp | bm) ^ (cm | bp)
            cp, cm = (cm | bm) ^ t, (cp | bp) ^ t
            ap ^= low
        while am:
            low = am & -am
            bp, bm = brows[low.bit_length() - 1]
            t = (cp | bp) ^ (cm | bm)  # the sum with (bm, bp), which is -(bp, bm)
            cp, cm = (cm | bp) ^ t, (cp | bm) ^ t
            am ^= low
        out.append((cp, cm))
    return tuple(out)


def _t_echelon(table, planes, ncols):
    """GF(3) twin of ``_b_echelon``; a row leading with 2 is stored negated (planes swapped)."""
    limit, before = 1 << ncols, len(table)
    for row in planes:
        while x := row[0] | row[1]:
            low = x & -x
            stored = table.get(low)
            if stored is None:
                if low < limit:
                    table[low] = row if row[0] & low else row[::-1]
                break
            row = _t_add(row, stored if row[1] & low else stored[::-1])
    return len(table) - before


def _t_rref(planes, ncols):
    """GF(3) twin of ``_b_rref``: the echelon table, then back-substitution in place."""
    table, done = {}, 0
    _t_echelon(table, planes, ncols)
    for low in sorted(table, reverse=True):
        row = table[low]
        hits = (row[0] | row[1]) & done
        while hits:
            bit = hits & -hits
            row = _t_add(row, table[bit] if row[1] & bit else table[bit][::-1])
            hits ^= bit
        table[low] = row
        done |= low
    order = sorted(table)
    return [low.bit_length() - 1 for low in order], [table[low] for low in order]


# ---------------------------------------------------------------------------
# Table kernels: a matrix is its flat entry tuple, a row the bytes of its encodings
# (q <= 256). A row operation x + s y is one translate of y by the table of s, then
# one sum of rows: in characteristic 2 the XOR of the rows read as ints; for other
# q <= 16 one translate of x q + y through the addition table, as no byte x_i q + y_i
# exceeds q^2 - 1 <= 255; else byte by byte.

def _g_pack(entries, rows, cols):
    """Byte rows of a row-major sequence of encodings."""
    raw = bytes(entries)
    return [raw[i * cols:(i + 1) * cols] for i in range(rows)]


@cache
def _bytes_of(spec: FieldSpec):
    """Per scalar s the translate table of y -> s y, and the sum of byte rows of length n."""
    q, table = spec.q, spec._add
    scale = tuple(bytes(spec._mul[s * q:(s + 1) * q]).ljust(256, b"\0") for s in range(q))
    if spec.p == 2:  # encodings are coefficient bits, so a sum is an XOR
        def total(rows, n):
            acc = 0
            for r in rows:
                acc ^= int.from_bytes(r, "big")
            return acc.to_bytes(n, "big")

        return scale, total
    if q <= 16:
        padded = bytes(table).ljust(256, b"\0")

        def add(x, y):
            xy = int.from_bytes(x, "big") * q + int.from_bytes(y, "big")
            return xy.to_bytes(len(x), "big").translate(padded)
    else:
        def add(x, y):
            return bytes([table[a * q + b] for a, b in zip(x, y)])
    return scale, lambda rows, n: reduce(add, rows) if rows else bytes(n)


def _g_sum(a, b, spec, s=1):
    """The flat entries of a + s b, for flat entries a and b."""
    scale, total = _bytes_of(spec)
    return tuple(total([bytes(a), bytes(b).translate(scale[s])], len(a)))


def _g_mul(arows, brows, spec, out_cols):
    """The product's flat entries: row i sums the rows of b scaled by row i of a."""
    scale, total = _bytes_of(spec)
    return tuple(b"".join([total([brows[k].translate(scale[s]) for k, s in enumerate(arow) if s],
                                 out_cols) for arow in arows]))


def _g_transpose(rows, cols):
    """The transpose's flat entries: column j of the joined rows is every cols-th byte from j."""
    flat = b"".join(rows)
    return tuple(b"".join([flat[j::cols] for j in range(cols)]))


def _g_echelon(table, rows, ncols, spec):
    """Table twin of ``_b_echelon`` on byte rows: the table maps a pivot column to its
    monic row, and each step clears the first nonzero byte that a stored row leads with."""
    (scale, total), before = _bytes_of(spec), len(table)
    for vec in rows:
        n = len(vec)
        while (c := n - len(vec.lstrip(b"\0"))) < n:
            row = table.get(c)
            if row is None:
                if c < ncols:
                    table[c] = vec if vec[c] == 1 else vec.translate(scale[spec._inv[vec[c]]])
                break
            vec = total([vec, row.translate(scale[spec._neg[vec[c]]])], n)
    return len(table) - before


def _g_rref(rowlists, ncols, spec):
    """Table twin of ``_b_rref`` on byte (or list) rows: the echelon table, then
    back-substitution, one sum per row."""
    table = {}
    _g_echelon(table, map(bytes, rowlists), ncols, spec)
    (scale, total), neg = _bytes_of(spec), spec._neg
    pivots = sorted(table)
    for i in range(len(pivots) - 2, -1, -1):
        row = table[pivots[i]]
        # rows with a later pivot are already free of every other pivot column,
        # so every multiple to subtract is read off the row as it stands
        terms = [table[d].translate(scale[neg[row[d]]]) for d in pivots[i + 1:] if row[d]]
        if terms:
            table[pivots[i]] = total([row, *terms], len(row))
    return pivots, [table[c] for c in pivots]


_PLANES = matrix._BITS._replace(
    pack=_t_pack, unpack=_t_unpack,
    zero=lambda r, c: ((0, 0),) * r,
    identity=lambda n: [(1 << i, 0) for i in range(n)],
    add=lambda a, b, spec: tuple(map(_t_add, a, b)),
    sub=lambda a, b, spec: tuple([_t_add(x, y[::-1]) for x, y in zip(a, b)]),
    # the scalars are 0, 1 and 2 = -1, which swaps the planes
    scale=lambda a, s, spec: a if s == 1 else tuple([r[::-1] if s else (0, 0) for r in a]),
    mul=lambda a, b, spec, c: _t_mul(a, b),
    transpose=_t_transpose,
    echelon=lambda table, rows, ncols, spec: _t_echelon(table, rows, ncols),
    rref=lambda rows, ncols, spec: _t_rref(rows, ncols),
    side=lambda a, b, n: [(p | s << n, m | t << n) for (p, m), (s, t) in zip(a, b)],
    cut=lambda rows, n: tuple([(p >> n, m >> n) for p, m in rows]),
    unit=lambda r: -1 if r[1] else matrix._BITS.unit(r[0]),
)

_TABLE = matrix._Family(
    store=matrix.Matrix.entries.fget, rows=lambda m: _g_pack(m.entries, m.rows, m.cols),
    made=matrix.Matrix._trusted,
    pack=_g_pack,
    unpack=lambda rows, c: tuple(b"".join(rows)),
    zero=lambda r, c: (0,) * (r * c),
    identity=lambda n: [bytes(i) + b"\1" + bytes(n - 1 - i) for i in range(n)],
    add=_g_sum,
    sub=lambda a, b, spec: _g_sum(a, b, spec, spec._neg[1]),
    scale=lambda a, s, spec: tuple(bytes(a).translate(_bytes_of(spec)[0][s])),
    mul=_g_mul,
    transpose=_g_transpose,
    echelon=_g_echelon,
    rref=lambda rows, ncols, spec: _g_rref(rows, ncols, spec),
    side=lambda a, b, n: [r + s for r, s in zip(a, b)],
    cut=lambda rows, n: tuple(b"".join([row[n:] for row in rows])),
    unit=lambda r: r.find(1) if r.count(0) == len(r) - 1 else -1,
)
