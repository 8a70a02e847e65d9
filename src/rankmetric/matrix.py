"""Exact dense linear algebra over GF(q).

Each field runs in one row family, looked up from q by ``_family`` at
every call. GF(2) rows are ints, bit j set when entry j is 1. GF(3) rows
are int pairs (plus, minus) with disjoint bits, set where the entry is 1
and where it is 2 (Boothby & Bradshaw, arXiv:0901.1413), so a row sum is
a few bitwise operations and negation swaps the two. Larger fields, and
every field while tests set ``_FORCE_GENERIC``, run the table family: flat
tuples of canonical encodings, worked through the field's tables.

A family is one entry of the ``_Family`` table: how a matrix keeps it,
and whole-matrix pack, unpack, zero, identity, sum, difference, negation,
scaling, product, mat-vec, echelon insert, rref, and the augment, cut and
flip steps of ``invert`` and ``kernel_basis``. So each ``Matrix``
operation has one code path, and a new family is one more entry. No
matrix stores its family, since a matrix built before a test sets
``_FORCE_GENERIC`` must run in the table family after it. A matrix holds
its rows (GF(2), GF(3)), its flat entries or both, and derives one from
the other at most once. ``_b_pack``, ``_b_unpack``, ``_b_rref`` and
``_g_rref`` stay module-level and the table calls them by name, so that
the benchmark's layer tracing can wrap them.

Elimination has one skeleton in every family: rows are reduced into an
echelon table keyed by pivot column, rank is the size of the table, and
one back-substitution pass turns it into reduced echelon form. Other
modules reach the row formats only through this module's functions.

Distances are exact: ``rank_distance`` returns a ``RankDistance`` holding
the raw (rank, ambient) pair, compared by cross-multiplication. Subspaces
are kept in reduced echelon form, the unique canonical representative of
their span, so subspace equality is a plain tuple comparison.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from fractions import Fraction
from functools import cache, reduce, total_ordering
from itertools import chain
from operator import xor
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolated,
    NotDivisor,
    RelationsNotSatisfied,
    Singular,
    SpecMismatch,
)
from .gf import FieldElement, FieldSpec, field_for_order

# Tests flip this to force the table family for differential checks.
_FORCE_GENERIC = False


def _family(spec: FieldSpec, native: bool = False) -> _Family:
    """The row family that runs this field's kernels; with ``native``, the one its
    matrices keep rows in, which ``_FORCE_GENERIC`` does not change."""
    if _FORCE_GENERIC and not native:
        return _TABLE
    return _BITS if spec.q == 2 else _PLANES if spec.q == 3 else _TABLE


# ---------------------------------------------------------------------------
# GF(2) bit-packed kernels: a row is an int, bit j = column j.

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_CODES = bytes(range(256))  # every encoding of every field, q <= 256


def _b_pack(entries, rows, cols):
    """Row ints of a row-major sequence of 0/1 encodings."""
    if not cols:
        return [0] * rows
    digits = bytes(entries).translate(_TO_DIGITS)
    return [int(digits[i * cols:(i + 1) * cols][::-1], 2) for i in range(rows)]


def _b_unpack(rowints, cols):
    """Row-major 0/1 encodings of row ints, as one flat tuple."""
    if not cols:
        return ()
    fmt = f"0{cols}b"
    return tuple(b"".join(format(r, fmt)[::-1].encode() for r in rowints)
                 .translate(_TO_BITS))


def _b_mul(arows, brows):
    out = []
    for a in arows:
        acc = 0
        while a:
            lsb = a & -a
            acc ^= brows[lsb.bit_length() - 1]
            a ^= lsb
        out.append(acc)
    return tuple(out)


def _b_insert(table, r, limit):
    """Reduce r against an echelon table; keep it if a pivot below limit remains.

    The table maps the lowest set bit of each stored row to that row, so
    each step clears the lowest bit of r that a stored row leads with.
    Returns whether r was independent of the stored rows and stored.
    """
    while r:
        low = r & -r
        row = table.get(low)
        if row is None:
            if low < limit:
                table[low] = r
                return True
            return False
        r ^= row
    return False


def _b_echelon(rowints, ncols, insert=_b_insert):
    """Echelon table of the rows, pivots in the first ncols columns; GF(3) passes ``_t_insert``."""
    table = {}
    limit = 1 << ncols
    for r in rowints:
        insert(table, r, limit)
    return table


def _b_rref(rowints, ncols):
    """Pivot columns and reduced echelon rows (pivots in the first ncols columns).

    The echelon table followed by one back-substitution pass, highest
    pivot first; rows without a pivot among the first ncols columns drop out.
    """
    table = _b_echelon(rowints, ncols)
    reduced = {}
    done = 0
    for low in sorted(table, reverse=True):
        row = table[low]
        # stored rows above this pivot are already free of every other pivot
        hits = row & done
        while hits:
            bit = hits & -hits
            row ^= reduced[bit]
            hits ^= bit
        reduced[low] = row
        done |= low
    order = sorted(reduced)
    return [low.bit_length() - 1 for low in order], [reduced[low] for low in order]


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
                                  .translate(_TO_BITS), "big") for k in (0, 1))
    # one byte per entry, 0 or 1 in each plane, so plus + 2 * minus never carries
    return tuple((plus + 2 * minus).to_bytes(len(planes) * cols, "big"))


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


def _t_insert(table, row, limit):
    """GF(3) twin of ``_b_insert``; a row leading with 2 is stored negated (planes swapped)."""
    while x := row[0] | row[1]:
        low = x & -x
        stored = table.get(low)
        if stored is None:
            if low < limit:
                table[low] = row if row[0] & low else row[::-1]
                return True
            return False
        row = _t_add(row, stored if row[1] & low else stored[::-1])
    return False


def _t_rref(planes, ncols):
    """GF(3) twin of ``_b_rref``: the echelon table, then back-substitution."""
    table = _b_echelon(planes, ncols, _t_insert)
    reduced = {}
    done = 0
    for low in sorted(table, reverse=True):
        row = table[low]
        hits = (row[0] | row[1]) & done
        while hits:
            bit = hits & -hits
            row = _t_add(row, reduced[bit] if row[1] & bit else reduced[bit][::-1])
            hits ^= bit
        reduced[low] = row
        done |= low
    order = sorted(reduced)
    return [low.bit_length() - 1 for low in order], [reduced[low] for low in order]


# ---------------------------------------------------------------------------
# Table kernels: a matrix is its flat entry tuple, a row a list of encodings.

def _g_rows(entries, rows, cols):
    return [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]


def _g_add(a, b, spec):
    q, add = spec.q, spec._add
    return tuple([add[x * q + y] for x, y in zip(a, b)])


def _g_sub(a, b, spec):
    q, add, neg = spec.q, spec._add, spec._neg
    return tuple([add[x * q + neg[y]] for x, y in zip(a, b)])


def _g_mul(arows, brows, spec, out_cols):
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


def _g_insert(table, vec, limit, spec):
    """Table twin of ``_b_insert``: the table maps a pivot column to its monic row."""
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


def _g_rref(rowlists, ncols, spec):
    """Table twin of ``_b_rref``: the echelon table, then back-substitution."""
    table = {}
    for r in rowlists:
        _g_insert(table, r, ncols, spec)
    q, add, mul, neg = spec.q, spec._add, spec._mul, spec._neg
    pivots = sorted(table)
    for i in range(len(pivots) - 1, -1, -1):
        row = table[pivots[i]]
        # rows with a later pivot are already free of every other pivot column
        for d in pivots[i + 1:]:
            if row[d]:
                f = neg[row[d]]
                fm = mul[f * q:(f + 1) * q]
                row = [add[x * q + fm[y]] for x, y in zip(row, table[d])]
        table[pivots[i]] = row
    return pivots, [table[c] for c in pivots]


# ---------------------------------------------------------------------------


@total_ordering
class RankDistance:
    """Exact normalized-rank distance: numerator/denominator, never floats.

    Stored raw (rank over ambient dimension); comparisons cross-multiply,
    so distances over different ambients compare correctly.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        if denominator <= 0 or not 0 <= numerator <= denominator:
            raise FormatError(f"bad rank distance {numerator}/{denominator}")
        self.numerator = numerator
        self.denominator = denominator

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @staticmethod
    def _other(value) -> Fraction:
        if isinstance(value, RankDistance):
            return value.as_fraction()
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        return NotImplemented

    def __eq__(self, other):
        o = self._other(other)
        return NotImplemented if o is NotImplemented else self.as_fraction() == o

    def __lt__(self, other):
        o = self._other(other)
        return NotImplemented if o is NotImplemented else self.as_fraction() < o

    def __hash__(self):
        return hash(self.as_fraction())

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"RankDistance({self.numerator}, {self.denominator})"


class Matrix:
    """A dense exact matrix over a fixed ``FieldSpec``. Immutable.

    ``_rw`` holds the rows (GF(2) ints, GF(3) plane pairs), ``_ent`` the flat
    entry tuple; at least one is set, and each is filled in from the other on demand.
    """

    __slots__ = ("spec", "rows", "cols", "_ent", "_rw")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimensions")
        vals = []
        for e in entries:
            if isinstance(e, FieldElement):
                if e.spec != spec:
                    raise SpecMismatch("entry from a different field")
                vals.append(e.val)
            else:
                vals.append(int(e) % spec.q)
        if len(vals) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(vals)}")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self._ent = tuple(vals)
        self._rw = None

    @classmethod
    def _trusted(cls, spec: FieldSpec, rows: int, cols: int,
                 entries=None, packed=None) -> "Matrix":
        """Kernel output: canonical entries or rows, taken unchecked."""
        m = object.__new__(cls)
        m.spec, m.rows, m.cols, m._ent, m._rw = spec, rows, cols, entries, packed
        return m

    @property
    def entries(self) -> tuple[int, ...]:
        """The row-major canonical encodings as one flat tuple, kept and shared, not copied."""
        if self._ent is None:
            self._ent = _family(self.spec, native=True).unpack(self._rw, self.cols)
        return self._ent

    _e = entries

    def _packed(self) -> tuple[int, ...]:
        if self._rw is None:
            self._rw = tuple(_family(self.spec, native=True).pack(self._ent, self.rows, self.cols))
        return self._rw

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        f = _family(spec)
        return f.made(spec, rows, cols, f.zero(rows, cols))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        f = _family(spec)
        return f.made(spec, n, n, f.identity(n))

    @classmethod
    def unit(cls, spec: FieldSpec, n: int, i: int, j: int) -> "Matrix":
        """The matrix unit e_{ij} (1-based indices)."""
        e = [0] * (n * n)
        e[(i - 1) * n + (j - 1)] = 1
        return cls._trusted(spec, n, n, tuple(e))

    @classmethod
    def scalar(cls, spec: FieldSpec, n: int, value) -> "Matrix":
        return cls.identity(spec, n).scale(value)

    @classmethod
    def from_columns(cls, spec: FieldSpec, columns, nrows: int) -> "Matrix":
        cols = [list(c) for c in columns]
        if any(len(col) != nrows for col in cols):
            raise DimensionMismatch("column of wrong height")
        return cls(spec, nrows, len(cols), [col[i] for i in range(nrows) for col in cols])

    @classmethod
    def _trusted_columns(cls, spec: FieldSpec, columns, nrows: int) -> "Matrix":
        """``from_columns`` for computed columns of canonical encodings, taken unchecked."""
        return cls._trusted(spec, nrows, len(columns), tuple(chain.from_iterable(zip(*columns))))

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.spec, self._e[i * self.cols + j])

    def row_lists(self):
        return _g_rows(self._e, self.rows, self.cols)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        f = _family(self.spec)
        return f.store(self) == f.zero(self.rows, self.cols)

    # -- arithmetic -----------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.spec != other.spec:
            raise SpecMismatch("matrices over different fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _like(self, f: _Family, store) -> Matrix:
        """A kernel output of family f with this matrix's shape."""
        return f.made(self.spec, self.rows, self.cols, store)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = _family(self.spec)
        return self._like(f, f.add(f.store(self), f.store(other), self.spec))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = _family(self.spec)
        return self._like(f, f.sub(f.store(self), f.store(other), self.spec))

    def __neg__(self) -> "Matrix":
        f = _family(self.spec)
        return self._like(f, f.neg(f.store(self), self.spec))

    def scale(self, value) -> "Matrix":
        f = _family(self.spec)
        return self._like(f, f.scale(f.store(self), self.spec.element(value).val, self.spec))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.spec != other.spec:
            raise SpecMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = _family(self.spec)
        return f.made(self.spec, self.rows, other.cols,
                      f.mul(f.rows(self), f.rows(other), self.spec, other.cols))

    def __pow__(self, e: int) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("powers need a square matrix")
        if e < 0:
            return invert(self) ** (-e)
        out = Matrix.identity(self.spec, self.rows)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def apply_to_vector(self, vec) -> tuple[int, ...]:
        """Matrix-vector product on raw int encodings, reduced mod q."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector of wrong length")
        f = _family(self.spec)
        return f.apply(f.rows(self), _pack_outside(f, vec, 1, self.cols, self.spec)[0], self.spec)

    def _key(self):
        # compared and hashed in the native form, whichever form the matrix was built in
        return _family(self.spec, native=True).store(self)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.spec == other.spec
            and self.rows == other.rows
            and self.cols == other.cols
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash((self.spec, self.rows, self.cols, self._key()))

    def __repr__(self):
        return f"Matrix({self.spec!r}, {self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join(" ".join(map(str, row)) for row in self.row_lists())


# ---------------------------------------------------------------------------
# The row-family table. A family's store is what a Matrix of it keeps: the tuple
# of rows (``_rw``) for GF(2) and GF(3), the flat entries (``_ent``) for the table
# family. Its rows are what products and elimination read: the store, or row lists.


class _Family(NamedTuple):
    store: Callable     # matrix -> store
    rows: Callable      # matrix -> rows
    made: Callable      # spec, rows, cols, store -> matrix
    pack: Callable      # flat encodings, rows, cols -> rows
    unpack: Callable    # rows, cols -> flat encodings
    zero: Callable      # rows, cols -> store
    identity: Callable  # n -> store
    add: Callable       # store, store, spec -> store; so is sub
    sub: Callable
    neg: Callable       # store, spec -> store
    scale: Callable     # store, scalar encoding, spec -> store
    mul: Callable       # rows, rows, spec, product cols -> store
    apply: Callable     # rows, packed vector, spec -> tuple of encodings
    insert: Callable    # echelon table, row, ncols, spec -> whether it was stored
    rref: Callable      # rows, ncols, spec -> pivot columns, reduced rows
    augment: Callable   # rows, n -> rows with the identity appended from column n
    cut: Callable       # augmented rows, n -> store of the columns from n on
    flip: Callable      # rows, n -> rows with their n columns reversed


_BITS = _Family(
    store=Matrix._packed, rows=Matrix._packed,
    made=lambda spec, r, c, store: Matrix._trusted(spec, r, c, packed=store),
    pack=lambda entries, r, c: _b_pack(entries, r, c),
    unpack=lambda rows, c: _b_unpack(rows, c),
    zero=lambda r, c: (0,) * r,
    identity=lambda n: tuple([1 << i for i in range(n)]),
    add=lambda a, b, spec: tuple(map(xor, a, b)),
    sub=lambda a, b, spec: tuple(map(xor, a, b)),
    neg=lambda a, spec: a,
    scale=lambda a, s, spec: a if s else (0,) * len(a),
    mul=lambda a, b, spec, c: _b_mul(a, b),
    apply=lambda rows, v, spec: tuple([(r & v).bit_count() & 1 for r in rows]),
    insert=lambda table, row, ncols, spec: _b_insert(table, row, 1 << ncols),
    rref=lambda rows, ncols, spec: _b_rref(rows, ncols),
    augment=lambda rows, n: [r | 1 << (n + i) for i, r in enumerate(rows)],
    cut=lambda rows, n: tuple([r >> n for r in rows]),
    # an int read backwards reverses the columns
    flip=lambda rows, n: [int(format(r, f"0{n}b")[::-1], 2) for r in rows],
)

_PLANES = _BITS._replace(
    pack=_t_pack, unpack=_t_unpack,
    zero=lambda r, c: ((0, 0),) * r,
    identity=lambda n: tuple([(1 << i, 0) for i in range(n)]),
    add=lambda a, b, spec: tuple(map(_t_add, a, b)),
    sub=lambda a, b, spec: tuple([_t_add(x, y[::-1]) for x, y in zip(a, b)]),
    neg=lambda a, spec: tuple([r[::-1] for r in a]),
    # the scalars are 0, 1 and 2 = -1
    scale=lambda a, s, spec: (a if s == 1 else _PLANES.neg(a, spec)) if s else ((0, 0),) * len(a),
    mul=lambda a, b, spec, c: _t_mul(a, b),
    # p and m are disjoint, so the matches of each sign are one popcount
    apply=lambda rows, v, spec: tuple([(((p & vp) | (m & vm)).bit_count()
                                        - ((p & vm) | (m & vp)).bit_count()) % 3
                                       for vp, vm in [v] for p, m in rows]),
    insert=lambda table, row, ncols, spec: _t_insert(table, row, 1 << ncols),
    rref=lambda rows, ncols, spec: _t_rref(rows, ncols),
    augment=lambda rows, n: [(p | 1 << (n + i), m) for i, (p, m) in enumerate(rows)],
    cut=lambda rows, n: tuple([(p >> n, m >> n) for p, m in rows]),
    # each plane flipped as a GF(2) row, then paired up again
    flip=lambda rows, n: list(zip(*[iter(_BITS.flip(chain.from_iterable(rows), n))] * 2)),
)

_TABLE = _Family(
    store=Matrix.entries.fget, rows=Matrix.row_lists, made=Matrix._trusted,
    pack=_g_rows,
    unpack=lambda rows, c: tuple(chain.from_iterable(rows)),
    zero=lambda r, c: (0,) * (r * c),
    identity=lambda n: tuple([int(i == j) for i in range(n) for j in range(n)]),
    add=_g_add, sub=_g_sub,
    neg=lambda a, spec: tuple(map(spec._neg.__getitem__, a)),
    scale=lambda a, s, spec: tuple(map(spec._mul[s * spec.q:(s + 1) * spec.q].__getitem__, a)),
    mul=_g_mul,
    # the product with v as a column
    apply=lambda rows, v, spec: _g_mul(rows, [[x] for x in v], spec, 1),
    insert=_g_insert,
    rref=lambda rows, ncols, spec: _g_rref(rows, ncols, spec),
    augment=lambda rows, n: [row + [0] * i + [1] + [0] * (len(rows) - 1 - i)
                             for i, row in enumerate(rows)],
    cut=lambda rows, n: tuple([v for row in rows for v in row[n:]]),
    flip=lambda rows, n: [row[::-1] for row in rows],
)


def _pack_outside(f: _Family, entries, rows, cols, spec: FieldSpec):
    """Rows in f of outside row-major encodings, reduced mod q as the public constructor
    reduces ints; canonical input passes one bytes conversion and one translate test."""
    try:
        raw = bytes(entries)
    except ValueError:  # an encoding below 0 or above 255
        raw = None
    if raw is None or raw.translate(None, _CODES[:spec.q]):
        raw = bytes([int(v) % spec.q for v in entries])
    return f.pack(raw, rows, cols)


def _reduced(f: _Family, rows, ncols, spec: FieldSpec):
    """Pivots and reduced echelon rows, as tuples of encodings, of rows ncols long in f."""
    pivots, rows = f.rref(rows, ncols, spec)
    flat = f.unpack(rows, ncols)
    return pivots, [flat[i * ncols:(i + 1) * ncols] for i in range(len(rows))]


def _rref_rows(rowlists, ncols, spec):
    """``_reduced`` of outside vectors ncols long."""
    f = _family(spec)
    flat = list(chain.from_iterable(rowlists))
    return _reduced(f, _pack_outside(f, flat, len(rowlists), ncols, spec), ncols, spec)


def echelon_insert(table, vec, spec: FieldSpec) -> bool:
    """Store a vector of encodings in an echelon table (an empty dict at
    first, filled only by this function) if it is independent of it."""
    f = _family(spec)
    return f.insert(table, _pack_outside(f, vec, 1, len(vec), spec)[0], len(vec), spec)


class Subspace:
    """A subspace of F_q^n held as its canonical reduced echelon basis.

    The basis vectors have strictly increasing pivot positions and each
    pivot column is cleared elsewhere, so two subspaces are equal exactly
    when their stored tuples are equal.
    """

    __slots__ = ("spec", "ambient_dim", "basis")

    def __init__(self, spec: FieldSpec, ambient_dim: int, vectors):
        self.spec = spec
        self.ambient_dim = ambient_dim
        vecs = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise DimensionMismatch("vector of wrong length")
        self.basis = tuple(_rref_rows(vecs, ambient_dim, spec)[1])

    @classmethod
    def _canonical(cls, spec: FieldSpec, ambient_dim: int, basis) -> "Subspace":
        """A subspace whose basis is already in reduced echelon form."""
        s = object.__new__(cls)
        s.spec, s.ambient_dim, s.basis = spec, ambient_dim, tuple(basis)
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        probe = Subspace(self.spec, self.ambient_dim, list(self.basis) + [list(vec)])
        return probe.dim == self.dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.spec == other.spec
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.spec, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# rank / distance


def rank(m: Matrix) -> int:
    """Exact rank: the size of the echelon table of the rows."""
    f, table = _family(m.spec), {}
    for row in f.rows(m):
        f.insert(table, row, m.cols, m.spec)
    return len(table)


def rank_distance(x: Matrix, y: Matrix) -> RankDistance:
    """Normalized rank distance rank(x - y) / n on square matrices."""
    if x.spec != y.spec:
        raise SpecMismatch("matrices over different fields")
    if not (x.is_square() and y.is_square() and x.rows == y.rows):
        raise DimensionMismatch("rank distance needs equal square matrices")
    return RankDistance(rank(x - y), x.rows)


# ---------------------------------------------------------------------------
# structure builders


def kron(x: Matrix, y: Matrix) -> Matrix:
    """Kronecker product; rank is multiplicative."""
    if x.spec != y.spec:
        raise SpecMismatch("matrices over different fields")
    q, mul, yrows = x.spec.q, x.spec._mul, y.row_lists()
    # row (i1, i2) holds x[i1, j1] * y[i2, j2] at column (j1, j2)
    out = [mul[a * q + b] for xrow in x.row_lists() for yrow in yrows for a in xrow for b in yrow]
    return Matrix._trusted(x.spec, x.rows * y.rows, x.cols * y.cols, tuple(out))


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
    n = sum(b.rows for b in blocks) + pad_zeros
    out, off = [0] * (n * n), 0
    for b in blocks:
        for i, row in enumerate(b.row_lists(), off):
            out[i * n + off:i * n + off + b.cols] = row
        off += b.rows
    return Matrix._trusted(spec, n, n, tuple(out))


def kassabov_generators(n: int, spec: FieldSpec) -> tuple[Matrix, Matrix]:
    """The lower/upper shift generator pair of the n x n matrix algebra.

    They satisfy a^n = b^n = 0 and ba + a^(n-1) b^(n-1) = 1 exactly
    (the classical presentation coefficient p+1 reduces to 1 mod p).
    """
    if n < 1:
        raise DimensionMismatch("n must be positive")
    a = [0] * (n * n)
    b = [0] * (n * n)
    for i in range(n - 1):
        a[(i + 1) * n + i] = 1
        b[i * n + (i + 1)] = 1
    return Matrix._trusted(spec, n, n, tuple(a)), Matrix._trusted(spec, n, n, tuple(b))


def matrix_units(a: Matrix, b: Matrix, n: int) -> list[list[Matrix]]:
    """Full system of matrix units generated by a valid shift pair.

    E[i][j] = B_i C A_j (0-based) with C = a^(n-1) b^(n-1),
    A_j = a^(n-1-j) and B_i = b^(n-1-i). Since
    E[i][j] E[k][l] = B_i (C A_j B_k C) A_l and B_(n-1) = A_(n-1) = 1, every
    product identity E[i][j] E[k][l] = [j = k] E[i][l] holds exactly when
    the n^2 identities C A_j B_k C = [j = k] C do. Raises
    ``RelationsNotSatisfied`` unless those hold and the units reassemble
    the inputs, which certifies that the pair generates an exact
    (possibly padded) copy of the n x n algebra.
    """
    if a.spec != b.spec:
        raise SpecMismatch("generator images over different fields")
    if not (a.is_square() and b.is_square() and a.rows == b.rows):
        raise DimensionMismatch("generator images must be square of equal size")
    amb = a.rows
    if not 1 <= n <= amb:
        raise DimensionMismatch(f"M_{n} does not fit in M_{amb}")
    apow = [Matrix.identity(a.spec, amb)]
    bpow = [Matrix.identity(a.spec, amb)]
    for _ in range(n):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    if not apow[n].is_zero() or not bpow[n].is_zero():
        raise RelationsNotSatisfied("images are not n-step nilpotent")
    corner = apow[n - 1] * bpow[n - 1]
    left = [corner * apow[n - 1 - j] for j in range(n)]    # C A_j
    right = [bpow[n - 1 - k] * corner for k in range(n)]   # B_k C
    zero = Matrix.zero(a.spec, amb)
    for j in range(n):
        for k in range(n):
            if left[j] * right[k] != (corner if j == k else zero):
                raise RelationsNotSatisfied("matrix-unit product identities fail")
    units = [[bpow[n - 1 - i] * left[j] for j in range(n)] for i in range(n)]
    rebuilt_a = zero
    rebuilt_b = zero
    for i in range(n - 1):
        rebuilt_a = rebuilt_a + units[i + 1][i]
        rebuilt_b = rebuilt_b + units[i][i + 1]
    if rebuilt_a != a or rebuilt_b != b:
        raise RelationsNotSatisfied("units do not reassemble the generators")
    return units


# ---------------------------------------------------------------------------
# subspace calculus


def _null_vectors(pivots, rows, n, neg):
    """Per free column f of reduced echelon rows, f descending: 1 at f, -row[f] at each pivot."""
    piv_set = set(pivots)
    out = []
    for f in range(n - 1, -1, -1):
        if f not in piv_set:
            v = [0] * n
            v[f] = 1
            for row, pc in zip(rows, pivots):
                v[pc] = neg[row[f]]
            out.append(v)
    return out


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel; dim = cols - rank. One elimination, of the
    column-reversed matrix: there each free column's vector ends in a 1 and is 0 at the
    other free columns, so read backwards they are already the reduced echelon basis."""
    n, spec, f = m.cols, m.spec, _family(m.spec)
    pivots, rows = _reduced(f, f.flip(f.rows(m), n), n, spec)
    basis = [tuple(v[::-1]) for v in _null_vectors(pivots, rows, n, spec._neg)]
    return Subspace._canonical(spec, n, basis)


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column span."""
    return Subspace(m.spec, m.rows, [list(m.column(j)) for j in range(m.cols)])


def annihilator(s: Subspace) -> Matrix:
    """Constraint rows whose kernel is exactly s, read off its reduced echelon basis
    (a basis vector's first nonzero entry, its pivot, is 1)."""
    n = s.ambient_dim
    vecs = _null_vectors([v.index(1) for v in s.basis], s.basis, n, s.spec._neg)
    return Matrix._trusted(s.spec, len(vecs), n, tuple(chain.from_iterable(vecs)))


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked constraint rows."""
    if s1.spec != s2.spec:
        raise SpecMismatch("subspaces over different fields")
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient spaces")
    c1 = annihilator(s1)
    c2 = annihilator(s2)
    stacked = Matrix._trusted(s1.spec, c1.rows + c2.rows, s1.ambient_dim,
                              c1._e + c2._e)
    return kernel_basis(stacked)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Span of the union: concatenate bases and re-echelon."""
    if s1.spec != s2.spec:
        raise SpecMismatch("subspaces over different fields")
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient spaces")
    return Subspace(s1.spec, s1.ambient_dim, list(s1.basis) + list(s2.basis))


def apply(m: Matrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under a linear map."""
    if m.spec != s.spec:
        raise SpecMismatch("matrix and subspace over different fields")
    if m.cols != s.ambient_dim:
        raise DimensionMismatch("map domain does not match ambient space")
    return Subspace(m.spec, m.rows, [m.apply_to_vector(v) for v in s.basis])


def span_fingerprint(mats, spec: FieldSpec, ambient: int) -> tuple:
    """Canonical echelon basis of the linear span of flattened matrices."""
    return tuple(_rref_rows([m._e for m in mats], ambient * ambient, spec)[1])


# ---------------------------------------------------------------------------
# the copy census: units in encoding order, conjugated copies as span keys


def base_copy_basis(a: int, b: int, spec: FieldSpec) -> list[Matrix]:
    """Basis of the standard embedded copy of M_a in M_b: the a x a units tensored up."""
    if a < 1 or b < 1 or b % a != 0:
        raise NotDivisor(f"{a} does not divide {b}")
    eye = Matrix.identity(spec, b // a)
    return [kron(Matrix.unit(spec, a, i, j), eye)
            for i in range(1, a + 1) for j in range(1, a + 1)]


@cache
def _b_rank_table(n):
    # rows join low row first; the span so far is a 2^n-bit set (bit v for vector v),
    # which a row r outside it doubles by adding v ^ r for each v, so its size gives the rank
    spans, grown = [1], {}
    for _ in range(n):
        for sp in set(spans) - grown.keys():
            grown[sp] = [sp | sum(1 << (v ^ r) for v in range(1 << n) if sp >> v & 1)
                         for r in range(1 << n)]
        spans = [grown[sp][r] for r in range(1 << n) for sp in spans]
    return tuple(sp.bit_count().bit_length() - 1 for sp in spans)


def rank_table(spec: FieldSpec, n: int):
    """Ranks of n x n matrices by code (bit i*n + j: entry i, j) if packed GF(2), n^2 <= 20."""
    return _b_rank_table(n) if _family(spec) is _BITS and n * n <= 20 else None


def _rank_bytes(spec: FieldSpec, n: int) -> bytearray:
    """A byte per n x n code: its rank by ``rank_table``, else n until ``_code_walk`` ranks it."""
    return bytearray(rank_table(spec, n) or bytes([n]) * spec.q ** (n * n))


def _code_walk(spec: FieldSpec, n: int, todo: bytearray):
    """(code, unit) per code whose byte in ``todo`` is n when reached, in encoding order (its
    base-q digits, least significant first, are the row-major entries); a code that
    ``rank_table`` did not rank is ranked here, and cleared if singular."""
    q, ranked = spec.q, rank_table(spec, n) is not None
    mask, shifts, powers = (1 << n) - 1, range(0, n * n, n), [q ** k for k in range(n * n)]
    pos = todo.find(n)
    while pos >= 0:
        if ranked:  # GF(2): the rows are read off the code
            yield pos, Matrix._trusted(spec, n, n, packed=tuple(pos >> s & mask for s in shifts))
        elif rank(m := Matrix._trusted(spec, n, n, tuple([pos // p % q for p in powers]))) == n:
            yield pos, m
        else:
            todo[pos] = 0
        pos = todo.find(n, pos + 1)


def code_units(spec: FieldSpec, n: int):
    """Every invertible n x n matrix in integer-encoding order (``_code_walk``). Unguarded."""
    return (m for _, m in _code_walk(spec, n, _rank_bytes(spec, n)))


def span_codes(fp, ambient: int) -> list[int]:
    """Each element of a GF(2) span of flattened matrices as a code, by coefficient code."""
    out = [0]
    for row in _b_pack([e for vec in fp for e in vec], len(fp), ambient * ambient):
        out += [x ^ row for x in out]
    return out


def conjugated_span_keys(units, s: int):
    """(g, key) per unit g (all b x b over one field), the key hashable and canonical
    for the span of g (M_a (x) I_s) g^-1, a = b / s; ``copy_fingerprint`` reads it.

    Over GF(2) with b <= 8 no Matrix is built: g (E_ij (x) I_s) g^-1 = G_i H_j, for
    G_i the i-th block of s columns of g and H_j the j-th block of s rows of g^-1,
    and G_i H_j maps each row byte of g through a 2^s-entry XOR table of H_j's
    rows (``bytes.translate``) into one flat int, row r at bit 8r; the key is the
    reduced echelon rows of the a^2 ints. Other fields key by ``span_fingerprint``.
    """
    cuts = base = None
    for g in units:
        b = g.rows
        if _family(g.spec) is _BITS and b <= 8:
            if cuts is None:  # per block of columns, byte -> its s bits in that block
                cuts = [bytes(v >> i & (1 << s) - 1 for v in range(256)) for i in range(0, b, s)]
            rows = g._packed()
            pivots, inv = _b_rref([r | 1 << (b + i) for i, r in enumerate(rows)], b)
            if len(pivots) != b:
                raise Singular("matrix is singular")
            blocks = [bytes(rows).translate(cut) for cut in cuts]
            flats = []
            for j in range(0, b, s):
                table = [0]
                for h in inv[j:j + s]:
                    table += [x ^ h >> b for x in table]
                table = bytes(table).ljust(256, b"\0")
                flats += [int.from_bytes(block.translate(table), "little") for block in blocks]
            yield g, tuple(_b_rref(flats, 8 * b)[1])
        else:
            if base is None:
                base = base_copy_basis(b // s, b, g.spec)
            gi = invert(g)
            yield g, span_fingerprint([g * m * gi for m in base], g.spec, b)


def coset_span_keys(hs, spec: FieldSpec, b: int, s: int, order: int):
    """(g, key, |H|) for the first unit g of each coset g H in GL_b, in encoding order; H =
    GL_a (x) GL_s (a = b / s) comes as its units ``hs`` (``ramsey`` draws them from
    ``iterate_units``). All of g H share the key (``conjugated_span_keys``), as
    (v (x) w)(E_ij (x) I_s)(v (x) w)^-1 = v E_ij v^-1 (x) I_s.

    The walk runs on codes (``_code_walk``), builds a Matrix only for each g and clears the
    codes of g H: over GF(2) from packed rows, H read once; otherwise from products, H read
    per coset (a one-pass GL_b serves, being one coset). ``InvariantViolated`` if a code is
    already clear (cosets meet or, over GF(2), a product is singular) or the marked units
    miss or pass ``order`` = |GL_b|; at ``order`` the walk stops, every code left singular.
    """
    sizes, table = [], rank_table(spec, b)
    todo, powers = _rank_bytes(spec, b), [spec.q ** k for k in range(b * b)]
    if table is not None:  # row j of the k-th unit of H in 16-bit slot k of slots[j]
        rows = [h._packed() for h in hs]
        fmt, spread = f"<{len(rows)}H", sum(1 << b * i for i in range(b))  # b^2 <= 16
        slots = [int.from_bytes(struct.pack(fmt, *col), "little") for col in zip(*rows)]

    def firsts():
        marked = 0
        for pos, g in _code_walk(spec, b, todo):
            if table is not None:
                # code(g h) = XOR_j (column j of g at stride b) * (row j of h): the shifted
                # copies of a row never overlap, so slot k holds the code of g h_k
                both = reduce(xor, [(pos >> j & spread) * c for j, c in enumerate(slots)], 0)
                codes = struct.unpack(fmt, both.to_bytes(2 * len(rows), "little"))
            else:
                codes = (sum(map(int.__mul__, (g * h)._e, powers)) for h in hs)
            n = 0
            for n, c in enumerate(codes, 1):
                if todo[c] != b:
                    raise InvariantViolated(f"unit code {c} lies in two cosets")
                todo[c] = 0
            marked += n
            sizes.append(n)
            yield g
            if marked >= order:
                break
        if marked != order:
            raise InvariantViolated(f"{marked} units marked, |GL_{b}({spec.q})| = {order}")

    for g, key in conjugated_span_keys(firsts(), s):
        yield g, key, sizes.pop(0)


def copy_fingerprint(key, spec: FieldSpec, ambient: int) -> tuple:
    """The ``span_fingerprint`` of the span a ``conjugated_span_keys`` key stands for."""
    if _family(spec) is _BITS and ambient <= 8:
        flat = _b_unpack(b"".join(k.to_bytes(ambient, "little") for k in key), ambient)
        return tuple(flat[i:i + ambient * ambient] for i in range(0, len(flat), ambient * ambient))
    return key


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ``Singular`` when the matrix has no inverse."""
    if not m.is_square():
        raise DimensionMismatch("only square matrices can be inverted")
    n, f = m.rows, _family(m.spec)
    pivots, rows = f.rref(f.augment(f.rows(m), n), n, m.spec)
    if len(pivots) != n:
        raise Singular("matrix is singular")
    return f.made(m.spec, n, n, f.cut(rows, n))


def solve(m: Matrix, rhs) -> tuple[int, ...] | None:
    """One solution of m v = rhs (raw encodings), or None if inconsistent."""
    if len(rhs) != m.rows:
        raise DimensionMismatch("right-hand side of wrong length")
    c = m.cols
    aug = [row + [v] for row, v in zip(m.row_lists(), rhs)]  # _rref_rows reduces rhs mod q
    pivots, rows = _rref_rows(aug, c + 1, m.spec)
    if c in pivots:
        return None
    sol = [0] * c
    for pc, row in zip(pivots, rows):
        sol[pc] = row[c]
    return tuple(sol)


def random_matrix(spec: FieldSpec, rows: int, cols: int, rng) -> Matrix:
    return Matrix._trusted(spec, rows, cols,
                           tuple(rng.randrange(spec.q) for _ in range(rows * cols)))


def random_unit(spec: FieldSpec, n: int, rng) -> Matrix:
    """A uniformly sampled invertible matrix (rejection sampling)."""
    while True:
        m = random_matrix(spec, n, n, rng)
        if rank(m) == n:
            return m


# ---------------------------------------------------------------------------
# bit-exact text format


def write_matrix(m: Matrix) -> str:
    """Serialize as 'q rows cols' plus one line of encodings per row."""
    rows = (" ".join(map(str, row)) for row in m.row_lists())
    return "\n".join([f"{m.spec.q} {m.rows} {m.cols}", *rows]) + "\n"


def _parse_matrix_lines(lines, start: int) -> tuple[Matrix, int]:
    if start >= len(lines):
        raise FormatError("missing matrix header")
    head = lines[start].split()
    if len(head) != 3:
        raise FormatError(f"bad matrix header: {lines[start]!r}")
    try:
        q, rows, cols = (int(t) for t in head)
    except ValueError as exc:
        raise FormatError(f"bad matrix header: {lines[start]!r}") from exc
    spec = field_for_order(q)
    ents = []
    for i in range(rows):
        idx = start + 1 + i
        if idx >= len(lines):
            raise FormatError("matrix block truncated")
        parts = lines[idx].split()
        if len(parts) != cols:
            raise FormatError(f"row {i} has {len(parts)} entries, expected {cols}")
        for t in parts:
            try:
                v = int(t)
            except ValueError:
                raise FormatError(f"row {i} has a non-integer entry {t!r}") from None
            if not 0 <= v < q:
                raise FormatError(f"entry {v} out of range [0, {q})")
            ents.append(v)
    return Matrix(spec, rows, cols, ents), start + 1 + rows


def read_matrix(text: str) -> Matrix:
    """Parse exactly one matrix block; trailing garbage is rejected."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    m, nxt = _parse_matrix_lines(lines, 0)
    if nxt != len(lines):
        raise FormatError("trailing garbage after matrix block")
    return m


def read_matrices(text: str, count: int | None = None) -> list[Matrix]:
    """Parse consecutive matrix blocks from one text blob."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    out = []
    pos = 0
    while pos < len(lines):
        m, pos = _parse_matrix_lines(lines, pos)
        out.append(m)
        if count is not None and len(out) == count:
            break
    if pos != len(lines):
        raise FormatError("trailing garbage after matrix blocks")
    if count is not None and len(out) != count:
        raise FormatError(f"expected {count} matrix blocks, found {len(out)}")
    return out
