"""Exact dense linear algebra over GF(q).

Each field runs in one row family, looked up from q by ``_family`` at
every call. GF(2) rows are ints, bit j set when entry j is 1. GF(3) rows
are int pairs (plus, minus) with disjoint bits, set where the entry is 1
and where it is 2 (Boothby & Bradshaw, arXiv:0901.1413), so a row sum is
a few bitwise operations and negation swaps the two. Larger fields, and
every field while tests set ``_FORCE_GENERIC``, run the table family: a
matrix keeps its flat tuple of canonical encodings, and its kernels work on
rows of bytes, one encoding per byte, so a row operation is a translate
through a field table and one whole-row sum.

A family is one entry of the ``_Family`` table: how a matrix keeps it, and
whole-matrix pack, unpack, zero, identity, sum, difference, scaling (a
negation is a scaling by -1), product, transpose, an echelon loop over
many rows (not a per-row insert), rref, the side-by-side join and cut
steps that ``invert`` and ``kernel_basis`` share, and the unit-row test
of ``permutation_columns``.
So each ``Matrix`` operation has one code path, and a new family is one
more entry. No matrix stores its family, since a matrix built before a test
sets ``_FORCE_GENERIC`` must run in the table family after it. A matrix
holds its rows (GF(2), GF(3)), its flat entries or both, and derives one
from the other at most once. It may also hold its transpose, linked both
ways, which builds its store from its source's rows on first read.
The GF(3) and table families live in ``families``, which ``_family`` runs on
its first call for another field than GF(2) or under ``_FORCE_GENERIC``; this
module serves their names as its own. ``_b_pack``, ``_b_unpack``, ``_b_rref``
and ``_g_rref`` stay module-level and the families call them by name, so that
the benchmark's layer tracing can wrap them.

Elimination has one skeleton in every family: its echelon loop reduces rows
into an echelon table keyed by pivot column, rank is the number of rows
stored, and one back-substitution pass turns the table into reduced echelon
form. An inverse and a kernel are each one elimination of rows with the
identity appended: the inverse is the appended block of [m | I], the kernel
the appended block of the rows of [m^T | I] that reduce to zero on m^T, for
m one matrix or several stacked, its rows the parts' transposes laid side
by side. Other modules hold rows only as ``row_forms`` gives them, and get
block images P (x^{+k} (+) 1) P^{-1} in the family's store from ``block_image``.

Outside entries become encodings in one place, the ``Matrix`` constructor,
by one rule: an element of this field, or an integer as ``operator.index``
reads it, reduced mod q. ``Subspace`` and ``echelon_insert`` build a Matrix
of their vectors and take its ``row_forms``. Canonical input passes one
``bytes()`` conversion and one translate test, at C speed.

Distances are exact: ``rank_distance`` returns a ``RankDistance`` holding
the raw (rank, ambient) pair, compared by cross-multiplication. A subspace
is the Matrix of its reduced echelon basis, the unique canonical
representative of its span, so subspace equality is the matrices'
native-form comparison, and sums, images and spans are one rref each.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from fractions import Fraction
from functools import cache, reduce, total_ordering
from itertools import chain
from operator import index, xor
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
_FAMILIES = None  # the module of the GF(3) and table families, once run


def _family(spec: FieldSpec, native: bool = False) -> _Family:
    """The row family that runs this field's kernels; with ``native``, the one its
    matrices keep rows in, which ``_FORCE_GENERIC`` does not change."""
    if spec.q == 2 and (native or not _FORCE_GENERIC):
        return _BITS
    more = _FAMILIES or _families()
    return more._PLANES if spec.q == 3 and (native or not _FORCE_GENERIC) else more._TABLE


def _families():
    global _FAMILIES
    from . import families as _FAMILIES
    return _FAMILIES


def __getattr__(name):  # PEP 562: the names of the families module, run on first use
    if name in ("_PLANES", "_TABLE", "_bytes_of") or name[:3] in ("_t_", "_g_"):
        return getattr(_FAMILIES or _families(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _b_transpose(rowints, cols):
    """Row ints of the transpose: each column sliced out of one joined digit string, which
    read backwards runs from the last row to the first, each row from column 0 on."""
    fmt = f"0{cols}b"
    digits = "".join([format(r, fmt) for r in rowints])[::-1]
    return tuple([int(digits[j::cols] or "0", 2) for j in range(cols)])


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


def _b_echelon(table, rowints, ncols):
    """Reduce each row against an echelon table and store it if a pivot in the first ncols
    columns remains; returns how many rows it stored.

    The table maps the lowest set bit of each stored row to that row, so
    each step clears the lowest bit of a row that a stored row leads with.
    """
    limit, before = 1 << ncols, len(table)
    for r in rowints:
        while r:
            low = r & -r
            row = table.get(low)
            if row is None:
                if low < limit:
                    table[low] = r
                break
            r ^= row
    return len(table) - before


def _b_rref(rowints, ncols):
    """Pivot columns and reduced echelon rows (pivots in the first ncols columns).

    The echelon table followed by one back-substitution pass in place, highest
    pivot first; rows without a pivot among the first ncols columns drop out.
    """
    table, done = {}, 0
    _b_echelon(table, rowints, ncols)
    for low in sorted(table, reverse=True):
        row = table[low]
        # stored rows above this pivot are already free of every other pivot
        hits = row & done
        while hits:
            bit = hits & -hits
            row ^= table[bit]
            hits ^= bit
        table[low] = row
        done |= low
    order = sorted(table)
    return [low.bit_length() - 1 for low in order], [table[low] for low in order]


# ---------------------------------------------------------------------------


def _check_dims(*dims: int) -> tuple[int, ...]:
    """The dimensions as given; ``DimensionMismatch`` if one is negative."""
    if min(dims) < 0:
        raise DimensionMismatch(f"negative dimensions {dims}")
    return dims


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
    entry tuple, ``_t`` the transpose; one or both are set, or neither in an unread
    transpose, and each is filled in from the other (or from ``_t``) on demand.
    """

    __slots__ = ("spec", "rows", "cols", "_ent", "_rw", "_t")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries):
        """Outside entries as encodings, each an element of this field or an integer as
        ``operator.index`` reads it, reduced mod q; another field's element is a SpecMismatch,
        anything else a FormatError. Only entries that are not all bytes are walked one by one."""
        _check_dims(rows, cols)
        vals, q = tuple(entries), spec.q  # read once, so a one-shot iterator is walked in full
        try:
            raw = bytes(vals)
        except (TypeError, ValueError):  # not all integers, or one below 0 or above 255
            raw = bytearray()
            for e in vals:
                if isinstance(e, FieldElement):
                    if e.spec != spec:
                        raise SpecMismatch("entry from a different field")
                    raw.append(e.val)
                else:
                    try:
                        raw.append(index(e) % q)
                    except TypeError:
                        msg = f"entry {e!r} is neither an int nor a field element"
                        raise FormatError(msg) from None
        if raw.translate(None, _CODES[:q]):  # a byte q or more: reduced by one translate
            raw = raw.translate((_CODES[:q] * (256 // q + 1))[:256])
        if len(raw) != rows * cols:
            raise DimensionMismatch(f"expected {rows * cols} entries, got {len(raw)}")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self._ent = tuple(raw)
        self._rw = self._t = None

    @classmethod
    def _trusted(cls, spec: FieldSpec, rows: int, cols: int,
                 entries=None, packed=None, link=None) -> "Matrix":
        """Kernel output: canonical entries or rows, taken unchecked; or neither, ``link``'s."""
        m = object.__new__(cls)
        m.spec, m.rows, m.cols, m._ent, m._rw, m._t = spec, rows, cols, entries, packed, link
        return m

    @property
    def entries(self) -> tuple[int, ...]:
        """The row-major canonical encodings as one flat tuple, kept and shared, not copied."""
        if self._ent is self._rw is None:
            self._fill()
        if self._ent is None:
            self._ent = _family(self.spec, native=True).unpack(self._rw, self.cols)
        return self._ent

    _e = entries

    def _packed(self) -> tuple[int, ...]:
        if self._ent is self._rw is None:
            self._fill()
        if self._rw is None:
            self._rw = tuple(_family(self.spec, native=True).pack(self._ent, self.rows, self.cols))
        return self._rw

    def _fill(self):
        """An unread transpose's store: the rows of ``_t`` as columns, by the running family."""
        t = column_stack(self.spec, row_forms(self._t), self.rows)
        self._ent, self._rw = t._ent, t._rw

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        f = _family(spec)
        return f.made(spec, rows, cols, f.zero(*_check_dims(rows, cols)))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        f = _family(spec)
        return f.made(spec, n, n, f.cut(f.identity(*_check_dims(n)), 0))

    @classmethod
    def unit(cls, spec: FieldSpec, n: int, i: int, j: int) -> "Matrix":
        """The matrix unit e_{ij} (1-based indices)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"unit ({i}, {j}) lies outside {n}x{n}")
        e = [0] * (n * n)
        e[(i - 1) * n + (j - 1)] = 1
        return cls._trusted(spec, n, n, tuple(e))

    @classmethod
    def scalar(cls, spec: FieldSpec, n: int, value) -> "Matrix":
        return cls.identity(spec, n).scale(value)

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int) -> FieldElement:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionMismatch(f"entry ({i}, {j}) lies outside {self.rows}x{self.cols}")
        return FieldElement(self.spec, self._e[i * self.cols + j])

    def row_lists(self):
        e, c = self._e, self.cols  # tuple slices: lists of byte rows build 2-3x slower
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        """O(1), built on first read; kept and linked both ways (m.transpose().transpose() is
        m) while the native family runs, so under ``_FORCE_GENERIC`` a new one per call."""
        t, keep = self._t, _family(self.spec) is _family(self.spec, native=True)
        if t is None or not keep:
            t = Matrix._trusted(self.spec, self.cols, self.rows, link=self)
            if keep:
                self._t = t
        return t

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
        return self.scale(self.spec._neg[1])

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
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            base = base * base if e > 1 else base
            e >>= 1
        return Matrix.identity(self.spec, self.rows) if out is None else out

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
# family. Its rows are what products and elimination read: the store, or byte rows.


class _Family(NamedTuple):
    store: Callable     # matrix -> store
    rows: Callable      # matrix -> rows
    made: Callable      # spec, rows, cols, store -> matrix
    pack: Callable      # flat encodings, rows, cols -> rows
    unpack: Callable    # rows, cols -> flat encodings
    zero: Callable      # rows, cols -> store
    identity: Callable  # n -> rows of the identity
    add: Callable       # store, store, spec -> store; so is sub
    sub: Callable
    scale: Callable     # store, scalar encoding, spec -> store
    mul: Callable       # rows, rows, spec, product cols -> store
    transpose: Callable  # rows, cols -> store of the transpose
    echelon: Callable   # echelon table, rows, ncols, spec -> how many rows it stored
    rref: Callable      # rows, ncols, spec -> pivot columns, reduced rows
    side: Callable      # rows, rows, n -> each row of the first, n wide, the second's after it
    cut: Callable       # rows, n -> store of the columns from n on
    unit: Callable      # row -> column of its one nonzero entry if that is 1, else -1


_BITS = _Family(
    store=Matrix._packed, rows=Matrix._packed,
    made=lambda spec, r, c, store: Matrix._trusted(spec, r, c, packed=store),
    pack=lambda entries, r, c: _b_pack(entries, r, c),
    unpack=lambda rows, c: _b_unpack(rows, c),
    zero=lambda r, c: (0,) * r,
    identity=lambda n: [1 << i for i in range(n)],
    add=lambda a, b, spec: tuple(map(xor, a, b)),
    sub=lambda a, b, spec: tuple(map(xor, a, b)),
    scale=lambda a, s, spec: a if s else (0,) * len(a),
    mul=lambda a, b, spec, c: _b_mul(a, b),
    transpose=lambda rows, c: _b_transpose(rows, c),
    echelon=lambda table, rows, ncols, spec: _b_echelon(table, rows, ncols),
    rref=lambda rows, ncols, spec: _b_rref(rows, ncols),
    side=lambda a, b, n: [r | s << n for r, s in zip(a, b)],
    cut=lambda rows, n: tuple([r >> n for r in rows]),
    unit=lambda r: -1 if r & (r - 1) else r.bit_length() - 1,
)


def row_forms(m: Matrix) -> list:
    """m's rows as its field's kernels hold them: what ``echelon_insert``, ``row_span`` and
    ``column_stack`` take."""
    return list(_family(m.spec).rows(m))


def column_stack(spec: FieldSpec, rows, nrows: int) -> Matrix:
    """The Matrix whose columns are ``row_forms`` rows nrows long: one transpose."""
    f = _family(spec)
    return f.made(spec, nrows, len(rows), f.transpose(rows, nrows))


def block_image(x: Matrix, images, copies: int, pad: int = 0) -> Matrix:
    """P (x^{+copies} (+) pad * 1) P^{-1} for P e_j = e_{images[j]}, pad 0 or 1: copy c of x sits on
    rows pos = images[c m:(c + 1) m], entry (i, j) at (pos[i], pos[j]). Built in the family's store,
    so nothing is packed: rows as x's rows times the unit rows at pos, flat entries in place."""
    spec, n, m, f = x.spec, len(images), x.rows, _family(x.spec)
    copied = [images[c * m:(c + 1) * m] for c in range(copies)]
    rest = images[copies * m:] if pad else ()
    if f.store is f.rows:  # a family that keeps rows: GF(2) and GF(3) when native
        out, unit, rows = list(f.zero(n, n)), f.identity(n), f.rows(x)
        for pos in copied:
            for i, row in zip(pos, f.mul(rows, [unit[j] for j in pos], spec, n)):
                out[i] = row
        for j in rest:
            out[j] = unit[j]
    else:
        out, nonzero = [0] * (n * n), [(divmod(k, m), v) for k, v in enumerate(x.entries) if v]
        for pos in copied:
            for (i, j), v in nonzero:
                out[pos[i] * n + pos[j]] = v
        for j in rest:
            out[j * n + j] = 1
    return f.made(spec, n, n, tuple(out))


def row_span(spec: FieldSpec, rows, ncols: int) -> Subspace:
    """The span of ``row_forms`` rows ncols long: one rref, its reduced rows as one Matrix (a
    cut at 0 keeps every column); the one step that builds every subspace but a kernel."""
    f = _family(spec)
    rows = f.rref(rows, ncols, spec)[1]
    return Subspace._of(f.made(spec, len(rows), ncols, f.cut(rows, 0)))


def echelon_insert(table, vec, spec: FieldSpec, width: int | None = None) -> bool:
    """Store a vector of encodings, or a ``row_forms`` row of this width, in an echelon table
    (an empty dict at first, filled only by this function) if it is independent of it."""
    n = len(vec) if width is None else width
    row = row_forms(Matrix(spec, 1, n, vec))[0] if width is None else vec
    return _family(spec).echelon(table, [row], n, spec) == 1


class Subspace:
    """A subspace of F_q^n held as the Matrix of its canonical reduced echelon basis.

    The rows have strictly increasing pivot positions and each pivot column
    is cleared elsewhere, so two subspaces are equal exactly when their
    matrices are, compared in the field's native row form.
    """

    __slots__ = ("matrix",)

    def __init__(self, spec: FieldSpec, ambient_dim: int, vectors):
        vecs = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise DimensionMismatch("vector of wrong length")
        m = Matrix(spec, len(vecs), ambient_dim, chain.from_iterable(vecs))
        self.matrix = row_span(spec, row_forms(m), ambient_dim).matrix

    @classmethod
    def _of(cls, m: Matrix) -> "Subspace":
        """The span of m's rows, which are already its reduced echelon basis."""
        s = object.__new__(cls)
        s.matrix = m
        return s

    # read off the matrix; the basis as tuples of encodings
    spec = property(lambda self: self.matrix.spec)
    ambient_dim = property(lambda self: self.matrix.cols)
    dim = property(lambda self: self.matrix.rows)
    basis = property(lambda self: tuple(map(tuple, self.matrix.row_lists())))

    def contains(self, vec) -> bool:
        return Subspace(self.spec, self.ambient_dim, [*self.basis, vec]).dim == self.dim

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# rank / distance


def rank(m: Matrix) -> int:
    """Exact rank: the size of the echelon table of the rows."""
    f = _family(m.spec)
    return f.echelon({}, f.rows(m), m.cols, m.spec)


def coordinate_rank(spec: FieldSpec, entries: dict) -> int:
    """Exact rank of the matrix with nonzero encodings ``entries[i, j]`` and zeros elsewhere:
    the sum over the connected components of its row-column graph (Pothen & Fan, ACM TOMS
    1990), found by union-find over rows i and columns ~j, of each one's dense rank."""
    root = {}

    def find(a):
        while root.setdefault(a, a) != a:
            root[a] = a = root[root[a]]
        return a

    for i, j in entries:
        root[find(i)] = find(~j)
    parts = {}
    for (i, j), v in entries.items():
        parts.setdefault(find(i), []).append((i, j, v))
    total = 0
    for part in parts.values():
        rows = {i: k for k, i in enumerate({i for i, _, _ in part})}
        cols = {j: k for k, j in enumerate({j for _, j, _ in part})}
        if len(rows) == 1 or len(cols) == 1:  # nonzero entries in one line: rank 1
            total += 1
            continue
        flat = [0] * (len(rows) * len(cols))
        for i, j, v in part:
            flat[rows[i] * len(cols) + cols[j]] = v
        total += rank(Matrix._trusted(spec, len(rows), len(cols), tuple(flat)))
    return total


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


def kernel_basis(m: Matrix, *more: Matrix) -> Subspace:
    """Canonical basis of the right kernel of m stacked on ``more`` (what all of them kill);
    dim = cols - rank. One elimination of [m^T | more^T ... | I], the parts' transposes laid
    side by side, over all its columns: the last reduced rows, those with their pivot in the
    identity block, are zero on every part, so their identity parts v have m v = 0, and they
    are already the kernel's reduced echelon basis."""
    f, n = _family(m.spec), m.cols
    if any(o.spec != m.spec for o in more):
        raise SpecMismatch("matrices over different fields")
    if any(o.cols != n for o in more):
        raise DimensionMismatch("stacked matrices of different widths")
    rows, r = f.rows(m.transpose()), m.rows
    for o in more:
        rows, r = f.side(rows, f.rows(o.transpose()), r), r + o.rows
    pivots, rows = f.rref(f.side(rows, f.identity(n), r), r + n, m.spec)
    rank = sum(p < r for p in pivots)
    return Subspace._of(f.made(m.spec, n - rank, n, f.cut(rows[rank:], r)))


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column span: the row span of the transpose."""
    return row_span(m.spec, row_forms(m.transpose()), m.rows)


def apply(m: Matrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under a linear map: the column span of m B^T for s's
    basis rows B, the transpose of the product B m^T; the product checks fields and shapes."""
    return image_basis((s.matrix * m.transpose()).transpose())


def span_fingerprint(mats, spec: FieldSpec, ambient: int) -> tuple:
    """Canonical echelon basis of the linear span of flattened matrices."""
    f, n = _family(spec), ambient * ambient
    ents = [m._e for m in mats]
    return row_span(spec, f.pack(tuple(chain.from_iterable(ents)), len(ents), n), n).basis


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
    # rows join low row first; a span is a 2^n-bit set (bit v for vector v), which a row r
    # outside it doubles by adding v ^ r for each v, and its size gives the rank. Each span
    # gets a byte id, and steps[r] maps an id to the id of the span grown by r, so a level of
    # ids by code grows by one row in 2^n translates, one per value of the new (high) row.
    # An id fits a byte only while GF(2)^n has at most 256 subspaces: n <= 4 (67) does,
    # n = 5 (374) does not, which is why ``rank_table`` caps n * n at 20
    size, spans, ids = 1 << n, [1], {1: 0}
    steps = [bytearray(256) for _ in range(size)]
    for k, sp in enumerate(spans):  # spans grows as new ones turn up, up to every subspace
        for r, step in enumerate(steps):
            grown = sp | sum(1 << (v ^ r) for v in range(size) if sp >> v & 1)
            if grown not in ids:
                ids[grown] = len(spans)
                spans.append(grown)
            step[k] = ids[grown]
    level = b"\0"
    for _ in range(n):
        level = b"".join([level.translate(step) for step in steps])
    return tuple(level.translate(bytes([sp.bit_count().bit_length() - 1 for sp in spans])
                                 .ljust(256, b"\0")))


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


def _packed_keys(spec: FieldSpec, b: int) -> bool:
    """Whether census keys of b x b units are packed GF(2) ints (``span_key``)."""
    return _family(spec) is _BITS and b <= 8


@cache
def _key_tables(spec: FieldSpec, b: int, s: int, packed: bool):
    """What ``span_key`` reads per (b, s): per block of s columns, byte -> its s bits in that
    block if packed, else the standard copy of M_(b/s)."""
    if packed:
        return [bytes(v >> i & (1 << s) - 1 for v in range(256)) for i in range(0, b, s)]
    return base_copy_basis(b // s, b, spec)


def span_key(g: Matrix, s: int):
    """A hashable key of the b x b unit g, canonical for the span of g (M_a (x) I_s) g^-1,
    a = b / s; ``copy_fingerprint`` reads it.

    Packed GF(2) keys (b <= 8) build no Matrix: g (E_ij (x) I_s) g^-1 = G_i H_j, for
    G_i the i-th block of s columns of g and H_j the j-th block of s rows of g^-1,
    and G_i H_j maps each row byte of g through a 2^s-entry XOR table of H_j's
    rows (``bytes.translate``) into one flat int, row r at bit 8r; the key is the
    reduced echelon rows of the a^2 ints. Other keys are the ``span_fingerprint``.
    """
    b, spec = g.rows, g.spec
    if not _packed_keys(spec, b):
        gi = invert(g)
        return span_fingerprint([g * m * gi for m in _key_tables(spec, b, s, False)], spec, b)
    rows = g._packed()
    inv = _inverse(_BITS, rows, b, spec)
    blocks = [bytes(rows).translate(cut) for cut in _key_tables(spec, b, s, True)]
    flats = []
    for j in range(0, b, s):
        table = [0]
        for h in inv[j:j + s]:
            table += [x ^ h for x in table]
        table = bytes(table).ljust(256, b"\0")
        flats += [int.from_bytes(block.translate(table), "little") for block in blocks]
    return tuple(_b_rref(flats, 8 * b)[1])


def coset_span_keys(hs, spec: FieldSpec, b: int, s: int, order: int):
    """(g, ``span_key(g, s)``, |H|) for the first unit g of each coset g H in GL_b, in encoding
    order; H = GL_a (x) GL_s (a = b / s) comes as its units ``hs`` (``ramsey`` draws them from
    ``iterate_units``). All of g H share the key, as
    (v (x) w)(E_ij (x) I_s)(v (x) w)^-1 = v E_ij v^-1 (x) I_s.

    The walk runs on codes (``_code_walk``), builds a Matrix only for each g and clears the
    codes of g H: over GF(2) from packed rows, H read once; otherwise from products, H read
    per coset (a one-pass GL_b serves, being one coset). ``InvariantViolated`` if a code is
    already clear (cosets meet or, over GF(2), a product is singular) or the marked units
    miss or pass ``order`` = |GL_b|; at ``order`` the walk stops, every code left singular.
    """
    table = rank_table(spec, b)
    todo, powers = _rank_bytes(spec, b), [spec.q ** k for k in range(b * b)]
    if table is not None:  # row j of the k-th unit of H in 16-bit slot k of slots[j]
        rows = [h._packed() for h in hs]
        fmt, spread = f"<{len(rows)}H", sum(1 << b * i for i in range(b))  # b^2 <= 16
        slots = [int.from_bytes(struct.pack(fmt, *col), "little") for col in zip(*rows)]
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
        yield g, span_key(g, s), n
        if marked >= order:
            break
    if marked != order:
        raise InvariantViolated(f"{marked} units marked, |GL_{b}({spec.q})| = {order}")


def copy_fingerprint(key, spec: FieldSpec, ambient: int) -> tuple:
    """The ``span_fingerprint`` of the span a ``span_key`` key stands for."""
    if _packed_keys(spec, ambient):
        flat = _b_unpack(b"".join(k.to_bytes(ambient, "little") for k in key), ambient)
        return tuple(flat[i:i + ambient * ambient] for i in range(0, len(flat), ambient * ambient))
    return key


def permutation_columns(m: Matrix) -> tuple[int, ...] | None:
    """Each row's column of its one nonzero entry, a 1, if m is a permutation matrix, else
    None; read off the rows, so over GF(2) the rows must be distinct powers of two."""
    f = _family(m.spec)
    cols = tuple(map(f.unit, f.rows(m)))
    return cols if -1 not in cols and len(set(cols)) == m.rows == m.cols else None


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises ``Singular`` when the matrix has no inverse."""
    if not m.is_square():
        raise DimensionMismatch("only square matrices can be inverted")
    f = _family(m.spec)
    return f.made(m.spec, m.rows, m.rows, _inverse(f, f.rows(m), m.rows, m.spec))


def _inverse(f: _Family, rows, n: int, spec: FieldSpec):
    """The store of the inverse of n square rows in f; raises ``Singular``."""
    pivots, rows = f.rref(f.side(rows, f.identity(n), n), n, spec)
    if len(pivots) != n:
        raise Singular("matrix is singular")
    return f.cut(rows, n)


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
    return read_matrices(text, 1)[0]


def read_matrices(text: str, count: int | None = None) -> list[Matrix]:
    """Parse consecutive matrix blocks from one text blob."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    out, pos = [], 0
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
