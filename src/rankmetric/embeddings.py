"""Embedding calculus for matrix algebras under the rank metric.

One representation, with a validating front:

* ``DeltaEmbedding`` stores a (possibly non-unital) block homomorphism
  x -> B (x^{+k} (+) 0) B^{-1} by its multiplicity and conjugator B = T P,
  a permutation P kept as its images times a twist T or none. Its delta
  value (n - m*k)/n measures how much of the target it misses; delta = 0
  means a unital embedding.
* ``Homomorphism`` is a map given by shift generator images, held as the
  ``DeltaEmbedding`` that Skolem-Noether says it is. The public constructor
  and ``from_text`` build the matrix units, check the n^2 corner
  identities that imply every unit product identity, and read the
  conjugator off the units; ``inclusion``, ``conjugate`` and the
  ``amalgamate`` legs are block embeddings by construction.

Only this module knows how a conjugator is stored: the tower code asks it
for ``back_embedding``, ``intertwining_unit`` and ``image_distance``. An
image is the element's copies scattered through P by ``matrix.block_image``,
straight into the field's store, then conjugated by T if there is a twist
(``iota`` is ``iota_embedding`` applied). ``image_distance`` scatters the
moved copies only, strided slices of each map's images that the other map
places differently, with no per-dimension compose. Nothing multiplies by P.

``skolem_noether_conjugator`` is the intertwining unit of two unital
homomorphisms with the same source and target. ``amalgamate`` completes
any two embeddings of a common subalgebra into an exactly commuting
square with the unit from each map onto the inclusion, built with its
inverse as scatters of the map's own twist pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from operator import add, itemgetter

from .errors import (
    DimensionMismatch,
    FormatError,
    InvariantViolated,
    MultiplicityMismatch,
    NotDivisor,
    NotUnital,
    SpecMismatch,
)
from .gf import FieldSpec
from .matrix import (
    Matrix,
    RankDistance,
    block_image,
    column_stack,
    coordinate_rank,
    image_basis,
    invert,
    kassabov_generators,
    kernel_basis,
    matrix_units,
    permutation_columns,
    read_matrices,
    row_forms,
    write_matrix,
)


def _inverse(images) -> tuple[int, ...]:
    return tuple(sorted(range(len(images)), key=images.__getitem__))


def _composed(*factors) -> tuple[int, ...]:
    """The images of the product of permutations given by their images: one ``itemgetter``
    call per factor, which returns a bare item, not a tuple, for one index."""
    return reduce(lambda f, g: itemgetter(*g)(f) if len(g) > 1 else tuple(f[i] for i in g), factors)


def _times_permutation(spec: FieldSpec, twist, images) -> Matrix:
    """T P for the pair twist = (T, T^-1), P e_j = e_{images[j]}: column j is
    column images[j] of T. Without a twist, the permutation matrix P."""
    n = len(images)
    if twist is not None:
        return Matrix._trusted(spec, n, n, tuple(row[j] for row in twist[0].row_lists()
                                                 for j in images))
    e = [0] * (n * n)
    for j, i in enumerate(images):
        e[i * n + j] = 1
    return Matrix._trusted(spec, n, n, tuple(e))  # 0 and 1 are canonical in every field


def _runs(count: int, step: int, values):
    """a * step + v for a < count and v in values, by a, then v: loops over the shorter one."""
    width = len(values)
    if count <= width:
        return chain.from_iterable(map(add, values, repeat(a * step, width)) for a in range(count))
    out = [0] * (count * width)
    for j, v in enumerate(values):
        out[j::width] = range(v, v + count * step, step)
    return out


def _tile(images, copies: int, total: int) -> tuple[int, ...]:
    """``copies`` copies of a permutation down the diagonal, then 1 up to ``total``."""
    return tuple(chain(_runs(copies, len(images), images), range(copies * len(images), total)))


def _shuffle_conjugator(m: int, k: int) -> tuple[int, ...]:
    """Images of the permutation Q with Q (x^{+k}) Q^{-1} = x (x) 1_k for all m x m x."""
    return tuple(_runs(k, 1, range(0, m * k, k or 1)))


def _merge_permutation(outer: int, block: int, copies: int, inner: int,
                       total: int) -> tuple[int, ...]:
    """Images of the permutation P with
    (x^{+copies} (+) 0)^{+outer} (+) 0 = P (x^{+outer*copies} (+) 0) P^{-1}.

    ``block`` is the size of each outer block, ``inner`` the size of x,
    ``total`` the ambient dimension; the padding rows take the rest, in order.
    """
    used = copies * inner
    return tuple(chain(_runs(outer, block, range(used)), _runs(outer, block, range(used, block)),
                       range(outer * block, total)))


def read_header(text: str, keyword: str, fields: int):
    """The integers of a DELTA or HOM header line, and the text after it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    parts = lines[0].split() if lines else []
    if not parts or parts[0] != keyword:
        raise FormatError(f"expected a {keyword} header")
    if len(parts) != fields + 1:
        raise FormatError(f"bad {keyword} header: {lines[0]!r}")
    try:
        return tuple(int(t) for t in parts[1:]), "\n".join(lines[1:])
    except ValueError:
        raise FormatError(f"non-integer header field in {' '.join(parts)!r}") from None


class DeltaEmbedding:
    """A conjugated block-diagonal homomorphism x -> B (x^{+mult} (+) 0) B^{-1}.

    B = T P: P is kept as its images (P e_j = e_{images[j]}), and the twist T
    as the pair ``_twist`` = (T, T^-1), or None. A conjugator that is set
    becomes P if it is a permutation, else the twist over P = 1."""

    __slots__ = ("m", "n", "mult", "spec", "_images", "_twist")

    def __init__(self, m: int, n: int, mult: int, conjugator: Matrix):
        self._set_shape(m, n, mult)
        self.conjugator = conjugator

    def _set_shape(self, m: int, n: int, mult: int):
        if mult < 0 or m < 1:
            raise DimensionMismatch("bad multiplicity or source dimension")
        if m * mult > n:
            raise DimensionMismatch(
                f"{mult} copies of dimension {m} exceed target {n}"
            )
        self.m = m
        self.n = n
        self.mult = mult

    @property
    def conjugator(self) -> Matrix:
        return _times_permutation(self.spec, self._twist, self._images)

    @conjugator.setter
    def conjugator(self, value: Matrix):
        if value.rows != self.n or value.cols != self.n:
            raise DimensionMismatch("conjugator has the wrong size")
        self.spec = value.spec
        cols = permutation_columns(value)  # P e_j = e_images[j] has row i's 1 in column cols[i]
        self._images = tuple(range(self.n)) if cols is None else _inverse(cols)
        self._twist = (value, invert(value)) if cols is None else None

    def same_conjugator(self, other: "DeltaEmbedding") -> bool:
        """Whether both conjugators B = T P are equal: by P's images if neither has a twist."""
        if self._twist is None and other._twist is None:
            return self.spec == other.spec and self._images == other._images
        return self.conjugator == other.conjugator

    @property
    def delta(self) -> RankDistance:
        return RankDistance(self.n - self.m * self.mult, self.n)

    @property
    def delta_fraction(self) -> Fraction:
        return self.delta.as_fraction()

    @property
    def unital(self) -> bool:
        return self.m * self.mult == self.n

    def apply(self, x: Matrix) -> Matrix:
        if x.spec != self.spec:
            raise SpecMismatch("element over a different field")
        if x.rows != self.m or x.cols != self.m:
            raise DimensionMismatch(f"element must be {self.m}x{self.m}")
        y = block_image(x, self._images, self.mult)
        return y if self._twist is None else self._twist[0] * y * self._twist[1]

    def generator_images(self) -> tuple[Matrix, Matrix]:
        a, b = kassabov_generators(self.m, self.spec)
        return self.apply(a), self.apply(b)

    def to_text(self) -> str:
        return f"DELTA {self.m} {self.n} {self.mult}\n" + write_matrix(self.conjugator)

    @classmethod
    def from_text(cls, text: str) -> "DeltaEmbedding":
        (m, n, mult), body = read_header(text, "DELTA", 3)
        return cls(m, n, mult, read_matrices(body, 1)[0])

    def __repr__(self):
        return (f"DeltaEmbedding(M_{self.m} -> M_{self.n}, mult {self.mult}, "
                f"delta {self.delta})")


def image_distance(left: DeltaEmbedding, right: DeltaEmbedding, x: Matrix) -> RankDistance:
    """rank_distance(left(iota(m, d)(x)), right(iota(m, d)(x))) for maps M_m -> M_n with
    permutation conjugators and x in M_d, d | m; d = m compares the maps on x itself."""
    return image_distances(left, right, [x])[0]


def image_distances(left: DeltaEmbedding, right: DeltaEmbedding, xs) -> list[RankDistance]:
    """``image_distance`` of each x in xs, building no image and no composite map: copies
    of one map are disjoint, so a copy that both maps place on the same ordered rows cancels,
    and only the moved copies, found once per dimension d, are scattered and ranked."""
    if left._twist is not None or right._twist is not None:
        raise InvariantViolated("image distance needs permutation conjugators")
    m = left.m
    if (m, left.n) != (right.m, right.n) or any(not 0 < x.rows == x.cols or m % x.rows for x in xs):
        raise DimensionMismatch("maps and element of different shapes")
    moved = {d: _moved(left, right, d) for d in {x.rows for x in xs}}
    out = []
    for x in xs:
        plus, minus = moved[x.rows]
        q, add, neg = x.spec.q, x.spec._add, x.spec._neg
        nonzero = [(divmod(k, x.rows), v) for k, v in enumerate(x.entries) if v]
        diff = {(pos[i], pos[j]): v for pos in plus for (i, j), v in nonzero}
        for pos in minus:
            for (i, j), v in nonzero:
                key = pos[i], pos[j]
                d = add[diff.pop(key, 0) * q + neg[v]]
                if d:
                    diff[key] = d
        out.append(RankDistance(coordinate_rank(x.spec, diff), left.n))
    return out


def _moved(left: DeltaEmbedding, right: DeltaEmbedding, d: int):
    """The copies of left o iota(m, d) that right o iota(m, d) does not place on the same
    ordered rows, and the other way round. Copy w of the inclusion inside copy t of a map
    is the strided slice images[t m + w : (t + 1) m : m / d], as a tuple of rows; for
    d = 1 it is one row, so only the rows that one map alone uses become 1-tuples."""
    if d == 1:
        rows, other = (set(e._images[:e.mult * e.m]) for e in (left, right))
        return [(r,) for r in rows - other], [(r,) for r in other - rows]
    def copies(e):
        cols = [e._images[j:e.mult * e.m:e.m] for j in range(e.m)]  # row j of each copy of e
        return set(chain.from_iterable(zip(*cols[w::e.m // d]) for w in range(e.m // d)))
    plus, minus = copies(left), copies(right)
    return plus - minus, minus - plus


def _embedding(m: int, n: int, mult: int, spec: FieldSpec, images,
               twist=None) -> DeltaEmbedding:
    """A ``DeltaEmbedding`` from P's images and the pair (T, T^-1) or None."""
    e = object.__new__(DeltaEmbedding)
    e._set_shape(m, n, mult)
    e.spec, e._images, e._twist = spec, tuple(images), twist
    return e


def compose(outer: DeltaEmbedding, inner: DeltaEmbedding) -> DeltaEmbedding:
    """The composite block embedding, with its explicit conjugator: the inner
    twist moves left of P_o as the scatter P_o (T_i^{+k2} (+) 1) P_o^-1."""
    if outer.spec != inner.spec:
        raise SpecMismatch("embeddings over different fields")
    if outer.m != inner.n:
        raise DimensionMismatch("composition dimensions do not match")
    k1, k2 = inner.mult, outer.mult
    p, n, m = outer.n, inner.n, inner.m
    if k1 == 0 or k2 == 0:
        return _embedding(m, p, 0, outer.spec, range(p))
    images = _composed(outer._images, _tile(inner._images, k2, p),
                       _merge_permutation(k2, n, k1, m, p))
    twist = outer._twist
    if inner._twist is not None:
        s, s_inv = (block_image(t, outer._images, k2, 1) for t in inner._twist)
        twist = (s, s_inv) if twist is None else (twist[0] * s, s_inv * twist[1])
    return _embedding(m, p, k1 * k2, outer.spec, images, twist)


def intertwining_unit(phi: DeltaEmbedding, psi: DeltaEmbedding) -> Matrix:
    """The unit B_psi B_phi^{-1}, which conjugates phi onto psi exactly.

    Both must share field, source, target and multiplicity."""
    if phi.spec != psi.spec:
        raise SpecMismatch("embeddings over different fields")
    if phi.m != psi.m or phi.n != psi.n:
        raise DimensionMismatch("embeddings with different shapes")
    if phi.mult != psi.mult:
        raise MultiplicityMismatch(f"{phi.mult} != {psi.mult}")
    u = _times_permutation(phi.spec, psi._twist, _composed(psi._images, _inverse(phi._images)))
    return u if phi._twist is None else u * phi._twist[1]


def back_embedding(phi: DeltaEmbedding, total: int) -> DeltaEmbedding:
    """The block map psi: M_n -> M_total with s = floor(total/n) copies that
    undoes phi: psi o phi is the inclusion iota(total, m) cut down to r*s of
    its total/m diagonal copies (r = phi's multiplicity)."""
    m, n = phi.m, phi.n
    if total % m != 0:
        raise NotDivisor(f"{m} does not divide {total}")
    s = total // n
    if s == 0:
        return _embedding(n, total, 0, phi.spec, range(total))
    images = _composed(_shuffle_conjugator(m, total // m),
                       _inverse(_merge_permutation(s, n, phi.mult, m, total)),
                       _tile(_inverse(phi._images), s, total))
    # the tiled T_phi^-1 moves left of the permutation as a scatter, as in compose
    twist = phi._twist and tuple(block_image(t, images, s, 1) for t in reversed(phi._twist))
    return _embedding(n, total, s, phi.spec, images, twist)


def iota(n: int, m: int, x: Matrix) -> Matrix:
    """The inclusion x -> x (x) 1_{n/m}; isometric for the rank metric."""
    return iota_embedding(n, m, x.spec).apply(x)


def iota_embedding(n: int, m: int, spec: FieldSpec) -> DeltaEmbedding:
    """The inclusion in block form: multiplicity n/m, shuffle conjugator."""
    if m < 1 or n % m != 0:
        raise NotDivisor(f"{m} does not divide {n}")
    return _embedding(m, n, n // m, spec, _shuffle_conjugator(m, n // m))


def block_embedding(m: int, n: int, spec: FieldSpec) -> DeltaEmbedding:
    """Plain block map with maximal multiplicity floor(n/m), identity conjugator."""
    return _embedding(m, n, n // m, spec, range(n))


class Homomorphism:
    """A homomorphism M_m -> M_n, held as the block embedding
    x -> B (x^{+k} (+) 0) B^{-1} that Skolem-Noether says it is.

    The public constructor and ``from_text`` validate the generator images
    (so their instances *are* certificates that the map extends to a ring
    homomorphism) and read B off the units: the canonical basis of the E_11
    image carried by each E_i1, then a basis of the kernel of the image of 1.
    Images, units (``units[i][j]`` the image of E_ij) and values are read
    through the embedding.
    """

    __slots__ = ("m", "n", "spec", "embedding", "_imgs")

    def __init__(self, m: int, n: int, img_a: Matrix, img_b: Matrix):
        if img_a.spec != img_b.spec:
            raise SpecMismatch("generator images over different fields")
        for img in (img_a, img_b):
            if img.rows != n or img.cols != n:
                raise DimensionMismatch("generator image has the wrong size")
        units = matrix_units(img_a, img_b, m)
        basis = image_basis(units[0][0]).matrix
        # row j of images[i] is E_i1 v_j for the j-th basis row v_j: one product per unit
        images = [row_forms(basis * units[i][0].transpose()) for i in range(m)]
        mult = basis.rows
        cols = [img[j] for j in range(mult) for img in images]
        one = sum((units[i][i] for i in range(1, m)), units[0][0])
        cols += row_forms(kernel_basis(one).matrix)
        self.m, self.n, self.spec, self._imgs = m, n, img_a.spec, None
        self.embedding = DeltaEmbedding(m, n, mult, column_stack(self.spec, cols, n))

    @classmethod
    def _of(cls, e: DeltaEmbedding) -> "Homomorphism":
        """The map that is this block embedding, taken unchecked."""
        h = object.__new__(cls)
        h.m, h.n, h.spec, h.embedding, h._imgs = e.m, e.n, e.spec, e, None
        return h

    img_a = property(lambda self: self._images()[0])
    img_b = property(lambda self: self._images()[1])

    def _images(self) -> tuple[Matrix, Matrix]:
        """The generator images, built once on first read."""
        if self._imgs is None:
            self._imgs = self.embedding.generator_images()
        return self._imgs

    @property
    def units(self) -> list[list[Matrix]]:
        m = self.m
        return [[self.embedding.apply(Matrix.unit(self.spec, m, i, j)) for j in range(1, m + 1)]
                for i in range(1, m + 1)]

    @property
    def unital(self) -> bool:
        return self.embedding.unital

    def apply(self, x: Matrix) -> Matrix:
        return self.embedding.apply(x)

    @classmethod
    def inclusion(cls, n: int, m: int, spec: FieldSpec) -> "Homomorphism":
        """The map x -> x (x) 1_{n/m}."""
        return cls._of(iota_embedding(n, m, spec))

    def conjugate(self, u: Matrix) -> "Homomorphism":
        """The map x -> u phi(x) u^{-1}: phi followed by the map x -> u x u^{-1}."""
        return Homomorphism._of(compose(DeltaEmbedding(self.n, self.n, 1, u), self.embedding))

    def to_text(self) -> str:
        return (f"HOM {self.m} {self.n}\n" + write_matrix(self.img_a)
                + write_matrix(self.img_b))

    @classmethod
    def from_text(cls, text: str) -> "Homomorphism":
        (m, n), body = read_header(text, "HOM", 2)
        return cls(m, n, *read_matrices(body, 2))

    def __eq__(self, other):
        return (isinstance(other, Homomorphism) and self.m == other.m
                and self.n == other.n and self.img_a == other.img_a
                and self.img_b == other.img_b)

    def __hash__(self):
        return hash((self.m, self.n, self.img_a, self.img_b))

    def __repr__(self):
        tag = "unital " if self.unital else ""
        return f"Homomorphism({tag}M_{self.m} -> M_{self.n})"


def skolem_noether_conjugator(phi0: Homomorphism, phi1: Homomorphism) -> Matrix:
    """An explicit unit u with u phi0(x) u^{-1} = phi1(x) for all x.

    Both maps must be unital with the same source and target. Each is
    x -> B_i x^{+n/m} B_i^{-1} (see ``Homomorphism``), so u = B_1 B_0^{-1}.
    """
    if phi0.spec != phi1.spec:
        raise SpecMismatch("homomorphisms over different fields")
    if phi0.m != phi1.m or phi0.n != phi1.n:
        raise DimensionMismatch("homomorphisms with different shapes")
    if not phi0.unital or not phi1.unital:
        raise NotUnital("conjugator construction needs unital maps")
    return intertwining_unit(phi0.embedding, phi1.embedding)


def amalgamate(phi0: Homomorphism, phi1: Homomorphism):
    """Complete two unital embeddings of M_a into an exact commuting square.

    Returns (c, psi0, psi1) with c = b0 * b1 and psi_i: M_{b_i} -> M_c
    unital such that psi0 o phi0 = psi1 o phi1 exactly: each psi_i is the
    inclusion corrected by the inner twist that straightens phi_i.
    """
    if phi0.spec != phi1.spec:
        raise SpecMismatch("homomorphisms over different fields")
    if phi0.m != phi1.m:
        raise DimensionMismatch("embeddings of different source algebras")
    for phi in (phi0, phi1):
        if not phi.unital:
            raise NotUnital("amalgamation needs unital embeddings")
    a, spec = phi0.m, phi0.spec
    c = phi0.n * phi1.n

    def leg(phi: Homomorphism) -> Homomorphism:
        # u = B_inc B_phi^-1 = P T_phi^-1 (P = P_inc P_phi^-1) straightens phi onto the
        # inclusion: the twist P T_phi^-1 P^-1 over P, and its inverse P T_phi P^-1, are
        # scatters of phi's own pair, so no product and no inversion
        e = phi.embedding
        images = _composed(iota_embedding(phi.n, a, spec)._images, _inverse(e._images))
        twist = e._twist and tuple(block_image(t, images, 1) for t in reversed(e._twist))
        # x -> iota(u x u^-1)
        return Homomorphism._of(compose(iota_embedding(c, phi.n, spec),
                                        _embedding(phi.n, phi.n, 1, spec, images, twist)))

    return c, leg(phi0), leg(phi1)
