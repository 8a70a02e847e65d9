"""Embedding calculus for matrix algebras under the rank metric.

Two representations are used side by side:

* ``DeltaEmbedding`` stores a (possibly non-unital) block homomorphism
  x -> y (x^{+k} (+) 0) y^{-1} by its multiplicity and conjugator (a
  permutation conjugator as its images, applied without products). Its
  delta value (n - m*k)/n measures how much of the target it misses;
  delta = 0 means a unital embedding.
* ``Homomorphism`` stores a map by the images of the shift generator
  pair and by its matrix units. The public constructor and ``from_text``
  validate: they build the units and check the n^2 corner identities
  that imply every unit product identity. ``inclusion``, ``conjugate``
  and the ``amalgamate`` legs skip that check, as their units hold by
  construction: they are iota(E_ij), or u E_ij u^-1 with u invertible
  (``invert`` proves it), and the ring homomorphisms iota and
  x -> u x u^-1 carry a unit system to a unit system.

Only this module knows how a conjugator is stored: the tower code asks it
for ``back_embedding`` and ``intertwining_unit``. The inclusion ``iota``
is ``iota_embedding`` applied, a permutation scatter.

``skolem_noether_conjugator`` produces an explicit intertwining unit for
any two unital homomorphisms with the same source and target by aligning
the module decompositions cut out by the matrix-unit images, and
``amalgamate`` uses it to complete any two embeddings of a common
subalgebra into an exactly commuting square.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce

from .errors import (
    DimensionMismatch,
    FormatError,
    MultiplicityMismatch,
    NotDivisor,
    NotUnital,
    SpecMismatch,
)
from .gf import FieldSpec
from .matrix import (
    Matrix,
    RankDistance,
    direct_sum,
    image_basis,
    invert,
    kassabov_generators,
    matrix_units,
    read_matrices,
    write_matrix,
)


def _permutation_matrix(spec: FieldSpec, images) -> Matrix:
    """The matrix sending basis vector j to basis vector images[j]."""
    n = len(images)
    e = [0] * (n * n)
    for j, i in enumerate(images):
        e[i * n + j] = 1
    return Matrix._trusted(spec, n, n, tuple(e))  # 0 and 1 are canonical in every field


def _permutation_images(a: Matrix):
    """The images of a permutation matrix, or None for any other matrix."""
    n, e = a.rows, a.entries
    if e.count(1) != n:
        return None
    nonzero = [k for k, v in enumerate(e) if v]
    if [k // n for k in nonzero] != list(range(n)) or len({k % n for k in nonzero}) != n:
        return None
    return _inverse([k % n for k in nonzero])


def _inverse(images) -> tuple[int, ...]:
    return tuple(sorted(range(len(images)), key=images.__getitem__))


def _product(spec: FieldSpec, *factors):
    """The product of conjugators given as images or matrices: composed
    images when every factor is a permutation, else a dense product."""
    if all(isinstance(f, tuple) for f in factors):
        return reduce(lambda f, g: tuple(f[i] for i in g), factors)
    return reduce(operator.mul, (_dense(spec, f) for f in factors))


def _dense(spec: FieldSpec, conj) -> Matrix:
    return conj if isinstance(conj, Matrix) else _permutation_matrix(spec, conj)


def _tile(block, copies: int, total: int):
    """``copies`` copies of a square conjugator (images or a matrix) down
    the diagonal, then the identity up to dimension ``total``."""
    if isinstance(block, Matrix):
        pad = total - copies * block.rows
        return direct_sum([block] * copies + [Matrix.identity(block.spec, pad)] * (pad > 0))
    k = len(block)
    return tuple(j - j % k + block[j % k] if j < copies * k else j for j in range(total))


def _shuffle_conjugator(m: int, k: int) -> tuple[int, ...]:
    """Images of the permutation Q with Q (x^{+k}) Q^{-1} = x (x) 1_k for all m x m x."""
    return tuple(i * k + w for w in range(k) for i in range(m))


def _merge_permutation(outer: int, block: int, copies: int, inner: int,
                       total: int) -> tuple[int, ...]:
    """Images of the permutation P with
    (x^{+copies} (+) 0)^{+outer} (+) 0 = P (x^{+outer*copies} (+) 0) P^{-1}.

    ``block`` is the size of each outer block, ``inner`` the size of x,
    ``total`` the ambient dimension.
    """
    used = [t * block + c * inner + i
            for t in range(outer) for c in range(copies) for i in range(inner)]
    taken = set(used)
    # the padding rows go to the remaining rows, in order
    return tuple(used + [j for j in range(total) if j not in taken])


def _header_ints(parts) -> tuple[int, ...]:
    """The integers after the keyword of a DELTA or HOM header line."""
    try:
        return tuple(int(t) for t in parts[1:])
    except ValueError:
        raise FormatError(f"non-integer header field in {' '.join(parts)!r}") from None


class DeltaEmbedding:
    """A conjugated block-diagonal homomorphism x -> P (x^{+mult} (+) 0) P^{-1}.

    A permutation P is kept as its images (P e_j = e_{images[j]}): it is
    inverted and applied by re-indexing, and made dense only when read.
    Any other P is kept dense and inverted at construction."""

    __slots__ = ("m", "n", "mult", "spec", "_conj", "_conj_inv")

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
        return _dense(self.spec, self._conj)

    @conjugator.setter
    def conjugator(self, value: Matrix):
        if value.rows != self.n or value.cols != self.n:
            raise DimensionMismatch("conjugator has the wrong size")
        self.spec = value.spec
        images = _permutation_images(value)
        self._conj = value if images is None else images
        self._conj_inv = invert(value) if images is None else _inverse(images)

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
        if self.mult == 0:
            return Matrix.zero(self.spec, self.n)
        if isinstance(self._conj, Matrix):
            blocks = direct_sum([x] * self.mult, self.n - self.m * self.mult)
            return self._conj * blocks * self._conj_inv
        # entry (i, j) of each copy lands at (pos[i], pos[j])
        m, n = self.m, self.n
        copies = [self._conj[c * m:(c + 1) * m] for c in range(self.mult)]
        out = [0] * (n * n)
        for pos in copies:
            for k, v in enumerate(x.entries):
                out[pos[k // m] * n + pos[k % m]] = v
        return Matrix._trusted(self.spec, n, n, tuple(out))

    def generator_images(self) -> tuple[Matrix, Matrix]:
        a, b = kassabov_generators(self.m, self.spec)
        return self.apply(a), self.apply(b)

    def to_text(self) -> str:
        return f"DELTA {self.m} {self.n} {self.mult}\n" + write_matrix(self.conjugator)

    @classmethod
    def from_text(cls, text: str) -> "DeltaEmbedding":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("DELTA"):
            raise FormatError("expected a DELTA header")
        parts = lines[0].split()
        if len(parts) != 4:
            raise FormatError(f"bad DELTA header: {lines[0]!r}")
        m, n, mult = _header_ints(parts)
        conj = read_matrices("\n".join(lines[1:]), 1)[0]
        return cls(m, n, mult, conj)

    def __repr__(self):
        return (f"DeltaEmbedding(M_{self.m} -> M_{self.n}, mult {self.mult}, "
                f"delta {self.delta})")


def delta_apply(e: DeltaEmbedding, x: Matrix) -> Matrix:
    return e.apply(x)


def _embedding(m: int, n: int, mult: int, spec: FieldSpec, conj) -> DeltaEmbedding:
    """A ``DeltaEmbedding`` from a conjugator given as images or as a matrix."""
    if isinstance(conj, Matrix):
        return DeltaEmbedding(m, n, mult, conj)
    e = object.__new__(DeltaEmbedding)
    e._set_shape(m, n, mult)
    e.spec, e._conj, e._conj_inv = spec, tuple(conj), _inverse(conj)
    return e


def compose(outer: DeltaEmbedding, inner: DeltaEmbedding) -> DeltaEmbedding:
    """The composite block embedding, with its explicit conjugator."""
    if outer.spec != inner.spec:
        raise SpecMismatch("embeddings over different fields")
    if outer.m != inner.n:
        raise DimensionMismatch("composition dimensions do not match")
    k1, k2 = inner.mult, outer.mult
    p, n, m = outer.n, inner.n, inner.m
    if k1 == 0 or k2 == 0:
        return _embedding(m, p, 0, outer.spec, range(p))
    conj = _product(outer.spec, outer._conj, _tile(inner._conj, k2, p),
                    _merge_permutation(k2, n, k1, m, p))
    return _embedding(m, p, k1 * k2, outer.spec, conj)


def intertwining_unit(phi: DeltaEmbedding, psi: DeltaEmbedding) -> Matrix:
    """The unit B_psi B_phi^{-1}, which conjugates phi onto psi exactly.

    Both must share field, source, target and multiplicity."""
    if phi.spec != psi.spec:
        raise SpecMismatch("embeddings over different fields")
    if phi.m != psi.m or phi.n != psi.n:
        raise DimensionMismatch("embeddings with different shapes")
    if phi.mult != psi.mult:
        raise MultiplicityMismatch(f"{phi.mult} != {psi.mult}")
    return _dense(phi.spec, _product(phi.spec, psi._conj, phi._conj_inv))


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
    z = _product(phi.spec, _shuffle_conjugator(m, total // m),
                 _inverse(_merge_permutation(s, n, phi.mult, m, total)),
                 _tile(phi._conj_inv, s, total))
    return _embedding(n, total, s, phi.spec, z)


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


def joint_embed(a_dim: int, b_dim: int, spec: FieldSpec):
    """Common superalgebra of dimension a*b with the two inclusions."""
    c = a_dim * b_dim
    return c, iota_embedding(c, a_dim, spec), iota_embedding(c, b_dim, spec)


class Homomorphism:
    """A homomorphism M_m -> M_n stored by its generator images and its
    matrix units, ``units[i][j]`` the image of the standard unit E_ij.

    The public constructor validates the units, so its instances *are*
    certificates that the map extends to a ring homomorphism; the derived
    maps carry units that hold by construction (see the module docstring).
    The map is unital when the diagonal units sum to the identity.
    """

    __slots__ = ("m", "n", "img_a", "img_b", "units", "spec")

    def __init__(self, m: int, n: int, img_a: Matrix, img_b: Matrix):
        if img_a.spec != img_b.spec:
            raise SpecMismatch("generator images over different fields")
        for img in (img_a, img_b):
            if img.rows != n or img.cols != n:
                raise DimensionMismatch("generator image has the wrong size")
        self.m, self.n, self.img_a, self.img_b = m, n, img_a, img_b
        self.units = matrix_units(img_a, img_b, m)
        self.spec = img_a.spec

    @classmethod
    def _from_units(cls, m: int, n: int, spec: FieldSpec, units) -> "Homomorphism":
        """The map with these units, taken unchecked: they hold by construction.
        Its generator images are the sums of the E_(i+1,i) and of the E_(i,i+1)."""
        h = object.__new__(cls)
        zero = Matrix.zero(spec, n)
        h.m, h.n, h.spec, h.units = m, n, spec, units
        h.img_a = sum((units[i + 1][i] for i in range(m - 1)), zero)
        h.img_b = sum((units[i][i + 1] for i in range(m - 1)), zero)
        return h

    @property
    def unital(self) -> bool:
        diagonal = (self.units[i][i] for i in range(1, self.m))
        return sum(diagonal, self.units[0][0]) == Matrix.identity(self.spec, self.n)

    def apply(self, x: Matrix) -> Matrix:
        """Evaluate on an arbitrary element via its matrix-unit coordinates."""
        if x.rows != self.m or x.cols != self.m:
            raise DimensionMismatch(f"element must be {self.m}x{self.m}")
        m = self.m
        terms = (self.units[k // m][k % m].scale(v) for k, v in enumerate(x.entries) if v)
        return sum(terms, Matrix.zero(self.spec, self.n))

    @classmethod
    def inclusion(cls, n: int, m: int, spec: FieldSpec) -> "Homomorphism":
        """The map x -> x (x) 1_{n/m}, with units scattered by ``iota``."""
        units = [[Matrix.unit(spec, m, i, j) for j in range(1, m + 1)] for i in range(1, m + 1)]
        return cls._from_units(m, m, spec, units)._included(n)

    def _included(self, total: int) -> "Homomorphism":
        """This map followed by iota(total, n): its units scattered, not multiplied."""
        emb = iota_embedding(total, self.n, self.spec)
        return Homomorphism._from_units(self.m, total, self.spec,
                                        [[emb.apply(e) for e in row] for row in self.units])

    def conjugate(self, u: Matrix) -> "Homomorphism":
        """The map x -> u phi(x) u^{-1}, with units (u E_i0)(E_0j u^{-1})."""
        uinv = invert(u)
        left = [u * row[0] for row in self.units]
        right = [e * uinv for e in self.units[0]]
        return Homomorphism._from_units(self.m, self.n, self.spec,
                                        [[x * y for y in right] for x in left])

    def to_text(self) -> str:
        return (f"HOM {self.m} {self.n}\n" + write_matrix(self.img_a)
                + write_matrix(self.img_b))

    @classmethod
    def from_text(cls, text: str) -> "Homomorphism":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("HOM"):
            raise FormatError("expected a HOM header")
        parts = lines[0].split()
        if len(parts) != 3:
            raise FormatError(f"bad HOM header: {lines[0]!r}")
        m, n = _header_ints(parts)
        img_a, img_b = read_matrices("\n".join(lines[1:]), 2)
        return cls(m, n, img_a, img_b)

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

    Both maps must be unital with the same source and target. The target
    column space splits into n/m copies of the standard column module
    under either map; picking the canonical basis of the E_11 image and
    transporting it through the E_i1 images yields a full basis adapted
    to each map, and u is the change of basis between the two.
    """
    if phi0.spec != phi1.spec:
        raise SpecMismatch("homomorphisms over different fields")
    if phi0.m != phi1.m or phi0.n != phi1.n:
        raise DimensionMismatch("homomorphisms with different shapes")
    if not phi0.unital or not phi1.unital:
        raise NotUnital("conjugator construction needs unital maps")
    m, n = phi0.m, phi0.n

    def adapted_basis(phi: Homomorphism) -> Matrix:
        cols = [phi.units[i][0].apply_to_vector(v)
                for v in image_basis(phi.units[0][0]).basis for i in range(m)]
        return Matrix._trusted_columns(phi.spec, cols, n)

    u0 = adapted_basis(phi0)
    u1 = adapted_basis(phi1)
    return u1 * invert(u0)


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
    a = phi0.m
    b0, b1 = phi0.n, phi1.n
    c = b0 * b1
    spec = phi0.spec

    def leg(phi: Homomorphism, b: int) -> Homomorphism:
        # the unit that straightens phi: the inverse of the one that twists the inclusion onto phi
        u = skolem_noether_conjugator(phi, Homomorphism.inclusion(b, a, spec))
        # x -> iota(u x u^-1) is the inclusion conjugated by iota(u), twisted at size b
        return Homomorphism.inclusion(b, b, spec).conjugate(u)._included(c)

    return c, leg(phi0, b0), leg(phi1, b1)
