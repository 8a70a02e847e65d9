"""Stability of the shift-pair relations: defect measurement and repair.

Given an approximate generator pair (x, y) in an ambient algebra, the
pipeline measures how badly the defining relations

    x^n = 0,   y^n = 0,   yx + x^(n-1) y^(n-1) = 1

fail (``relation_defect``), carves out the largest subspace on which the
pair already acts as the exact model (``w_chain`` / ``v_space``), and
replaces the pair by an exact block model agreeing with it on that
subspace (``repair``). Every quantity is an exact rational; the returned
certificate carries the dimensions and distances that make the repair
auditable, including the a-priori bound (4+n) * n * delta.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, InvariantViolated, NotRepairable, SpecMismatch
from .matrix import (
    Matrix,
    RankDistance,
    Subspace,
    apply,
    echelon_insert,
    intersect,
    kassabov_generators,
    kernel_basis,
    rank,
    rank_distance,
    subspace_sum,
)
from .embeddings import DeltaEmbedding


def _check_pair(x: Matrix, y: Matrix, n: int) -> int:
    if x.spec != y.spec:
        raise SpecMismatch("pair over different fields")
    if not (x.is_square() and y.is_square() and x.rows == y.rows):
        raise DimensionMismatch("pair must be square of equal ambient size")
    if n < 1 or n > x.rows:
        raise DimensionMismatch(f"model size {n} does not fit ambient {x.rows}")
    return x.rows


def relation_residual(x: Matrix, y: Matrix, n: int) -> Matrix:
    """The matrix yx + x^(n-1) y^(n-1) - 1."""
    amb = _check_pair(x, y, n)
    return y * x + (x ** (n - 1)) * (y ** (n - 1)) - Matrix.identity(x.spec, amb)


class RelationDefect:
    """The five exact defect components of an approximate pair and their max."""

    __slots__ = ("n", "ambient", "d_xn", "d_yn", "d_rel", "d_rx", "d_ry", "delta")

    def __init__(self, n, ambient, d_xn, d_yn, d_rel, d_rx, d_ry):
        self.n = n
        self.ambient = ambient
        self.d_xn = d_xn
        self.d_yn = d_yn
        self.d_rel = d_rel
        self.d_rx = d_rx
        self.d_ry = d_ry
        self.delta = max(d_xn.as_fraction(), d_yn.as_fraction(),
                         d_rel.as_fraction(), d_rx, d_ry)

    def components_over_common_denominator(self) -> tuple[list[int], int]:
        """All five numerators over the common denominator n * ambient."""
        den = self.n * self.ambient
        nums = []
        for comp in (self.d_xn, self.d_yn, self.d_rel):
            nums.append(comp.numerator * self.n)
        for comp in (self.d_rx, self.d_ry):
            frac = comp * den
            nums.append(int(frac))
        return nums, den

    def to_text(self) -> str:
        lines = [f"DEFECT {self.n} {self.ambient}",
                 f"d_xn {self.d_xn}",
                 f"d_yn {self.d_yn}",
                 f"d_rel {self.d_rel}",
                 f"d_rx {self.d_rx.numerator}/{self.d_rx.denominator}",
                 f"d_ry {self.d_ry.numerator}/{self.d_ry.denominator}",
                 f"delta {self.delta.numerator}/{self.delta.denominator}"]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"RelationDefect(n={self.n}, ambient={self.ambient}, delta={self.delta})"


def relation_defect(x: Matrix, y: Matrix, n: int) -> RelationDefect:
    """Exact defect of (x, y) against the size-n relations."""
    amb = _check_pair(x, y, n)
    d_xn = RankDistance(rank(x ** n), amb)
    d_yn = RankDistance(rank(y ** n), amb)
    d_rel = RankDistance(rank(relation_residual(x, y, n)), amb)
    target = Fraction(n - 1, n)
    d_rx = abs(Fraction(rank(x), amb) - target)
    d_ry = abs(Fraction(rank(y), amb) - target)
    return RelationDefect(n, amb, d_xn, d_yn, d_rel, d_rx, d_ry)


def w_chain(x: Matrix, y: Matrix, n: int) -> list[Subspace]:
    """The nested subspace chain W_0 ... W_{n-1}.

    W_0 is the joint kernel of y, x^n and the relation residual; each
    W_k is the x-image of its predecessor re-intersected with the
    residual kernel. On W_k the pair acts exactly like the model shifts,
    which is what the repair exploits.
    """
    _check_pair(x, y, n)
    ker_rel = kernel_basis(relation_residual(x, y, n))
    w = intersect(intersect(kernel_basis(y), kernel_basis(x ** n)), ker_rel)
    chain = [w]
    for _ in range(1, n):
        w = intersect(apply(x, w), ker_rel)
        chain.append(w)
    return chain


def v_space(x: Matrix, y: Matrix, n: int, w_last: Subspace) -> Subspace:
    """V = W + yW + ... + y^(n-1) W; its dimension is always n * dim W."""
    _check_pair(x, y, n)
    v = w_last
    cur = w_last
    for _ in range(1, n):
        cur = apply(y, cur)
        v = subspace_sum(v, cur)
    if v.dim != n * w_last.dim:
        raise InvariantViolated(
            f"summands not independent: dim V = {v.dim} != {n} * {w_last.dim}"
        )
    return v


class RepairCertificate:
    """Audit record of one repair: dimensions, distances, and bounds."""

    __slots__ = ("n", "ambient", "delta", "dims_W", "dim_V", "d_x", "d_y",
                 "bound", "residual_rank_bound")

    def __init__(self, n, ambient, delta, dims_W, dim_V, d_x, d_y):
        self.n = n
        self.ambient = ambient
        self.delta = delta
        self.dims_W = tuple(dims_W)
        self.dim_V = dim_V
        self.d_x = d_x
        self.d_y = d_y
        self.bound = Fraction((4 + n) * n) * delta
        self.residual_rank_bound = Fraction(ambient - dim_V, ambient)

    @property
    def bound_premise_holds(self) -> bool:
        """Whether delta < 1/((4+n)n), the regime where the bound applies."""
        return self.delta < Fraction(1, (4 + self.n) * self.n)

    def check(self):
        """Internal consistency of the recorded numbers."""
        if self.dim_V != self.n * self.dims_W[-1]:
            raise InvariantViolated("dim V != n * dim W_last")
        if self.d_x.as_fraction() > self.residual_rank_bound:
            raise InvariantViolated("d_x exceeds the residual rank bound")
        if self.d_y.as_fraction() > self.residual_rank_bound:
            raise InvariantViolated("d_y exceeds the residual rank bound")
        if self.bound_premise_holds and self.residual_rank_bound > self.bound:
            raise InvariantViolated("residual bound exceeds (4+n) n delta")
        return True

    def to_text(self) -> str:
        lines = [f"REPAIR {self.n} {self.ambient}",
                 f"delta {self.delta.numerator}/{self.delta.denominator}",
                 "dims_W " + " ".join(str(d) for d in self.dims_W),
                 f"dim_V {self.dim_V}",
                 f"d_x {self.d_x}",
                 f"d_y {self.d_y}",
                 f"residual_rank_bound {self.residual_rank_bound.numerator}/{self.residual_rank_bound.denominator}",
                 f"bound {self.bound.numerator}/{self.bound.denominator}"]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"RepairCertificate(n={self.n}, ambient={self.ambient}, "
                f"d_x={self.d_x}, d_y={self.d_y})")


class _SpanTracker:
    """Incremental independence test over accumulating column vectors.

    Keeps an echelon table of the accepted vectors and reduces each
    candidate against it, so an add costs one reduction, not a rebuild.
    """

    def __init__(self, spec):
        self.spec = spec
        self.echelon = {}

    def try_add(self, vec) -> bool:
        return echelon_insert(self.echelon, vec, self.spec)


def repair(x: Matrix, y: Matrix, n: int):
    """Replace (x, y) by an exact padded model pair agreeing with it on V.

    Returns ``(psi, B, cert)`` where ``psi`` is the resulting block
    embedding M_n -> ambient with maximal multiplicity floor(ambient/n),
    ``B`` its change-of-basis unit, and ``cert`` the audit certificate.
    The repaired pair is ``psi`` applied to the exact generators; it
    satisfies the relations exactly and differs from the input by at most
    (ambient - dim V)/ambient in rank distance.

    Basis assembly is deterministic: the canonical echelon basis of
    W_{n-1} is propagated by powers of y to span V, all of it in one
    product per power, and the complement is completed first from
    ker x intersect ker y (which makes repairing a repaired pair a fixed
    point), then by standard basis vectors in index order.
    """
    amb = _check_pair(x, y, n)
    defect = relation_defect(x, y, n)
    chain = w_chain(x, y, n)
    w_last = chain[-1]
    if w_last.dim == 0:
        dims = " ".join(str(w.dim) for w in chain)
        raise NotRepairable(f"the final chain subspace is trivial: dims_W {dims}, ambient {amb}")
    v = v_space(x, y, n, w_last)
    d = w_last.dim
    mult = amb // n

    # row i of powers[k] is y^k w_i: P_{k+1} = P_k y^T for the basis rows P_0 of W_{n-1}
    yt, powers = y.transpose(), [w_last.matrix]
    for _ in range(n - 1):
        powers.append(powers[-1] * yt)
    cols = []
    tracker = _SpanTracker(x.spec)
    for i in range(d):
        for p in reversed(powers):  # per-copy order: y^(n-1) w, ..., y w, w
            vec = p.entries[i * amb:(i + 1) * amb]
            if not tracker.try_add(vec):
                raise InvariantViolated("propagated basis unexpectedly dependent")
            cols.append(vec)

    complement_needed = amb - n * d
    complement = []
    if complement_needed:
        quiet = intersect(kernel_basis(x), kernel_basis(y))
        # then the standard basis vectors in index order
        for cand in [*quiet.basis, *Matrix.identity(x.spec, amb).row_lists()]:
            if len(complement) == complement_needed:
                break
            if tracker.try_add(cand):
                complement.append(tuple(cand))
        if len(complement) != complement_needed:
            raise InvariantViolated("complement completion failed")

    b_matrix = Matrix._trusted_columns(x.spec, cols + complement, amb)
    psi = DeltaEmbedding(n, amb, mult, b_matrix)

    gen_a, gen_b = kassabov_generators(n, x.spec)
    x_new = psi.apply(gen_a)
    y_new = psi.apply(gen_b)
    cert = RepairCertificate(
        n, amb, defect.delta,
        [w.dim for w in chain], v.dim,
        rank_distance(x, x_new), rank_distance(y, y_new),
    )
    cert.check()
    return psi, b_matrix, cert


def delta_for_target(n: int, eps: Fraction) -> Fraction:
    """Largest input defect guaranteeing repair distance below eps.

    Choosing delta <= eps / ((4+n) n + 1) keeps the repaired pair within
    eps of the input even after adding the defect itself on top of the
    certified (4+n) n delta distance.
    """
    return Fraction(eps) / ((4 + n) * n + 1)
