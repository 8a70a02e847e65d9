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
    column_stack,
    echelon_insert,
    kassabov_generators,
    kernel_basis,
    rank,
    rank_distance,
    row_forms,
    row_span,
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


def _relations(x: Matrix, y: Matrix, n: int) -> tuple[Matrix, Matrix, Matrix]:
    """The transposes of x^n, y^n and R = yx + x^(n-1) y^(n-1) - 1 (rank is transpose-invariant),
    from x^T, y^T and one power of each: R^T = x^T y^T + (y^T)^(n-1) (x^T)^(n-1) - 1."""
    amb = _check_pair(x, y, n)
    xt, yt = x.transpose(), y.transpose()
    xm, ym = xt ** (n - 1), yt ** (n - 1)
    return xm * xt, ym * yt, xt * yt + ym * xm - Matrix.identity(x.spec, amb)


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
    return _measure(x, y, n)[0]


def _measure(x: Matrix, y: Matrix, n: int):
    """The defect of (x, y), with the x^n and residual it ranked, which the chain reuses."""
    xnt, ynt, rt = _relations(x, y, n)
    amb, target = x.rows, Fraction(n - 1, n)
    defect = RelationDefect(n, amb, *(RankDistance(rank(m), amb) for m in (xnt, ynt, rt)),
                            *(abs(Fraction(rank(m), amb) - target) for m in (x, y)))
    return defect, xnt.transpose(), rt.transpose()


def w_chain(x: Matrix, y: Matrix, n: int, xn: Matrix | None = None,
            resid: Matrix | None = None) -> list[Subspace]:
    """The nested subspace chain W_0 ... W_{n-1}, given x^n and the relation residual R
    when the caller has them.

    W_0 is the joint kernel of y, x^n and R; each W_k is the x-image of its predecessor
    met with ker R. On W_k the pair acts exactly like the model shifts, which is what the
    repair exploits. Each W_k is one kernel: for the basis rows B of W_(k-1) and T = x B^T,
    x W_(k-1) meets ker R in the T-image of ker R T. The steps run in transposed
    coordinates, T^T = B x^T and (R T)^T = T^T R^T, so they transpose nothing.
    """
    _check_pair(x, y, n)
    if xn is None or resid is None:
        xn, _, resid = (m.transpose() for m in _relations(x, y, n))
    w = kernel_basis(y, xn, resid)
    chain, xt, rt = [w], x.transpose(), resid.transpose()
    for _ in range(1, n):
        tt = w.matrix * xt
        w = apply(tt.transpose(), kernel_basis((tt * rt).transpose()))
        chain.append(w)
    return chain


def v_space(x: Matrix, y: Matrix, n: int, w_last: Subspace) -> Subspace:
    """V = W + yW + ... + y^(n-1) W; its dimension is always n * dim W."""
    _check_pair(x, y, n)
    return row_span(y.spec, _propagated(y, n, w_last).kept, y.rows)


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

    Keeps an echelon table of the accepted vectors, given as ``row_forms`` rows of
    width ``ambient``, and reduces each candidate against it, so an add costs one
    reduction, not a rebuild; ``kept`` lists the accepted rows in order.
    """

    def __init__(self, spec, ambient: int):
        self.spec, self.ambient = spec, ambient
        self.echelon, self.kept = {}, []

    def try_add(self, row) -> bool:
        if echelon_insert(self.echelon, row, self.spec, self.ambient):
            self.kept.append(row)
            return True
        return False


def _propagated(y: Matrix, n: int, w_last: Subspace) -> _SpanTracker:
    """A tracker that has kept y^(n-1) w, ..., y w, w for each basis row w of W = w_last in
    turn, so that its rows span V; dependent rows, dim V < n dim W, raise InvariantViolated."""
    # row i of powers[k] is y^k w_i: P_{k+1} = P_k y^T for the basis rows P_0 of W
    yt, powers = y.transpose(), [w_last.matrix]
    for _ in range(n - 1):
        powers.append(powers[-1] * yt)
    tracker, d = _SpanTracker(y.spec, y.rows), w_last.dim
    rows = [row_forms(p) for p in reversed(powers)]  # per-copy order: y^(n-1) w, ..., y w, w
    for i in range(d):
        for p in rows:
            if not tracker.try_add(p[i]):
                raise InvariantViolated(f"summands not independent: dim V < {n} * {d}")
    return tracker


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
    ker [x; y] (which makes repairing a repaired pair a fixed point),
    then by standard basis vectors in index order. The propagated
    vectors are independent exactly when dim V = n dim W_{n-1}, so the
    tracker that assembles B also measures V.
    """
    amb = _check_pair(x, y, n)
    defect, xn, resid = _measure(x, y, n)
    chain = w_chain(x, y, n, xn, resid)
    w_last = chain[-1]
    if w_last.dim == 0:
        dims = " ".join(str(w.dim) for w in chain)
        raise NotRepairable(f"the final chain subspace is trivial: dims_W {dims}, ambient {amb}")
    d, mult = w_last.dim, amb // n
    # V first, copy by copy, then ker [x; y], then the standard basis vectors in index order
    tracker = _propagated(y, n, w_last)
    if len(tracker.kept) < amb:
        for cand in [*row_forms(kernel_basis(x, y).matrix),
                     *row_forms(Matrix.identity(x.spec, amb))]:
            if tracker.try_add(cand) and len(tracker.kept) == amb:
                break
        if len(tracker.kept) != amb:
            raise InvariantViolated("complement completion failed")

    b_matrix = column_stack(x.spec, tracker.kept, amb)
    psi = DeltaEmbedding(n, amb, mult, b_matrix)

    gen_a, gen_b = kassabov_generators(n, x.spec)
    x_new = psi.apply(gen_a)
    y_new = psi.apply(gen_b)
    cert = RepairCertificate(
        n, amb, defect.delta,
        [w.dim for w in chain], n * d,
        rank_distance(x, x_new), rank_distance(y, y_new),
    )
    cert.check()
    return psi, b_matrix, cert
