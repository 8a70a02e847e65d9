"""Towers of matrix algebras and the finite-stage limit machinery.

The completed limit algebra is never materialized: everything here is a
statement about finite stages of a divisibility tower, carried by exact
certificates.

* ``approximate_homogeneity``: two block embeddings with the same shape
  differ by an explicit inner unit, exactly.
* ``approximate_extension``: a block embedding out of a tower stage is
  extended back into a later stage of the tower, with the commuting
  defect of the triangle computed in closed form and matched by direct
  matrix evaluation.
* ``back_and_forth``: alternating extensions between two towers with
  tolerances 2^-t, recording exact round-trip and successive errors per
  probe into a certificate, or refusing one that fails its own bounds;
  each error is ranked from the probe's moved copies, strided slices.
  ``verify_certificate`` checks one by running the deterministic
  construction again and comparing every field.
* ``inner_approximate``: approximate automorphism data on probes is
  turned into a single conjugating unit via defect repair plus
  homogeneity; its linear map is the reduced echelon basis of the
  probes' (element | image) rows.

Conjugators and probe distances come from ``embeddings``
(``intertwining_unit``, ``back_embedding``, ``image_distance``), the one
module that knows how conjugators are stored.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    BoundsNotMet,
    DimensionMismatch,
    EmptyRoundTrip,
    InconsistentTarget,
    InvariantViolated,
    NotFactorSequence,
    RankMetricError,
    SpecMismatch,
    StageOrder,
    TowerPrefixTooShort,
)
from .gf import FieldSpec
from .matrix import (Matrix, Subspace, echelon_insert, kassabov_generators, rank,
                     rank_distance)
from .embeddings import (
    DeltaEmbedding,
    back_embedding,
    block_embedding,
    compose,
    image_distances,
    intertwining_unit,
    iota,
    iota_embedding,
)
from .stability import repair

# The dimension at stage i of each named tower rule.
_STAGE_DIM = {"factorial": math.factorial, "powers_of_2": lambda i: 2 ** i}


class Tower:
    """A divisibility tower of matrix algebra dimensions (realized prefix)."""

    __slots__ = ("dims", "rule", "spec")

    def __init__(self, dims, rule: str, spec: FieldSpec):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise NotFactorSequence("a tower needs at least one stage")
        for d in dims:
            if d < 1:
                raise NotFactorSequence("stage dimensions must be positive")
        for lo, hi in zip(dims, dims[1:]):
            if hi % lo != 0:
                raise NotFactorSequence(f"{lo} does not divide {hi}")
        self.dims = dims
        self.rule = rule
        self.spec = spec

    def __len__(self):
        return len(self.dims)

    def dim(self, stage: int) -> int:
        """The dimension at a realized stage; ``StageOrder`` for any other."""
        if not 0 <= stage < len(self.dims):
            raise StageOrder(f"stage {stage} not realized")
        return self.dims[stage]

    def element(self, stage: int, value: Matrix) -> "TowerElement":
        return TowerElement(self, stage, value)

    def generators_at(self, stage: int) -> tuple["TowerElement", "TowerElement"]:
        a, b = kassabov_generators(self.dim(stage), self.spec)
        return TowerElement(self, stage, a), TowerElement(self, stage, b)

    def one_at(self, stage: int) -> "TowerElement":
        return TowerElement(self, stage, Matrix.identity(self.spec, self.dim(stage)))

    def __repr__(self):
        return f"Tower({self.rule}, dims={list(self.dims)})"


def tower_make(rule, prefix_len: int, spec: FieldSpec) -> Tower:
    """Build a tower from a named rule or an explicit dimension list."""
    if isinstance(rule, (list, tuple)):
        dims = list(rule)
        if prefix_len and prefix_len != len(dims):
            raise NotFactorSequence("prefix length does not match explicit list")
        return Tower(dims, "explicit", spec)
    if not isinstance(rule, str) or rule not in _STAGE_DIM:
        raise NotFactorSequence(f"unknown tower rule {rule!r}")
    return Tower([_STAGE_DIM[rule](i) for i in range(prefix_len)], rule, spec)


class TowerElement:
    """A matrix living at one stage of a tower.

    Elements at different stages are identified through the inclusions:
    equality holds when both include to the same matrix at the larger
    stage, so the hash reads only what inclusion keeps: the normalized rank.
    """

    __slots__ = ("tower", "stage", "value")

    def __init__(self, tower: Tower, stage: int, value: Matrix):
        d = tower.dim(stage)
        if value.rows != d or value.cols != d:
            raise DimensionMismatch(f"value must be {d}x{d} at stage {stage}")
        if value.spec != tower.spec:
            raise SpecMismatch("value over a different field")
        self.tower = tower
        self.stage = stage
        self.value = value

    def __eq__(self, other):
        if not isinstance(other, TowerElement) or self.tower is not other.tower:
            return NotImplemented
        top = max(self.stage, other.stage)
        return include_to(self, top).value == include_to(other, top).value

    def __hash__(self):
        return hash((id(self.tower), Fraction(rank(self.value), self.value.rows)))

    def __repr__(self):
        return f"TowerElement(stage {self.stage}, dim {self.value.rows})"


def include_to(e: TowerElement, stage: int) -> TowerElement:
    """Map an element up the tower through the canonical inclusion."""
    if stage < e.stage:
        raise StageOrder(f"cannot include stage {e.stage} down to {stage}")
    if stage == e.stage:
        return e
    target = e.tower.dims[stage]
    return TowerElement(e.tower, stage,
                        iota(target, e.tower.dims[e.stage], e.value))


def approximate_homogeneity(phi: DeltaEmbedding, psi: DeltaEmbedding):
    """The inner unit carrying one block embedding onto another, exactly.

    Both must share source, target, and multiplicity; then conjugation by
    B_psi B_phi^{-1} maps phi onto psi with zero residual at this stage.
    Approximation enters only through the certificates of the maps being
    compared, which the caller composes.
    """
    return intertwining_unit(phi, psi), Fraction(0)


def approximate_extension(phi: DeltaEmbedding, tower: Tower,
                          delta_prime: Fraction):
    """Extend a block embedding out of a tower stage back into the tower.

    ``phi`` maps the stage algebra M_{m_k} into some M_n. The smallest
    realized stage k' with delta_prime * m_{k'} > n receives a block
    embedding ``psi``: M_n -> M_{m_{k'}} built so that the triangle over
    the inclusion M_{m_k} -> M_{m_{k'}} commutes up to the exact defect

        commute_error = 1 - r s m_k / m_{k'}

    (r = phi's multiplicity, s = floor(m_{k'} / n)), which never exceeds
    phi's delta plus delta_prime. Raises ``TowerPrefixTooShort`` when no
    realized stage is large enough.
    """
    delta_prime = Fraction(delta_prime)
    if delta_prime <= 0:
        raise DimensionMismatch("delta_prime must be positive")
    if tower.spec != phi.spec:
        raise SpecMismatch("tower and embedding over different fields")
    m_k = phi.m
    try:
        k = tower.dims.index(m_k)
    except ValueError:
        raise DimensionMismatch(
            f"source dimension {m_k} is not a realized tower stage"
        ) from None
    n = phi.n
    for k_prime in range(k, len(tower.dims)):
        if delta_prime * tower.dims[k_prime] > n:
            break
    else:
        raise TowerPrefixTooShort(
            f"no realized stage satisfies {delta_prime} * m > {n}"
        )
    m_p = tower.dims[k_prime]
    psi = back_embedding(phi, m_p)
    commute_error = Fraction(m_p - phi.mult * psi.mult * m_k, m_p)
    if commute_error > phi.delta_fraction + delta_prime:
        raise InvariantViolated("commuting defect exceeds delta + delta_prime")
    return k_prime, psi, commute_error


class MapRecord:
    """One map of a back-and-forth run, with direction and tolerance."""

    __slots__ = ("index", "direction", "embedding", "tolerance")

    def __init__(self, index, direction, embedding, tolerance):
        self.index = index
        self.direction = direction  # "xy" or "yx"
        self.embedding = embedding
        self.tolerance = tolerance


class ProbeError:
    __slots__ = ("probe_index", "error")

    def __init__(self, probe_index, error):
        self.probe_index = probe_index
        self.error = error


class RoundTrip:
    """Errors of one composite map-pair against the tower inclusion."""

    __slots__ = ("map_index", "bound", "errors")

    def __init__(self, map_index, bound, errors):
        self.map_index = map_index
        self.bound = bound
        self.errors = tuple(errors)


class BackForthCertificate:
    """Exact record of a back-and-forth run; ``verify_certificate`` reruns it."""

    __slots__ = ("rounds", "stage_pairs", "maps", "round_trips",
                 "successive", "final_bound")

    def __init__(self, rounds, stage_pairs, maps, round_trips, successive):
        self.rounds = rounds
        self.stage_pairs = tuple(stage_pairs)
        self.maps = tuple(maps)
        self.round_trips = tuple(round_trips)
        self.successive = tuple(successive)
        self.final_bound = Fraction(2) ** (-2 * rounds + 3)

    def all_bounds_hold(self) -> bool:
        """Each map within its tolerance; each round-trip and successive row
        non-empty and within its bound; the last round trip within the
        final bound."""
        return not any(self._failures())

    def to_text(self) -> str:
        lines = [f"BACKFORTH rounds {self.rounds}"]
        lines.append("stages " + " ".join(f"({j},{k})" for j, k in self.stage_pairs))
        for m in self.maps:
            lines.append(
                f"map {m.index} {m.direction} M_{m.embedding.m}->M_{m.embedding.n}"
                f" mult {m.embedding.mult} delta {m.embedding.delta}"
                f" tol {_ratio(m.tolerance)}"
            )
        for label, trips in (("roundtrip", self.round_trips),
                             ("successive", self.successive)):
            for rt in trips:
                errs = " ".join(f"p{pe.probe_index}={_ratio(pe.error)}" for pe in rt.errors)
                lines.append(f"{label} {rt.map_index} bound {_ratio(rt.bound)} {errs}")
        lines.append(f"final_bound {_ratio(self.final_bound)}")
        return "\n".join(lines) + "\n"

    def _failures(self):
        """A line for each broken rule of ``all_bounds_hold``, in report order: a map
        above its tolerance, a row without probe errors, a probe error above its bound."""
        for m in self.maps:
            if m.embedding.delta_fraction > m.tolerance:
                yield f"map {m.index} delta {m.embedding.delta} exceeds tol {_ratio(m.tolerance)}"
        rows = [("roundtrip", rt, "bound", rt.bound) for rt in self.round_trips]
        rows += [("successive", rt, "bound", rt.bound) for rt in self.successive]
        rows += [("roundtrip", rt, "final_bound", self.final_bound) for rt in self.round_trips[-1:]]
        for label, rt, name, bound in rows:
            if not rt.errors and name == "bound":
                yield f"{label} {rt.map_index} has no probe errors"
            for pe in rt.errors:
                if pe.error > bound:
                    yield (f"{label} {rt.map_index} p{pe.probe_index}={_ratio(pe.error)}"
                           f" exceeds {name} {_ratio(bound)}")


def _ratio(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def back_and_forth(tower_x: Tower, tower_y: Tower, rounds: int, probes,
                   start_x: int = 0, start_y: int = 0) -> BackForthCertificate:
    """Alternating tower maps with tolerance 2^-t for the t-th map.

    The first map is the maximal-multiplicity block map between the
    starting stages. Before each extension the source tower advances one
    stage (so neither sequence terminates), and each new map is produced
    by ``approximate_extension`` at the halved tolerance. After every
    extension the composite with the previous map is compared against
    the straight tower inclusion on every probe that lives early enough
    in the relevant tower, recording exact errors; same-direction maps
    are also compared pairwise (the Cauchy telescoping). Every map has a
    permutation conjugator, so each error is ranked from the moved copies
    of the probe's value, never from a dense image. A round trip that
    no probe reaches would certify nothing, so it raises
    ``EmptyRoundTrip``; a certificate that fails ``all_bounds_hold`` is
    refused with ``BoundsNotMet``, naming the first failing row. The run
    is deterministic, which is what ``verify_certificate`` relies on.
    """
    if tower_x.spec != tower_y.spec:
        raise SpecMismatch("towers over different fields")
    if rounds < 1:
        raise DimensionMismatch("need at least one round")
    probes = list(probes)

    towers = {"x": tower_x, "y": tower_y}
    round_trips = []
    successive = []

    base = block_embedding(tower_x.dim(start_x), tower_y.dim(start_y),
                           tower_x.spec)
    maps = [MapRecord(0, "xy", base, Fraction(1))]
    stage_pairs = [(start_x, start_y)]

    for t in range(1, rounds):
        tol = Fraction(1, 2 ** t)
        prev = maps[-1]
        # bump the tower prev maps into, then extend back into its source
        home_side, bump_side = prev.direction
        home_stage, bump_stage = (stage_pairs[-1]["xy".index(side)] for side in prev.direction)
        dims = towers[bump_side].dims[bump_stage:bump_stage + 2]
        if len(dims) < 2:
            raise TowerPrefixTooShort("target tower prefix exhausted")
        bumped = compose(iota_embedding(dims[1], dims[0], tower_x.spec), prev.embedding)
        landing, psi, _ = approximate_extension(bumped, towers[home_side], tol)
        if landing < home_stage:
            raise TowerPrefixTooShort("extension landed before current stage")
        maps.append(MapRecord(t, bump_side + home_side, psi, tol))
        # the round trip: psi after the bumped prev, against the straight inclusion
        composite = compose(psi, bumped)
        errors = _probe_errors(probes, towers[home_side], home_stage, composite,
                               iota_embedding(psi.n, composite.m, tower_x.spec))
        if not errors:
            raise EmptyRoundTrip(f"round trip {t} has no probe at or below home stage {home_stage}")
        round_trips.append(RoundTrip(t, prev.tolerance + tol, errors))
        stage = {home_side: landing, bump_side: bump_stage + 1}
        stage_pairs.append((stage["x"], stage["y"]))

        if t >= 2:
            successive.append(_successive(maps[t - 2], maps[t], towers,
                                          stage_pairs, probes))

    cert = BackForthCertificate(rounds, stage_pairs, maps, round_trips, successive)
    if not cert.all_bounds_hold():
        raise BoundsNotMet(next(cert._failures()))
    return cert


def _probe_errors(probes, tower: Tower, stage: int, left: DeltaEmbedding,
                  right: DeltaEmbedding) -> list[ProbeError]:
    """Exact distance between ``left`` and ``right`` (maps out of ``stage``) on each probe
    of ``tower`` at or below ``stage``, taken on the probe's own value: the copies the two
    maps place differently are found once per probe dimension as strided slices, with no
    per-dimension compose, and only those moved copies are scattered and ranked."""
    reach = [(idx, p.value) for idx, p in enumerate(probes) if p.tower is tower and p.stage <= stage]
    dists = image_distances(left, right, [x for _, x in reach])
    return [ProbeError(idx, dist.as_fraction()) for (idx, _), dist in zip(reach, dists)]


def _successive(older: MapRecord, newer: MapRecord, towers: dict, stage_pairs,
                probes) -> RoundTrip:
    """Distance between two same-direction maps on the probes that fit the
    older one: old followed by the inclusion, against the inclusion followed by new.

    Those are the probes of the round trip between the two maps, so the
    row is never empty. The older source stage comes from the stage pairs:
    a tower may repeat a dimension (0! = 1!), so a dimension does not name
    its stage.
    """
    side = older.direction[0]
    old_src = stage_pairs[older.index]["xy".index(side)]
    old, new = older.embedding, newer.embedding
    errors = _probe_errors(probes, towers[side], old_src,
                           compose(iota_embedding(new.n, old.n, old.spec), old),
                           compose(new, iota_embedding(new.m, old.m, old.spec)))
    return RoundTrip(newer.index, Fraction(2) ** (3 - newer.index), errors)


def _fields(cert: BackForthCertificate):
    """Every recorded field of a certificate but the conjugators, as one comparable value."""
    maps = tuple((m.index, m.direction, m.tolerance, m.embedding.m, m.embedding.n,
                  m.embedding.mult) for m in cert.maps)
    rows = tuple(tuple((rt.map_index, rt.bound,
                        tuple((pe.probe_index, pe.error) for pe in rt.errors))
                       for rt in trips)
                 for trips in (cert.round_trips, cert.successive))
    return cert.rounds, cert.stage_pairs, maps, rows, cert.final_bound


def verify_certificate(cert: BackForthCertificate, tower_x: Tower,
                       tower_y: Tower, probes) -> bool:
    """Check a certificate by running ``back_and_forth`` again.

    The construction is deterministic, so a fresh run from the recorded number of rounds
    and first stage pair must reproduce every field of the record: the stage pairs; each
    map's index, direction, tolerance, shape, multiplicity and conjugator (by its images, as
    a dense matrix only if twisted, which no map of a run is); every round-trip and
    successive row with its bound, probe indices and exact errors; and the final bound. Any
    difference, or a run that raises (``BoundsNotMet`` for one whose bounds fail), gives
    ``False``; this never raises.
    """
    try:
        fresh = back_and_forth(tower_x, tower_y, cert.rounds, probes,
                               *cert.stage_pairs[0])
        return _fields(fresh) == _fields(cert) and all(
            f.embedding.same_conjugator(c.embedding) for f, c in zip(fresh.maps, cert.maps))
    except (RankMetricError, AttributeError, LookupError, TypeError, ValueError):
        # an altered record may hold values of any shape
        return False


class InnerApproximation:
    """Result of ``inner_approximate``: the unit, exact residuals, and the
    repair certificate that bounds them."""

    __slots__ = ("unit", "stage", "residuals", "eps", "within", "certificate")

    def __init__(self, unit, stage, residuals, eps, certificate=None):
        self.unit = unit
        self.stage = stage
        self.residuals = tuple(residuals)
        self.eps = eps
        self.within = all(r <= eps for r in self.residuals)
        self.certificate = certificate

    def __repr__(self):
        return (f"InnerApproximation(stage {self.stage}, within={self.within}, "
                f"residuals={[str(r) for r in self.residuals]})")


def inner_approximate(targets, eps) -> InnerApproximation:
    """Find a conjugating unit realizing approximate automorphism data.

    ``targets`` is a list of (element, image) tower-element pairs, all in
    one tower. The elements must generate the stage algebra that contains
    them (together with 1, which is implicitly sent to 1): the probes are
    closed under products, one echelon table over their entries keeping
    each new product with the product of its factors' images. The reduced
    echelon basis of the (element | image) rows is then the linear map,
    row j being (e_j | image of e_j). The generator images it gives are
    repaired to an exact embedding, and homogeneity against the straight
    inclusion turns that into a single inner unit. Residuals are exact.

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
    full = n_s * n_s

    seed = [(Matrix.identity(spec, n_s), Matrix.identity(spec, n_k))]
    for y, img in pairs:
        seed.append((include_to(y, src_stage).value,
                     include_to(img, dst_stage).value))

    table = {}
    basis = [(mat, img) for mat, img in seed if echelon_insert(table, mat.entries, spec)]
    # a seed dependent on earlier ones must carry the same combination of images
    if _graph(seed).dim != len(basis):
        raise InconsistentTarget("dependent probes carry conflicting images")

    while len(basis) < full:
        before = len(basis)
        snapshot = list(basis)
        for m1, i1 in snapshot:
            for m2, i2 in snapshot:
                if len(basis) == full:
                    break
                prod = m1 * m2
                if echelon_insert(table, prod.entries, spec):
                    basis.append((prod, i1 * i2))
        if len(basis) == before:
            raise InconsistentTarget("probes do not generate the stage algebra")

    images = Matrix(spec, full, n_k * n_k,
                    [v for row in _graph(basis).basis for v in row[full:]])
    gen_a, gen_b = kassabov_generators(n_s, spec)
    gens = Matrix(spec, 2, full, gen_a.entries + gen_b.entries)
    x_img, y_img = (Matrix(spec, n_k, n_k, row) for row in (gens * images).row_lists())

    psi, _, cert = repair(x_img, y_img, n_s)
    straight = iota_embedding(n_k, n_s, spec)
    beta, _ = approximate_homogeneity(straight, psi)
    beta_inv = intertwining_unit(psi, straight)
    residuals = []
    for y, img in pairs:
        lifted = include_to(y, dst_stage).value
        moved = beta * lifted * beta_inv
        want = include_to(img, dst_stage).value
        residuals.append(rank_distance(moved, want).as_fraction())
    return InnerApproximation(beta, dst_stage, residuals, eps, cert)


def _graph(pairs) -> Subspace:
    """The span of the (element | image) rows of a non-empty list of pairs."""
    m, i = pairs[0]
    return Subspace(m.spec, m.rows * m.rows + i.rows * i.rows,
                    [m.entries + i.entries for m, i in pairs])
