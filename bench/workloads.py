"""The three benchmark workloads: their seeded inputs, their ops and their checks.

Each workload builds one cycle, a fixed list of ops, from the seed. An op
has a ``run`` (the timed call into ``rankmetric``), a ``derive`` that
turns the output into plain lists and numbers, and a ``verify`` that
checks that record with ``oracle`` and closed forms computed here, never
against stored outputs. ``derive`` and ``verify`` run outside the timed
region; the checker self-test corrupts a derived record between the two.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import oracle as O


class Op:
    """One timed call; ``nominal_ms`` (its rough time here) picks the warm-up op."""

    __slots__ = ("label", "nominal_ms", "run", "derive", "verify")

    def __init__(self, label, nominal_ms, run, derive, verify):
        self.label = label
        self.nominal_ms = nominal_ms
        self.run = run
        self.derive = derive
        self.verify = verify


def to_matrix(rm, F: O.Field, rows):
    spec = rm.gf.field_for_order(F.q)
    return rm.Matrix(spec, len(rows), len(rows[0]), [v for row in rows for v in row])


def random_rows(F: O.Field, n: int, rng):
    return [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]


def random_unit_rows(F: O.Field, n: int, rng):
    """A random invertible matrix; for GF(4) a product of random elementary steps."""
    if not F.prime:
        u = O.identity(n)
        for _ in range(6 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(1, F.q)
            mc = F.mul[c]
            u[i] = [F.add[a][mc[b]] for a, b in zip(u[i], u[j])]
        for i in range(n):
            s = F.mul[rng.randrange(1, F.q)]
            u[i] = [s[v] for v in u[i]]
        return u
    while True:
        u = random_rows(F, n, rng)
        if O.rank(F, u) == n:
            return u


# ---------------------------------------------------------------------------
# repair: relation defect plus repair of perturbed generator pairs


def _perturbation(F: O.Field, amb: int, t: int, rng):
    while True:
        pert = [[0] * amb for _ in range(amb)]
        for _ in range(t):
            i, j = rng.randrange(amb), rng.randrange(amb)
            pert[i][j] = F.add[pert[i][j]][rng.randrange(1, F.q)]
        if O.rank(F, pert) == t:
            return pert


def repaired_pair(F: O.Field, n: int, mult: int, amb: int, conj):
    """x' = B (a^{+mult} (+) 0) B^{-1} and likewise y', or None if B is singular."""
    binv = O.inverse(F, conj)
    if binv is None:
        return None
    a, b = O.shift_pair(n)
    pair = []
    for g in (a, b):
        blocks = O.block_diag([g] * mult, amb)
        pair.append(O.mul(F, O.mul(F, conj, blocks), binv))
    return pair


def _relations_hold(F: O.Field, x, y, n: int) -> bool:
    xs = [O.identity(len(x))]
    ys = [O.identity(len(y))]
    for _ in range(n):
        xs.append(O.mul(F, xs[-1], x))
        ys.append(O.mul(F, ys[-1], y))
    rel = O.add(F, O.mul(F, y, x), O.mul(F, xs[n - 1], ys[n - 1]))
    return O.is_zero(xs[n]) and O.is_zero(ys[n]) and O.is_identity(rel)


def _defect(F: O.Field, x, y, n: int) -> Fraction:
    amb = len(x)
    xn = O.power(F, x, n)
    yn = O.power(F, y, n)
    rel = O.sub(F, O.add(F, O.mul(F, y, x),
                         O.mul(F, O.power(F, x, n - 1), O.power(F, y, n - 1))),
                O.identity(amb))
    target = Fraction(n - 1, n)
    return max(Fraction(O.rank(F, xn), amb), Fraction(O.rank(F, yn), amb),
               Fraction(O.rank(F, rel), amb),
               abs(Fraction(O.rank(F, x), amb) - target),
               abs(Fraction(O.rank(F, y), amb) - target))


def _frac(d) -> Fraction:
    return Fraction(d.numerator, d.denominator)


# (q, n, ambient, perturbation rank, perturbed side): every rank 0..3 and every
# side at both ambients. The mix is fixed so that the cost of a cycle does not
# depend on the seed; the seed places the perturbations and orders the ops.
REPAIR_CASES = [
    (2, 2, 60, 0, "none"), (2, 3, 60, 1, "x"), (3, 2, 60, 2, "y"), (3, 3, 60, 3, "both"),
    (2, 2, 120, 3, "both"), (2, 3, 120, 2, "y"), (3, 2, 120, 1, "x"), (3, 3, 120, 0, "none"),
]


def repair_cycle(rm, seed: int) -> list[Op]:
    """Relation defect plus repair of shift pairs x0 = a (x) 1, y0 = b (x) 1 over GF(2)
    and GF(3), with seeded rank-t perturbations of x, y or both."""
    rng = random.Random(f"repair/{seed}")
    ops = []
    for q, n, amb, t, side in REPAIR_CASES:
        F = O.Field(q)
        a, b = O.shift_pair(n)
        x0, y0 = O.kron_identity(a, amb // n), O.kron_identity(b, amb // n)
        xs = O.add(F, x0, _perturbation(F, amb, t, rng)) if side in ("x", "both") else x0
        ys = O.add(F, y0, _perturbation(F, amb, t, rng)) if side in ("y", "both") else y0
        ops.append(_repair_op(rm, F, n, amb, t, side, xs, ys))
    rng.shuffle(ops)
    return ops


def _repair_op(rm, F, n, amb, t, side, xs, ys) -> Op:
    x, y = to_matrix(rm, F, xs), to_matrix(rm, F, ys)

    def run():
        defect = rm.relation_defect(x, y, n)
        psi, conj, cert = rm.repair(x, y, n)
        return defect, psi, conj, cert

    def derive(out):
        defect, psi, conj, cert = out
        pair = repaired_pair(F, psi.m, psi.mult, psi.n, conj.row_lists())
        again = None
        if pair is not None:
            psi2, conj2, _ = rm.repair(to_matrix(rm, F, pair[0]), to_matrix(rm, F, pair[1]), n)
            again = repaired_pair(F, psi2.m, psi2.mult, psi2.n, conj2.row_lists())
        return {"pair": pair, "again": again, "defect_delta": defect.delta,
                "delta": cert.delta, "dim_V": cert.dim_V, "m": psi.m, "n_amb": psi.n,
                "d_x": _frac(cert.d_x), "d_y": _frac(cert.d_y)}

    def verify(rec):
        problems = []
        if rec["m"] != n or rec["n_amb"] != amb:
            problems.append("repair embedding has the wrong shape")
        if rec["pair"] is None:
            return problems + ["change of basis is singular"]
        x2, y2 = rec["pair"]
        if not _relations_hold(F, x2, y2, n):
            problems.append("repaired pair breaks x^n = y^n = 0 or yx + x^(n-1)y^(n-1) = 1")
        d_x = Fraction(O.rank(F, O.sub(F, xs, x2)), amb)
        d_y = Fraction(O.rank(F, O.sub(F, ys, y2)), amb)
        if (d_x, d_y) != (rec["d_x"], rec["d_y"]):
            problems.append(f"distances {d_x}, {d_y} recomputed, certificate says "
                            f"{rec['d_x']}, {rec['d_y']}")
        resid = Fraction(amb - rec["dim_V"], amb)
        if d_x > resid or d_y > resid:
            problems.append("distance above (ambient - dim V)/ambient")
        delta = _defect(F, xs, ys, n)
        if delta != rec["delta"] or delta != rec["defect_delta"]:
            problems.append(f"defect {delta} recomputed, reported {rec['defect_delta']}"
                            f" and {rec['delta']}")
        if delta < Fraction(1, (4 + n) * n) and resid > (4 + n) * n * delta:
            problems.append("residual bound above (4+n) n delta")
        if t == 0 and (d_x or d_y):
            problems.append("unperturbed pair moved")
        if rec["again"] != rec["pair"]:
            problems.append("repairing the repaired pair changed it")
        return problems

    return Op(f"repair q{F.q} n{n} amb{amb} t{t}{side}", 130 if amb == 60 else 650,
              run, derive, verify)


# ---------------------------------------------------------------------------
# towers: back-and-forth certificates, amalgamation, conjugated homomorphisms


def tower_dims(rule: str, length: int) -> list[int]:
    if rule == "factorial":
        return [math.factorial(i) for i in range(length)]
    return [2 ** i for i in range(length)]


_PREFIX = {"factorial": 6, "powers_of_2": 9}


def _backforth_op(rm, F, rule_x, rule_y, rng) -> Op:
    spec = rm.gf.field_for_order(F.q)
    rounds = 3
    towers = {"x": rm.tower_make(rule_x, _PREFIX[rule_x], spec),
              "y": rm.tower_make(rule_y, _PREFIX[rule_y], spec)}
    dims = {"x": tower_dims(rule_x, _PREFIX[rule_x]), "y": tower_dims(rule_y, _PREFIX[rule_y])}
    # identity and a seeded random element at stages 0 and 1 of each tower,
    # plus the generator pair wherever the stage has dimension at least 2
    kinds = []
    probes = []
    for side in ("x", "y"):
        for stage in (0, 1):
            d = dims[side][stage]
            values = [("one", O.identity(d)), ("rand", random_rows(F, d, rng))]
            if d >= 2:
                a, b = O.shift_pair(d)
                values += [("gen", a), ("gen", b)]
            for kind, rows in values:
                kinds.append((side, stage, kind))
                probes.append(towers[side].element(stage, to_matrix(rm, F, rows)))

    def run():
        cert = rm.back_and_forth(towers["x"], towers["y"], rounds, probes)
        return cert, rm.verify_certificate(cert, towers["x"], towers["y"], probes)

    def derive(out):
        cert, verified = out
        return {
            "verified": verified,
            "rounds": cert.rounds,
            "stages": [tuple(p) for p in cert.stage_pairs],
            "maps": [(m.direction, m.embedding.m, m.embedding.n, m.embedding.mult,
                      Fraction(m.tolerance)) for m in cert.maps],
            "trips": [(rt.map_index, Fraction(rt.bound),
                       [(pe.probe_index, Fraction(pe.error)) for pe in rt.errors])
                      for rt in cert.round_trips],
            "successive": [(rt.map_index, Fraction(rt.bound),
                            [Fraction(pe.error) for pe in rt.errors])
                           for rt in cert.successive],
            "final_bound": Fraction(cert.final_bound),
        }

    def verify(rec):
        problems = []
        if rec["verified"] is not True:
            problems.append("verify_certificate rejected the certificate")
        if dims["x"] != list(towers["x"].dims) or dims["y"] != list(towers["y"].dims):
            problems.append("tower dimensions differ from the closed forms")
        maps, stages = rec["maps"], rec["stages"]
        if rec["rounds"] != rounds or len(maps) != rounds or len(stages) != rounds:
            return problems + ["certificate does not hold one map per round"]
        tol = [Fraction(1)] + [Fraction(1, 2 ** t) for t in range(1, rounds)]
        for t, (direction, m, n, mult, tolerance) in enumerate(maps):
            if direction != ("xy" if t % 2 == 0 else "yx") or tolerance != tol[t]:
                problems.append(f"map {t} has direction {direction}, tolerance {tolerance}")
            if Fraction(n - m * mult, n) > tolerance:
                problems.append(f"map {t} misses more than its tolerance")
        if len(rec["trips"]) != rounds - 1:
            return problems + ["one round trip per extension is missing"]
        for t, bound, errors in rec["trips"]:
            home, other = ("x", "y") if maps[t - 1][0] == "xy" else ("y", "x")
            hi, oi = (0, 1) if home == "x" else (1, 0)
            home_stage, bump_from = stages[t - 1][hi], stages[t - 1][oi]
            landing = stages[t][hi]
            if stages[t][oi] != bump_from + 1:
                problems.append(f"round trip {t} did not advance the other tower by one")
                continue
            bump = dims[other][bump_from + 1] // dims[other][bump_from]
            prev, new = maps[t - 1], maps[t]
            if (prev[1], prev[2]) != (dims[home][home_stage], dims[other][bump_from]) or \
                    (new[1], new[2]) != (dims[other][bump_from + 1], dims[home][landing]):
                problems.append(f"round trip {t} maps do not match the stage pairs")
            if bound != tol[t - 1] + tol[t]:
                problems.append(f"round trip {t} bound {bound}")
            eligible = [i for i, (side, stage, _) in enumerate(kinds)
                        if side == home and stage <= home_stage]
            if [i for i, _ in errors] != eligible:
                problems.append(f"round trip {t} checked probes {[i for i, _ in errors]},"
                                f" expected {eligible}")
            closed = 1 - Fraction(prev[3] * bump * new[3] * dims[home][home_stage],
                                  dims[home][landing])
            for i, err in errors:
                if err > tol[t - 1] + tol[t]:
                    problems.append(f"round trip {t} probe {i} error {err} above its bound")
                if kinds[i][2] == "one" and err != closed:
                    problems.append(f"round trip {t} identity probe {i}: {err} != {closed}")
        final = rec["trips"][-1][2]
        if not final:
            problems.append("final round checked no probe")
        if rec["final_bound"] != Fraction(2) ** (-2 * rounds + 3):
            problems.append(f"final bound {rec['final_bound']}")
        if any(err > Fraction(2) ** (-2 * rounds + 3) for _, err in final):
            problems.append("final round error above the final bound")
        for t, bound, errors in rec["successive"]:
            if bound != Fraction(2) ** (-(t - 2) + 1) or any(e > bound for e in errors):
                problems.append(f"successive {t} error above its bound")
        return problems

    return Op(f"backforth q{F.q} {rule_x}->{rule_y}",
              300 if rule_x == "factorial" else 150, run, derive, verify)


def _hom_samples(rm, F, hom, src: int, rng):
    """Images of 1 and of two seeded random pairs and their products under hom."""
    spec = rm.gf.field_for_order(F.q)
    out = {"one": hom.apply(rm.Matrix.identity(spec, src)).row_lists(), "pairs": []}
    for _ in range(2):
        x, y = random_rows(F, src, rng), random_rows(F, src, rng)
        xy = O.mul(F, x, y)
        out["pairs"].append([hom.apply(to_matrix(rm, F, m)).row_lists() for m in (x, y, xy)])
    return out


def _hom_problems(F, samples, what: str) -> list[str]:
    problems = []
    if not O.is_identity(samples["one"]):
        problems.append(f"{what} is not unital")
    for hx, hy, hxy in samples["pairs"]:
        if O.mul(F, hx, hy) != hxy:
            problems.append(f"{what} is not multiplicative")
    return problems


def _amalgamate_op(rm, F, rng) -> Op:
    spec = rm.gf.field_for_order(F.q)
    phis = [rm.Homomorphism.inclusion(b, 2, spec).conjugate(
        to_matrix(rm, F, random_unit_rows(F, b, rng))) for b in (4, 6)]
    sample_seed = rng.randrange(1 << 30)

    def run():
        return rm.amalgamate(phis[0], phis[1])

    def derive(out):
        c, psi0, psi1 = out
        srng = random.Random(sample_seed)
        legs = [_hom_samples(rm, F, psi, b, srng) for psi, b in ((psi0, 4), (psi1, 6))]
        square = []
        for _ in range(2):
            z = to_matrix(rm, F, random_rows(F, 2, srng))
            square.append((psi0.apply(phis[0].apply(z)).row_lists(),
                           psi1.apply(phis[1].apply(z)).row_lists()))
        return {"c": c, "shapes": [(psi0.m, psi0.n), (psi1.m, psi1.n)],
                "legs": legs, "square": square}

    def verify(rec):
        problems = []
        if rec["c"] != 24 or rec["shapes"] != [(4, 24), (6, 24)]:
            problems.append(f"amalgam has c = {rec['c']}, legs {rec['shapes']}")
        for leg, name in zip(rec["legs"], ("psi0", "psi1")):
            problems += _hom_problems(F, leg, name)
        if any(lhs != rhs for lhs, rhs in rec["square"]):
            problems.append("square does not commute")
        return problems

    return Op(f"amalgamate q{F.q} c24", 1200, run, derive, verify)


def _conjugated_hom_op(rm, F, rng) -> Op:
    spec = rm.gf.field_for_order(F.q)
    u_rows = random_unit_rows(F, 32, rng)
    u = to_matrix(rm, F, u_rows)
    sample_seed = rng.randrange(1 << 30)

    def run():
        return rm.Homomorphism.inclusion(32, 4, spec).conjugate(u)

    def derive(out):
        srng = random.Random(sample_seed)
        samples = _hom_samples(rm, F, out, 4, srng)
        probes = [random_rows(F, 4, srng) for _ in range(2)] + list(O.shift_pair(4))
        conj = [(x, out.apply(to_matrix(rm, F, x)).row_lists()) for x in probes]
        return {"shape": (out.m, out.n), "samples": samples, "conj": conj}

    def verify(rec):
        problems = []
        if rec["shape"] != (4, 32):
            problems.append(f"homomorphism has shape {rec['shape']}")
        problems += _hom_problems(F, rec["samples"], "conjugated homomorphism")
        for x, hx in rec["conj"]:
            if O.mul(F, hx, u_rows) != O.mul(F, u_rows, O.kron_identity(x, 8)):
                problems.append("image is not u (x (x) 1) u^-1")
        return problems

    return Op(f"homomorphism q{F.q} M4->M32", 1100, run, derive, verify)


def towers_cycle(rm, seed: int) -> list[Op]:
    """Over GF(3), GF(4) and GF(5): back-and-forth in both tower orders,
    one amalgamation at c = 24 and one conjugated M_4 -> M_32."""
    rng = random.Random(f"towers/{seed}")
    ops = []
    for q in (3, 4, 5):
        F = O.Field(q)
        ops.append(_backforth_op(rm, F, "factorial", "powers_of_2", rng))
        ops.append(_backforth_op(rm, F, "powers_of_2", "factorial", rng))
        ops.append(_amalgamate_op(rm, F, rng))
        ops.append(_conjugated_hom_op(rm, F, rng))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# census: one rankmetric CLI process per op, all over GF(2)


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def copy_count(a: int, b: int, q: int) -> int:
    """Skolem-Noether: unital copies of M_a in M_b number |GL_b|(q-1)/(|GL_a||GL_{b/a}|)."""
    return gl_order(b, q) * (q - 1) // (gl_order(a, q) * gl_order(b // a, q))


def least_multiple_above(coeff: int, log_arg: int, step: int) -> int:
    """Least multiple of step strictly above coeff * ln(log_arg), with a margin check."""
    value = coeff * math.log(log_arg)
    c = step * (math.floor(value / step) + 1)
    if c - value < 1e-6 or value - (c - step) < 1e-6:
        raise ValueError("float bound too close to a multiple to decide")
    return c


class Child:
    """Spawns one rankmetric CLI process through cli_child.py and keeps its timings.

    With ``trace`` the child installs the layer wrappers and saves its spans.
    """

    def __init__(self, root: str, out_dir: str, trace: bool = False):
        self.root = root
        self.out_dir = out_dir
        self.trace = trace
        self.count = 0
        self.last = None
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def run(self, args):
        report = os.path.join(self.out_dir, f"child-{self.count}.json")
        trace = os.path.join(self.out_dir, f"trace-census-{self.count}.bin") if self.trace else "-"
        self.count += 1
        self.last = None
        if os.path.exists(report):
            os.remove(report)
        spawned = time.perf_counter()
        proc = subprocess.run([sys.executable, self.launcher, repr(spawned), report, trace, *args],
                              cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - spawned
        with open(report) as fh:
            self.last = (json.load(fh), wall, trace)
        return proc.returncode, proc.stdout


def _census_op(child: Child, label, args, nominal_ms, verify_fields) -> Op:
    def run():
        return child.run(args)

    def derive(out):
        rc, stdout = out
        rec = {"rc": rc, "stdout": stdout}
        for line in stdout.splitlines():
            parts = line.split()
            if parts and parts[0] == "k":
                rec["k"] = int(parts[1])
            elif parts and parts[0] == "SEARCH":
                rec["status"] = parts[1]
                rec["examined"] = int(parts[parts.index("examined") + 1])
            elif parts and parts[0] == "oscillation":
                rec["oscillation"] = Fraction(parts[1])
            elif parts and parts[0].startswith("k="):
                fields = dict(p.split("=", 1) for p in parts if "=" in p)
                rec["k"] = int(fields["k"])
                rec["c"] = int(fields["c"])
            elif parts and parts[0] == "bound_exact":
                rec["bound_exact"] = parts[1]
        return rec

    def verify(rec):
        if rec["rc"] != 0:
            return [f"exit status {rec['rc']}: {rec['stdout'].strip()}"]
        return verify_fields(rec)

    return Op(label, nominal_ms, run, derive, verify)


def census_cycle(child: Child, seed: int) -> list[Op]:
    """copies --a 2 --b 4 both ways, two exhaustive searches, the bound at eps 1/2."""
    rng = random.Random(f"census/{seed}")
    k = copy_count(2, 4, 2)
    constant = rng.choice(("1/3", "1/2", "2/5", "3/4"))

    def copies_ok(method):
        def check(rec):
            if rec.get("k") != k:
                return [f"{method} counted k = {rec.get('k')}, Skolem-Noether gives {k}"]
            return []
        return check

    def search_ok(rec):
        if (rec.get("status"), rec.get("examined"), rec.get("oscillation")) != \
                ("exhausted", k, Fraction(0)):
            return [f"search reported {rec.get('status')} examined {rec.get('examined')}"
                    f" oscillation {rec.get('oscillation')}"]
        return []

    eps = Fraction(1, 2)
    coeff = 64 / eps ** 2
    log_arg = max(2 * k, 6 * math.ceil(1 / eps))
    c_expected = least_multiple_above(int(coeff), log_arg, 4)

    def bound_ok(rec):
        problems = []
        if rec.get("k") != k or rec.get("c") != c_expected:
            problems.append(f"bound gave k = {rec.get('k')}, c = {rec.get('c')};"
                            f" expected {k}, {c_expected}")
        if rec.get("bound_exact") != f"({int(coeff)}/1)*ln({log_arg})":
            problems.append(f"bound expression {rec.get('bound_exact')}")
        return problems

    base = ["--q", "2"]
    ops = [
        _census_op(child, "copies brute_force", ["copies", "--a", "2", "--b", "4", *base,
                                                 "--method", "brute_force"], 4700,
                   copies_ok("brute_force")),
        _census_op(child, "copies orbit_stabilizer", ["copies", "--a", "2", "--b", "4", *base,
                                                      "--method", "orbit_stabilizer"], 4100,
                   copies_ok("orbit_stabilizer")),
        _census_op(child, f"search (1,2,4) constant:{constant}",
                   ["ramsey-search", "--a", "1", "--b", "2", "--c", "4", *base, "--eps", "-1",
                    "--coloring", f"constant:{constant}"], 4900, search_ok),
        _census_op(child, "search (2,2,4) distance-to-copy",
                   ["ramsey-search", "--a", "2", "--b", "2", "--c", "4", *base, "--eps", "-1",
                    "--coloring", "distance-to-copy"], 14000, search_ok),
        _census_op(child, "ramsey-bound (2,4) eps 1/2",
                   ["ramsey-bound", "--a", "2", "--b", "4", *base, "--eps", "1/2"], 5200,
                   bound_ok),
    ]
    rng.shuffle(ops)
    return ops


def census_warmup(child: Child) -> Op:
    """A small census through the same CLI path, untimed: M_1 in M_2 over GF(2)."""
    k = copy_count(1, 2, 2)

    def check(rec):
        return [] if rec.get("k") == k else [f"warm-up counted {rec.get('k')}, expected {k}"]

    return _census_op(child, "warm-up copies (1,2)",
                      ["copies", "--a", "1", "--b", "2", "--q", "2", "--method", "both"],
                      200, check)
