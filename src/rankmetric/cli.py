"""Batch command-line surface over the library pipelines.

Every subcommand reads and writes the bit-exact text formats of its
owning module; tolerances arrive as ``num/den`` rationals, never floats.
Reports are deterministic: identical invocations produce byte-identical
output. Exit status is 0 on success, 2 on validation errors, and 3 on
reported outcomes such as ``TooLarge`` or ``NotRepairable``; in the
failure cases the offending error class name is printed verbatim, and
that error line is all a failed command prints.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction

from .errors import FormatError, InvariantViolated, OutcomeError, RankMetricError, TooLarge
from .gf import field_for_order
from . import embeddings, fraisse, matrix, ramsey, stability


def _guard_dim(n: int):
    raw = os.environ.get("RANKMETRIC_MAX_DIM", "256")
    try:
        cap = int(raw)
    except ValueError:
        raise FormatError(f"RANKMETRIC_MAX_DIM must be an integer, got {raw!r}")
    if n > cap:
        raise TooLarge(f"dimension {n} exceeds RANKMETRIC_MAX_DIM={cap}")


def _fraction(text: str) -> Fraction:
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise FormatError(f"expected a rational like num/den, got {text!r}")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="ascii", errors="backslashreplace") as fh:
        return fh.read()


def _write_text(path: str, text: str):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load_matrix(path: str) -> matrix.Matrix:
    m = matrix.read_matrix(_read_text(path))
    _guard_dim(max(m.rows, m.cols))
    return m


def _emit_or_write(out, path, text: str):
    """Write text to path when one is given, else to the report stream."""
    if path:
        _write_text(path, text)
    else:
        out.write(text)


# -- handlers ----------------------------------------------------------------


def _cmd_rank(args, out):
    m = _load_matrix(args.input)
    out.write(f"rank {matrix.rank(m)}\n")


def _cmd_dist(args, out):
    x = _load_matrix(args.x)
    y = _load_matrix(args.y)
    out.write(f"dist {matrix.rank_distance(x, y)}\n")


def _cmd_gens(args, out):
    _guard_dim(args.n)
    spec = field_for_order(args.q)
    a, b = matrix.kassabov_generators(args.n, spec)
    text = matrix.write_matrix(a) + matrix.write_matrix(b)
    d = stability.relation_defect(a, b, args.n)
    nums, den = d.components_over_common_denominator()
    text += "defect " + " ".join(f"{v}/{den}" for v in nums) + "\n"
    _emit_or_write(out, args.out, text)


def _cmd_iota(args, out):
    x = _load_matrix(args.input)
    _guard_dim(args.n)
    y = embeddings.iota(args.n, args.m, x)
    text = matrix.write_matrix(y)
    _emit_or_write(out, args.out, text)


def _read_pair(path: str):
    mats = matrix.read_matrices(_read_text(path), 2)
    for m in mats:
        _guard_dim(max(m.rows, m.cols))
    return mats


def _cmd_defect(args, out):
    x, y = _read_pair(args.input)
    out.write(stability.relation_defect(x, y, args.n).to_text())


def _cmd_repair(args, out):
    x, y = _read_pair(args.input)
    psi, _, cert = stability.repair(x, y, args.n)
    out.write(cert.to_text())
    if args.out:
        _write_text(args.out, psi.to_text())


def _load(cls, path: str):
    """A DELTA (``DeltaEmbedding``) or HOM (``Homomorphism``) file, its target
    dimension checked from the header before any matrix is inverted or validated."""
    text = _read_text(path)
    keyword, fields = ("DELTA", 3) if cls is embeddings.DeltaEmbedding else ("HOM", 2)
    _guard_dim(embeddings.read_header(text, keyword, fields)[0][1])
    return cls.from_text(text)


def _cmd_homog(args, out):
    phi = _load(embeddings.DeltaEmbedding, args.phi)
    psi = _load(embeddings.DeltaEmbedding, args.psi)
    beta, residual = fraisse.approximate_homogeneity(phi, psi)
    out.write(f"residual {residual.numerator}/{residual.denominator}\n")
    text = matrix.write_matrix(beta)
    _emit_or_write(out, args.out, text)


def _cmd_extend(args, out):
    phi = _load(embeddings.DeltaEmbedding, args.phi)
    _guard_dim(args.prefix - 1)  # a lower bound on the last stage's dimension
    tower = fraisse.tower_make(args.tower, args.prefix, phi.spec)
    for d in tower.dims:
        _guard_dim(d)
    k_prime, psi, err = fraisse.approximate_extension(phi, tower, _fraction(args.delta_prime))
    out.write(f"k_prime {k_prime}\n")
    out.write(f"stage_dim {tower.dims[k_prime]}\n")
    out.write(f"commute_error {err.numerator}/{err.denominator}\n")
    if args.out:
        _write_text(args.out, psi.to_text())


def _cmd_backforth(args, out):
    spec = field_for_order(args.q)
    _guard_dim(max(args.prefix_x, args.prefix_y) - 1)  # as in extend
    tower_x = fraisse.tower_make(args.tower_x, args.prefix_x, spec)
    tower_y = fraisse.tower_make(args.tower_y, args.prefix_y, spec)
    for d in (*tower_x.dims, *tower_y.dims):
        _guard_dim(d)
    probes = []
    for item in args.probes.split(","):
        side, _, stage = item.partition(":")
        try:
            tower, stage = {"x": tower_x, "y": tower_y}[side], int(stage)
        except (KeyError, ValueError):
            raise FormatError(f"expected a probe like x:0 or y:1, got {item!r}") from None
        a, b = tower.generators_at(stage)
        probes.extend([a, b, tower.one_at(stage)])
    cert = fraisse.back_and_forth(tower_x, tower_y, args.rounds, probes)
    out.write(cert.to_text())


def _cmd_amalgamate(args, out):
    phi0 = _load(embeddings.Homomorphism, args.phi0)
    phi1 = _load(embeddings.Homomorphism, args.phi1)
    _guard_dim(phi0.n * phi1.n)
    c, psi0, psi1 = embeddings.amalgamate(phi0, phi1)
    out.write(f"c {c}\n")
    if any(psi0.apply(phi0.apply(g)) != psi1.apply(phi1.apply(g))
           for g in matrix.kassabov_generators(phi0.m, phi0.spec)):
        raise InvariantViolated("amalgamated square does not commute on the generators")
    out.write("commutes exact\n")
    if args.out0:
        _write_text(args.out0, psi0.to_text())
    if args.out1:
        _write_text(args.out1, psi1.to_text())


def _cmd_conjugator(args, out):
    phi0 = _load(embeddings.Homomorphism, args.phi0)
    phi1 = _load(embeddings.Homomorphism, args.phi1)
    u = embeddings.skolem_noether_conjugator(phi0, phi1)
    text = matrix.write_matrix(u)
    _emit_or_write(out, args.out, text)


def _cmd_slorder(args, out):
    _guard_dim(args.n)
    out.write(f"slorder {ramsey.sl_order(args.n, args.q)}\n")


def _cmd_copies(args, out):
    spec = field_for_order(args.q)
    _guard_dim(args.b)
    method = "brute_force" if args.method == "both" else args.method
    k = ramsey.count_copies(args.a, args.b, spec, method)
    if args.method == "both":
        out.write(f"k {k} brute_force {k} orbit_stabilizer {k} agree\n")
    else:
        out.write(f"k {k} method {method}\n")


def _cmd_ramsey_bound(args, out):
    _guard_dim(args.b)
    rep = ramsey.ramsey_dimension(args.a, args.b, args.q, _fraction(args.eps), args.k_mode)
    out.write(f"k={rep.k} bound~{rep.bound_float:.4f} c={rep.c}\n")
    out.write(f"bound_exact {rep.exact_expression()}\n")


def _cmd_ramsey_search(args, out):
    spec = field_for_order(args.q)
    _guard_dim(args.c)
    if args.coloring.startswith("constant:"):
        value = _fraction(args.coloring.split(":", 1)[1])
        gamma = ramsey.constant_coloring(value, args.a, args.c, spec)
    elif args.coloring == "distance-to-copy":
        base = matrix.span_fingerprint(matrix.base_copy_basis(args.a, args.c, spec), spec, args.c)
        gamma = ramsey.distance_to_copy_coloring(base, args.a, args.c, spec)
    else:
        raise FormatError(f"unknown coloring {args.coloring!r}")
    rep = ramsey.monochromatic_search(args.b, args.c, gamma, _fraction(args.eps), args.strategy,
                                      seed=args.seed, trials=args.trials)
    out.write(rep.to_text())


# -- parser ------------------------------------------------------------------


_TOWERS = ("factorial", "powers_of_2")

# the options that mean the same in every subcommand that takes them, by name
_OPTIONS = {
    **dict.fromkeys(["n", "m", "q", "a", "b", "c", "prefix", "rounds"],
                    {"type": int, "required": True}),
    **dict.fromkeys(["x", "y", "phi", "psi", "phi0", "phi1", "eps", "delta-prime"],
                    {"required": True}),
    **dict.fromkeys(["out", "out0", "out1"], {}),
    "in": {"dest": "input", "required": True},
}

# (name, handler, help, options): an option is a name in _OPTIONS, or (name, its own kwargs)
_COMMANDS = [
    ("rank", _cmd_rank, "rank of a matrix file", ["in"]),
    ("dist", _cmd_dist, "rank distance between two matrices", ["x", "y"]),
    ("gens", _cmd_gens, "shift generator pair with relation check", ["n", "q", "out"]),
    ("iota", _cmd_iota, "inclusion x -> x tensor 1_{n/m}", ["n", "m", "in", "out"]),
    ("defect", _cmd_defect, "relation defect of a pair file", ["n", "in"]),
    ("repair", _cmd_repair, "repair a pair to an exact embedding",
     ["n", "in", ("out", {"help": "write the repaired embedding (DELTA file)"})]),
    ("homog", _cmd_homog, "inner unit carrying one embedding to another", ["phi", "psi", "out"]),
    ("extend", _cmd_extend, "extend an embedding back into a tower",
     ["phi", ("tower", {"required": True, "choices": _TOWERS}), "prefix", "delta-prime",
      "out"]),
    ("backforth", _cmd_backforth, "alternating tower maps with certificates",
     [("tower-x", {"default": "factorial", "choices": _TOWERS}),
      ("tower-y", {"default": "powers_of_2", "choices": _TOWERS}),
      ("prefix-x", {"type": int, "default": 6}), ("prefix-y", {"type": int, "default": 9}),
      "rounds", "q",
      ("probes", {"default": "x:0,y:0",
                  "help": "comma list side:stage, generators+1 at each (default %(default)s)"})]),
    ("amalgamate", _cmd_amalgamate, "complete two embeddings to a commuting square",
     ["phi0", "phi1", "out0", "out1"]),
    ("conjugator", _cmd_conjugator, "intertwining unit of two unital maps",
     ["phi0", "phi1", "out"]),
    ("slorder", _cmd_slorder, "order of SL_n(F_q)", ["n", "q"]),
    ("copies", _cmd_copies, "count embedded copies of M_a in M_b",
     ["a", "b", "q",
      ("method", {"default": "both", "choices": ["brute_force", "orbit_stabilizer", "both"]})]),
    ("ramsey-bound", _cmd_ramsey_bound, "explicit partition dimension bound",
     ["a", "b", "q", "eps",
      ("k-mode", {"default": "auto", "choices": ["auto", "exact", "envelope"]})]),
    ("ramsey-search", _cmd_ramsey_search, "search copies for small oscillation",
     ["a", "b", "c", "q", "eps",
      ("strategy", {"default": "exhaustive", "choices": ["exhaustive", "random"]}),
      ("seed", {"type": int, "default": 0}), ("trials", {"type": int, "default": 100}),
      ("coloring", {"default": "constant:0", "help": "constant:num/den or distance-to-copy"})]),
]


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """Every subcommand, with its options only if argv names it (all of them without argv)."""
    p = argparse.ArgumentParser(
        prog="rankmetric",
        description="exact computations in matrix algebras under the rank metric",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, text, options in _COMMANDS:
        s = sub.add_parser(name, help=text)
        if argv is None or name in argv:
            for opt in options:
                key, kwargs = (opt, _OPTIONS[opt]) if isinstance(opt, str) else opt
                s.add_argument(f"--{key}", **kwargs)
            s.set_defaults(func=func)
    return p


def run(argv, out=None) -> int:
    """Parse and execute one command; returns the exit status."""
    out = out or sys.stdout
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # the report reaches out only once the whole command has succeeded
    report = io.StringIO()
    try:
        args.func(args, report)
    except RankMetricError as exc:
        out.write(f"error {type(exc).__name__}: {exc}\n")
        return 3 if isinstance(exc, OutcomeError) else 2
    except (OSError, UnicodeEncodeError) as exc:  # a path the file system cannot encode
        out.write(f"error io: {exc}\n")
        return 2
    out.write(report.getvalue())
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
