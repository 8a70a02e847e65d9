"""CLI reports pinned byte for byte.

Each case runs one command in-process through ``cli.run`` on inputs written
here from seeded entries, and hashes its report together with every file
the command writes. The digests and exit codes in ``cli_golden.json`` are
checked in, so a change that alters any report, however slightly, fails
here. Regenerate the table only for a deliberate change of the report
contract, and say so in CHANGES.md.
"""

import hashlib
import io
import json
import pathlib
import random

from rankmetric.cli import run
from rankmetric.embeddings import DeltaEmbedding, Homomorphism
from rankmetric.gf import field_for_order
from rankmetric.matrix import Matrix, kassabov_generators, rank, write_matrix

def _matrix(spec, n, rng):
    return Matrix(spec, n, n, [rng.randrange(spec.q) for _ in range(n * n)])


def _unit(spec, n, rng):
    while True:
        m = _matrix(spec, n, rng)
        if rank(m) == n:
            return m


def _permutation(spec, n, rng):
    images = list(range(n))
    rng.shuffle(images)
    return Matrix(spec, n, n, [int(images[j] == i) for i in range(n) for j in range(n)])


def _cases(tmp_path):
    """(name, argv, files the command writes) for every pinned command."""

    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def out(name):
        return str(tmp_path / name)

    cases = []
    for q in (2, 3, 4, 5):
        spec = field_for_order(q)
        rng = random.Random(4000 + q)
        x2 = put(f"x2_{q}", write_matrix(_matrix(spec, 2, rng)))
        x6 = put(f"x6_{q}", write_matrix(_matrix(spec, 6, rng)))
        dense = put(f"dense_{q}", DeltaEmbedding(2, 7, 3, _unit(spec, 7, rng)).to_text())
        perm = put(f"perm_{q}", DeltaEmbedding(2, 7, 3, _permutation(spec, 7, rng)).to_text())
        thin = put(f"thin_{q}", DeltaEmbedding(2, 7, 2, _unit(spec, 7, rng)).to_text())
        h6a, h6b, h4 = (
            put(f"hom{b}{tag}_{q}",
                Homomorphism.inclusion(b, 2, spec).conjugate(_unit(spec, b, rng)).to_text())
            for b, tag in ((6, "a"), (6, "b"), (4, "")))
        p = f"q{q} "
        cases += [
            (p + "gens", ["gens", "--n", "4", "--q", str(q)], []),
            (p + "iota 6<-2", ["iota", "--n", "6", "--m", "2", "--in", x2], []),
            (p + "iota 24<-6", ["iota", "--n", "24", "--m", "6", "--in", x6], []),
            (p + "homog", ["homog", "--phi", dense, "--psi", perm], []),
            (p + "homog mult", ["homog", "--phi", dense, "--psi", thin], []),
            (p + "extend factorial", ["extend", "--phi", dense, "--tower", "factorial",
                                      "--prefix", "6", "--delta-prime", "1/2",
                                      "--out", out(f"ext_f_{q}")], [out(f"ext_f_{q}")]),
            (p + "extend powers", ["extend", "--phi", perm, "--tower", "powers_of_2",
                                   "--prefix", "7", "--delta-prime", "1/4",
                                   "--out", out(f"ext_p_{q}")], [out(f"ext_p_{q}")]),
            (p + "extend too short", ["extend", "--phi", dense, "--tower", "factorial",
                                      "--prefix", "3", "--delta-prime", "1/2"], []),
            (p + "conjugator", ["conjugator", "--phi0", h6a, "--phi1", h6b], []),
            (p + "amalgamate", ["amalgamate", "--phi0", h4, "--phi1", h6a,
                                "--out0", out(f"am0_{q}"), "--out1", out(f"am1_{q}")],
             [out(f"am0_{q}"), out(f"am1_{q}")]),
            (p + "backforth", ["backforth", "--rounds", "3", "--q", str(q)], []),
        ]

    gf2, gf3 = field_for_order(2), field_for_order(3)
    rng = random.Random(4001)
    a, b = kassabov_generators(2, gf3)
    e = DeltaEmbedding(2, 7, 3, _unit(gf3, 7, rng))
    pair3 = put("pair3", write_matrix(e.apply(a) + Matrix.unit(gf3, 7, 1, 2))
                + write_matrix(e.apply(b)))
    pair2 = put("pair2", write_matrix(_matrix(gf2, 6, rng)) + write_matrix(_matrix(gf2, 6, rng)))
    hom = Homomorphism.inclusion(6, 2, gf2).conjugate(_unit(gf2, 6, rng))
    lifted = put("lifted2", write_matrix(hom.img_a) + write_matrix(hom.img_b))
    cases += [
        ("defect gf3", ["defect", "--n", "2", "--in", pair3], []),
        ("repair gf3", ["repair", "--n", "2", "--in", pair3, "--out", out("rep3")],
         [out("rep3")]),
        ("repair gf2 lifted", ["repair", "--n", "2", "--in", lifted, "--out", out("rep2")],
         [out("rep2")]),
        ("repair gf2 random", ["repair", "--n", "2", "--in", pair2], []),
        ("copies 1 2 2", ["copies", "--a", "1", "--b", "2", "--q", "2"], []),
        ("copies 2 2 3", ["copies", "--a", "2", "--b", "2", "--q", "3",
                          "--method", "orbit_stabilizer"], []),
        ("ramsey-bound 1 2 2", ["ramsey-bound", "--a", "1", "--b", "2", "--q", "2",
                                "--eps", "1/2"], []),
        ("ramsey-bound envelope", ["ramsey-bound", "--a", "2", "--b", "4", "--q", "3",
                                   "--eps", "1/2", "--k-mode", "envelope"], []),
        ("ramsey-search constant", ["ramsey-search", "--a", "1", "--b", "2", "--c", "2",
                                    "--q", "2", "--eps", "0"], []),
        ("ramsey-search random", ["ramsey-search", "--a", "2", "--b", "2", "--c", "4",
                                  "--q", "2", "--eps", "-1", "--strategy", "random",
                                  "--trials", "10", "--coloring", "distance-to-copy"], []),
    ]
    # repair over the table family: a perturbed exact pair, a lifted one and a random one
    for q in (4, 5):
        spec, rng = field_for_order(q), random.Random(4100 + q)
        a, b = kassabov_generators(2, spec)
        e = DeltaEmbedding(2, 7, 3, _unit(spec, 7, rng))
        pair = put(f"pair{q}", write_matrix(e.apply(a) + Matrix.unit(spec, 7, 1, 2).scale(q - 1))
                   + write_matrix(e.apply(b)))
        hom = Homomorphism.inclusion(6, 2, spec).conjugate(_unit(spec, 6, rng))
        lifted = put(f"lifted{q}", write_matrix(hom.img_a) + write_matrix(hom.img_b))
        noise = put(f"noise{q}", write_matrix(_matrix(spec, 6, rng))
                    + write_matrix(_matrix(spec, 6, rng)))
        p = f"gf{q}"
        cases += [
            (f"defect {p}", ["defect", "--n", "2", "--in", pair], []),
            (f"repair {p}", ["repair", "--n", "2", "--in", pair, "--out", out(f"rep{q}")],
             [out(f"rep{q}")]),
            (f"repair {p} lifted", ["repair", "--n", "2", "--in", lifted,
                                    "--out", out(f"rep{q}l")], [out(f"rep{q}l")]),
            (f"repair {p} random", ["repair", "--n", "2", "--in", noise], []),
        ]
    return cases


def _digests(tmp_path):
    """name -> [exit code, sha256 of the report followed by each written file]."""
    table = {}
    for name, argv, written in _cases(tmp_path):
        report = io.StringIO()
        code = run(argv, report)
        digest = hashlib.sha256(report.getvalue().encode())
        for path in map(pathlib.Path, written):  # a failed command writes nothing
            digest.update(path.read_bytes() if path.exists() else b"no file")
        table[name] = [code, digest.hexdigest()]
    return table


def test_cli_reports_match_golden_digests(tmp_path):
    golden = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())
    assert _digests(tmp_path) == golden

