import io
import math
import time

import pytest

from rankmetric.cli import run
from rankmetric.fraisse import back_and_forth, tower_make, verify_certificate
from rankmetric.gf import field_make
from rankmetric.matrix import (
    Matrix,
    kassabov_generators,
    kron,
    random_matrix,
    random_unit,
    read_matrix,
    write_matrix,
)
from rankmetric.embeddings import DeltaEmbedding, Homomorphism


def _run(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def test_rank_command(tmp_path, gf2, rng):
    m = random_matrix(gf2, 3, 3, rng)
    path = tmp_path / "m.txt"
    path.write_text(write_matrix(m))
    code, out = _run(["rank", "--in", str(path)])
    assert code == 0
    from rankmetric.matrix import rank
    assert out == f"rank {rank(m)}\n"


def test_dist_command(tmp_path, gf2):
    x = Matrix.identity(gf2, 2)
    y = Matrix.zero(gf2, 2)
    px, py = tmp_path / "x.txt", tmp_path / "y.txt"
    px.write_text(write_matrix(x))
    py.write_text(write_matrix(y))
    code, out = _run(["dist", "--x", str(px), "--y", str(py)])
    assert code == 0
    assert out == "dist 2/2\n"


def test_gens_exact_defect_line():
    code, out = _run(["gens", "--n", "3", "--q", "2"])
    assert code == 0
    assert out.endswith("defect 0/9 0/9 0/9 0/9 0/9\n")
    blocks = out.splitlines()
    assert blocks[0] == "2 3 3"


def test_gens_writes_parseable_blocks(tmp_path):
    path = tmp_path / "gens.txt"
    code, _ = _run(["gens", "--n", "2", "--q", "3", "--out", str(path)])
    assert code == 0
    content = path.read_text()
    from rankmetric.matrix import read_matrices
    body = "\n".join(ln for ln in content.splitlines()
                     if not ln.startswith("defect"))
    a, b = read_matrices(body, 2)
    ka, kb = kassabov_generators(2, field_make(3))
    assert a == ka and b == kb


def test_iota_roundtrip(tmp_path, gf2, rng):
    x = random_matrix(gf2, 2, 2, rng)
    src = tmp_path / "x.txt"
    dst = tmp_path / "y.txt"
    src.write_text(write_matrix(x))
    code, _ = _run(["iota", "--n", "6", "--m", "2",
                    "--in", str(src), "--out", str(dst)])
    assert code == 0
    from rankmetric.embeddings import iota
    assert read_matrix(dst.read_text()) == iota(6, 2, x)


def test_repair_exact_pair_report(tmp_path, gf2):
    from rankmetric.matrix import kron
    a, b = kassabov_generators(2, gf2)
    eye = Matrix.identity(gf2, 6)
    pair = write_matrix(kron(a, eye)) + write_matrix(kron(b, eye))
    path = tmp_path / "pair.txt"
    path.write_text(pair)
    code, out = _run(["repair", "--n", "2", "--in", str(path)])
    assert code == 0
    assert "d_x 0/12" in out and "d_y 0/12" in out


def test_repair_not_repairable_exit_3(tmp_path, gf2):
    z = write_matrix(Matrix.zero(gf2, 4))
    path = tmp_path / "pair.txt"
    path.write_text(z + z)
    code, out = _run(["repair", "--n", "2", "--in", str(path)])
    assert code == 3
    # the residual -1 has kernel 0, so every W_k is 0
    assert out.startswith("error NotRepairable:") and "dims_W 0 0, ambient 4" in out


def test_defect_report(tmp_path, gf2):
    z = write_matrix(Matrix.zero(gf2, 4))
    path = tmp_path / "pair.txt"
    path.write_text(z + z)
    code, out = _run(["defect", "--n", "2", "--in", str(path)])
    assert code == 0
    assert "d_rel 4/4" in out


def test_homog_command(tmp_path, gf2, rng):
    phi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng))
    psi = DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng))
    p1, p2 = tmp_path / "phi.txt", tmp_path / "psi.txt"
    p1.write_text(phi.to_text())
    p2.write_text(psi.to_text())
    code, out = _run(["homog", "--phi", str(p1), "--psi", str(p2)])
    assert code == 0
    assert out.startswith("residual 0/1\n")


def test_extend_command(tmp_path, gf2, rng):
    phi = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    p = tmp_path / "phi.txt"
    o = tmp_path / "psi.txt"
    p.write_text(phi.to_text())
    code, out = _run(["extend", "--phi", str(p), "--tower", "factorial",
                      "--prefix", "6", "--delta-prime", "1/4", "--out", str(o)])
    assert code == 0
    assert "k_prime 4" in out and "stage_dim 24" in out
    assert "commute_error 1/3" in out
    psi = DeltaEmbedding.from_text(o.read_text())
    assert psi.m == 5 and psi.n == 24


def test_extend_prefix_too_short_exit_3(tmp_path, gf2, rng):
    phi = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    p = tmp_path / "phi.txt"
    p.write_text(phi.to_text())
    code, out = _run(["extend", "--phi", str(p), "--tower", "factorial",
                      "--prefix", "4", "--delta-prime", "1/100"])
    assert code == 3
    assert "TowerPrefixTooShort" in out


def test_backforth_command_deterministic():
    runs = [_run(["backforth", "--rounds", "3", "--q", "2",
                  "--probes", "y:1,x:0"]) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 0
    assert "final_bound 1/8" in out
    assert "roundtrip 2" in out


def test_amalgamate_command(tmp_path, gf2, rng):
    phi0 = Homomorphism.inclusion(4, 2, gf2).conjugate(random_unit(gf2, 4, rng))
    phi1 = Homomorphism.inclusion(6, 2, gf2).conjugate(random_unit(gf2, 6, rng))
    p0, p1 = tmp_path / "p0.txt", tmp_path / "p1.txt"
    p0.write_text(phi0.to_text())
    p1.write_text(phi1.to_text())
    code, out = _run(["amalgamate", "--phi0", str(p0), "--phi1", str(p1)])
    assert code == 0
    assert "c 24" in out and "commutes exact" in out


def test_amalgamate_square_that_does_not_commute_exit_2(tmp_path, gf2, rng, monkeypatch):
    import rankmetric.embeddings as embeddings

    phi0 = Homomorphism.inclusion(4, 2, gf2).conjugate(random_unit(gf2, 4, rng))
    phi1 = Homomorphism.inclusion(6, 2, gf2).conjugate(random_unit(gf2, 6, rng))
    p0, p1 = tmp_path / "p0.txt", tmp_path / "p1.txt"
    p0.write_text(phi0.to_text())
    p1.write_text(phi1.to_text())
    amalgamate, twist = embeddings.amalgamate, random_unit(gf2, 24, rng)

    def broken(phi0, phi1):
        # one leg conjugated by a unit the square does not absorb
        c, psi0, psi1 = amalgamate(phi0, phi1)
        return c, psi0, psi1.conjugate(twist)

    monkeypatch.setattr(embeddings, "amalgamate", broken)
    code, out = _run(["amalgamate", "--phi0", str(p0), "--phi1", str(p1)])
    assert code == 2
    assert out.startswith("error InvariantViolated: ") and out.count("\n") == 1


@pytest.mark.parametrize("command", ["homog", "repair", "extend", "amalgamate"])
def test_unwritable_output_prints_only_the_error(command, tmp_path, gf2):
    # the report is complete before the output file fails to open; none of it may show
    delta, pair, hom = tmp_path / "delta.txt", tmp_path / "pair.txt", tmp_path / "hom.txt"
    delta.write_text(DeltaEmbedding(2, 4, 2, Matrix.identity(gf2, 4)).to_text())
    a, b = kassabov_generators(2, gf2)
    eye = Matrix.identity(gf2, 2)
    pair.write_text(write_matrix(kron(a, eye)) + write_matrix(kron(b, eye)))
    hom.write_text(Homomorphism.inclusion(4, 2, gf2).to_text())
    argv = {
        "homog": ["homog", "--phi", str(delta), "--psi", str(delta), "--out"],
        "repair": ["repair", "--n", "2", "--in", str(pair), "--out"],
        "extend": ["extend", "--phi", str(delta), "--tower", "factorial", "--prefix", "5",
                   "--delta-prime", "1/4", "--out"],
        "amalgamate": ["amalgamate", "--phi0", str(hom), "--phi1", str(hom), "--out0"],
    }[command]
    code, out = _run(argv + [str(tmp_path)])
    assert code == 2
    assert out.startswith("error io: ") and out.count("\n") == 1 and out.endswith("\n")


@pytest.mark.parametrize("command", ["homog", "amalgamate"])
def test_header_keyword_is_the_whole_first_token(command, tmp_path, gf2):
    # DELTAX and HOMOGRAPHY only start with the keywords DELTA and HOM
    if command == "homog":
        text = DeltaEmbedding(1, 2, 2, Matrix.identity(gf2, 2)).to_text()
        text, flags = text.replace("DELTA", "DELTAX", 1), ["--phi", "--psi"]
    else:
        text = Homomorphism.inclusion(2, 1, gf2).to_text()
        text, flags = text.replace("HOM", "HOMOGRAPHY", 1), ["--phi0", "--phi1"]
    path = tmp_path / "map.txt"
    path.write_text(text)
    code, out = _run([command, flags[0], str(path), flags[1], str(path)])
    assert code == 2
    assert out.startswith("error FormatError: ") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [["rank", "--in", "\udd00"],
                                  ["gens", "--n", "2", "--q", "2", "--out", "\udd00"]])
def test_unencodable_path_exits_2(argv):
    # a lone surrogate cannot be encoded as a file name (no OS argv holds one,
    # but run() takes any strings)
    code, out = _run(argv)
    assert code == 2
    assert out.startswith("error io: ") and out.count("\n") == 1


def test_conjugator_command(tmp_path, gf2, rng):
    inc = Homomorphism.inclusion(4, 2, gf2)
    tw = inc.conjugate(random_unit(gf2, 4, rng))
    p0, p1 = tmp_path / "p0.txt", tmp_path / "p1.txt"
    p0.write_text(inc.to_text())
    p1.write_text(tw.to_text())
    code, out = _run(["conjugator", "--phi0", str(p0), "--phi1", str(p1)])
    assert code == 0
    u = read_matrix(out)
    from rankmetric.matrix import invert
    assert u * inc.img_a * invert(u) == tw.img_a


def test_slorder_command():
    assert _run(["slorder", "--n", "2", "--q", "2"]) == (0, "slorder 6\n")
    assert _run(["slorder", "--n", "2", "--q", "3"]) == (0, "slorder 24\n")


@pytest.mark.parametrize("argv, size", [
    (["--n", "2", "--q", "2305843009213693951"], "order 2305843009213693951 exceeds"),
    (["--n", "257", "--q", "2"], "dimension 257 exceeds"),
    (["--n", "256", "--q", "2"], "2^65536 has more than 14284 bits"),
], ids=["q-2^61-1", "n-above-dim-cap", "order-bits"])
def test_slorder_too_large_exit_3_fast(argv, size):
    start = time.perf_counter()
    code, out = _run(["slorder", *argv])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out.startswith("error TooLarge:") and size in out


def test_slorder_largest_factored_order():
    q = 4294967291  # the largest prime below 2^32
    start = time.perf_counter()
    assert _run(["slorder", "--n", "2", "--q", str(q)]) == (0, f"slorder {q * (q * q - 1)}\n")
    assert time.perf_counter() - start < 1.0


_BOUND = ["ramsey-bound", "--q", "2", "--eps", "1/2"]
_SEARCH_C = ["ramsey-search", "--a", "1", "--b", "1", "--q", "2", "--eps", "1/2", "--c"]


@pytest.mark.parametrize("argv, code, error", [
    (_BOUND + ["--a", "0", "--b", "0"], 2, "NotDivisor"),
    (_BOUND + ["--a", "3", "--b", "-3"], 2, "NotDivisor"),
    (_BOUND + ["--a", "3", "--b", "120"], 3, "TooLarge"),  # the envelope 2^(120^2)
    (["copies", "--a", "300", "--b", "0", "--q", "9"], 2, "NotDivisor"),
    (["ramsey-search", "--a", "0", "--b", "1", "--c", "2", "--q", "2", "--eps", "1/2"],
     2, "NotDivisor"),
    (_SEARCH_C + ["0"], 2, "NotDivisor"),
    (_SEARCH_C + ["-1"], 2, "NotDivisor"),
    (_SEARCH_C + ["0", "--strategy", "random"], 2, "NotDivisor"),
], ids=["a-zero", "b-negative", "envelope-above-cap", "copies-b-zero", "search-a-zero",
        "search-c-zero", "search-c-negative", "search-c-zero-random"])
def test_degenerate_and_oversized_algebras(argv, code, error):
    start = time.perf_counter()
    assert _run(argv)[0] == code
    assert _run(argv)[1].startswith(f"error {error}:")
    assert time.perf_counter() - start < 2.0


def test_ramsey_bound_envelope_below_the_cap():
    code, out = _run(_BOUND + ["--a", "7", "--b", "119"])  # 2^(119^2) has 14162 bits
    assert code == 0
    assert out.startswith(f"k={2 ** (119 * 119)} ")


@pytest.mark.parametrize("q", ["1", "6"])
def test_slorder_rejects_non_prime_power_exit_2(q):
    code, out = _run(["slorder", "--n", "2", "--q", q])
    assert code == 2
    assert out.startswith("error NonPrime:")


@pytest.mark.parametrize("argv", [
    ["backforth", "--rounds", "2", "--q", "2", "--prefix-x", "99999"],
    ["backforth", "--rounds", "2", "--q", "2", "--prefix-y", "99999"],
    ["extend", "--phi", "IN", "--tower", "factorial", "--prefix", "99999",
     "--delta-prime", "1/2"],
], ids=["prefix-x", "prefix-y", "extend-prefix"])
def test_long_tower_prefix_refused_before_it_is_built(tmp_path, gf2, argv):
    path = tmp_path / "phi.txt"
    path.write_text(DeltaEmbedding(1, 2, 2, Matrix.identity(gf2, 2)).to_text())
    start = time.perf_counter()
    code, out = _run([str(path) if a == "IN" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "error TooLarge: dimension 99998 exceeds RANKMETRIC_MAX_DIM=256\n")


def test_backforth_all_defaults_verify():
    code, out = _run(["backforth", "--rounds", "3", "--q", "2"])
    assert code == 0
    spec = field_make(2)
    fact, pows = tower_make("factorial", 6, spec), tower_make("powers_of_2", 9, spec)
    probes = []
    for tower in (fact, pows):
        probes += [*tower.generators_at(0), tower.one_at(0)]
    cert = back_and_forth(fact, pows, 3, probes)
    assert cert.to_text() == out
    assert verify_certificate(cert, fact, pows, probes)


def test_backforth_four_rounds_over_gf3_refused_within_budget(monkeypatch):
    # round trip 3 records 2/21 against a final bound of 1/32 at dimensions up to 5040;
    # the probe errors are ranked from scatters, so the verdict takes well under 5 s
    monkeypatch.setenv("RANKMETRIC_MAX_DIM", "6000")
    t0 = time.monotonic()
    code, out = _run(["backforth", "--rounds", "4", "--q", "3",
                      "--prefix-x", "8", "--prefix-y", "13"])
    elapsed = time.monotonic() - t0
    assert (code, out) == (3, "error BoundsNotMet: roundtrip 3 p2=2/21 exceeds final_bound 1/32\n")
    assert elapsed < 5.0, f"backforth-4-rounds-gf3 exceeded its 5.0s budget: {elapsed:.1f}s"


def test_backforth_round_trip_without_probe_exit_2():
    code, out = _run(["backforth", "--rounds", "3", "--q", "3",
                      "--probes", "y:2,x:2"])
    assert code == 2
    assert out == ("error EmptyRoundTrip: round trip 1 has no probe at or "
                   "below home stage 0\n")


def test_copies_command_small():
    code, out = _run(["copies", "--a", "1", "--b", "2", "--q", "2",
                      "--method", "both"])
    assert code == 0
    assert "agree" in out


def _closed_form_copies(q, a, b):
    """Skolem-Noether's count |GL_b| (q - 1) / (|GL_a| |GL_(b/a)|), from the order formula."""
    def gl(n):
        return math.prod(q ** n - q ** i for i in range(n))
    return gl(b) * (q - 1) // (gl(a) * gl(b // a))


@pytest.mark.parametrize("q, a, b", [(2, 1, 2), (2, 2, 4), (3, 1, 3), (3, 2, 2), (4, 1, 2),
                                     (5, 1, 2)])
def test_copies_reports_the_closed_form_by_every_method(q, a, b):
    k = _closed_form_copies(q, a, b)
    expected = {"brute_force": f"k {k} method brute_force\n",
                "orbit_stabilizer": f"k {k} method orbit_stabilizer\n",
                "both": f"k {k} brute_force {k} orbit_stabilizer {k} agree\n"}
    for method, line in expected.items():
        argv = ["copies", "--a", str(a), "--b", str(b), "--q", str(q), "--method", method]
        assert _run(argv) == (0, line)


@pytest.mark.parametrize("method", ["brute_force", "orbit_stabilizer", "both"])
def test_copies_walks_the_units_once(monkeypatch, method):
    import rankmetric.ramsey as rp

    walks, walk = [], rp._coset_walk
    monkeypatch.setattr(rp, "_coset_walk", lambda *args: walks.append(args) or walk(*args))
    assert _run(["copies", "--a", "2", "--b", "4", "--q", "2", "--method", method])[0] == 0
    assert len(walks) == 1


def test_copies_counts_that_disagree_exit_2(monkeypatch):
    import rankmetric.ramsey as rp

    closed_form = rp._closed_form
    monkeypatch.setattr(rp, "_closed_form", lambda *args: closed_form(*args) + 1)
    for method in ("brute_force", "orbit_stabilizer", "both"):
        assert _run(["copies", "--a", "2", "--b", "4", "--q", "2", "--method", method]) == (
            2, "error InvariantViolated: copy counts disagree: 560 distinct keys, "
               "orbit-stabilizer 560, closed form 561\n")


def test_copies_too_large_exit_3():
    code, out = _run(["copies", "--a", "2", "--b", "6", "--q", "2",
                      "--method", "brute_force"])
    assert code == 3
    assert "TooLarge" in out


def test_enumeration_guard_names_its_limit():
    code, out = _run(["copies", "--a", "2", "--b", "6", "--q", "2",
                      "--method", "brute_force"])
    assert (code, out) == (3, "error TooLarge: enumerating 68719476736 candidate 6x6 matrices "
                              "over GF(2), above ENUMERATION_LIMIT=1048576\n")


def test_ramsey_bound_command():
    code, out = _run(["ramsey-bound", "--a", "1", "--b", "1", "--q", "2",
                      "--eps", "1/2"])
    assert code == 0
    assert out.splitlines()[0] == "k=1 bound~636.1361 c=637"
    assert "bound_exact (256/1)*ln(12)" in out


def test_ramsey_bound_counts_copies_without_a_census():
    # k = 1 copy of M_1 in M_3 over GF(4), by the closed form: the census walks 2^18 codes
    start = time.perf_counter()
    code, out = _run(["ramsey-bound", "--a", "1", "--b", "3", "--q", "4", "--eps", "1/2"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.splitlines()[0] == "k=1 bound~636.1361 c=639"


def test_ramsey_search_command_deterministic():
    args = ["ramsey-search", "--a", "1", "--b", "2", "--c", "4", "--q", "2",
            "--eps", "0", "--coloring", "constant:1/3"]
    assert _run(args) == _run(args)
    code, out = _run(args)
    assert code == 0
    assert "SEARCH found" in out


def test_unknown_flag_exit_2():
    code, _ = _run(["rank", "--bogus", "x"])
    assert code == 2


def test_bad_rational_exit_2(tmp_path, gf2, rng):
    phi = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    p = tmp_path / "phi.txt"
    p.write_text(phi.to_text())
    code, out = _run(["extend", "--phi", str(p), "--tower", "factorial",
                      "--prefix", "6", "--delta-prime", "0.25"])
    assert code == 2
    assert "FormatError" in out


_IDENTITY = "2 2 2\n1 0\n0 1\n"
_SEARCH = ["ramsey-search", "--a", "1", "--b", "2", "--c", "4", "--q", "2",
           "--eps", "0", "--strategy", "random", "--trials"]


@pytest.mark.parametrize("text, argv, error", [
    pytest.param("2 2 2\n0 1\n1 0\ntrailing\n", ["rank", "--in", "IN"], "FormatError",
                 id="trailing-garbage"),
    pytest.param("2 2 2\n0 x\n1 0\n", ["rank", "--in", "IN"], "FormatError",
                 id="non-integer-entry"),
    pytest.param("2 2 2\n0 \u00e9\n1 0\n", ["rank", "--in", "IN"], "FormatError",
                 id="non-ascii-entry"),
    pytest.param("DELTA 2 x 1\n" + _IDENTITY, ["homog", "--phi", "IN", "--psi", "IN"],
                 "FormatError", id="non-integer-delta-header"),
    pytest.param("HOM 1 x\n" + _IDENTITY + _IDENTITY,
                 ["conjugator", "--phi0", "IN", "--phi1", "IN"], "FormatError",
                 id="non-integer-hom-header"),
    pytest.param("", ["backforth", "--rounds", "2", "--q", "2", "--probes", "y"],
                 "FormatError", id="probe-without-stage"),
    pytest.param("", ["backforth", "--rounds", "2", "--q", "2", "--probes", "z:1"],
                 "FormatError", id="probe-unknown-side"),
    pytest.param("", ["backforth", "--rounds", "2", "--q", "2", "--probes", "y:40"],
                 "StageOrder", id="probe-stage-not-realized"),
    pytest.param("", ["backforth", "--rounds", "2", "--q", "2", "--probes", "y:a"],
                 "FormatError", id="probe-non-integer-stage"),
    pytest.param("", ["ramsey-bound", "--a", "1", "--b", "1", "--q", "2", "--eps", "2"],
                 "InvalidParameter", id="eps-above-1"),
    pytest.param("", ["ramsey-bound", "--a", "1", "--b", "1", "--q", "2", "--eps", "0"],
                 "InvalidParameter", id="eps-zero"),
    pytest.param("", _SEARCH + ["0"], "InvalidParameter", id="no-trials"),
    pytest.param("", _SEARCH + ["-1"], "InvalidParameter", id="negative-trials"),
])
def test_malformed_matrix_exit_2(tmp_path, text, argv, error):
    path = tmp_path / "in.txt"
    path.write_text(text)
    code, out = _run([str(path) if a == "IN" else a for a in argv])
    assert code == 2
    assert out.startswith(f"error {error}:")


def test_max_dim_guard(tmp_path, gf2, monkeypatch):
    monkeypatch.setenv("RANKMETRIC_MAX_DIM", "3")
    m = Matrix.identity(gf2, 4)
    path = tmp_path / "m.txt"
    path.write_text(write_matrix(m))
    code, out = _run(["rank", "--in", str(path)])
    assert code == 3
    assert "TooLarge" in out


def test_max_dim_guard_reads_the_header_first(tmp_path, gf3, rng, monkeypatch):
    # the cap must fire before a DELTA conjugator is inverted or HOM units are built
    from rankmetric import embeddings

    def refuse(*args):
        raise AssertionError("O(n^3) work before the dimension cap")

    monkeypatch.setattr(embeddings, "invert", refuse)
    monkeypatch.setattr(embeddings, "matrix_units", refuse)
    monkeypatch.setenv("RANKMETRIC_MAX_DIM", "4")
    u = random_unit(gf3, 6, rng)
    delta = tmp_path / "d.txt"
    delta.write_text("DELTA 2 6 3\n" + write_matrix(u))
    hom = tmp_path / "h.txt"
    hom.write_text("HOM 2 6\n" + write_matrix(u) + write_matrix(u))
    for argv in (["homog", "--phi", str(delta), "--psi", str(delta)],
                 ["extend", "--phi", str(delta), "--tower", "factorial", "--prefix", "3",
                  "--delta-prime", "1/2"],
                 ["amalgamate", "--phi0", str(hom), "--phi1", str(hom)],
                 ["conjugator", "--phi0", str(hom), "--phi1", str(hom)]):
        code, out = _run(argv)
        assert code == 3
        assert out.startswith("error TooLarge: dimension 6 exceeds")


def test_matrix_written_by_cli_rereads_identically(tmp_path, gf2, rng):
    x = random_matrix(gf2, 2, 2, rng)
    src = tmp_path / "x.txt"
    mid = tmp_path / "y.txt"
    src.write_text(write_matrix(x))
    _run(["iota", "--n", "4", "--m", "2", "--in", str(src), "--out", str(mid)])
    code1, out1 = _run(["rank", "--in", str(mid)])
    code2, out2 = _run(["rank", "--in", str(mid)])
    assert code1 == code2 == 0
    assert out1 == out2


# Per subcommand: its help, its handler, and per option after -h/--help the tuple
# (option strings, dest, type, required, default, choices, help), as the parser declared
# them when each subcommand still added its own options one by one.
_PARSER = [
    ("rank", "rank of a matrix file", "_cmd_rank", [
        (("--in",), "input", None, True, None, None, None)]),
    ("dist", "rank distance between two matrices", "_cmd_dist", [
        (("--x",), "x", None, True, None, None, None),
        (("--y",), "y", None, True, None, None, None)]),
    ("gens", "shift generator pair with relation check", "_cmd_gens", [
        (("--n",), "n", int, True, None, None, None),
        (("--q",), "q", int, True, None, None, None),
        (("--out",), "out", None, False, None, None, None)]),
    ("iota", "inclusion x -> x tensor 1_{n/m}", "_cmd_iota", [
        (("--n",), "n", int, True, None, None, None),
        (("--m",), "m", int, True, None, None, None),
        (("--in",), "input", None, True, None, None, None),
        (("--out",), "out", None, False, None, None, None)]),
    ("defect", "relation defect of a pair file", "_cmd_defect", [
        (("--n",), "n", int, True, None, None, None),
        (("--in",), "input", None, True, None, None, None)]),
    ("repair", "repair a pair to an exact embedding", "_cmd_repair", [
        (("--n",), "n", int, True, None, None, None),
        (("--in",), "input", None, True, None, None, None),
        (("--out",), "out", None, False, None, None,
         "write the repaired embedding (DELTA file)")]),
    ("homog", "inner unit carrying one embedding to another", "_cmd_homog", [
        (("--phi",), "phi", None, True, None, None, None),
        (("--psi",), "psi", None, True, None, None, None),
        (("--out",), "out", None, False, None, None, None)]),
    ("extend", "extend an embedding back into a tower", "_cmd_extend", [
        (("--phi",), "phi", None, True, None, None, None),
        (("--tower",), "tower", None, True, None, ("factorial", "powers_of_2"), None),
        (("--prefix",), "prefix", int, True, None, None, None),
        (("--delta-prime",), "delta_prime", None, True, None, None, None),
        (("--out",), "out", None, False, None, None, None)]),
    ("backforth", "alternating tower maps with certificates", "_cmd_backforth", [
        (("--tower-x",), "tower_x", None, False, "factorial", ("factorial", "powers_of_2"), None),
        (("--tower-y",), "tower_y", None, False, "powers_of_2", ("factorial", "powers_of_2"),
         None),
        (("--prefix-x",), "prefix_x", int, False, 6, None, None),
        (("--prefix-y",), "prefix_y", int, False, 9, None, None),
        (("--rounds",), "rounds", int, True, None, None, None),
        (("--q",), "q", int, True, None, None, None),
        (("--probes",), "probes", None, False, "x:0,y:0", None,
         "comma list side:stage, generators+1 at each (default %(default)s)")]),
    ("amalgamate", "complete two embeddings to a commuting square", "_cmd_amalgamate", [
        (("--phi0",), "phi0", None, True, None, None, None),
        (("--phi1",), "phi1", None, True, None, None, None),
        (("--out0",), "out0", None, False, None, None, None),
        (("--out1",), "out1", None, False, None, None, None)]),
    ("conjugator", "intertwining unit of two unital maps", "_cmd_conjugator", [
        (("--phi0",), "phi0", None, True, None, None, None),
        (("--phi1",), "phi1", None, True, None, None, None),
        (("--out",), "out", None, False, None, None, None)]),
    ("slorder", "order of SL_n(F_q)", "_cmd_slorder", [
        (("--n",), "n", int, True, None, None, None),
        (("--q",), "q", int, True, None, None, None)]),
    ("copies", "count embedded copies of M_a in M_b", "_cmd_copies", [
        (("--a",), "a", int, True, None, None, None),
        (("--b",), "b", int, True, None, None, None),
        (("--q",), "q", int, True, None, None, None),
        (("--method",), "method", None, False, "both",
         ("brute_force", "orbit_stabilizer", "both"), None)]),
    ("ramsey-bound", "explicit partition dimension bound", "_cmd_ramsey_bound", [
        (("--a",), "a", int, True, None, None, None),
        (("--b",), "b", int, True, None, None, None),
        (("--q",), "q", int, True, None, None, None),
        (("--eps",), "eps", None, True, None, None, None),
        (("--k-mode",), "k_mode", None, False, "auto", ("auto", "exact", "envelope"), None)]),
    ("ramsey-search", "search copies for small oscillation", "_cmd_ramsey_search", [
        (("--a",), "a", int, True, None, None, None),
        (("--b",), "b", int, True, None, None, None),
        (("--c",), "c", int, True, None, None, None),
        (("--q",), "q", int, True, None, None, None),
        (("--eps",), "eps", None, True, None, None, None),
        (("--strategy",), "strategy", None, False, "exhaustive", ("exhaustive", "random"), None),
        (("--seed",), "seed", int, False, 0, None, None),
        (("--trials",), "trials", int, False, 100, None, None),
        (("--coloring",), "coloring", None, False, "constant:0", None,
         "constant:num/den or distance-to-copy")]),
]


def test_parser_declares_every_subcommand_and_option_as_pinned():
    # the declarations themselves, not the --help text: that text hides type=int on
    # --seed and --trials, and its wrapping differs between Python versions
    from rankmetric.cli import _build_parser
    parser = _build_parser()
    assert (parser.prog, parser.description) == (
        "rankmetric", "exact computations in matrix algebras under the rank metric")
    sub = parser._actions[-1]
    assert (sub.dest, sub.required) == ("command", True)
    seen = []
    for choice in sub._choices_actions:
        s = sub.choices[choice.dest]
        helper, *actions = s._actions
        assert (helper.option_strings, helper.default) == (["-h", "--help"], "==SUPPRESS==")
        seen.append((choice.dest, choice.help, s.get_default("func").__name__, [
            (tuple(a.option_strings), a.dest, a.type, a.required, a.default,
             None if a.choices is None else tuple(a.choices), a.help) for a in actions]))
    assert seen == _PARSER


def _parser_cases():
    """(id, argv) per failing or help parse: the top level, and for each subcommand --help, a
    missing required option, a bad choices value (else a bad int) and an unknown argument."""
    from rankmetric.cli import _build_parser
    cases = [("top-help", ["--help"]), ("top-missing", []), ("top-choice", ["nosuch"]),
             ("top-extra", ["--nosuch"]), ("top-extra-first", ["--nosuch", "rank", "--in", "x"])]
    sub = _build_parser()._actions[-1]
    for name, parser in sub.choices.items():
        actions = parser._actions[1:]
        full = [name]
        for a in actions:
            if a.required:
                full += [a.option_strings[0], a.choices[0] if a.choices else "2"]
        bad = next((a for a in actions if a.choices), None) or next(
            (a for a in actions if a.type is int), None)
        cases += [(f"{name}-help", [name, "--help"]),
                  (f"{name}-missing", full[:1] + full[3:]),
                  (f"{name}-extra", full + ["extra"])]
        if bad is not None:
            cases.append((f"{name}-bad", full + [bad.option_strings[0], "nosuch"]))
    return cases


@pytest.mark.parametrize("argv", [argv for _, argv in _parser_cases()],
                         ids=[case for case, _ in _parser_cases()])
def test_parser_of_the_named_subcommands_parses_as_the_full_parser(argv):
    # run declares only the options of the subcommands its argv names; each failing or
    # --help parse must exit, print and complain exactly as the parser with every option
    import contextlib
    from rankmetric.cli import _build_parser

    def full(args):
        try:
            _build_parser().parse_args(args)
        except SystemExit as exc:
            return 2 if exc.code else 0
        return None  # parsed: a case that runs a command proves nothing here

    def captured(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = parse(list(argv))
        return code, out.getvalue(), err.getvalue()

    want = captured(full)
    assert want[0] is not None and (want[1] or want[2])
    assert captured(lambda args: run(args, io.StringIO())) == want
