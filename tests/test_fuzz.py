"""Seeded randomized sweeps: every certificate a pipeline hands back is
re-verified from scratch, whatever the input looked like."""

import contextlib
import io
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankmetric.cli import run
from rankmetric.errors import NotRepairable, RankMetricError
from rankmetric.gf import field_make
from rankmetric.matrix import (
    Matrix,
    invert,
    kassabov_generators,
    kron,
    rank,
    rank_distance,
    random_matrix,
    random_unit,
    read_matrix,
    write_matrix,
)
from rankmetric.embeddings import DeltaEmbedding, Homomorphism, skolem_noether_conjugator
from rankmetric.stability import relation_defect, repair


@pytest.mark.parametrize("q", [2, 3])
def test_repair_fuzz_random_perturbations(q):
    spec = field_make(q)
    rng = random.Random(9000 + q)
    repaired = 0
    for _ in range(60):
        n = rng.choice([2, 3])
        m = rng.choice([3, 4, 6])
        amb = n * m + rng.choice([0, 1])
        a, b = kassabov_generators(n, spec)
        from oracles import direct_sum
        x = direct_sum([a] * m, amb - n * m)
        y = direct_sum([b] * m, amb - n * m)
        g = random_unit(spec, amb, rng)
        gi = invert(g)
        x, y = g * x * gi, g * y * gi
        for _ in range(rng.randrange(0, 3)):
            i = rng.randrange(1, amb + 1)
            j = rng.randrange(1, amb + 1)
            which = rng.randrange(2)
            bump = Matrix.unit(spec, amb, i, j).scale(rng.randrange(1, q))
            if which:
                x = x + bump
            else:
                y = y + bump
        defect = relation_defect(x, y, n)
        try:
            psi, b_unit, cert = repair(x, y, n)
        except NotRepairable:
            assert defect.delta > 0
            continue
        repaired += 1
        x2, y2 = psi.generator_images()
        assert rank_distance(x, x2) == cert.d_x
        assert rank_distance(y, y2) == cert.d_y
        assert cert.d_x.as_fraction() <= cert.residual_rank_bound
        assert cert.d_y.as_fraction() <= cert.residual_rank_bound
        assert cert.dim_V == n * cert.dims_W[-1]
        assert (x2 ** n).is_zero() and (y2 ** n).is_zero()
        if amb % n == 0:
            assert relation_defect(x2, y2, n).delta == 0
        if defect.delta < Fraction(1, (4 + n) * n):
            assert cert.residual_rank_bound <= (4 + n) * n * defect.delta
    assert repaired >= 40  # the sweep must mostly exercise the success path


def test_skolem_noether_multiplicity_two_and_three(gf2, gf3):
    rng = random.Random(31337)
    for spec, a_dim, b_dim in [(gf2, 3, 6), (gf2, 2, 8), (gf3, 3, 6), (gf3, 2, 6)]:
        inc = Homomorphism.inclusion(b_dim, a_dim, spec)
        phi0 = inc.conjugate(random_unit(spec, b_dim, rng))
        phi1 = inc.conjugate(random_unit(spec, b_dim, rng))
        u = skolem_noether_conjugator(phi0, phi1)
        ui = invert(u)
        assert u * phi0.img_a * ui == phi1.img_a
        assert u * phi0.img_b * ui == phi1.img_b
        # and on a full random element through the validated evaluation
        x = random_matrix(spec, a_dim, a_dim, rng)
        assert u * phi0.apply(x) * ui == phi1.apply(x)


def test_delta_and_hom_formats_fuzz():
    rng = random.Random(2024)
    for q, p, k in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (9, 3, 2)]:
        spec = field_make(p, k)
        e = DeltaEmbedding(2, 6, rng.choice([1, 2, 3]),
                           random_unit(spec, 6, rng))
        e2 = DeltaEmbedding.from_text(e.to_text())
        assert (e2.m, e2.n, e2.mult, e2.conjugator) == (e.m, e.n, e.mult, e.conjugator)
        h = Homomorphism.inclusion(6, 2, spec).conjugate(random_unit(spec, 6, rng))
        assert Homomorphism.from_text(h.to_text()) == h


def test_iota_rank_scaling_fuzz():
    rng = random.Random(555)
    for q in (2, 3):
        spec = field_make(q)
        for _ in range(30):
            m = rng.choice([2, 3, 4])
            k = rng.choice([2, 3])
            x = random_matrix(spec, m, m, rng)
            from rankmetric.embeddings import iota
            assert rank(iota(m * k, m, x)) == k * rank(x)


# Text shaped like the formats (an optional DELTA/HOM header, then matrix
# blocks "q rows cols" with rows of entries) with junk in any field, or
# plain junk.
_FIELD = st.one_of(st.integers(-1, 4).map(str), st.integers().map(str), st.text(max_size=3))
_BLOCK = st.tuples(st.one_of(st.sampled_from([2, 3, 4, 6]), st.integers()),
                   st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda head: st.lists(st.lists(_FIELD, min_size=head[2], max_size=head[2]).map(" ".join),
                          min_size=head[1], max_size=head[1])
    .map(lambda rows: "\n".join([" ".join(map(str, head)), *rows])))
_HEADER = st.tuples(st.sampled_from(["HOM", "DELTA"]), st.lists(_FIELD, max_size=4)).map(
    lambda h: " ".join([h[0], *h[1]]))
_TEXT = st.one_of(
    st.text(max_size=80),
    st.tuples(st.lists(_HEADER, max_size=1), st.lists(_BLOCK, max_size=3)).map(
        lambda parts: "\n".join(parts[0] + parts[1])),
)


@settings(max_examples=200, deadline=None)
@given(_TEXT)
def test_text_readers_raise_only_rankmetric_errors(text):
    for reader in (read_matrix, DeltaEmbedding.from_text, Homomorphism.from_text):
        try:
            reader(text)
        except RankMetricError:
            pass


# -- argv fuzz: every subcommand keeps the exit contract ---------------------

def _subcommand_options():
    """(flag, required, kind) for every option of every subcommand, where
    kind is "int", the tuple of choices, or "str"."""
    from rankmetric.cli import _build_parser
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {name: [(act.option_strings[0], act.required,
                    "int" if act.type is int else tuple(act.choices or ()) or "str")
                   for act in p._actions if act.option_strings[0] != "-h"]
            for name, p in sub.choices.items()}


_OPTIONS = _subcommand_options()
_GARBAGE = st.text(st.characters(exclude_characters="\0"), max_size=4)  # argv holds no NUL
_ERROR_LINE = re.compile(r"error (io|[A-Z][A-Za-z]*):")
_WORDS = ["1/2", "1/3", "2", "0", "1/0", "-1/3", "0.5", "x:0,y:0", "y:1", "x:0,z",
          "constant:1/2", "constant:x", "distance-to-copy"]
# the values each string option is meant to take, drawn most of the time
_MEANT = {"--in": ["matrix", "pair"], "--x": ["matrix"], "--y": ["matrix"],
          "--phi": ["delta"], "--psi": ["delta"], "--phi0": ["hom"], "--phi1": ["hom"],
          "--out": ["out"], "--out0": ["out"], "--out1": ["out"], "--eps": ["1/2", "1/3"],
          "--delta-prime": ["1/2", "1/3"], "--probes": ["x:0,y:0", "y:1"],
          "--coloring": ["constant:1/2", "distance-to-copy"]}


def _write_argv_inputs(d):
    """Input files of every kind the subcommands read, plus bad paths; written
    again before each run, since an --out flag may name one of them."""
    spec = field_make(2)
    one = Matrix.identity(spec, 2)
    a, b = kassabov_generators(2, spec)
    texts = {
        "matrix": write_matrix(one),
        "pair": write_matrix(a) + write_matrix(b),
        "delta": DeltaEmbedding(1, 2, 2, one).to_text(),
        "hom": Homomorphism.inclusion(2, 1, spec).to_text(),
        "junk": "DELTA 1\n2 2 2\n0 1\n",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "bytes").write_bytes(b"2 1 1\n\xff\n")
    files = {name: str(d / name) for name in [*texts, "bytes", "missing", "out"]}
    files["directory"] = str(d)
    return files


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    return _write_argv_inputs(tmp_path_factory.mktemp("argv"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_argv_fuzz_keeps_exit_contract(argv_files, data):
    """Small ints, garbage strings, input files of every kind, dropped and
    unknown flags: exit 0, 2 or 3, never a traceback, and a failure ends
    with its error class (argparse reports usage errors on stderr)."""
    command = data.draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, required, kind in _OPTIONS[command]:
        if not data.draw(st.booleans() if not required else st.integers(0, 19).map(bool)):
            continue
        if data.draw(st.integers(0, 9)) == 0:
            value = _GARBAGE
        elif kind == "int":
            value = st.one_of(st.integers(1, 3), st.integers(-2, 5),
                              st.sampled_from([9, 300, 99999])).map(str)
        elif kind == "str" and data.draw(st.integers(0, 3)):
            value = st.sampled_from(_MEANT[flag]).map(lambda v: argv_files.get(v, v))
        else:
            value = st.sampled_from([*argv_files.values(), *_WORDS] if kind == "str" else kind)
        argv += [flag, data.draw(value)]
    if data.draw(st.integers(0, 9)) == 0:
        argv.insert(data.draw(st.integers(1, len(argv))), "--bogus")
    out, err = io.StringIO(), io.StringIO()
    _write_argv_inputs(pathlib.Path(argv_files["directory"]))
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.chdir(argv_files["directory"])  # relative --out names land there
        mp.setenv("RANKMETRIC_MAX_DIM", "2")
        code = run(argv, out)
    assert code in (0, 2, 3), (argv, out.getvalue())
    if code and out.getvalue():  # the error line ends any report printed before it
        assert _ERROR_LINE.match(out.getvalue().splitlines()[-1]), (argv, out.getvalue())
    elif code:
        assert "error:" in err.getvalue()
