"""What a new interpreter compiles, prints and exports.

The other test modules import ``rankmetric.embeddings``, ``stability`` and
``fraisse`` at the top, so in this process those modules are always loaded.
Only a new interpreter reaches them before their first use: each test here
runs its command or lookup in one.
"""

import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import rankmetric
from rankmetric.cli import run
from rankmetric.embeddings import DeltaEmbedding, Homomorphism
from rankmetric.matrix import Matrix, kassabov_generators, kron, random_unit, write_matrix

PACKAGE = os.path.dirname(os.path.abspath(rankmetric.__file__))
LAZY = ["embeddings", "fraisse", "stability"]
CENSUS_MODULES = ["__init__", "cli", "errors", "gf", "matrix", "ramsey"]

# the names the package exported when every module loaded with it, by owning module
EXPORTS = {
    "errors": ["RankMetricError"],
    "gf": ["FieldElement", "FieldSpec", "field_make"],
    "matrix": ["Matrix", "RankDistance", "Subspace", "kassabov_generators", "kernel_basis",
               "kron", "matrix_units", "rank", "rank_distance"],
    "embeddings": ["DeltaEmbedding", "Homomorphism", "amalgamate", "iota", "iota_embedding",
                   "skolem_noether_conjugator"],
    "stability": ["RelationDefect", "RepairCertificate", "relation_defect", "repair",
                  "v_space", "w_chain"],
    "fraisse": ["BackForthCertificate", "Tower", "TowerElement", "approximate_extension",
                "approximate_homogeneity", "back_and_forth", "include_to", "inner_approximate",
                "tower_make", "verify_certificate"],
    "ramsey": ["Coloring", "copy_distance", "count_copies", "monochromatic_search",
               "oscillation", "ramsey_dimension", "sl_order"],
}

# runs one command after an audit hook that records every compile() from source
COMPILES = """
import io, json, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(args[1]))
import rankmetric.cli
out = io.StringIO()
status = rankmetric.cli.run(sys.argv[1:], out)
print(json.dumps([status, out.getvalue(), compiled]))
"""

# looks every exported name up four ways, the way named first touching each module first
LOOKUPS = """
import importlib, json, sys
import rankmetric
first, exports = sys.argv[1], json.loads(sys.argv[2])
unknown = hasattr(rankmetric, "no_such_name")
unlisted = [name for names in exports.values() for name in names if name not in dir(rankmetric)]
unloaded = [m for m in exports if type(sys.modules["rankmetric." + m]).__name__ == "_LazyModule"]


def from_import(statement):
    def lookup(module, name):
        scope = {}
        exec(statement.format(name), scope)
        return scope[name]
    return lookup


ways = {"package": lambda module, name: getattr(rankmetric, name),
        "from": from_import("from rankmetric import {}"),
        "star": from_import("from rankmetric import *"),
        "owner": lambda module, name: getattr(importlib.import_module("rankmetric." + module), name)}
order = [first] + [way for way in ways if way != first]
differ = [name for module, names in exports.items() for name in names
          if len({id(ways[way](module, name)) for way in order}) != 1]
print(json.dumps([unknown, unlisted, unloaded, differ]))
"""

# threads behind a barrier make the first access to each lazy module together, each asking
# for a name its module defines last
THREADS = """
import sys, threading
import rankmetric
sys.setswitchinterval(1e-6)
failed = []


def reach(barrier, module, name):
    barrier.wait()
    try:
        getattr(getattr(rankmetric, module), name)
    except Exception as exc:
        failed.append(f"{module}.{name}: {exc!r}")


for module, name in [("embeddings", "amalgamate"), ("stability", "repair"),
                     ("fraisse", "_graph")]:
    barrier = threading.Barrier(4)
    threads = [threading.Thread(target=reach, args=(barrier, module, name)) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
print(failed)
"""


def _fresh(code, argv, env=None):
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.path.dirname(PACKAGE))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def _in_process(argv):
    out = io.StringIO()
    return run(argv, out), out.getvalue()


@pytest.mark.parametrize("argv, modules", [
    (["copies", "--a", "2", "--b", "4", "--q", "2", "--method", "brute_force"], CENSUS_MODULES),
    (["copies", "--a", "2", "--b", "4", "--q", "2", "--method", "orbit_stabilizer"],
     CENSUS_MODULES),
    (["ramsey-search", "--a", "1", "--b", "2", "--c", "4", "--q", "2", "--eps", "-1",
      "--coloring", "constant:1/3"], CENSUS_MODULES),
    (["ramsey-search", "--a", "2", "--b", "2", "--c", "4", "--q", "2", "--eps", "-1",
      "--coloring", "distance-to-copy"], CENSUS_MODULES),
    (["ramsey-bound", "--a", "2", "--b", "4", "--q", "2", "--eps", "1/2"], CENSUS_MODULES),
    (["backforth", "--rounds", "3", "--q", "2"], sorted(CENSUS_MODULES + LAZY)),
], ids=["copies-brute-force", "copies-orbit-stabilizer", "search-constant",
        "search-distance-to-copy", "ramsey-bound", "backforth"])
def test_command_compiles_only_the_modules_it_runs(argv, modules, tmp_path):
    # no bytecode is read or written, so every module the command imports is compiled once
    proc = _fresh(COMPILES, argv, {"PYTHONPYCACHEPREFIX": str(tmp_path / "pycache"),
                                   "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    status, out, compiled = json.loads(proc.stdout)
    names = sorted(os.path.basename(path)[:-3] for path in compiled
                   if isinstance(path, str) and os.path.dirname(os.path.abspath(path)) == PACKAGE)
    assert names == sorted(modules)
    assert (status, out) == _in_process(argv)


def _argvs(tmp_path, gf2, rng):
    """Each command's arguments, with its input files written to tmp_path."""
    def put(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    a, b = kassabov_generators(2, gf2)
    eye = Matrix.identity(gf2, 6)
    x = kron(a, eye) + Matrix.unit(gf2, 12, 1, 1)  # one entry off the exact pair
    pair = put("pair.txt", write_matrix(x) + write_matrix(kron(b, eye)))
    phi, psi = (DeltaEmbedding(2, 12, 6, random_unit(gf2, 12, rng)) for _ in range(2))
    small = DeltaEmbedding(2, 5, 2, random_unit(gf2, 5, rng))
    inclusion = Homomorphism.inclusion(4, 2, gf2)
    wider = Homomorphism.inclusion(6, 2, gf2).conjugate(random_unit(gf2, 6, rng))
    h0, h1 = put("h0.txt", inclusion.to_text()), put("h1.txt", wider.to_text())
    h2 = put("h2.txt", inclusion.conjugate(random_unit(gf2, 4, rng)).to_text())
    return {
        "iota": ["iota", "--n", "6", "--m", "2", "--in", put("x.txt", write_matrix(a + b))],
        "defect": ["defect", "--n", "2", "--in", pair],
        "repair": ["repair", "--n", "2", "--in", pair],
        "homog": ["homog", "--phi", put("phi.txt", phi.to_text()),
                  "--psi", put("psi.txt", psi.to_text())],
        "extend": ["extend", "--phi", put("small.txt", small.to_text()), "--tower", "factorial",
                   "--prefix", "6", "--delta-prime", "1/4"],
        "backforth": ["backforth", "--rounds", "3", "--q", "2", "--probes", "y:1,x:0"],
        "amalgamate": ["amalgamate", "--phi0", h0, "--phi1", h1],
        "conjugator": ["conjugator", "--phi0", h0, "--phi1", h2],
    }


@pytest.mark.parametrize("command", ["iota", "defect", "repair", "homog", "extend", "backforth",
                                     "amalgamate", "conjugator"])
def test_new_interpreter_prints_what_the_loaded_package_prints(command, tmp_path, gf2, rng):
    argv = _argvs(tmp_path, gf2, rng)[command]
    proc = _fresh("from rankmetric.cli import main; main()", argv)
    assert proc.stderr == ""
    assert (proc.returncode, proc.stdout) == _in_process(argv)


@pytest.mark.parametrize("first", ["package", "from", "star", "owner"])
def test_every_exported_name_is_one_object_by_every_route(first):
    assert sum(map(len, EXPORTS.values())) == 42
    proc = _fresh(LOOKUPS, [first, json.dumps(EXPORTS)])
    assert proc.returncode == 0, proc.stderr
    unknown, unlisted, unloaded, differ = json.loads(proc.stdout)
    assert unknown is False
    assert unlisted == []
    assert sorted(unloaded) == LAZY  # neither a bare import nor an unknown name runs them
    assert differ == []


def test_first_use_from_several_threads_at_once():
    for _ in range(3):
        proc = _fresh(THREADS, [])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[]\n"


def test_unknown_names_are_not_exported():
    for name in ["no_such_name", "read_header", "compose"]:
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(rankmetric, name)
    with pytest.raises(ImportError):
        from rankmetric import no_such_name  # noqa: F401


def test_reload_keeps_the_registered_modules():
    modules = {name: sys.modules[f"rankmetric.{name}"] for name in LAZY}
    repair = rankmetric.repair
    importlib.reload(rankmetric)
    assert {name: sys.modules[f"rankmetric.{name}"] for name in LAZY} == modules
    assert {name: getattr(rankmetric, name) for name in LAZY} == modules
    assert rankmetric.repair is repair
