"""Exact computations in matrix algebras over finite fields under the rank metric.

The package covers the full pipeline at finite desk scale: field and
matrix arithmetic (:mod:`rankmetric.gf`, :mod:`rankmetric.matrix`), the
embedding calculus with explicit conjugators (:mod:`rankmetric.embeddings`),
defect measurement and repair of approximate generator pairs
(:mod:`rankmetric.stability`), tower constructions with certified
back-and-forth errors (:mod:`rankmetric.fraisse`), and copy counting with
explicit partition-dimension bounds (:mod:`rankmetric.ramsey`). All
arithmetic is exact; nothing here ever rounds.

``embeddings``, ``stability`` and ``fraisse`` run only on the first access to one
of their attributes, so a process that only counts copies never compiles them.
"""

import importlib.util as _util
import sys as _sys
from _thread import RLock as _RLock

from .errors import RankMetricError
from .gf import FieldElement, FieldSpec, field_make
from .matrix import (Matrix, RankDistance, Subspace, kassabov_generators, kernel_basis, kron,
                     matrix_units, rank, rank_distance)
from .ramsey import (Coloring, copy_distance, count_copies, monochromatic_search, oscillation,
                     ramsey_dimension, sl_order)

# the names re-exported from each lazily loaded module
_LAZY = {
    "embeddings": ("DeltaEmbedding", "Homomorphism", "amalgamate", "iota", "iota_embedding",
                   "skolem_noether_conjugator"),
    "stability": ("RelationDefect", "RepairCertificate", "relation_defect", "repair",
                  "v_space", "w_chain"),
    "fraisse": ("BackForthCertificate", "Tower", "TowerElement", "approximate_extension",
                "approximate_homogeneity", "back_and_forth", "include_to", "inner_approximate",
                "tower_make", "verify_certificate"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

_LOCK = _RLock()
_RUNNING = set()  # names of the modules running now, on the thread that holds _LOCK


class _LazyModule(type(_sys)):
    """A submodule that runs on the first access to any attribute, under ``_LOCK``: it becomes
    a plain module only when it has run, so another thread meanwhile waits for it."""

    def __getattribute__(self, attr):
        with _LOCK:
            spec = object.__getattribute__(self, "__spec__")
            if type(self) is _LazyModule and spec.name not in _RUNNING:  # else running here
                _RUNNING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _RUNNING.discard(spec.name)
                self.__class__ = type(_sys)
        return object.__getattribute__(self, attr)


for _name in _LAZY:
    _full = f"{__name__}.{_name}"
    if _full not in _sys.modules:  # a reload keeps the modules already registered
        _sys.modules[_full] = _util.module_from_spec(_util.find_spec(_full))
        _sys.modules[_full].__class__ = _LazyModule
    globals()[_name] = _sys.modules[_full]
__all__ = [name for name in globals() if not name.startswith("_")] + list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))


__version__ = "0.1.0"
