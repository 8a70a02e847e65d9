"""Exact computations in matrix algebras over finite fields under the rank metric.

The package covers the full pipeline at finite desk scale: field and
matrix arithmetic (:mod:`rankmetric.gf`, :mod:`rankmetric.matrix`), the
embedding calculus with explicit conjugators (:mod:`rankmetric.embeddings`),
defect measurement and repair of approximate generator pairs
(:mod:`rankmetric.stability`), tower constructions with certified
back-and-forth errors (:mod:`rankmetric.fraisse`), and copy counting with
explicit partition-dimension bounds (:mod:`rankmetric.ramsey`). All
arithmetic is exact; nothing here ever rounds.
"""

from .errors import RankMetricError
from .gf import FieldElement, FieldSpec, enumerate_elements, field_make
from .matrix import (
    Matrix,
    RankDistance,
    Subspace,
    direct_sum,
    kassabov_generators,
    kernel_basis,
    kron,
    matrix_units,
    rank,
    rank_distance,
)
from .embeddings import (
    DeltaEmbedding,
    Homomorphism,
    amalgamate,
    iota,
    iota_embedding,
    skolem_noether_conjugator,
)
from .stability import (
    RelationDefect,
    RepairCertificate,
    relation_defect,
    repair,
    v_space,
    w_chain,
)
from .fraisse import (
    BackForthCertificate,
    Tower,
    TowerElement,
    approximate_extension,
    approximate_homogeneity,
    back_and_forth,
    include_to,
    inner_approximate,
    tower_make,
    verify_certificate,
)
from .ramsey import (
    Coloring,
    copy_distance,
    count_copies,
    monochromatic_search,
    oscillation,
    ramsey_dimension,
    sl_order,
)

__version__ = "0.1.0"
