"""Core contribution: non-stochastic Kronecker generation with exact triangle statistics.

* :class:`KroneckerGraph` — the implicit product graph ``C = A ⊗ B``.
* :mod:`repro.core.index_maps` — the α/β/γ block index maps.
* :mod:`repro.core.degree_formulas` — Kronecker degree formulas.
* :mod:`repro.core.triangle_formulas` — Theorems 1-2, Corollaries 1-2 and the
  general self-loop expansions, plus the lazy
  :class:`~repro.core.triangle_formulas.KroneckerTriangleStats` payload.
* :mod:`repro.core.directed_formulas` — Theorems 4-5 (directed census).
* :mod:`repro.core.labeled_formulas` — Theorems 6-7 (labeled census).
* :mod:`repro.core.truss_formulas` — Theorem 3 (truss transfer).
* :mod:`repro.core.validation` — formula-vs-direct validation harness.
"""

from repro.core.degree_formulas import (
    kron_degree_at,
    kron_degrees,
    kron_directed_in_degrees,
    kron_directed_out_degrees,
    kron_in_degrees,
    kron_max_degree_ratio,
    kron_out_degrees,
    kron_reciprocal_degrees,
    max_degree_ratio,
)
from repro.core.directed_formulas import (
    check_directed_factor_assumptions,
    kron_directed_edge_triangles,
    kron_directed_edge_triangles_at,
    kron_directed_part,
    kron_directed_vertex_triangles,
    kron_directed_vertex_triangles_at,
    kron_reciprocal_part,
)
from repro.core.clustering_formulas import (
    diag_of_power,
    kron_closed_walks,
    kron_closed_walks_at,
    kron_global_clustering,
    kron_local_clustering,
    kron_local_clustering_at,
    kron_wedge_total,
)
from repro.core.index_maps import (
    alpha,
    alpha_1based,
    beta,
    beta_1based,
    factor_indices,
    gamma,
    gamma_1based,
    product_index,
)
from repro.core.kronecker import KroneckerGraph
from repro.core.multi import (
    MultiKroneckerGraph,
    multi_kron_degrees,
    multi_kron_edge_triangles,
    multi_kron_triangle_count,
    multi_kron_vertex_triangles,
)
from repro.core.labeled_formulas import (
    check_labeled_factor_assumptions,
    kron_inherited_labels,
    kron_label_filter,
    kron_labeled_edge_triangles,
    kron_labeled_edge_triangles_at,
    kron_labeled_vertex_triangles,
    kron_labeled_vertex_triangles_at,
)
from repro.core.sampling import (
    WedgeSample,
    estimate_global_clustering,
    sample_product_edges,
    sample_vertices_by_degree,
    sample_wedges,
)
from repro.core.triangle_formulas import (
    KroneckerTriangleStats,
    cor1_vertex_triangles,
    cor2_edge_triangles,
    diag_of_cube,
    kron_edge_triangles,
    kron_edge_triangles_at,
    kron_triangle_count,
    kron_vertex_triangles,
    kron_vertex_triangles_at,
    self_loop_case,
    thm1_vertex_triangles,
    thm2_edge_triangles,
)
from repro.core.truss_formulas import (
    KroneckerTrussDecomposition,
    check_truss_factor_assumptions,
    kron_truss_decomposition,
)
from repro.core.validation import (
    ValidationAccumulator,
    ValidationReport,
    validate_directed_product,
    validate_egonets,
    validate_labeled_product,
    validate_truss_transfer,
    validate_undirected_product,
)

__all__ = [
    "KroneckerGraph",
    "MultiKroneckerGraph",
    "multi_kron_degrees",
    "multi_kron_vertex_triangles",
    "multi_kron_edge_triangles",
    "multi_kron_triangle_count",
    # sampling / auditing
    "WedgeSample",
    "sample_product_edges",
    "sample_vertices_by_degree",
    "sample_wedges",
    "estimate_global_clustering",
    # closed walks / clustering
    "diag_of_power",
    "kron_closed_walks",
    "kron_closed_walks_at",
    "kron_wedge_total",
    "kron_local_clustering",
    "kron_local_clustering_at",
    "kron_global_clustering",
    # index maps
    "alpha",
    "beta",
    "gamma",
    "alpha_1based",
    "beta_1based",
    "gamma_1based",
    "factor_indices",
    "product_index",
    # degrees
    "kron_degrees",
    "kron_degree_at",
    "kron_out_degrees",
    "kron_in_degrees",
    "kron_reciprocal_degrees",
    "kron_directed_out_degrees",
    "kron_directed_in_degrees",
    "max_degree_ratio",
    "kron_max_degree_ratio",
    # undirected triangle formulas
    "diag_of_cube",
    "self_loop_case",
    "thm1_vertex_triangles",
    "cor1_vertex_triangles",
    "thm2_edge_triangles",
    "cor2_edge_triangles",
    "kron_vertex_triangles",
    "kron_edge_triangles",
    "kron_triangle_count",
    "kron_vertex_triangles_at",
    "kron_edge_triangles_at",
    "KroneckerTriangleStats",
    # directed formulas
    "check_directed_factor_assumptions",
    "kron_reciprocal_part",
    "kron_directed_part",
    "kron_directed_vertex_triangles",
    "kron_directed_vertex_triangles_at",
    "kron_directed_edge_triangles",
    "kron_directed_edge_triangles_at",
    # labeled formulas
    "check_labeled_factor_assumptions",
    "kron_inherited_labels",
    "kron_label_filter",
    "kron_labeled_vertex_triangles",
    "kron_labeled_vertex_triangles_at",
    "kron_labeled_edge_triangles",
    "kron_labeled_edge_triangles_at",
    # truss
    "check_truss_factor_assumptions",
    "KroneckerTrussDecomposition",
    "kron_truss_decomposition",
    # validation
    "ValidationReport",
    "ValidationAccumulator",
    "validate_undirected_product",
    "validate_directed_product",
    "validate_labeled_product",
    "validate_truss_transfer",
    "validate_egonets",
]
