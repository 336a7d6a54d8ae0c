"""repro — non-stochastic Kronecker graph generation with exact triangle statistics.

Reproduction of *"On Large-Scale Graph Generation with Validation of Diverse
Triangle Statistics at Edges and Vertices"* (Sanders, Pearce, La Fond,
Kepner, 2018).  The package builds Kronecker product graphs ``C = A ⊗ B``
from two small factors and derives, in closed form, the exact triangle
participation of every vertex and edge of the product — undirected, directed,
and vertex-labeled — plus degree distributions and (under the Theorem 3
hypotheses) the full truss decomposition.

Quick start::

    from repro import generators, core

    A = generators.webgraph_like(2000, seed=1)      # scale-free factor
    B = A.with_self_loops()                          # B = A + I (Section VI)
    product = core.KroneckerGraph(A, B)

    t_C = core.kron_vertex_triangles(A, B)           # exact per-vertex counts
    tau = core.kron_triangle_count(A, B)             # exact global count
    report = core.validate_egonets(A, B, n_samples=5)
    assert report.passed

Subpackages
-----------
``repro.graphs``      graph substrates (undirected / directed / labeled), I/O, egonets
``repro.triangles``   direct triangle-counting baselines and censuses
``repro.truss``       truss decomposition by edge peeling
``repro.generators``  factor generators (cliques, scale-free, R-MAT, stochastic Kronecker)
``repro.core``        the Kronecker formulas, the implicit product graph, validation
``repro.parallel``    partitioned communication-free generation and streaming
``repro.perf``        vectorized CSR gather kernels behind the batched hot paths
``repro.store``       out-of-core shard store: compaction, manifest v2, range queries
``repro.analysis``    distribution diagnostics and summary tables

``repro.serve`` (the query service), ``repro.obs`` (telemetry) and
``repro.lint`` (the convention linter) are imported by their own paths.
Every subpackage and name listed here is imported on first access (PEP 562),
so ``import repro`` loads none of them, and a process that only serves a
shard store never loads scipy or the generation and analysis stack.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "graphs",
    "triangles",
    "truss",
    "generators",
    "core",
    "parallel",
    "perf",
    "store",
    "analysis",
    "Graph",
    "DirectedGraph",
    "VertexLabeledGraph",
    "KroneckerGraph",
    "KroneckerTriangleStats",
    "kron_degrees",
    "kron_vertex_triangles",
    "kron_edge_triangles",
    "kron_triangle_count",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": ("KroneckerGraph", "KroneckerTriangleStats", "kron_degrees",
                   "kron_edge_triangles", "kron_triangle_count",
                   "kron_vertex_triangles"),
    "repro.graphs": ("DirectedGraph", "Graph", "VertexLabeledGraph"),
}, submodules=("analysis", "core", "generators", "graphs", "parallel", "perf",
               "store", "triangles", "truss"))
