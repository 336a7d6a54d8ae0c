"""Graph substrates: undirected, directed, and vertex-labeled adjacency graphs.

These classes are the inputs ("factors") of the non-stochastic Kronecker
generator in :mod:`repro.core` and the objects on which the direct
triangle-counting baselines in :mod:`repro.triangles` operate.

The graph classes hold scipy sparse matrices, so every name here is
imported on first access (PEP 562): the shard store and the server import
:mod:`repro.graphs.io` through this package without loading scipy.  The
egonet names are the exception.  :mod:`repro.graphs.egonet` is both a
submodule and the function :func:`egonet` re-exported here, and once the
submodule is imported the package attribute would be the module, so they
are imported eagerly; that module imports scipy only where it builds a
:class:`Graph`.
"""

from repro._lazy import lazy_exports
from repro.graphs.egonet import Egonet, egonet, egonet_degree, egonet_triangle_count

__all__ = [
    "Graph",
    "DirectedGraph",
    "VertexLabeledGraph",
    "Egonet",
    "egonet",
    "egonet_degree",
    "egonet_triangle_count",
    "hadamard",
    "is_symmetric",
    "to_csr",
    "label_filter",
    "vertex_triangle_label_types",
    "edge_triangle_label_types",
    "read_edge_list",
    "read_directed_edge_list",
    "write_edge_list",
    "save_kronecker_bundle",
    "load_kronecker_bundle",
    "NpyShardSink",
    "normalize_payload_columns",
    "write_edge_shards",
    "write_shard_manifest",
    "read_shard_manifest",
    "iter_edge_shards",
    "load_edge_shards",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graphs.adjacency": ("Graph", "hadamard", "is_symmetric", "to_csr"),
    "repro.graphs.directed": ("DirectedGraph",),
    "repro.graphs.io": ("NpyShardSink", "iter_edge_shards", "load_edge_shards",
                        "load_kronecker_bundle", "normalize_payload_columns",
                        "read_directed_edge_list", "read_edge_list",
                        "read_shard_manifest", "save_kronecker_bundle",
                        "write_edge_list", "write_edge_shards",
                        "write_shard_manifest"),
    "repro.graphs.labeled": ("VertexLabeledGraph", "edge_triangle_label_types",
                             "label_filter", "vertex_triangle_label_types"),
})
