"""Egonet extraction (Figure 7 machinery).

The paper validates its Kronecker triangle formulas by sampling vertices of
the (never-materialized) product graph ``C = A ⊗ B``, building the *egonet*
of each sampled vertex — the induced subgraph on the vertex and its
neighbours — and counting triangles inside it directly.  Because the egonet
of a vertex contains every triangle that vertex participates in, this gives
an exact, local, laptop-scale cross-check of the formula values even when
``C`` has billions of vertices.

This module provides a generic :func:`egonet` working on any object exposing
``neighbors(v)`` and ``subgraph(vertices)`` (both :class:`repro.graphs.Graph`
and :class:`repro.core.KroneckerGraph` do), plus helpers for the statistics
the paper reads off each egonet: the centre's degree and triangle count.
It imports scipy only where :func:`egonet` builds a graph, so the
:class:`Egonet` type costs the serving layers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graphs.adjacency import Graph

__all__ = ["Egonet", "egonet", "egonet_triangle_count", "egonet_degree"]


@dataclass(frozen=True)
class Egonet:
    """The induced subgraph on a centre vertex and its neighbours.

    Attributes
    ----------
    center:
        Global id of the centre vertex.
    vertices:
        Global ids of the egonet vertices (centre first, then sorted
        neighbours); local ids in :attr:`graph` follow this ordering.
    graph:
        The induced subgraph as a :class:`repro.graphs.Graph`.
    """

    center: int
    vertices: np.ndarray
    graph: Graph

    @property
    def center_local(self) -> int:
        """Local index of the centre inside :attr:`graph` (always 0)."""
        return 0

    @property
    def n_vertices(self) -> int:
        """Number of vertices in the egonet (centre + neighbours)."""
        return self.graph.n_vertices

    def degree_of_center(self) -> int:
        """Degree of the centre vertex (self loops excluded)."""
        return self.graph.degree(self.center_local)

    def triangles_at_center(self) -> int:
        """Number of triangles the centre participates in.

        Each such triangle is centre + two adjacent neighbours, i.e. an edge
        inside the open neighbourhood.  Self loops are ignored, matching the
        paper's ``(A - I∘A)`` convention.
        """
        adj = self.graph.without_self_loops().adjacency
        # Neighbours of the centre inside the egonet:
        nbrs = adj.indices[adj.indptr[0]:adj.indptr[1]]
        if nbrs.size < 2:
            return 0
        sub = adj[nbrs][:, nbrs]
        return int(sub.nnz // 2)


def egonet(graph, vertex: int) -> Egonet:
    """Extract the egonet of *vertex* from *graph*.

    Parameters
    ----------
    graph:
        Any object with ``neighbors(v) -> array`` and
        ``subgraph(vertices) -> Graph``.  For a
        :class:`repro.core.KroneckerGraph` this never materializes the full
        product: only the rows/columns touching the egonet are formed.
    vertex:
        Global vertex id.
    """
    from repro.graphs.adjacency import Graph  # scipy, only once a graph is built

    nbrs = np.asarray(graph.neighbors(vertex), dtype=np.int64)
    nbrs = np.unique(nbrs[nbrs != vertex])
    vertices = np.concatenate([[np.int64(vertex)], nbrs])
    sub = graph.subgraph(vertices)
    if not isinstance(sub, Graph):
        sub = Graph(sub, validate=False)
    return Egonet(center=int(vertex), vertices=vertices, graph=sub)


def egonet_degree(graph, vertex: int) -> int:
    """Degree of *vertex* measured through its egonet (sanity-check helper)."""
    return egonet(graph, vertex).degree_of_center()


def egonet_triangle_count(graph, vertex: int) -> int:
    """Triangles at *vertex* counted directly inside its egonet.

    This is the independent, formula-free count the paper compares against
    the Kronecker-formula value ``t_C[p]`` in Figure 7.
    """
    return egonet(graph, vertex).triangles_at_center()
