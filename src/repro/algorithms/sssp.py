"""Single-Source Shortest Path (paper Figure 6 / Table 3, row SSSP).

Vertex value is the distance from the source; an incoming edge proposes
``src.dist + edge.weight`` and the destination keeps the minimum (an
asynchronous Bellman-Ford).
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.vertexcentric.datatypes import (UINT_INF, uint32_weights,
                                          vertex_dtype as struct_dtype)
from repro.vertexcentric.program import VertexProgram

__all__ = ["SSSP"]


class SSSP(VertexProgram):
    """Shortest distances from ``source`` over non-negative integer weights."""

    name = "sssp"
    vertex_dtype = struct_dtype(dist=np.uint32)
    edge_dtype = struct_dtype(weight=np.uint32)
    reduce_ops = {"dist": "min"}

    def __init__(self, source: int = 0) -> None:
        self.source = int(source)

    # -- setup ----------------------------------------------------------
    def initial_values(self, graph: DiGraph) -> np.ndarray:
        values = np.full(graph.num_vertices, UINT_INF, dtype=self.vertex_dtype)
        values["dist"][self.source] = 0
        return values

    def edge_values(self, graph: DiGraph) -> np.ndarray:
        out = np.empty(graph.num_edges, dtype=self.edge_dtype)
        if graph.weights is None:
            out["weight"] = 1
        else:
            out["weight"] = uint32_weights(graph.weights, self.name)
        return out

    # -- scalar device functions -----------------------------------------
    def init_compute(self, local_v, v) -> None:
        local_v["dist"] = v["dist"]

    def compute(self, src_v, src_static, edge, local_v) -> None:
        if src_v["dist"] != UINT_INF:
            local_v["dist"] = min(local_v["dist"], src_v["dist"] + edge["weight"])

    def update_condition(self, local_v, v) -> bool:
        return local_v["dist"] < v["dist"]

    # -- vectorized kernels ----------------------------------------------
    def messages(self, src_vals, src_static, edge_vals, dest_old):
        mask = src_vals["dist"] != UINT_INF
        return {"dist": src_vals["dist"] + edge_vals["weight"]}, mask

    def apply(self, local, old):
        return local, local["dist"] < old["dist"]
