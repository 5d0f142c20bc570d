"""Single-Source Widest Path (paper Table 3, row SSWP).

``bwidth`` is the best bottleneck bandwidth from the source: an incoming
edge proposes ``min(src.bwidth, edge.width)`` and the destination keeps the
maximum.  The source starts at ``INF`` (unbounded), everyone else at 0 (the
paper's ``SrcV->BWidth != 0`` guard skips unreached sources).
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.vertexcentric.datatypes import (UINT_INF, uint32_weights,
                                          vertex_dtype as struct_dtype)
from repro.vertexcentric.program import VertexProgram

__all__ = ["SSWP"]


class SSWP(VertexProgram):
    """Widest (maximum-bottleneck) paths from ``source``."""

    name = "sswp"
    vertex_dtype = struct_dtype(bwidth=np.uint32)
    edge_dtype = struct_dtype(width=np.uint32)
    reduce_ops = {"bwidth": "max"}

    def __init__(self, source: int = 0) -> None:
        self.source = int(source)

    # -- setup ----------------------------------------------------------
    def initial_values(self, graph: DiGraph) -> np.ndarray:
        values = np.zeros(graph.num_vertices, dtype=self.vertex_dtype)
        values["bwidth"][self.source] = UINT_INF
        return values

    def edge_values(self, graph: DiGraph) -> np.ndarray:
        out = np.empty(graph.num_edges, dtype=self.edge_dtype)
        if graph.weights is None:
            out["width"] = 1
        else:
            out["width"] = uint32_weights(graph.weights, self.name)
        return out

    # -- scalar device functions -----------------------------------------
    def init_compute(self, local_v, v) -> None:
        local_v["bwidth"] = v["bwidth"]

    def compute(self, src_v, src_static, edge, local_v) -> None:
        if src_v["bwidth"] != 0:
            local_v["bwidth"] = max(
                local_v["bwidth"], min(src_v["bwidth"], edge["width"])
            )

    def update_condition(self, local_v, v) -> bool:
        return local_v["bwidth"] > v["bwidth"]

    # -- vectorized kernels ----------------------------------------------
    def messages(self, src_vals, src_static, edge_vals, dest_old):
        mask = src_vals["bwidth"] != 0
        return {"bwidth": np.minimum(src_vals["bwidth"], edge_vals["width"])}, mask

    def apply(self, local, old):
        return local, local["bwidth"] > old["bwidth"]
