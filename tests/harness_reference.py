"""Reference star candidates: the per-vertex loops that built the `stars`
report's `star_kinds` and `candidate_upper_bounds`, one Python dict per
interior vertex.  `qmloc.harness._star_candidates` must match them bit for
bit."""
import numpy as np

from qmloc.bestapprox import _error
from qmloc.coeff import Coefficient
from qmloc.mesh import Triangulation, vertex_patch


def _classify_checkerboard_vertex(v, N: int) -> str:
    """Interior mesh vertices: macro centers, macro corners, or macro-edge
    midpoints (cell corners on the boundary between two macros)."""
    s = np.asarray(v) * 2 * N  # integer lattice of cell corners
    i, j = int(round(s[0])), int(round(s[1]))
    if i % 2 == 1 and j % 2 == 1:
        return "center"
    if i % 2 == 0 and j % 2 == 0:
        return "corner"
    return "edge-midpoint"


def _star_candidate_error(tables, coeff, z, values: dict) -> float:
    """Energy of an explicit star candidate given its nonzero nodal values."""
    region = vertex_patch(tables.space.tri, z)
    v = np.array([[values.get(int(g), 0.0) for g in tables.space.element_nodes[k]]
                  for k in region])
    return float(_error(tables, coeff.values, 0.0, region, v).sum())


def _star_candidate_values(tri: Triangulation, coeff: Coefficient, z: int, N: int) -> dict:
    """Hat-function candidate for the star of an interior checkerboard
    vertex: +-1/N values chosen per high-coefficient triangle that touches
    a macro center, zero at macro corners."""
    kind = _classify_checkerboard_vertex(tri.vertices[z], N)
    if kind == "corner":
        return {}
    values: dict[int, float] = {}
    for k in vertex_patch(tri, z):
        if coeff.values[k] != 1.0:
            continue
        verts = tri.triangles[k]
        coords = tri.vertices[verts]
        # macro center among the triangle's vertices?
        for loc, v in enumerate(verts):
            if _classify_checkerboard_vertex(coords[loc], N) != "center":
                continue
            c = coords[loc]
            mid = coords.mean(axis=0) - c
            sigma = 1.0 if mid[0] + mid[1] > 0 else -1.0
            if int(v) == z:
                for other in verts:
                    if int(other) != z:
                        values[int(other)] = -sigma / N
            else:
                values[int(v)] = sigma / N
    # admissibility: candidates must vanish on the domain boundary
    return {g: val for g, val in values.items() if not tri.boundary_vertices[g]}


def star_metadata(tables, coeff: Coefficient, N: int):
    """The `star_kinds` and `candidate_upper_bounds` of the interior
    vertices of the checkerboard of `tables`."""
    tri = tables.space.tri
    inner = tri.interior_vertices()
    kinds = {z: _classify_checkerboard_vertex(tri.vertices[z], N) for z in inner}
    candidates = {z: _star_candidate_error(tables, coeff, z,
                                           _star_candidate_values(tri, coeff, z, N))
                  for z in inner}
    return kinds, candidates
