"""Piecewise-constant coefficient fields and the quasi-monotonicity machinery.

A monotone path between two elements of a star is a chain of elements inside
the star, consecutive ones sharing a mesh edge, with non-decreasing
coefficient.  Quasi-monotonicity requires such a path for every ordered pair
(K, K~) in every star with a_K <= a_K~.  All tie-breaks (K_max, F_z, shortest
path) go to the smallest index so results are reproducible run to run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LocusMismatch, NoMonotonePath, NonPositiveValue, UnknownLocus
from .fespace import LagrangeSpace, _lattice, build_space, require_degree
from .mesh import Triangulation, _region_groups, region_rows, require_locus, vertex_patch


@dataclass(frozen=True)
class Coefficient:
    tri: Triangulation
    values: np.ndarray  # one positive value per element

    @property
    def alpha(self) -> float:
        return float(self.values.min() / self.values.max())


def attach_coefficient(tri: Triangulation, values) -> Coefficient:
    vals = np.asarray(values, dtype=float)
    if vals.shape != (tri.n_elements,):
        raise ValueError("need exactly one coefficient value per element")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise NonPositiveValue("coefficient values must be positive and finite")
    return Coefficient(tri=tri, values=vals)


@dataclass(frozen=True)
class MonotonePath:
    elements: tuple      # K_0, ..., K_m
    shared_edges: tuple  # F_n between consecutive elements


@dataclass(frozen=True)
class QmReport:
    quasi_monotone: bool
    verdicts: tuple      # per checked star: (locus, bool)
    witnesses: tuple     # per failure: (locus, K, K_tilde)

    def to_json_dict(self):
        return {
            "quasi_monotone": self.quasi_monotone,
            "verdicts": [
                {"locus": list(locus), "quasi_monotone": ok} for locus, ok in self.verdicts
            ],
            "witnesses": [
                {"locus": list(locus), "pair": [int(a), int(b)]} for locus, a, b in self.witnesses
            ],
        }


def find_monotone_path(tri: Triangulation, coeff: Coefficient, z: int, k: int, k_tilde: int):
    """Shortest monotone path K -> K~ inside omega_z, lexicographically
    smallest among shortest; None if unreachable."""
    star = vertex_patch(tri, z)
    k = require_locus("element", k, tri.n_elements)
    k_tilde = require_locus("element", k_tilde, tri.n_elements)
    if k not in star or k_tilde not in star:
        raise LocusMismatch(f"elements ({k}, {k_tilde}) not both in the star of vertex {z}")
    return _monotone_path(tri, coeff.values, star, k, k_tilde)


def _steps(tri: Triangulation, a: np.ndarray, elems: np.ndarray):
    """(..., E, E) bools for the elements `elems` (..., E) of regions: the
    step K -> K' when they share an edge (K = K' too) and a_K <= a_K'."""
    te, ae = tri.triangle_edges[elems], a[elems]
    shared = (te[..., :, None, :, None] == te[..., None, :, None, :]).any(axis=(-2, -1))
    return shared & (ae[..., :, None] <= ae[..., None, :])


def _monotone_path(tri, a, star, k, k_tilde):
    """The lexicographically smallest shortest monotone path K -> K~ inside
    the ascending elements `star`, or None: a backward sweep over the steps
    counts each element's hops to K~, then the walk from K takes the smallest
    element one hop closer.  Stars are small, so both run in Python."""
    elems = np.asarray(star)
    star = elems.tolist()
    back = _steps(tri, a, elems).T.tolist()  # back[q][p]: the step p -> q
    E, start, goal = len(star), star.index(k), star.index(k_tilde)
    hops, frontier = [-1] * E, [goal]
    hops[goal] = 0
    while frontier and hops[start] < 0:
        nxt = []
        for q in frontier:
            for p, step in enumerate(back[q]):
                if step and hops[p] < 0:
                    hops[p] = hops[q] + 1
                    nxt.append(p)
        frontier = nxt
    if hops[start] < 0:
        return None
    path = [start]
    for d in range(hops[start] - 1, -1, -1):
        path.append(next(q for q in range(E) if hops[q] == d and back[q][path[-1]]))
    te = tri.triangle_edges[elems[path]].tolist()
    return MonotonePath(elements=tuple(star[p] for p in path),
                        shared_edges=tuple(next(e for e in f if e in g)
                                           for f, g in zip(te, te[1:])))


def space_star(space: LagrangeSpace, node: int):
    """Elements of omega_z for a global node of the space (supp of phi_z),
    ascending.  Raises UnknownLocus as `require_locus` does."""
    node = require_locus("node", node, space.n_nodes)
    offsets, ids = space.node_elements
    return ids[offsets[node]:offsets[node + 1]]


def check_quasi_monotonicity(tri: Triangulation, coeff: Coefficient, node_set=None,
                             degree: int = 1) -> QmReport:
    """Classify the coefficient field per the monotone-path definition.

    node_set: iterable of loci ('vertex'|'edge'|'element', id); defaults to
    all stars seen by the degree-`degree` space: the vertex stars, plus the
    interior edge pairs at degree >= 2 and the single elements at degree
    >= 3.  Only vertex stars are decided by a search: edge-pair and element
    loci never fail, because the direct step exists (the two elements of an
    edge pair share that edge, and K -> K), so they pass.  A given node_set
    is validated first (`_vertex_loci`).
    """
    require_degree(degree)
    if node_set is None:  # generated valid, the vertex loci first
        loci = [("vertex", z) for z in range(tri.n_vertices)]
        if degree >= 2:
            loci += [("edge", e) for e in tri.interior_edges()]
        if degree >= 3:
            loci += [("element", k) for k in range(tri.n_elements)]
        at = z = np.arange(tri.n_vertices)
    else:
        loci, at, z = _vertex_loci(tri, node_set)
    witness = np.full((len(loci), 2), -1, dtype=np.int64)
    witness[at] = _witnesses(tri, coeff.values, region_rows(tri.vertex_elements, z))
    witness = witness.tolist()
    return QmReport(
        quasi_monotone=all(k < 0 for k, _ in witness),
        verdicts=tuple((locus, k < 0) for locus, (k, _) in zip(loci, witness)),
        witnesses=tuple((locus, k, kk) for locus, (k, kk) in zip(loci, witness) if k >= 0),
    )


def _vertex_loci(tri: Triangulation, node_set):
    """The loci of `node_set` as (kind, id) tuples, and the positions of its
    vertex loci and their vertex ids, two int arrays.  Raises UnknownLocus
    for a locus that is not a (kind, id) tuple or list, for a kind other
    than 'vertex', 'edge' and 'element', and for a bad id (`require_locus`)."""
    count = {"vertex": tri.n_vertices, "edge": tri.n_edges, "element": tri.n_elements}
    loci, at = [], []
    for locus in node_set:
        if not isinstance(locus, (tuple, list)) or len(locus) != 2:
            raise UnknownLocus(f"locus {locus!r} is not a (kind, id) pair")
        kind, ident = locus
        if not isinstance(kind, str) or kind not in count:
            raise UnknownLocus(f"unknown locus kind {kind!r}")
        ident = require_locus(kind, ident, count[kind])
        if kind == "vertex":
            at.append(len(loci))
        loci.append((kind, ident))
    return loci, np.array(at, dtype=np.int64), np.array([loci[i][1] for i in at], dtype=np.int64)


def _witnesses(tri: Triangulation, a: np.ndarray, regions):
    """Quasi-monotonicity of each CSR region: a (P, 2) witness, -1 if none.

    Regions of one size E are decided at once: repeated squaring of their
    (E, E) 0/1 step matrices (`_steps`) gives reachability.  The witness is
    the first (K, K~) in row-major order with a_K <= a_K~ and K~ unreachable
    from K."""
    witness = np.full((len(regions[0]) - 1, 2), -1, dtype=np.int64)
    for rows, elems in _region_groups(regions):
        E = elems.shape[1]
        up = a[elems][:, :, None] <= a[elems][:, None, :]
        reach = np.where(_steps(tri, a, elems), 1.0, 0.0)
        for _ in range(max(E - 2, 0).bit_length()):  # paths of up to 2, 4, ... edges
            reach = np.minimum(reach @ reach, 1.0)  # exact: the products count paths
        fail = (up & (reach == 0.0)).reshape(len(rows), E * E)
        bad = fail.any(axis=1)
        pair = np.stack(np.divmod(fail[bad].argmax(axis=1), E), axis=1)
        witness[rows[bad]] = np.take_along_axis(elems[bad], pair, axis=1)
    return witness


def select_kmax_fz(space: LagrangeSpace, coeff: Coefficient):
    """K_max(z), the local index of z in it and F_z for every node z.

    The support of phi_z is the set of elements listing z, so one lexsort of
    (node, -a_K, K) over `space.element_nodes` puts K_max(z) first among the
    entries of z, ties to the smallest id.  F_z is the smallest edge of
    K_max(z) through z: an edge opposite a zero lattice weight of z; -1 for
    element-interior nodes.  Returns three (n,) int arrays.
    """
    en = space.element_nodes
    nt, nloc = en.shape
    elem = np.repeat(np.arange(nt), nloc)
    flat = en.ravel()
    order = np.lexsort((elem, -coeff.values[elem], flat))
    first = order[np.searchsorted(flat[order], np.arange(space.n_nodes))]
    kmax, loc = np.divmod(first, nloc)
    on_edge = np.array(_lattice(space.degree)[0])[loc] == 0  # (n, 3): edge opposite vertex t
    n_edges = space.tri.n_edges
    fz = np.where(on_edge, space.tri.triangle_edges[kmax], n_edges).min(axis=1)
    fz[fz == n_edges] = -1
    return kmax, loc, fz


def build_omega_hat(tri: Triangulation, coeff: Coefficient, k: int,
                    space: LagrangeSpace | None = None):
    """omega_hat_K: union of monotone paths from K to K_max(z) over the nodes
    z of K in `space` (the P1 space of `tri` by default).

    Raises UnknownLocus for a `k` that is not an element id
    (`require_locus`), and NoMonotonePath (with the failing node) when the
    coefficient is not quasi-monotone on some star of K.
    """
    k = require_locus("element", k, tri.n_elements)
    sp = space if space is not None else build_space(tri, 1)
    out = {k}
    a = coeff.values
    for node in sorted(int(n) for n in sp.element_nodes[k]):
        star = space_star(sp, node)
        kmax = min(star, key=lambda j: (-a[j], j))  # the rule of select_kmax_fz
        path = _monotone_path(tri, a, star, k, int(kmax))
        if path is None:
            raise NoMonotonePath(f"no monotone path from element {k} to K_max at node {node}")
        out.update(path.elements)
    # edge-connected: every path starts at K and steps across shared edges
    return tuple(sorted(out))
