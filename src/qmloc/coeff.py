"""Piecewise-constant coefficient fields and the quasi-monotonicity machinery.

A monotone path between two elements of a star is a chain of elements inside
the star, consecutive ones sharing a mesh edge, with non-decreasing
coefficient.  Quasi-monotonicity requires such a path for every ordered pair
(K, K~) in every star with a_K <= a_K~.  All tie-breaks (K_max, F_z, shortest
path) go to the smallest index so results are reproducible run to run.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (LocusMismatch, NoMonotonePath, NonPositiveValue, UnknownLocus,
                     UnsupportedDegree)
from .fespace import EDGE, VERTEX, LagrangeSpace, _lattice, build_space
from .mesh import Triangulation, edge_pair, vertex_patch


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


def _star_graph(tri: Triangulation, a: np.ndarray, star):
    """Directed adjacency inside a star: K -> K' iff edge-adjacent and
    a_K <= a_K'."""
    star_set = set(star)
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in star}
    for k in star:
        for e in tri.triangle_edges[k]:
            for other in tri.edge_elements[int(e)]:
                if other != k and other in star_set and a[k] <= a[other]:
                    adj[k].append((other, int(e)))
    for k in adj:
        adj[k].sort()
    return adj


def find_monotone_path(tri: Triangulation, coeff: Coefficient, z: int, k: int, k_tilde: int):
    """Shortest monotone path K -> K~ inside omega_z, lexicographically
    smallest among shortest; None if unreachable."""
    star = vertex_patch(tri, z)
    if k not in star or k_tilde not in star:
        raise LocusMismatch(f"elements ({k}, {k_tilde}) not both in the star of vertex {z}")
    return _bfs_path(tri, coeff.values, star, k, k_tilde)


def _bfs_path(tri, a, star, k, k_tilde):
    if k == k_tilde:
        return MonotonePath(elements=(k,), shared_edges=())
    adj = _star_graph(tri, a, star)
    # BFS storing, per node, the lexicographically smallest predecessor chain
    best: dict[int, tuple] = {k: (k,)}
    best_edges: dict[int, tuple] = {k: ()}
    frontier = [k]
    while frontier:
        nxt: dict[int, tuple[tuple, tuple]] = {}
        for node in sorted(frontier, key=lambda n: best[n]):
            for other, eid in adj[node]:
                if other in best:
                    continue
                cand = (best[node] + (other,), best_edges[node] + (eid,))
                if other not in nxt or cand < nxt[other]:
                    nxt[other] = cand
        for other, (chain, edges) in nxt.items():
            best[other] = chain
            best_edges[other] = edges
        if k_tilde in best:
            return MonotonePath(elements=best[k_tilde], shared_edges=best_edges[k_tilde])
        frontier = list(nxt)
    return None


def _star_quasi_monotone(tri, a, star):
    """Check all ordered pairs in one star; returns (ok, witness-or-None)."""
    adj = _star_graph(tri, a, star)
    for k in star:
        # reachability from k
        seen = {k}
        queue = deque([k])
        while queue:
            n = queue.popleft()
            for other, _ in adj[n]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        for k_tilde in star:
            if a[k] <= a[k_tilde] and k_tilde not in seen:
                return False, (k, k_tilde)
    return True, None


def space_star(space: LagrangeSpace, node: int):
    """Elements of omega_z for a global node of the space (supp of phi_z)."""
    kind = space.node_kind[node]
    ent = space.node_entity[node]
    if kind == VERTEX:
        return vertex_patch(space.tri, ent)
    if kind == EDGE:
        return edge_pair(space.tri, ent)
    return (ent,)


def check_quasi_monotonicity(tri: Triangulation, coeff: Coefficient, node_set=None,
                             degree: int = 1) -> QmReport:
    """Classify the coefficient field per the monotone-path definition.

    node_set: iterable of loci ('vertex'|'edge'|'element', id); defaults to
    all stars seen by the degree-`degree` space (vertex stars, plus edge
    pairs and single elements for degree >= 2, which are checked directly
    even though vertex stars already imply them).
    """
    if not 1 <= degree <= 4:
        raise UnsupportedDegree(f"degree {degree} not in 1..4")
    a = coeff.values
    if node_set is None:
        loci = [("vertex", z) for z in range(tri.n_vertices)]
        if degree >= 2:
            loci += [("edge", int(e)) for e in tri.interior_edges()]
        if degree >= 3:
            loci += [("element", k) for k in range(tri.n_elements)]
    else:
        loci = [tuple(l) for l in node_set]
    verdicts = []
    witnesses = []
    for locus in loci:
        kind, ident = locus
        if kind == "vertex":
            star = vertex_patch(tri, ident)
        elif kind == "edge":
            star = edge_pair(tri, ident)
        elif kind == "element":
            star = (ident,)
        else:
            raise UnknownLocus(f"unknown locus kind {kind!r}")
        ok, witness = _star_quasi_monotone(tri, a, star)
        verdicts.append((locus, ok))
        if not ok:
            witnesses.append((locus, witness[0], witness[1]))
    return QmReport(
        quasi_monotone=all(ok for _, ok in verdicts),
        verdicts=tuple(verdicts),
        witnesses=tuple(witnesses),
    )


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


def build_omega_hat(tri: Triangulation, coeff: Coefficient, k: int, degree: int = 1,
                    space: LagrangeSpace | None = None):
    """omega_hat_K: union of monotone paths from K to K_max(z), z in N_K.

    Raises NoMonotonePath (with the failing node) when the coefficient is
    not quasi-monotone on some star of K.
    """
    sp = space if space is not None else build_space(tri, degree)
    out = {int(k)}
    a = coeff.values
    for node in sorted(int(n) for n in sp.element_nodes[k]):
        star = space_star(sp, node)
        kmax = min(star, key=lambda j: (-a[j], j))  # the rule of select_kmax_fz
        path = _bfs_path(tri, a, star, int(k), int(kmax))
        if path is None:
            raise NoMonotonePath(f"no monotone path from element {k} to K_max at node {node}")
        out.update(path.elements)
    result = tuple(sorted(out))
    if not _connected(tri, result):
        raise NoMonotonePath(f"omega_hat of element {k} is disconnected")
    return result


def _connected(tri: Triangulation, elements) -> bool:
    elems = set(elements)
    seen = {next(iter(elems))}
    queue = deque(seen)
    while queue:
        k = queue.popleft()
        for e in tri.triangle_edges[k]:
            for other in tri.edge_elements[int(e)]:
                if other in elems and other not in seen:
                    seen.add(other)
                    queue.append(other)
    return seen == elems
