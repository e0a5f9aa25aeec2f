"""Loop references for the quasi-monotonicity classifier and the monotone
paths.

`_star_graph` is the directed graph of one star as a dict of lists:
K -> K' when they share a mesh edge and a_K <= a_K'.  `check_quasi_monotonicity`
is the loop that the batched classifier replaces, a breadth-first search from
every element of every star over that graph; `_bfs_path` is the path search
that the step-row walk of `find_monotone_path` replaces, and `omega_hat` the
union of its paths.  Tests require the library to reproduce their verdicts,
witnesses and paths exactly.
"""
from collections import deque

import numpy as np

from qmloc.coeff import MonotonePath, QmReport, space_star
from qmloc.errors import NoMonotonePath, UnknownLocus
from qmloc.fespace import build_space
from qmloc.mesh import Triangulation, edge_pair, vertex_patch


def _star_graph(tri: Triangulation, a: np.ndarray, star):
    """Directed adjacency inside a star: K -> K' iff edge-adjacent and
    a_K <= a_K'."""
    star_set = set(star)
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in star}
    for k in star:
        for e in tri.triangle_edges[k].tolist():
            for other in edge_pair(tri, e).tolist():
                if other != k and other in star_set and a[k] <= a[other]:
                    adj[k].append((other, e))
    for k in adj:
        adj[k].sort()
    return adj


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
    star = [int(k) for k in star]
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


def check_quasi_monotonicity(tri, coeff, node_set=None, degree=1) -> QmReport:
    """The classifier with one `_star_quasi_monotone` call per locus."""
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


def omega_hat(tri, coeff, k, space=None):
    """omega_hat_K as the union of `_bfs_path` paths from K to K_max(z), z in
    N_K, refused at the first node without one, nodes ascending."""
    space = space if space is not None else build_space(tri, 1)
    a = coeff.values
    out = {int(k)}
    for node in sorted(int(n) for n in space.element_nodes[k]):
        star = space_star(space, node)
        kmax = min(star, key=lambda j: (-a[j], j))
        path = _bfs_path(tri, a, star, int(k), int(kmax))
        if path is None:
            raise NoMonotonePath(f"no monotone path from element {k} to K_max at node {node}")
        out.update(path.elements)
    return tuple(sorted(out))
