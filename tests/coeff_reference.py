"""Per-star loop reference for the quasi-monotonicity classifier.

This is the loop that the batched `check_quasi_monotonicity` replaces: a
breadth-first search from every element of every star over the directed
graph of `_star_graph`.  Tests require the batched classifier to reproduce
its verdicts and witnesses exactly.
"""
from collections import deque

from qmloc.coeff import QmReport, _star_graph
from qmloc.errors import UnknownLocus
from qmloc.mesh import edge_pair, vertex_patch


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
