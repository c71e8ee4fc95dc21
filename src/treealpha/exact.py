"""Exact independence and clique numbers via bit-set branch and bound.

Both numbers are computed by one maximum-clique kernel (independent sets are
cliques of the complement). The kernel is exact by contract; the pruning
strategy (greedy coloring bound, Tomita-style) is an implementation detail.
"""

from math import comb

from .errors import CapExceededError
from .graph import check_vertex_set

#: Largest n for which the exact solvers run by default.
DEFAULT_ALPHA_CAP = 64


def _max_clique_size(rows, start_mask):
    """Size of a maximum clique of the graph restricted to `start_mask`.

    `rows[v]` must be the neighbor mask of v restricted to the same universe;
    it is only read for v in `start_mask`, so a dict over those will do.
    Branch and bound with a greedy-coloring upper bound.
    """
    best = 0

    def expand(cand, size):
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        # Greedy coloring: vertices listed in nondecreasing color order.
        order = []
        colors = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append(v)
                colors.append(color)
                uncolored ^= b
                avail &= ~rows[v]
                avail ^= b
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best:
                return
            v = order[i]
            expand(cand & rows[v], size + 1)
            cand &= ~(1 << v)

    expand(start_mask, 0)
    return best


def _complement_rows(graph):
    rows = graph.bit_rows(cap=None)
    full = (1 << graph.n) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def alpha_exact(graph, cap=DEFAULT_ALPHA_CAP):
    """Exact independence number. Refuses graphs above `cap` vertices."""
    if graph.n > cap:
        raise CapExceededError(f"alpha_exact refused for n={graph.n} > cap={cap}")
    if graph.n == 0:
        return 0
    comp = _complement_rows(graph)
    return _max_clique_size(comp, (1 << graph.n) - 1)


def omega_exact(graph, cap=DEFAULT_ALPHA_CAP):
    """Exact clique number; same kernel as alpha_exact, on the graph itself."""
    if graph.n > cap:
        raise CapExceededError(f"omega_exact refused for n={graph.n} > cap={cap}")
    if graph.n == 0:
        return 0
    return _max_clique_size(list(graph.bit_rows(cap=None)), (1 << graph.n) - 1)


def alpha_of_subset(graph, vertices, cap=DEFAULT_ALPHA_CAP):
    """Independence number of the subgraph induced by `vertices`.

    Avoids building the induced graph; works directly on restricted bit rows.
    """
    s = check_vertex_set(graph, vertices)
    if len(s) > cap:
        raise CapExceededError(
            f"alpha_of_subset refused for |S|={len(s)} > cap={cap}"
        )
    if not s:
        return 0
    mask = 0
    for v in s:
        mask |= 1 << v
    rows = graph.bit_rows(cap=None)
    comp = {v: mask & ~rows[v] & ~(1 << v) for v in s}
    return _max_clique_size(comp, mask)


def ramsey_binding_bound(p, k, ell=0):
    """Binomial upper bound C(p+k, k) + ell - 2 on the treewidth binding function.

    For graphs admitting an ell-refined tree decomposition with residual
    independence number at most k, treewidth is bounded by a function of the
    clique number p; this returns the binomial upper bound on that function
    (an upper bound, not the function itself).
    """
    if p < 0 or k < 1 or ell < 0:
        raise ValueError(f"require p >= 0, k >= 1, ell >= 0; got ({p}, {k}, {ell})")
    return comb(p + k, k) + ell - 2
