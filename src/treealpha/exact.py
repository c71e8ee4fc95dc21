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

    `rows` is a sequence of neighbor masks over one universe of bit
    positions; entry v is only read for v in `start_mask`, and only its bits
    inside `start_mask` matter. Branch and bound with a greedy-coloring upper
    bound.
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


def _complement_rows(rows):
    """Rows of the complement graph over the same bit positions as `rows`."""
    full = (1 << len(rows)) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def alpha_exact(graph, cap=DEFAULT_ALPHA_CAP):
    """Exact independence number. Refuses graphs above `cap` vertices."""
    if graph.n > cap:
        raise CapExceededError(f"alpha_exact refused for n={graph.n} > cap={cap}")
    return alpha_of_subset(graph, range(graph.n), cap)


def omega_exact(graph, cap=DEFAULT_ALPHA_CAP):
    """Exact clique number; same kernel as alpha_exact, on the graph itself."""
    if graph.n > cap:
        raise CapExceededError(f"omega_exact refused for n={graph.n} > cap={cap}")
    return _max_clique_size(graph.bit_rows(), (1 << graph.n) - 1)


def alpha_of_subset(graph, vertices, cap=DEFAULT_ALPHA_CAP):
    """Independence number of the subgraph induced by `vertices`.

    Avoids building the induced graph; works on bit rows over the set alone,
    so the cost does not grow with the rest of the graph.
    """
    s = check_vertex_set(graph, vertices)
    if len(s) > cap:
        raise CapExceededError(
            f"alpha_of_subset refused for |S|={len(s)} > cap={cap}"
        )
    return _max_clique_size(_complement_rows(graph.bit_rows(s)), (1 << len(s)) - 1)


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
