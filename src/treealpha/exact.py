"""Exact independence numbers via bit-set branch and bound.

A maximum-clique kernel runs on the complement (independent sets are
cliques of the complement). The kernel is exact by contract; the pruning
strategy (greedy coloring bound, Tomita-style) is an implementation detail.
"""

from .errors import CapExceededError
from .graph import check_vertex_set

#: Largest vertex set whose independence number is computed exactly.
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


def alpha_exact(graph):
    """Exact independence number. Refuses graphs above DEFAULT_ALPHA_CAP vertices."""
    return alpha_of_subset(graph, range(graph.n))


def alpha_of_subset(graph, vertices):
    """Independence number of the subgraph induced by `vertices`.

    Avoids building the induced graph; works on bit rows over the set alone,
    so the cost does not grow with the rest of the graph.
    """
    s = check_vertex_set(graph, vertices)
    if len(s) > DEFAULT_ALPHA_CAP:
        raise CapExceededError(
            f"alpha_of_subset refused for |S|={len(s)} > cap={DEFAULT_ALPHA_CAP}"
        )
    return _max_clique_size(_complement_rows(graph.bit_rows(s)), (1 << len(s)) - 1)
