"""Exact independence numbers via bit-set branch and bound.

One kernel searches the graph's own bit rows, bounded by a greedy clique
cover. It is exact by contract; the pruning strategy is an implementation
detail.
"""

from .errors import CapExceededError
from .graph import check_vertex_set

#: Largest vertex set whose independence number is computed exactly.
DEFAULT_ALPHA_CAP = 64


def _independence_number(rows, start_mask):
    """Size of a maximum independent set of the graph restricted to `start_mask`.

    `rows` is a sequence of neighbor masks over one universe of bit
    positions; entry v is only read for v in `start_mask`, and only its bits
    inside `start_mask` matter. Branch and bound with a greedy clique-cover
    upper bound (an independent set meets each clique at most once).
    """
    best = 0

    def expand(cand, size):
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        # Greedy clique cover: vertices listed in nondecreasing clique order.
        order = []
        cliques = []
        uncovered = cand
        clique = 0
        while uncovered:
            clique += 1
            avail = uncovered
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append(v)
                cliques.append(clique)
                uncovered ^= b
                avail &= rows[v]
        for i in range(len(order) - 1, -1, -1):
            if size + cliques[i] <= best:
                return
            v = order[i]
            cand &= ~(1 << v)
            expand(cand & ~rows[v], size + 1)

    expand(start_mask, 0)
    return best


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
    return _independence_number(graph.bit_rows(s), (1 << len(s)) - 1)
