"""Exact independence numbers via bit-set branch and bound.

A clique is answered without search: a set S with S <= N[v] for every v in
S has independence number 1 (0 when empty). Any other set goes to one kernel
that searches the set's own bit rows, bounded by a greedy clique cover. The
64-vertex cap applies before either, so a clique above it is refused too.
The answers are exact by contract; the pruning strategy is an
implementation detail.
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


def _clique_test(graph):
    """A test `is_clique(s)` for frozensets `s` of `graph`'s vertices.

    `s` is a clique iff s <= N[v] for each v in s. A closed neighbourhood
    N[v] with more than |s| + 1 vertices is kept as a frozenset for the life
    of the test, so a hub shared by many sets costs its degree once; a
    smaller one costs no more to build than the subset check and is not
    kept. Each check runs in C and stops at the first failing vertex.
    """
    adj = graph.adj
    closed = {}

    def is_clique(s):
        for v in s:
            c = closed.get(v)
            if c is None:
                c = frozenset(adj[v] + (v,))
                if len(c) > len(s) + 1:
                    closed[v] = c
            if not s <= c:
                return False
        return True

    return is_clique


def _alphas(graph, sets):
    """Yield the independence number of each of `sets`, in order.

    Each set is range-checked and held to the cap before anything else, so
    errors come in the order the sets do. A clique is answered without
    search; other sets run the branch and bound on their own bit rows.
    """
    is_clique = _clique_test(graph)
    for vertices in sets:
        s = check_vertex_set(graph, vertices)
        if len(s) > DEFAULT_ALPHA_CAP:
            raise CapExceededError(
                f"alpha_of_subset refused for |S|={len(s)} > cap={DEFAULT_ALPHA_CAP}"
            )
        if is_clique(s):
            yield 1 if s else 0
        else:
            yield _independence_number(graph.bit_rows(s), (1 << len(s)) - 1)


def alpha_exact(graph):
    """Exact independence number. Refuses graphs above DEFAULT_ALPHA_CAP vertices."""
    return alpha_of_subset(graph, range(graph.n))


def alpha_of_subset(graph, vertices):
    """Independence number of the subgraph induced by `vertices`.

    Avoids building the induced graph: a clique is answered by one subset
    test per vertex, anything else is searched on bit rows over the set
    alone, so the cost does not grow with the rest of the graph.
    """
    (alpha,) = _alphas(graph, (vertices,))
    return alpha
