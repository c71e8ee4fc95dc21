"""Chordality testing and clique trees.

Recognition runs maximum cardinality search and verifies the resulting order;
for a chordal graph the bags of the clique tree are exactly the maximal
cliques, and the tree is a maximum-weight spanning tree of the clique
intersection graph.
"""

from .decomposition import make_decomposition
from .errors import GraphError


def is_chordal(graph):
    """Return (True, order) for chordal graphs, (False, None) otherwise.

    The order is simplicial-last: order[i] is simplicial in the subgraph
    induced by order[:i+1], so eliminating vertices from the back of the
    order always removes a simplicial vertex. The null graph is chordal.
    """
    n = graph.n
    if n == 0:
        return True, ()
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        z = max(
            (v for v in range(n) if not visited[v]),
            key=lambda v: (weight[v], -v),
        )
        visited[z] = True
        order.append(z)
        for y in graph.adj[z]:
            if not visited[y]:
                weight[y] += 1

    # Verify in position space: padj[i] holds the positions of order[i]'s
    # neighbors. Each vertex's earlier neighbors minus the latest of them
    # must all be adjacent to that latest one.
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    padj = [0] * n
    for i, v in enumerate(order):
        r = 0
        for u in graph.adj[v]:
            r |= 1 << pos[u]
        padj[i] = r
    for i in range(n):
        earlier = padj[i] & ((1 << i) - 1)
        if not earlier:
            continue
        f = earlier.bit_length() - 1
        if earlier & ~(1 << f) & ~padj[f]:
            return False, None
    return True, tuple(order)


def _maximal_cliques_from_order(graph, order):
    pos = [0] * graph.n
    for i, v in enumerate(order):
        pos[v] = i
    cliques = []
    for i, v in enumerate(order):
        c = frozenset({v} | {u for u in graph.adj[v] if pos[u] < i})
        cliques.append(c)
    cliques.sort(key=len, reverse=True)
    maximal = []
    for c in cliques:
        if not any(c <= k for k in maximal):
            maximal.append(c)
    maximal.sort(key=sorted)
    return maximal


def clique_tree(graph):
    """Clique tree of a nonnull chordal graph, as a refined decomposition.

    Bags are the maximal cliques; all marked sets are empty, so the
    decomposition's independence number is 1.
    """
    ok, order = is_chordal(graph)
    if not ok:
        raise GraphError("clique_tree requires a chordal graph")
    if graph.n == 0:
        raise GraphError("clique_tree requires a nonnull graph")
    cliques = _maximal_cliques_from_order(graph, order)
    q = len(cliques)
    # Maximum-weight spanning tree over pairwise intersections (Kruskal).
    # Weight-0 edges only ever link distinct components of the graph.
    pairs = sorted(
        ((i, j) for i in range(q) for j in range(i + 1, q)),
        key=lambda p: (-len(cliques[p[0]] & cliques[p[1]]), p),
    )
    parent = list(range(q))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
            if len(edges) == q - 1:
                break
    return make_decomposition(graph, cliques, edges)
