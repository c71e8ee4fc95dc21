"""Chordality testing and clique trees.

Recognition runs maximum cardinality search (Tarjan & Yannakakis, SIAM J.
Comput. 1984) and verifies the resulting order; for a chordal graph the bags
of the clique tree are exactly the maximal cliques, read off that order
(Blair & Peyton, "An introduction to chordal graphs and clique trees",
1993), and the tree is a maximum-weight spanning tree of the clique
intersection graph.

Costs: the search keeps a lazy heap of ints, so recognition is
O((n + m) log n); the check builds N[f] once for each latest earlier
neighbour f, O(n + m). The maximal cliques and the distinct minimal
separators are read in O(n + m) from the earlier-neighbour lists that the
check builds, and the separators are sorted by size. A separator S finds
the cliques that hold it on the shortest list of cliques holding one of
its vertices, at |S| set lookups per clique on that list. No clique pairs
are listed, so a star takes linear time.

The output is fixed by tie rules: the search takes the largest weight, then
the smallest id; bags are sorted by their sorted members; the tree is the
one Kruskal builds over all pairs (i, j) ordered by (-|C_i & C_j|, i, j),
weight-0 pairs included. Every edge of that tree meets in a minimal
separator, so `clique_tree` takes the same edges separator by separator,
largest first (see there).
"""

import heapq

from .decomposition import make_decomposition
from .errors import GraphError


def _perfect_order(graph):
    """The search order and each position's earlier neighbours, or None.

    Returns (order, earlier) when the order is a perfect elimination order
    read from the back, so the graph is chordal; earlier[i] lists the
    neighbours of order[i] that come before it, in adjacency order.
    """
    n = graph.n
    adj = graph.adj
    weight = [0] * n
    visited = [False] * n
    # An entry for y at weight w is the int y - w * n: the smallest is the
    # largest weight, then the smallest id.
    heap = list(range(n))
    order = []
    while heap:
        key = heapq.heappop(heap)
        z = key % n
        if visited[z] or -(key // n) != weight[z]:
            continue  # a stale entry: z was visited or has gained weight
        visited[z] = True
        order.append(z)
        for y in adj[z]:
            if not visited[y]:
                weight[y] += 1
                heapq.heappush(heap, y - weight[y] * n)

    # Each vertex's earlier neighbours must all lie in N[f], f the latest of
    # them. N[f] is built once, on the first list that needs it.
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    earlier = [[u for u in adj[v] if pos[u] < i] for i, v in enumerate(order)]
    closed = {}
    for before in earlier:
        if len(before) > 1:
            f = max(before, key=pos.__getitem__)
            nf = closed.get(f)
            if nf is None:
                nf = closed[f] = set(adj[f])
                nf.add(f)
            if not nf.issuperset(before):
                return None
    return order, earlier


def is_chordal(graph):
    """Return (True, order) for chordal graphs, (False, None) otherwise.

    The order is simplicial-last: order[i] is simplicial in the subgraph
    induced by order[:i+1], so eliminating vertices from the back of the
    order always removes a simplicial vertex. The null graph is chordal.
    """
    found = _perfect_order(graph)
    if found is None:
        return False, None
    return True, tuple(found[0])


def clique_tree(graph):
    """Clique tree of a nonnull chordal graph, as a refined decomposition.

    Bags are the maximal cliques; all marked sets are empty, so the
    decomposition's independence number is 1.
    """
    found = _perfect_order(graph)
    if found is None:
        raise GraphError("clique_tree requires a chordal graph")
    if graph.n == 0:
        raise GraphError("clique_tree requires a nonnull graph")
    order, earlier = found
    # The candidate at position i, order[i] with its earlier neighbors, is a
    # maximal clique exactly when it is last or the next candidate is no
    # larger (the next vertex's MCS weight is its earlier-neighbor count).
    # A vertex whose candidate follows a maximal one starts a new clique, and
    # its earlier neighbours, when there are any, are a minimal separator.
    candidates = [[v] + before for v, before in zip(order, earlier)]
    maximal = []
    separators = set()
    for c, nxt in zip(candidates, candidates[1:] + [()]):
        if len(nxt) <= len(c):
            maximal.append(frozenset(c))
            if len(nxt) > 1:
                separators.add(frozenset(nxt[1:]))
    maximal.sort(key=sorted)
    q = len(maximal)
    holding = [[] for _ in range(graph.n)]
    for i, c in enumerate(maximal):
        for v in c:
            holding[v].append(i)
    parent = list(range(q))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Kruskal's edges, separator by separator, largest first. Two cliques
    # that hold S but lie in different components meet in exactly S, and a
    # forest path between two cliques holding S passes only through cliques
    # holding S, so separators of one size do not interact. Kruskal's pairs
    # for S come in (i, j) order, so each component joins the smallest
    # clique c0 holding S through its own smallest clique holding S.
    edges = []
    for s in sorted(separators, key=len, reverse=True):
        ids = min((holding[v] for v in s), key=len)
        c0, *rest = [i for i in ids if s <= maximal[i]]
        r0 = find(c0)
        for j in rest:
            rj = find(j)
            if rj != r0:
                parent[rj] = r0
                edges.append((c0, j))
    # The rest are weight-0 pairs, taken in (i, j) order: each component
    # without clique 0 joins it through its smallest clique id.
    for j in range(1, q):
        if find(j) != find(0):
            parent[find(j)] = find(0)
            edges.append((0, j))
    return make_decomposition(graph, maximal, edges)
