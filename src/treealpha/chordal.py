"""Chordality testing and clique trees.

Recognition runs maximum cardinality search (Tarjan & Yannakakis, SIAM J.
Comput. 1984) and verifies the resulting order; for a chordal graph the bags
of the clique tree are exactly the maximal cliques, read off that order
(Blair & Peyton, "An introduction to chordal graphs and clique trees",
1993), and the tree is a maximum-weight spanning tree of the clique
intersection graph.

Costs: the search keeps a lazy heap, so recognition is O((n + m) log n);
reading the cliques is O(n + m), from the earlier-neighbour lists that the
recognition check builds; Kruskal sorts only the P clique pairs that
share a vertex, O(n + m + P log P). P is the sum over vertices of (cliques
holding it choose 2): linear when each vertex lies in few maximal cliques,
as in interval graphs of bounded clique number, quadratic for a star.

The output is fixed by tie rules: the search takes the largest weight, then
the smallest id; bags are sorted by their sorted members; the tree is the
one Kruskal builds over all pairs (i, j) ordered by (-|C_i & C_j|, i, j),
weight-0 pairs included.
"""

import heapq
from collections import Counter

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
    heap = [(0, v) for v in range(n)]
    order = []
    while heap:
        w, z = heapq.heappop(heap)
        if visited[z] or -w != weight[z]:
            continue  # a stale entry: z was visited or has gained weight
        visited[z] = True
        order.append(z)
        for y in adj[z]:
            if not visited[y]:
                weight[y] += 1
                heapq.heappush(heap, (-weight[y], y))

    # Each vertex's earlier neighbors minus the latest of them, f, must all
    # be adjacent to f. The tests are grouped by f, so each adjacency list
    # is marked once.
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    earlier = [[u for u in adj[v] if pos[u] < i] for i, v in enumerate(order)]
    need = [[] for _ in range(n)]
    for before in earlier:
        if len(before) > 1:
            need[max(before, key=pos.__getitem__)].append(before)
    mark = [-1] * n
    for f, lists in enumerate(need):
        if not lists:
            continue
        mark[f] = f
        for u in adj[f]:
            mark[u] = f
        for before in lists:
            if any(mark[u] != f for u in before):
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
    candidates = [[v] + before for v, before in zip(order, earlier)]
    maximal = [
        frozenset(c)
        for c, nxt in zip(candidates, candidates[1:] + [()])
        if len(nxt) <= len(c)
    ]
    maximal.sort(key=sorted)
    q = len(maximal)

    # Maximum-weight spanning tree over pairwise intersections (Kruskal).
    # Only pairs that share a vertex have positive weight.
    holding = [[] for _ in range(graph.n)]
    for i, c in enumerate(maximal):
        for v in c:
            holding[v].append(i)
    shared = Counter(
        (i, j) for ids in holding for a, i in enumerate(ids) for j in ids[a + 1 :]
    )
    pairs = sorted((-w, i, j) for (i, j), w in shared.items())
    parent = list(range(q))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for _, i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    # The rest are weight-0 pairs, taken in (i, j) order: each component
    # without clique 0 joins it through its smallest clique id.
    for j in range(1, q):
        if find(j) != find(0):
            parent[find(j)] = find(0)
            edges.append((0, j))
    return make_decomposition(graph, maximal, edges)
