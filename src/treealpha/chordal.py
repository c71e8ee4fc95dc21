"""Clique trees of chordal graphs.

Maximum cardinality search (Tarjan & Yannakakis, SIAM J. Comput. 1984)
both recognises a chordal graph and orders it: `clique_tree` verifies the
order and raises GraphError when the graph is not chordal. For a chordal
graph the bags of the clique tree are exactly the maximal cliques, read off
that order (Blair & Peyton, "An introduction to chordal graphs and clique
trees", 1993), and the tree is a maximum-weight spanning tree of the clique
intersection graph.

Costs: the search keeps one bucket of vertices per weight, pops each last
in, first out, and builds each vertex's list of earlier neighbours as it
visits, so it runs in O(n + m); the check builds N[f] once for each latest
earlier neighbour f, also O(n + m). `clique_tree` reads the maximal cliques
and the distinct minimal separators in O(n + m) from the earlier-neighbour
lists; it then sorts the cliques, as lists of ids, and the separators by
size. A separator S finds the cliques that hold it on the shortest list of
cliques holding one of its vertices, at |S| set lookups per clique on that
list. No clique pairs are listed, so a star takes linear time.

The output is fixed by tie rules. Every maximum cardinality search gives
the same maximal cliques and minimal separators, so `clique_tree` does not
depend on the search's ties: bags are sorted by their sorted members; the
tree is the one Kruskal builds over all pairs (i, j) ordered by
(-|C_i & C_j|, i, j), weight-0 pairs included. Every edge of that tree
meets in a minimal separator, so `clique_tree` takes the same edges
separator by separator, largest first (see there).
"""

from .decomposition import make_decomposition
from .errors import GraphError


def _perfect_order(graph):
    """The search order and each vertex's earlier neighbours, or None.

    Returns (order, earlier) when the order is a perfect elimination order
    read from the back, so the graph is chordal; earlier[v] lists the
    neighbours of v that come before it, in visit order, so its length is
    v's weight when v was visited and its last entry is the latest.

    Bucket w holds the unvisited vertices of weight w, each entered once
    per weight it reaches; an entry whose vertex has since gained weight is
    skipped when popped. A visited vertex's leftover entries all lie below
    its own weight, so they are skipped too. Each bucket is popped last in,
    first out.
    """
    n = graph.n
    adj = graph.adj
    earlier = [[] for _ in range(n)]
    # live[y] is earlier[y] while y is unvisited, and None once it is.
    live = earlier[:]
    buckets = [list(range(n))]
    # Each visit raises the top weight by at most one, so the top pointer
    # moves O(n) times in all, and each entry is pushed and popped once. A
    # bucket is added when the top first reaches it.
    top = 0
    order = []
    # Each vertex's earlier neighbours must all lie in N[f], f the latest of
    # them. N[f] is built once, on the first list that needs it, from f's
    # own earlier neighbours: those are all of N(f) that precede f.
    closed = {}
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        z = bucket.pop()
        before = earlier[z]
        if len(before) != top:
            continue  # a stale entry: z has since gained weight
        if top > 1:
            f = before[-1]
            nf = closed.get(f)
            if nf is None:
                nf = closed[f] = set(earlier[f])
                nf.add(f)
            if not nf.issuperset(before):
                return None
        live[z] = None
        order.append(z)
        top += 1
        if top == len(buckets):
            buckets.append([])
        for y in adj[z]:
            later = live[y]
            if later is not None:
                later.append(z)
                buckets[len(later)].append(y)
    return order, earlier


def clique_tree(graph):
    """Clique tree of a nonnull chordal graph, as a refined decomposition.

    Bags are the maximal cliques; all marked sets are empty, so the
    decomposition's independence number is 1. Raises GraphError on a graph
    that is not chordal, found by the search's check, or null.
    """
    found = _perfect_order(graph)
    if found is None:
        raise GraphError("clique_tree requires a chordal graph")
    if graph.n == 0:
        raise GraphError("clique_tree requires a nonnull graph")
    order, earlier = found
    # The candidate of order[i], the vertex with its earlier neighbours, is a
    # maximal clique exactly when it is last or the next vertex's weight is
    # no larger. A vertex whose candidate follows a maximal one starts a new
    # clique, and its earlier neighbours, when there are any, are a minimal
    # separator.
    maximal = []
    separators = set()
    for v, nxt in zip(order, order[1:] + [None]):
        if nxt is None or len(earlier[nxt]) <= len(earlier[v]):
            maximal.append(sorted(earlier[v] + [v]))
            if nxt is not None and earlier[nxt]:
                separators.add(frozenset(earlier[nxt]))
    maximal.sort()
    maximal = [frozenset(c) for c in maximal]
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
