"""Graph generators: standard families and the two gadget constructions."""

from .errors import CapExceededError, GraphError
from .graph import MAX_COUNT, build_graph


def complete_graph(n):
    if n < 0:
        raise GraphError("complete: n must be nonnegative")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    if n < 1:
        raise GraphError("path: n must be positive")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise GraphError("cycle: n must be at least 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(m, n):
    if m < 1 or n < 1:
        raise GraphError("complete_bipartite: both sides must be nonempty")
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def double_join(h):
    """Two disjoint copies of `h` with every cross edge added.

    Copy one keeps ids 0..n-1, copy two uses n..2n-1. Every independent set
    of the result lives inside one copy, which pins the result's
    tree-independence number to alpha(h).
    """
    if h.n < 1:
        raise GraphError("double_join: base graph must be nonnull")
    n = h.n
    edges = list(h.edges())
    edges += [(u + n, v + n) for u, v in h.edges()]
    edges += [(i, n + j) for i in range(n) for j in range(n)]
    return build_graph(2 * n, edges)


def sharpness_gadget(k):
    """Complete graph on k hubs with each edge replaced by k length-2 paths.

    Hubs are vertices 0..k-1; each hub pair (i, j) gets k private middle
    vertices adjacent to exactly i and j. The graph has k + k*k*(k-1)/2
    vertices, treewidth k-1, and tree-independence number k (for k >= 3).
    """
    if k < 3:
        raise GraphError("sharpness: k must be at least 3")
    edges = []
    nxt = k
    for i in range(k):
        for j in range(i + 1, k):
            for _ in range(k):
                edges.append((i, nxt))
                edges.append((j, nxt))
                nxt += 1
    return build_graph(nxt, edges)


#: CLI-facing generator ids: builder, arity, and the (n, m) it builds.
GENERATOR_KINDS = {
    "complete": (complete_graph, 1, lambda n: (n, n * (n - 1) // 2)),
    "path": (path_graph, 1, lambda n: (n, n - 1)),
    "cycle": (cycle_graph, 1, lambda n: (n, n)),
    "complete-bipartite": (complete_bipartite, 2, lambda a, b: (a + b, a * b)),
    "knn": (lambda n: complete_bipartite(n, n), 1, lambda n: (2 * n, n * n)),
    "double-join": (double_join, 0, lambda h: (2 * h.n, 2 * h.m + h.n * h.n)),
    "sharpness": (
        sharpness_gadget, 1, lambda k: (k + k * k * (k - 1) // 2, k * k * (k - 1))
    ),
}


def generate(kind, params=(), base=None):
    """Dispatch a generator by id. `double-join` takes its base via `base`.

    A graph with over MAX_COUNT vertices or edges is refused before it is built.
    """
    if kind not in GENERATOR_KINDS:
        raise GraphError(f"unknown generator kind {kind!r}")
    build, arity, size = GENERATOR_KINDS[kind]
    if len(params) != arity:
        raise GraphError(f"{kind} takes {arity} parameter(s), got {len(params)}")
    if kind == "double-join":
        if base is None:
            raise GraphError("double-join needs a base graph")
        params = (base,)
        n, m = size(base)
    else:
        # A negative parameter counts as 0 here; its builder rejects it.
        n, m = size(*(max(p, 0) for p in params))
    if max(n, m) > MAX_COUNT:
        raise CapExceededError(f"{kind} refused for n={n}, m={m} > cap={MAX_COUNT}")
    return build(*params)
