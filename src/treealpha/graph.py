"""Immutable simple undirected graphs on dense integer vertex ids.

Vertices are labeled 0..n-1. Adjacency is stored as sorted tuples. This
module is the one place that turns vertex sets into bit sets: `mask_of` and
`members` encode and decode them (bit v stands for vertex v), and
`Graph.bit_rows` builds int rows afresh on each call, in one of two ways.
`bit_rows(vertices)` gives one row per vertex of just the set a kernel
works on, over ranks within the set; each row is one `sum(map(...))` over
an adjacency list, so its inner loop runs in C, as does `is_independent`'s
one `isdisjoint` per vertex. `bit_rows()` gives one row per vertex of the
graph over global ids, `mask_of` of its adjacency list, so each row is as
wide as its largest neighbour id; the MWIS pass, `enumerate_F_subgraphs`
and the oracles (the subset DP, at most 32 vertices, and brute-force MWIS)
read those. All operations are pure, so shared graphs are safe to use
concurrently.
"""

from collections import defaultdict
from itertools import repeat

from .errors import GraphError

#: Largest count a file header (vertices, bags, members) or a generator
#: (vertices, edges) may ask for; larger asks are refused before building.
MAX_COUNT = 1 << 20

#: The default `0` that `bit_rows` hands `dict.get` for a neighbour outside
#: the set; `repeat` holds no position, so every call can share it.
_ZEROS = repeat(0)


def mask_of(vertices):
    """The bit set of `vertices`: bit v stands for vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask):
    """The vertices whose bits are set in `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """A simple undirected graph. Build instances through :func:`build_graph`."""

    __slots__ = ("n", "adj")

    def __init__(self, n, adj):
        self.n = n
        self.adj = adj

    @property
    def m(self):
        """Number of edges."""
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        """Yield edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def bit_rows(self, vertices=None):
        """Adjacency inside a set of vertex ids, one int bit set per vertex.

        Entry i is the row of the i-th smallest vertex of the set, and bit j
        stands for its j-th smallest vertex; with the default (all vertices)
        both are vertex ids. The rows are built afresh on each call, in time
        linear in the adjacency lists of the set, so the caller owns them.
        """
        if vertices is None:
            return [mask_of(a) for a in self.adj]
        order = sorted(vertices)
        get = {v: 1 << i for i, v in enumerate(order)}.get
        adj = self.adj
        # A row sums the bits of the neighbours inside the set (0 for the
        # rest); the bits are distinct, so the sum is their union, and
        # `sum(map(...))` runs the whole adjacency list in C.
        return [sum(map(get, adj[v], _ZEROS)) for v in order]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges):
    """Canonical graph from a vertex count and an iterable of endpoint pairs.

    Duplicate edges (in either orientation) collapse to one. Self-loops and
    out-of-range endpoints are rejected with the offending pair. Only
    vertices that meet an edge get a neighbor set while building; the
    others share the empty tuple.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    neighbor_sets = defaultdict(set)
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    return Graph(
        n,
        tuple(
            tuple(sorted(neighbor_sets[v])) if v in neighbor_sets else ()
            for v in range(n)
        ),
    )


def check_vertex_set(graph, vertices):
    """Return `vertices` as a frozenset after range-checking against `graph`."""
    s = frozenset(vertices)
    for v in s:
        if not (0 <= v < graph.n):
            raise GraphError(f"vertex {v} out of range [0, {graph.n})")
    return s


def is_independent(graph, vertices):
    """True iff no edge of the graph has both endpoints in `vertices`."""
    s = check_vertex_set(graph, vertices)
    return all(map(s.isdisjoint, map(graph.adj.__getitem__, s)))
