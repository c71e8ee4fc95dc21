"""Independent packing of connected subgraphs.

A family {H_j} of connected subgraphs of a host graph G induces a derived
graph on the index set J: i and j are adjacent iff the members share a
vertex or some host edge joins them. An independent packing is exactly an
independent set of the derived graph, so packing reduces to MWIS over the
transferred decomposition, whose independence number never exceeds that of
the original decomposition.

Both transfer steps read one index, host vertex -> ascending ids of the
members holding it. Member j's derived neighbours are the union of the index
over its closed neighbourhood N[H_j], in O(sum_j sum_{v in N[H_j]}
|index[v]|) for the whole graph; bag t of the transferred decomposition is
the union of the index over X_t, in O(sum_t sum_{v in X_t} |index[v]|). Both
costs follow the size of the output, not |J|^2 or |J| per bag.

Family members are canonical vertex sets. Two subgraphs with the same
vertex set are true twins in the derived graph, so keeping one per vertex
set preserves optimal packings whenever weights depend only on the vertex
set, which holds for every front-end here. Callers needing edge-sensitive
weights must pre-aggregate to the max weight per vertex set.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .decomposition import make_decomposition, require_valid
from .errors import CapExceededError, GraphError
from .generators import complete_graph, cycle_graph, path_graph
from .graph import Graph, check_vertex_set, members
from .mwis import _dp
from .weights import WeightMap

DEFAULT_PATTERN_CAP = 5
DEFAULT_BLOB_CAP = 12
DEFAULT_PACKING_BRUTE_CAP = 22


def _is_connected_subset(graph, members):
    it = iter(members)
    start = next(it)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in graph.adj[v]:
            if u in members and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(members)


@dataclass(frozen=True)
class SubgraphFamily:
    """Indexed family of connected nonempty subgraph vertex sets of a host."""

    host: object
    members: tuple

    def __post_init__(self):
        for j, s in enumerate(self.members):
            check_vertex_set(self.host, s)
            if not s:
                raise GraphError(f"family member {j} is empty")
            if not _is_connected_subset(self.host, s):
                raise GraphError(f"family member {j} is not connected in the host")

    def __len__(self):
        return len(self.members)


def make_family(host, members):
    return SubgraphFamily(host, tuple(frozenset(s) for s in members))


@dataclass(frozen=True)
class PackingInstance:
    """A subgraph family with one exact nonnegative rational weight per member."""

    family: SubgraphFamily
    member_weights: tuple

    def __post_init__(self):
        if len(self.member_weights) != len(self.family):
            raise GraphError("need exactly one weight per family member")
        for j, w in enumerate(self.member_weights):
            if not isinstance(w, (int, Fraction)):
                raise GraphError(f"weight of member {j} is not an int or Fraction")
            if w < 0:
                raise GraphError(f"weight of member {j} is negative")


def make_instance(host, members, weights=None):
    fam = make_family(host, members)
    if weights is None:
        ws = tuple(Fraction(1) for _ in fam.members)
    else:
        ws = tuple(Fraction(w) for w in weights)
    return PackingInstance(fam, ws)


def _member_index(graph, family):
    """Vertex -> ascending ids of the members holding it, one list per host
    vertex, built in O(n + sum_j |H_j|)."""
    if family.host != graph:
        raise GraphError("family references a different host graph")
    index = [[] for _ in range(graph.n)]
    for j, s in enumerate(family.members):
        for v in s:
            index[v].append(j)
    return index


def derived_graph(graph, family):
    """The conflict graph on member indices.

    Member j conflicts exactly with the members that meet its closed
    neighbourhood N[H_j], the reach behind the polynomial bound. With the
    vertex -> members index, j's neighbours are the union of the index over
    N[H_j] minus j itself, so the cost is O(sum_j sum_{v in N[H_j]}
    |index[v]|) plus sorting each list: every term is a conflict that j
    finds, and no pair of members is compared. `compatible` is the pairwise
    definition it agrees with.
    """
    index = _member_index(graph, family)
    adj = graph.adj
    nbrs = []
    for j, s in enumerate(family.members):
        reach = set(s)
        for v in s:
            reach.update(adj[v])
        found = set()
        for v in reach:
            found.update(index[v])
        found.discard(j)
        nbrs.append(tuple(sorted(found)))
    return Graph(len(family.members), tuple(nbrs))


def compatible(graph, s1, s2):
    """Disjoint with no host edge between them."""
    return not (s1 & s2 or any(v in s2 for u in s1 for v in graph.adj[u]))


def derived_decomposition(graph, family, td, derived=None):
    """Transfer a decomposition of the host to the derived graph.

    Same tree; node t's new bag holds every member index whose vertex set
    meets X_t, the union of the vertex -> members index over X_t, in
    O(sum_t sum_{v in X_t} |index[v]|). All marked sets are dropped: the
    refinement does not survive the transfer, so the result is plain. Its
    independence number is at most the input's.
    """
    require_valid(graph, td)
    index = _member_index(graph, family)
    if derived is None:
        derived = derived_graph(graph, family)
    bags = []
    for bag in td.bags:
        held = set()
        for v in bag:
            held.update(index[v])
        bags.append(held)
    return make_decomposition(derived, bags, td.tree_edges)


def solve_packing(instance, td, k):
    """Max weight independent packing via MWIS on the derived graph.

    `td` must be a valid decomposition of the host with independence number
    at most k. Returns the optimal weight and the selected member indices,
    re-verified against the host before returning: one pass maps each
    chosen vertex to its member and fails if a vertex has two owners or a
    host neighbour has another.
    """
    value, chosen, _, _ = _solve_packing(instance, td, k)
    return value, chosen


def _solve_packing(instance, td, k):
    """`solve_packing` plus the derived graph and decomposition it solved
    over. The host decomposition is checked once, by
    `derived_decomposition`; the transferred one is valid by construction
    and goes to the MWIS core unchecked."""
    graph = instance.family.host
    derived = derived_graph(graph, instance.family)
    td2 = derived_decomposition(graph, instance.family, td, derived=derived)
    value, chosen, _ = _dp(derived, instance.member_weights, td2, k)
    owner = {}
    for j in chosen:
        for v in instance.family.members[j]:
            if owner.setdefault(v, j) != j:
                raise RuntimeError("internal: selected members conflict")
    for v, j in owner.items():
        for u in graph.adj[v]:
            if owner.get(u, j) != j:
                raise RuntimeError("internal: selected members conflict")
    return value, frozenset(chosen), derived, td2


def brute_force_packing(instance):
    """Exhaustive packing optimum; the test oracle for solve_packing.

    Independent of the derived-graph pipeline: conflicts are recomputed by
    naive pairwise scans and the search branches directly on member indices.
    Refuses families above DEFAULT_PACKING_BRUTE_CAP members.
    """
    count = len(instance.family)
    if count > DEFAULT_PACKING_BRUTE_CAP:
        raise CapExceededError(
            f"brute_force_packing refused for |J|={count} > "
            f"cap={DEFAULT_PACKING_BRUTE_CAP}"
        )
    graph = instance.family.host
    members = instance.family.members
    conflict = [0] * count
    for j in range(count):
        for i in range(j):
            if not compatible(graph, members[i], members[j]):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    w = list(instance.member_weights)
    suffix = [Fraction(0)] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[i]
    best = Fraction(-1)
    best_pick = 0

    def rec(idx, avail, cur, pick):
        nonlocal best, best_pick
        while idx < count and not (avail >> idx & 1):
            idx += 1
        if idx == count:
            if cur > best:
                best = cur
                best_pick = pick
            return
        if cur + suffix[idx] <= best:
            return
        rec(idx + 1, avail & ~conflict[idx] & ~(1 << idx), cur + w[idx], pick | (1 << idx))
        rec(idx + 1, avail & ~(1 << idx), cur, pick)

    rec(0, (1 << count) - 1 if count else 0, Fraction(0), 0)
    if count == 0:
        return Fraction(0), frozenset()
    return best, frozenset(j for j in range(count) if best_pick >> j & 1)


def _connected_sets(graph, max_size):
    """All vertex sets of connected subgraphs with at most max_size vertices.

    Standard duplicate-free expansion: each set is grown from its minimum
    vertex using only larger ids, and once a candidate has been branched on
    it is banned for the remaining branches of that level.
    """
    if max_size < 1 or graph.n == 0:
        return []
    rows = graph.bit_rows()
    out = []

    def grow(smask, size, ext, banned, allowed):
        out.append(smask)
        if size == max_size:
            return
        b = banned
        m = ext
        while m:
            u = m & -m
            m ^= u
            stretched = (ext | (rows[u.bit_length() - 1] & allowed)) & ~(smask | u) & ~b
            grow(smask | u, size + 1, stretched, b, allowed)
            b |= u

    for v in range(graph.n):
        vb = 1 << v
        allowed = ~((vb << 1) - 1)
        grow(vb, 1, rows[v] & allowed, 0, allowed)
    return [frozenset(members(s)) for s in out]


def _spans_pattern(graph, members_sorted, pattern):
    """Does some subgraph of the host with exactly these vertices match the
    pattern? Exhaustive permutation matching; patterns are tiny by contract."""
    mset = set(members_sorted)
    degs = sorted(len(a) for a in pattern.adj)
    host_degs = sorted(
        sum(1 for u in graph.adj[v] if u in mset) for v in members_sorted
    )
    # Sorted degree domination is necessary for a spanning embedding.
    if any(p > h for p, h in zip(degs, host_degs)):
        return False
    pedges = list(pattern.edges())
    for perm in permutations(members_sorted):
        if all(graph.has_edge(perm[a], perm[b]) for a, b in pedges):
            return True
    return False


def enumerate_F_subgraphs(graph, patterns):
    """Family of all vertex sets spanning a copy of some pattern.

    One member per vertex set S with |S| <= r (r = largest pattern order)
    such that a spanning connected subgraph of G[S] is isomorphic to a
    pattern; duplicates by vertex set are kept once. Patterns are capped at
    DEFAULT_PATTERN_CAP vertices.
    """
    pats = list(patterns)
    if not pats:
        raise GraphError("pattern set must be nonempty")
    for p in pats:
        if p.n == 0:
            raise GraphError("patterns must be nonnull")
        if p.n > DEFAULT_PATTERN_CAP:
            raise CapExceededError(f"pattern order {p.n} above cap {DEFAULT_PATTERN_CAP}")
        if not _is_connected_subset(p, frozenset(range(p.n))):
            raise GraphError("patterns must be connected")
    r = max(p.n for p in pats)
    by_order = {}
    for p in pats:
        by_order.setdefault(p.n, []).append(p)
    members = []
    for s in sorted(_connected_sets(graph, r), key=sorted):
        cands = by_order.get(len(s))
        if not cands:
            continue
        vs = sorted(s)
        if any(_spans_pattern(graph, vs, p) for p in cands):
            members.append(s)
    return make_family(graph, members)


PATTERN_BUILDERS = {
    "k1": lambda: complete_graph(1),
    "k2": lambda: complete_graph(2),
    "k3": lambda: complete_graph(3),
    "k4": lambda: complete_graph(4),
    "k5": lambda: complete_graph(5),
    "p2": lambda: path_graph(2),
    "p3": lambda: path_graph(3),
    "p4": lambda: path_graph(4),
    "p5": lambda: path_graph(5),
    "c3": lambda: cycle_graph(3),
    "c4": lambda: cycle_graph(4),
    "c5": lambda: cycle_graph(5),
}


def pattern_by_name(name):
    try:
        return PATTERN_BUILDERS[name.lower()]()
    except KeyError:
        raise GraphError(f"unknown pattern name {name!r}") from None


def induced_matching(graph, edge_weights, td, k):
    """Max weight induced matching: packing with single-edge members.

    `edge_weights` maps edges (u, v) to weights; missing edges weigh 1.
    Returns the optimal weight and the selected edges.
    """
    fam = enumerate_F_subgraphs(graph, [complete_graph(2)])
    lookup = {}
    if edge_weights:
        for (u, v), w in dict(edge_weights).items():
            lookup[frozenset((u, v))] = Fraction(w)
    ws = [lookup.get(s, Fraction(1)) for s in fam.members]
    inst = PackingInstance(fam, tuple(ws))
    value, chosen = solve_packing(inst, td, k)
    edges = tuple(tuple(sorted(fam.members[j])) for j in sorted(chosen))
    return value, edges


def dissociation_set(graph, td, k):
    """Largest vertex set inducing maximum degree <= 1.

    Packing of single vertices and single edges, each weighted by its size;
    the selected members' union is the dissociation set.
    """
    fam = enumerate_F_subgraphs(graph, [complete_graph(1), complete_graph(2)])
    inst = PackingInstance(fam, tuple(Fraction(len(s)) for s in fam.members))
    value, chosen = solve_packing(inst, td, k)
    union = frozenset().union(*(fam.members[j] for j in chosen)) if chosen else frozenset()
    return value, union


def k_separator(graph, vertex_weights, s, td, k):
    """Max weight of a vertex set whose induced components have at most `s`
    vertices each; the complement is a minimum-weight separator of order `s`.

    Members are all connected sets of at most s vertices (every such set
    spans a connected pattern), weighted by their vertex-weight sums. The
    pattern-order parameter is `s`; `k` stays the independence bound.
    """
    if s < 1:
        raise GraphError("component order s must be positive")
    if s > DEFAULT_PATTERN_CAP:
        raise CapExceededError(f"component order {s} above pattern cap")
    wmap = vertex_weights if vertex_weights is not None else WeightMap(graph.n)
    members = sorted(_connected_sets(graph, s), key=sorted)
    fam = make_family(graph, members)
    inst = PackingInstance(fam, tuple(wmap.total(m) for m in fam.members))
    value, chosen = solve_packing(inst, td, k)
    return value, tuple(fam.members[j] for j in sorted(chosen))


def blob_family(graph):
    """The family of all connected induced-subgraph vertex sets.

    Exponential in general, hence the host size cap DEFAULT_BLOB_CAP.
    """
    if graph.n > DEFAULT_BLOB_CAP:
        raise CapExceededError(f"blob_family refused for n={graph.n} > cap={DEFAULT_BLOB_CAP}")
    return make_family(graph, sorted(_connected_sets(graph, graph.n), key=sorted))
