"""Independent packing of connected subgraphs.

A family {H_j} of connected subgraphs of a host graph G induces a derived
graph on the index set J: i and j are adjacent iff the members share a
vertex or some host edge joins them. An independent packing is exactly an
independent set of the derived graph, so packing reduces to MWIS over the
transferred decomposition, whose independence number never exceeds that of
the original decomposition.

Both transfer steps read one index, host vertex -> ascending ids of the
members holding it. Member j's derived neighbours are the members meeting
its closed neighbourhood N[H_j], read off one tuple per vertex of H_j, in
O(sum_j sum_{v in N[H_j]} |index[v]|) for the whole graph; bag t of the
transferred decomposition is the union of the index over X_t, in
O(sum_t sum_{v in X_t} |index[v]|). Both costs follow the size of the
output, not |J|^2 or |J| per bag.

Family members are canonical vertex sets. Two subgraphs with the same
vertex set are true twins in the derived graph, so keeping one per vertex
set preserves optimal packings whenever weights depend only on the vertex
set, which holds for `pack --patterns` (a member weighs the sum of its
vertex weights). Callers needing edge-sensitive weights must pre-aggregate
to the max weight per vertex set.

The pattern family is counted before it is built, the derived graph in the
pass that builds each vertex's member tuple, before any neighbour row; each
is refused over MAX_COUNT with CapExceededError.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .decomposition import make_decomposition, require_valid
from .errors import CapExceededError, GraphError
from .generators import complete_graph, cycle_graph, path_graph
from .graph import MAX_COUNT, Graph, build_graph, check_vertex_set, members
from .mwis import _dp
from .oracle import DEFAULT_BRUTE_FORCE_CAP, brute_force_mwis
from .weights import WeightMap

DEFAULT_PATTERN_CAP = 5


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

    @classmethod
    def _from_checked(cls, host, members):
        """Wrap members the caller has already checked (nonempty connected
        frozensets of host vertices) without checking them again."""
        fam = cls.__new__(cls)
        object.__setattr__(fam, "host", host)
        object.__setattr__(fam, "members", members)
        return fam


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
    neighbourhood N[H_j], the reach behind the polynomial bound. One pass
    builds near[v], the members meeting N[v], for each vertex v a member
    holds; u is in N[H_j] exactly when j is in near[u], so j's neighbours
    are the union of near[v] over H_j, minus j. No pair of members is
    compared; `compatible` is the pairwise definition it agrees with. The
    pass counts the work, sum_v |index[v]| * |near[v]| = sum_j sum_{u in
    N[H_j]} |index[u]|, and refuses over MAX_COUNT before any row is built.
    """
    index = _member_index(graph, family)
    adj = graph.adj
    near = [()] * graph.n
    terms = 0
    for v, held in enumerate(index):
        if held:
            found = set().union(held, *map(index.__getitem__, adj[v]))
            terms += len(held) * len(found)
            if terms > MAX_COUNT:
                raise CapExceededError(
                    f"derived graph refused: its members' closed neighbourhoods "
                    f"hold over cap={MAX_COUNT} member entries"
                )
            near[v] = tuple(found)
    nbrs = []
    for j, s in enumerate(family.members):
        found = set().union(*map(near.__getitem__, s))
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
    bags = [set().union(*map(index.__getitem__, bag)) for bag in td.bags]
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
    naive pairwise `compatible` scans, and `brute_force_mwis` searches the
    conflict graph they give. Refuses families above DEFAULT_BRUTE_FORCE_CAP
    members before any pair is compared.
    """
    count = len(instance.family)
    if count > DEFAULT_BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"brute_force_packing refused for |J|={count} > "
            f"cap={DEFAULT_BRUTE_FORCE_CAP}"
        )
    graph = instance.family.host
    members = instance.family.members
    conflicts = [
        (i, j)
        for j in range(count)
        for i in range(j)
        if not compatible(graph, members[i], members[j])
    ]
    return brute_force_mwis(build_graph(count, conflicts), instance.member_weights)


def _connected_sets(rows, max_size):
    """Walk the vertex sets of connected subgraphs with at most max_size
    vertices, given the host's bit rows.

    Standard duplicate-free expansion: each set is grown from its minimum
    vertex using only larger ids, and once a candidate has been branched on
    it is banned for the remaining branches of that level. Yields
    (S, leaves) for every single vertex and every set S of fewer than
    max_size vertices that the walk branches on; `leaves` is the bit set of
    the vertices u whose S + u reaches max_size (0 unless |S| = max_size - 1).
    Each connected set of at most max_size vertices is exactly one yielded
    S or one S + u, so the sets number sum(1 + |leaves|), which a caller can
    count without building the full-size ones.
    """
    for v, row in enumerate(rows):
        vb = 1 << v
        allowed = ~((vb << 1) - 1)
        stack = [(vb, 1, row & allowed, 0)]
        while stack:
            smask, size, ext, banned = stack.pop()
            if size + 1 >= max_size:
                yield smask, ext if size < max_size else 0
                continue
            yield smask, 0
            b = banned
            m = ext
            while m:
                u = m & -m
                m ^= u
                grown = smask | u
                stretched = (ext | rows[u.bit_length() - 1] & allowed) & ~(grown | b)
                stack.append((grown, size + 1, stretched, b))
                b |= u


def _spanned_table(pats):
    """Entry m is 1 when the graph on range(r) whose edges are the bits of
    m, one per pair of `combinations(range(r), 2)` in that order, has a
    spanning copy of one of `pats`, all of order r.

    Each permuted copy's edge mask is marked, then each mark passes to the
    masks one edge larger; masks ascend, so a mark has reached every
    superset by the time the scan gets there. Patterns are tiny by
    contract: at order 5 there are 120 permutations and 1,024 entries.
    """
    r = pats[0].n
    pairs = list(combinations(range(r), 2))
    bit = {}
    for i, (a, b) in enumerate(pairs):
        bit[a, b] = bit[b, a] = 1 << i
    table = bytearray(1 << len(pairs))
    for p in pats:
        edges = list(p.edges())
        for perm in permutations(range(r)):
            table[sum(bit[perm[a], perm[b]] for a, b in edges)] = 1
    for m in range(len(table)):
        if table[m]:
            for i in range(len(pairs)):
                table[m | 1 << i] = 1
    return table


def enumerate_F_subgraphs(graph, patterns):
    """Family of all vertex sets spanning a copy of some pattern.

    One member per vertex set S with |S| <= r (r = largest pattern order)
    such that a spanning connected subgraph of G[S] is isomorphic to a
    pattern; duplicates by vertex set are kept once, in lexicographic order
    of their sorted vertex lists. Patterns are capped at DEFAULT_PATTERN_CAP
    vertices.

    The connected sets of at most r vertices are counted before any is
    built, and over MAX_COUNT of them the family is refused with
    CapExceededError. Every connected set of order at most 3 spans the one
    tree of its order (K_1, K_2, P_3), so an order with that tree among the
    patterns takes all its sets untested. Any other order that has patterns
    gets one `_spanned_table`, built once per call: a set of that order is
    read as the edge mask of its sorted vertices' pairs and decided by one
    lookup. Only the members are built as frozensets, and they are not
    checked again.
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
    rows = graph.bit_rows()
    count = 0
    for _, leaves in _connected_sets(rows, r):
        count += 1 + leaves.bit_count()
        if count > MAX_COUNT:
            raise CapExceededError(
                f"pattern family refused: over cap={MAX_COUNT} connected sets "
                f"of at most {r} vertices"
            )
    # Per order: True takes every connected set; otherwise the order's
    # spanned-mask table and its pairs, last first, so that shifting each
    # edge in leaves the first pair at bit 0.
    tests = {}
    for q in {p.n for p in pats}:
        same = [p for p in pats if p.n == q]
        if q <= 3 and any(p.m == q - 1 for p in same):
            tests[q] = True
        else:
            tests[q] = _spanned_table(same), list(combinations(range(q), 2))[::-1]
    found = []
    for smask, leaves in _connected_sets(rows, r):
        grown = [smask]
        while leaves:
            u = leaves & -leaves
            leaves ^= u
            grown.append(smask | u)
        for mask in grown:
            test = tests.get(mask.bit_count())
            if test is None:
                continue
            vs = members(mask)
            if test is not True:
                table, pairs = test
                key = 0
                for a, b in pairs:
                    key = key << 1 | rows[vs[a]] >> vs[b] & 1
                if not table[key]:
                    continue
            found.append(vs)
    found.sort()
    return SubgraphFamily._from_checked(graph, tuple(map(frozenset, found)))


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
