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
set, which holds for `pack --patterns` (a member weighs the sum of its
vertex weights). Callers needing edge-sensitive weights must pre-aggregate
to the max weight per vertex set.

The pattern family and the derived graph are both counted before they are
built, and each is refused over MAX_COUNT with CapExceededError.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .decomposition import make_decomposition, require_valid
from .errors import CapExceededError, GraphError
from .generators import complete_graph, cycle_graph, path_graph
from .graph import MAX_COUNT, Graph, check_vertex_set, members
from .mwis import _dp
from .weights import WeightMap

DEFAULT_PATTERN_CAP = 5
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


def _refuse_oversized_conflicts(adj, family_members, index):
    """Raise CapExceededError if `derived_graph` would read over MAX_COUNT
    index terms, sum_j sum_{v in N[H_j]} |index[v]|, before it builds any
    neighbour set.

    sum_v |index[v]| * sum_{u in N[v]} |index[u]| counts every term at
    least once and costs O(n + m); only when it passes the cap are the
    terms counted exactly, member by member, up to the cap.
    """
    sizes = [len(held) for held in index]
    at = sizes.__getitem__
    bound = sum(c * (c + sum(map(at, adj[v]))) for v, c in enumerate(sizes) if c)
    if bound <= MAX_COUNT:
        return
    terms = 0
    for s in family_members:
        reach = set(s)
        for v in s:
            reach.update(adj[v])
        terms += sum(map(at, reach))
        if terms > MAX_COUNT:
            raise CapExceededError(
                f"derived graph refused: its members' closed neighbourhoods "
                f"hold over cap={MAX_COUNT} member entries"
            )


def derived_graph(graph, family):
    """The conflict graph on member indices.

    Member j conflicts exactly with the members that meet its closed
    neighbourhood N[H_j], the reach behind the polynomial bound. With the
    vertex -> members index, j's neighbours are the union of the index over
    N[H_j] minus j itself, so the cost is O(sum_j sum_{v in N[H_j]}
    |index[v]|) plus sorting each list: every term is a conflict that j
    finds, and no pair of members is compared. `compatible` is the pairwise
    definition it agrees with. That sum is counted first and a graph whose
    sum passes MAX_COUNT is refused before any neighbour set is built.
    """
    index = _member_index(graph, family)
    adj = graph.adj
    _refuse_oversized_conflicts(adj, family.members, index)
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


def _spans_pattern(graph, members_sorted, edges, pattern):
    """Does some subgraph of the host with exactly these vertices match the
    pattern? `members_sorted` is a connected vertex set of the pattern's
    order, ascending, and `edges` is the edge count of the subgraph it
    induces.

    Exact rules decide first: a complete pattern K_r is spanned exactly
    when all C(r, 2) edges are there. Otherwise the set needs at least the
    pattern's edge count before the exhaustive permutation search runs;
    patterns are tiny by contract.
    """
    r = pattern.n
    need = pattern.m
    if need == r * (r - 1) // 2:
        return edges == need
    if edges < need:
        return False
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
    pattern; duplicates by vertex set are kept once, in lexicographic order
    of their sorted vertex lists. Patterns are capped at DEFAULT_PATTERN_CAP
    vertices.

    The connected sets of at most r vertices are counted before any is
    built, and over MAX_COUNT of them the family is refused with
    CapExceededError. Every connected set of order at most 3 spans the one
    tree of its order (K_1, K_2, P_3), so an order with that tree among the
    patterns takes all its sets untested. Only the members are built as
    frozensets, and they are not checked again.
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
    # Per order: True takes every connected set, a list is tested against.
    tests = {}
    for p in pats:
        if p.n <= 3 and p.m == p.n - 1:
            tests[p.n] = True
        elif tests.get(p.n) is not True:
            tests.setdefault(p.n, []).append(p)
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
            if test is True:
                found.append(vs)
                continue
            edges = sum((rows[v] & mask).bit_count() for v in vs) >> 1
            if any(_spans_pattern(graph, vs, edges, p) for p in test):
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
