"""Independent packing of connected subgraphs.

A family {H_j} of connected subgraphs of a host graph G induces a derived
graph on the index set J: i and j are adjacent iff the members share a
vertex or some host edge joins them. An independent packing is exactly an
independent set of the derived graph, so packing reduces to MWIS over the
transferred decomposition, whose independence number never exceeds that of
the original decomposition.

`solve_packing` runs the reduction in one pass over the host, built on
one index, host vertex -> ascending ids of the members holding it, and on
held[v], the bit set of that list. Member j's conflicts are the members
meeting its closed neighbourhood N[H_j]: the pass gives each held vertex v
the bit set near[v] of the members meeting N[v], and hands the MWIS pass
row j, the OR of near[v] over H_j less bit j, and bag t, the OR of held[v]
over X_t: the transferred decomposition as bag masks on the host's tree,
over |J| vertices. Neither the derived graph nor the transferred
decomposition is built on the way: `derived_graph` builds the one for
`pack --emit-derived`, and `_transferred` the other, from the masks a
solve returns, for `pack --emit-derived-td`. Each mask takes one OR per
vertex of N[v], H_j or X_t, on ints at most |J| bits wide; no pair of
members is compared.

Family members are canonical vertex sets. Two subgraphs with the same
vertex set are true twins in the derived graph, so keeping one per vertex
set preserves optimal packings whenever weights depend only on the vertex
set, which holds for `pack --patterns` (a member weighs the sum of its
vertex weights). Callers needing edge-sensitive weights must pre-aggregate
to the max weight per vertex set.

The pattern family is counted before it is built, and the derived graph's
work before any near set, row or neighbour list; each is refused over
MAX_COUNT with CapExceededError.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, repeat
from operator import attrgetter, or_

from .decomposition import _EMPTY, require_valid
from .errors import CapExceededError, GraphError
from .generators import complete_graph, cycle_graph, path_graph
from .graph import MAX_COUNT, Graph, build_graph, check_vertex_set, mask_of, members
from .mwis import _dp
from .oracle import DEFAULT_BRUTE_FORCE_CAP, brute_force_mwis

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
    """Indexed family of connected nonempty subgraph vertex sets of a host;
    construction checks nothing (`make_family` does)."""

    host: object
    members: tuple

    def __len__(self):
        return len(self.members)


def make_family(host, members):
    """The family of `members`, each checked to be a nonempty connected
    vertex set of `host`."""
    sets = tuple(frozenset(s) for s in members)
    for j, s in enumerate(sets):
        check_vertex_set(host, s)
        if not s:
            raise GraphError(f"family member {j} is empty")
        if not _is_connected_subset(host, s):
            raise GraphError(f"family member {j} is not connected in the host")
    return SubgraphFamily(host, sets)


@dataclass(frozen=True)
class PackingInstance:
    """A subgraph family with one exact nonnegative rational weight per member."""

    family: SubgraphFamily
    member_weights: tuple

    def __post_init__(self):
        ws = self.member_weights
        if len(ws) != len(self.family):
            raise GraphError("need exactly one weight per family member")
        # Two passes in C; the loop below only names the first bad member.
        exact = all(map(isinstance, ws, repeat((int, Fraction))))
        if exact and min(map(attrgetter("numerator"), ws), default=0) >= 0:
            return
        for j, w in enumerate(ws):
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


def _member_index(family):
    """Vertex -> ascending ids of the members holding it, one list per host
    vertex, built in O(n + sum_j |H_j|)."""
    index = [[] for _ in range(family.host.n)]
    for j, s in enumerate(family.members):
        for v in s:
            index[v].append(j)
    return index


def _refuse_dense(index, adj):
    """Refuse the derived graph over MAX_COUNT units of work.

    The work is sum_v |index[v]| * |near[v]| = sum_j sum_{u in N[H_j]}
    |index[u]|, near[v] being the members that meet N[v]. Its bound with
    |near[v]| <= sum_{u in N[v]} |index[u]| is summed from list lengths
    first; only where the bound passes the cap are the near sets built, one
    index list at a time, so that a refusal stops inside the union of the
    vertex that passes the cap.
    """
    sizes = list(map(len, index))
    bound = sum(
        h * (h + sum(map(sizes.__getitem__, adj[v]))) for v, h in enumerate(sizes) if h
    )
    if bound <= MAX_COUNT:
        return
    terms = 0
    for v, held in enumerate(index):
        if held:
            found = set()
            for part in (held, *map(index.__getitem__, adj[v])):
                found.update(part)
                if terms + len(held) * len(found) > MAX_COUNT:
                    raise CapExceededError(
                        f"derived graph refused: its members' closed neighbourhoods "
                        f"hold over cap={MAX_COUNT} member entries"
                    )
            terms += len(held) * len(found)


def derived_graph(family):
    """The conflict graph on the member indices of `family`, over its host.

    Member j conflicts exactly with the members that meet its closed
    neighbourhood N[H_j] in the host, the reach behind the polynomial bound.
    After the count of `_refuse_dense`, one pass builds near[v], the members
    meeting N[v], for each vertex v a member holds; u is in N[H_j] exactly
    when j is in near[u], so j's neighbours are the union of near[v] over
    H_j, minus j. No pair of members is compared; `compatible` is the
    pairwise definition it agrees with.
    """
    index = _member_index(family)
    adj = family.host.adj
    _refuse_dense(index, adj)
    near = [
        tuple(set().union(held, *map(index.__getitem__, adj[v]))) if held else ()
        for v, held in enumerate(index)
    ]
    nbrs = []
    for j, s in enumerate(family.members):
        found = set().union(*map(near.__getitem__, s))
        found.discard(j)
        nbrs.append(tuple(sorted(found)))
    return Graph(len(family.members), tuple(nbrs))


def compatible(graph, s1, s2):
    """Disjoint with no host edge between them."""
    return not (s1 & s2 or any(v in s2 for u in s1 for v in graph.adj[u]))


def _transferred(family, td, bags):
    """`td` over the members: the same tree, bag t the members in the mask
    `bags[t]` of `_reduction`, and no marked sets. `pack --emit-derived-td`
    writes it; the solve itself reads only the masks."""
    bags = tuple(map(frozenset, map(members, bags)))
    return replace(td, n=len(family), bags=bags, refined=(_EMPTY,) * len(bags))


def _reduction(family, td):
    """The reduction of packing to MWIS in one pass over the host: each
    member's conflict row and each transferred bag, as int masks.

    Row j is the bit set of the members that conflict with member j, the
    rows `derived_graph`'s adjacency would give. Bag t is the bit set of the
    members meeting X_t: the transferred decomposition has `td`'s tree over
    |J| vertices and no marked sets, since the refinement does not survive
    the transfer, and its independence number is at most `td`'s. After the
    count of `_refuse_dense`, each held vertex v gets held[v], the bit set
    of the members holding it, and near[v], the OR of held[u] over N[v];
    row j is the OR of near[v] over H_j less bit j, and bag t the OR of
    held[v] over X_t. These per-vertex masks are local to the pass, so only
    the rows and bags outlive it. `td` is not checked here.
    """
    index = _member_index(family)
    adj = family.host.adj
    _refuse_dense(index, adj)
    held = list(map(mask_of, index))
    del index
    near = [
        reduce(or_, map(held.__getitem__, adj[v]), bits) if bits else 0
        for v, bits in enumerate(held)
    ]
    bags = [reduce(or_, map(held.__getitem__, bag), 0) for bag in td.bags]
    del held
    # j is in near[v] for every v in H_j, so the XOR clears bit j.
    rows = [
        reduce(or_, map(near.__getitem__, s)) ^ (1 << j)
        for j, s in enumerate(family.members)
    ]
    return rows, bags


def solve_packing(instance, td, k):
    """Max weight independent packing via MWIS on the derived graph.

    `td` must be a valid decomposition of the host with independence number
    at most k; it is checked first. Returns the optimal weight and the
    selected member indices, re-verified against the host before returning:
    one pass maps each chosen vertex to its member and fails if a vertex
    has two owners or a host neighbour has another.
    """
    require_valid(instance.family.host, td)
    value, chosen, _ = _solve_packing(instance, td, k)
    return value, chosen


def _solve_packing(instance, td, k):
    """`solve_packing` less its check of `td`, plus the transferred bags it
    solved over as `_reduction`'s masks, from which `_transferred` builds
    the decomposition `pack --emit-derived-td` writes. The MWIS pass runs
    on the conflict rows and bag masks of `_reduction`; neither the derived
    graph nor the transferred decomposition is built."""
    graph = instance.family.host
    rows, bags = _reduction(instance.family, td)
    value, chosen, _ = _dp(rows, instance.member_weights, bags, bags, td.tree_edges, k)
    owner = {}
    for j in chosen:
        for v in instance.family.members[j]:
            if owner.setdefault(v, j) != j:
                raise RuntimeError("internal: selected members conflict")
    for v, j in owner.items():
        for u in graph.adj[v]:
            if owner.get(u, j) != j:
                raise RuntimeError("internal: selected members conflict")
    return value, frozenset(chosen), bags


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
    return SubgraphFamily(graph, tuple(map(frozenset, found)))


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
