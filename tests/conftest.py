"""Shared test helpers: deterministic random instances and tiny brute-force
oracles that are independent of the library's own solvers."""

import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from treealpha import (
    CapExceededError,
    GraphError,
    PackingInstance,
    ResidualBoundViolation,
    WeightMap,
    build_graph,
    complete_graph,
    enumerate_F_subgraphs,
    make_family,
    make_nice,
    solve_packing,
    validate,
)
from treealpha.decomposition import ValidationReport, Violation
from treealpha.graph import Graph, check_vertex_set, mask_of, members
from treealpha.nice import FORGET, INTRODUCE, JOIN, LEAF, node_kinds
from treealpha.packing import DEFAULT_PATTERN_CAP


def random_graph(n, p, rng):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def has_edge(graph, u, v):
    return v in graph.adj[u]


def interval_graph(n, rng):
    """The intersection graph of n random closed integer intervals."""
    spans = []
    for _ in range(n):
        left = rng.randint(0, 3 * n)
        spans.append((left, left + rng.randint(0, 12)))
    return build_graph(
        n,
        [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
        ],
    )


def shuffled_path(n, rng):
    """A path on n vertices with shuffled ids; returns the graph and the ids
    in path order."""
    ids = list(range(n))
    rng.shuffle(ids)
    return build_graph(n, zip(ids, ids[1:])), ids


def chordal_fill_in(g, rng):
    """Edges of g plus the fill of a random elimination order: a chordal
    supergraph, disconnected whenever g is."""
    adj = [set(a) for a in g.adj]
    order = list(range(g.n))
    rng.shuffle(order)
    for i, v in enumerate(order):
        later = [u for u in order[i + 1 :] if u in adj[v]]
        for a, b in itertools.combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
    return build_graph(g.n, [(u, v) for u in range(g.n) for v in adj[u] if u < v])


def all_labeled_graphs(n):
    """Every labeled graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_weights(n, rng, allow_zero=True):
    lo = 0 if allow_zero else 1
    return {v: Fraction(rng.randint(lo, 12), rng.randint(1, 6)) for v in range(n)}


def alpha_by_enumeration(graph):
    """Independence number by checking all 2^n subsets edge by edge."""
    best = 0
    verts = range(graph.n)
    for size in range(graph.n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(verts, size):
            s = set(combo)
            if all(not (u in s and v in s) for u, v in graph.edges()):
                best = max(best, size)
                break
    return best


def independent_by_edge_scan(graph, vertices):
    s = set(vertices)
    return all(not (u in s and v in s) for u, v in graph.edges())


def mwis_by_enumeration(graph, weights):
    """Max weight independent set by full subset enumeration (no pruning)."""
    best = Fraction(0)
    for size in range(graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            if independent_by_edge_scan(graph, combo):
                w = sum((weights[v] for v in combo), Fraction(0))
                if w > best:
                    best = w
    return best


def random_connected_set(graph, max_size, rng):
    v = rng.randrange(graph.n)
    s = {v}
    while len(s) < max_size:
        frontier = sorted({u for x in s for u in graph.adj[x]} - s)
        if not frontier or rng.random() < 0.35:
            break
        s.add(rng.choice(frontier))
    return frozenset(s)


def is_connected_set(graph, vertices):
    """True iff `vertices` is nonempty and connected in the graph, by search."""
    s = set(vertices)
    if not s:
        return False
    seen = {min(s)}
    stack = list(seen)
    while stack:
        for u in graph.adj[stack.pop()]:
            if u in s and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == s


def connected_vertex_sets(graph, max_size):
    """Every connected vertex set of at most max_size vertices, by testing
    all subsets, in lexicographic order of their sorted vertex lists."""
    out = [
        combo
        for size in range(1, max_size + 1)
        for combo in itertools.combinations(range(graph.n), size)
        if is_connected_set(graph, combo)
    ]
    return [frozenset(c) for c in sorted(out)]


def spans_by_permutation(graph, members_sorted, pattern):
    """Does some subgraph of the host with exactly these vertices match the
    pattern? Plain exhaustive permutation matching, after a sorted degree
    domination test."""
    mset = set(members_sorted)
    degs = sorted(len(a) for a in pattern.adj)
    host_degs = sorted(
        sum(1 for u in graph.adj[v] if u in mset) for v in members_sorted
    )
    # Sorted degree domination is necessary for a spanning embedding.
    if any(p > h for p, h in zip(degs, host_degs)):
        return False
    pedges = list(pattern.edges())
    for perm in itertools.permutations(members_sorted):
        if all(has_edge(graph, perm[a], perm[b]) for a, b in pedges):
            return True
    return False


def family_by_permutation(graph, patterns):
    """Reference pattern family: every connected set whose order is some
    pattern's and that spans one of them by `spans_by_permutation`, in
    lexicographic order of the sorted vertex lists."""
    r = max(p.n for p in patterns)
    return [
        s
        for s in connected_vertex_sets(graph, r)
        if any(
            p.n == len(s) and spans_by_permutation(graph, sorted(s), p)
            for p in patterns
        )
    ]


def blob_family(graph):
    """The family of all connected vertex sets, for hosts of at most 12
    vertices."""
    if graph.n > 12:
        raise CapExceededError(f"blob_family refused for n={graph.n} > cap=12")
    return make_family(graph, connected_vertex_sets(graph, graph.n))


def format_family(instance):
    """The `.fam` text of a packing instance, members in index order."""
    out = [f"s fam {len(instance.family)}"]
    for i, (s, w) in enumerate(zip(instance.family.members, instance.member_weights), 1):
        vs = " ".join(str(v + 1) for v in sorted(s))
        out.append(f"f {i} {w.numerator}/{w.denominator} {len(s)} {vs}")
    return "\n".join(out) + "\n"


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
    value, chosen = solve_packing(PackingInstance(fam, tuple(ws)), td, k)
    return value, tuple(tuple(sorted(fam.members[j])) for j in sorted(chosen))


def dissociation_set(graph, td, k):
    """Largest vertex set inducing maximum degree <= 1: packing of single
    vertices and single edges, each weighted by its size; returns the value
    and the selected members' union."""
    fam = enumerate_F_subgraphs(graph, [complete_graph(1), complete_graph(2)])
    inst = PackingInstance(fam, tuple(Fraction(len(s)) for s in fam.members))
    value, chosen = solve_packing(inst, td, k)
    return value, frozenset().union(*(fam.members[j] for j in chosen))


def k_separator(graph, vertex_weights, s, td, k):
    """Max weight of a vertex set whose induced components have at most `s`
    vertices each: packing of all connected sets of at most s vertices,
    weighted by their vertex-weight sums. Returns the value and the
    selected members."""
    if s < 1:
        raise GraphError("component order s must be positive")
    if s > DEFAULT_PATTERN_CAP:
        raise CapExceededError(f"component order {s} above pattern cap")
    wmap = vertex_weights if vertex_weights is not None else WeightMap(graph.n)
    fam = make_family(graph, connected_vertex_sets(graph, s))
    inst = PackingInstance(fam, tuple(wmap.total(m) for m in fam.members))
    value, chosen = solve_packing(inst, td, k)
    return value, tuple(fam.members[j] for j in sorted(chosen))


def induced_subgraph(graph, vertices):
    """Subgraph induced by `vertices`, plus the old->new relabeling map.

    Kept vertices are renumbered 0..|S|-1 in ascending order of old id.
    """
    s = check_vertex_set(graph, vertices)
    old = sorted(s)
    relabel = {v: i for i, v in enumerate(old)}
    edges = [
        (relabel[u], relabel[v])
        for u in old
        for v in graph.adj[u]
        if v in s and v > u
    ]
    return build_graph(len(old), edges), relabel


def complement(graph):
    """The graph on the same vertices with exactly the missing edges."""
    return build_graph(
        graph.n,
        [e for e in itertools.combinations(range(graph.n), 2) if not has_edge(graph, *e)],
    )


def contract_edge(graph, edge):
    """Contract an edge: the merged vertex gets the union of both neighborhoods.

    The two endpoints disappear; remaining vertices are renumbered 0..n-3 in
    ascending order of old id and the merged vertex receives the largest id,
    n-2. Parallel edges collapse, so the result is again simple.
    """
    u, v = edge
    if not has_edge(graph, u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    keep = [w for w in range(graph.n) if w != u and w != v]
    relabel = {w: i for i, w in enumerate(keep)}
    merged = graph.n - 2
    edges = set()
    for a in keep:
        for b in graph.adj[a]:
            if b in (u, v):
                edges.add((relabel[a], merged))
            elif b > a:
                edges.add((relabel[a], relabel[b]))
    return build_graph(graph.n - 1, edges)


def cycle_has_chord(graph, cycle):
    """True iff the given cycle (vertex sequence) has a chord in the graph."""
    k = len(cycle)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if has_edge(graph, cycle[i], cycle[j]):
                return True
    return False


def nice_children(td):
    """Children of each node of a `make_nice` decomposition, ascending: each
    tree edge (a, b) runs from parent a to child b."""
    kids = [[] for _ in td.bags]
    for a, b in td.tree_edges:
        kids[a].append(b)
    return kids


def nice_vertex(td, t, kids):
    """The vertex that node t, with one child, introduces or forgets."""
    (v,) = td.bags[t] ^ td.bags[kids[t][0]]
    return v


def nice_violations(graph, td):
    """List the nice-form invariants the given decomposition breaks, read
    straight from its bags and tree edges, and check `node_kinds` against
    the kinds they give."""
    problems = []
    report = validate(graph, td)
    if not report.ok:
        return [f"underlying decomposition invalid: {report}"]
    if td.bags[0]:
        problems.append("root bag is nonempty")
    parents = Counter(b for _, b in td.tree_edges)
    for a, b in td.tree_edges:
        if not a < b:
            problems.append(f"edge ({a}, {b}) does not run down from the parent")
    for t in range(1, td.node_count):
        if parents[t] != 1:
            problems.append(f"node {t} has {parents[t]} parents")
    kids = nice_children(td)
    kinds = []
    for t, bag in enumerate(td.bags):
        down = [td.bags[c] for c in kids[t]]
        if not down:
            kinds.append(LEAF)
            if bag:
                problems.append(f"leaf {t} has a nonempty bag")
        elif len(down) == 1:
            kinds.append(INTRODUCE if bag > down[0] else FORGET)
            if len(bag ^ down[0]) != 1:
                problems.append(f"node {t} differs from its child by {bag ^ down[0]}")
        elif len(down) == 2:
            kinds.append(JOIN)
            if any(c != bag for c in down):
                problems.append(f"join node {t} has a child with a different bag")
        else:
            problems.append(f"node {t} has {len(down)} children")
    if not problems and node_kinds(td) != tuple(kinds):
        problems.append(f"node_kinds gives {node_kinds(td)}, the bags {kinds}")
    return problems


def postorder(td):
    """Node ids of a nice decomposition, children always before parents."""
    kids = nice_children(td)
    out = []
    stack = [(0, False)]
    while stack:
        t, done = stack.pop()
        if done:
            out.append(t)
        else:
            stack.append((t, True))
            for c in kids[t]:
                stack.append((c, False))
    return out


def _bag_mask(rows, v, emask):
    """Mask of v's elimination bag against the eliminated mask `emask`,
    found by a search from v through the eliminated vertices."""
    nb = rows[v]
    seen = 0
    pend = nb & emask
    while pend:
        b = pend & -pend
        seen |= b
        nb |= rows[b.bit_length() - 1]
        pend = nb & emask & ~seen
    return (nb & ~emask) | (1 << v)


def reference_fill_in(graph, order):
    """Chordal supergraph from eliminating vertices in the given order, each
    bag found by search and made a clique before the next is searched."""
    rows = graph.bit_rows()
    emask = 0
    for v in order:
        bag = _bag_mask(rows, v, emask)
        for a in members(bag):
            rows[a] |= bag ^ (1 << a)
        emask |= 1 << v
    return Graph(graph.n, tuple(tuple(members(r)) for r in rows))


def elimination_bag(graph, v, eliminated):
    """The closure bag of v against an eliminated set E.

    Contains v plus every surviving vertex reachable from v along a path
    whose internal vertices all lie in E. These are exactly the bags of the
    fill-in triangulation induced by eliminating E's vertices first.
    """
    elim = check_vertex_set(graph, eliminated)
    if v in elim:
        raise GraphError(f"vertex {v} is already eliminated")
    check_vertex_set(graph, [v])
    return frozenset(members(_bag_mask(graph.bit_rows(), v, mask_of(elim))))


def reference_alpha_table(rows, n):
    """Independence number of every subset of range(n), one mask at a time:
    alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])) for v the lowest
    vertex of S."""
    alpha = bytearray(1 << n)
    for s in range(1, 1 << n):
        b = s & -s
        a = alpha[s ^ b]
        c = alpha[s & ~(rows[b.bit_length() - 1] | b)] + 1
        alpha[s] = a if a > c else c
    return alpha


def push_form_elimination_dp(graph, cost):
    """Reference subset DP in push form: every state s pushes each move
    s -> s + v to the larger state, with the bag of v read off the
    components of G[s] found by search. Ties go to the first state in mask
    order, then to the lowest vertex; returns (value, order)."""
    n = graph.n
    rows = graph.bit_rows()
    closed = [r | 1 << v for v, r in enumerate(rows)]
    size = 1 << n
    full = size - 1
    dp = [n + 1] * size
    dp[0] = -1
    choice = [0] * size
    for s in range(size):
        d = dp[s]
        out = full ^ s
        # Two survivors are joined by a path through s exactly when both lie
        # in O = N(C) - s for one component C of G[s]; add O to their bags.
        reach = [0] * n
        pend = s
        while pend:
            new = pend & -pend
            comp = nbrs = 0
            while new:
                comp |= new
                while new:
                    u = new & -new
                    new ^= u
                    nbrs |= rows[u.bit_length() - 1]
                new = nbrs & s & ~comp
            pend ^= comp
            o = nbrs & out
            w = o
            while w:
                u = w & -w
                w ^= u
                reach[u.bit_length() - 1] |= o
        rest = out
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            c = cost[closed[v] & out | reach[v]]
            cand = d if d > c else c
            t = s | b
            if cand < dp[t]:
                dp[t] = cand
                choice[t] = v
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return dp[full], order


def _check_residual(table, residual, k):
    """Raise ResidualBoundViolation if a key has more than k residual bits,
    with the lexicographically first independent (k+1)-subset of the
    residual as witness."""
    over = [s for s in table if (s & residual).bit_count() > k]
    if over:
        first = min(members(s & residual)[: k + 1] for s in over)
        raise ResidualBoundViolation(
            f"residual bound violated: independent set of size {k + 1} "
            f"in bag residual",
            witness=frozenset(first),
        )


def nice_form_tables(graph, weights, td, k):
    """Reference MWIS tables: the textbook pass over every node of a nice
    decomposition, {node: {key mask: Fraction c[t, S]}}, checking the
    residual bound at every node in `postorder(td)`. Kinds come from
    `node_kinds`, and a node's vertex from its bag and its child's."""
    if k < 0:
        raise GraphError("residual bound k must be nonnegative")
    kinds = node_kinds(td)
    kids = nice_children(td)
    tables = {}
    for t in postorder(td):
        kind = kinds[t]
        if kind == LEAF:
            table = {0: Fraction(0)}
        elif kind == JOIN:
            other = tables[kids[t][1]]
            table = {
                s: x + other[s] - weights.total(members(s))
                for s, x in tables[kids[t][0]].items()
            }
        else:
            child = tables[kids[t][0]]
            v = nice_vertex(td, t, kids)
            bit = 1 << v
            if kind == INTRODUCE:
                nbrs = mask_of(graph.adj[v])
                table = dict(child)
                for s, x in child.items():
                    if not s & nbrs:
                        table[s | bit] = x + weights[v]
            else:  # FORGET
                table = {s: x for s, x in child.items() if not s & bit}
                for s, x in child.items():
                    if s & bit and x > table[s ^ bit]:
                        table[s ^ bit] = x
        _check_residual(table, mask_of(td.bags[t] - td.refined[t]), k)
        tables[t] = table
    return tables


def nice_form_mwis(graph, weights, td, k):
    """Reference MWIS: nice_form_tables plus the top-down witness, which
    takes a forgotten vertex only where that is strictly better."""
    nice = make_nice(graph, td)
    tables = nice_form_tables(graph, weights, nice, k)
    kinds = node_kinds(nice)
    kids = nice_children(nice)
    chosen = 0
    stack = [(0, 0)]
    while stack:
        t, s = stack.pop()
        chosen |= s
        kind = kinds[t]
        if kind == JOIN:
            stack.extend((c, s) for c in kids[t])
        elif kind != LEAF:
            bit = 1 << nice_vertex(nice, t, kids)
            child = tables[kids[t][0]]
            if kind == INTRODUCE:
                s &= ~bit
            elif child.get(s | bit, -1) > child[s]:
                s |= bit
            stack.append((kids[t][0], s))
    return tables[0][0], frozenset(members(chosen))


def reference_validate(graph, td, universe=None):
    """`decomposition.validate` as it was before its edge clause ran in C:
    the clause walks `graph.edges()` and tests each edge in Python. The
    differential tests hold the library's reports, details included, equal
    to this one's."""
    violations = []
    nodes = td.node_count
    edges = td.tree_edges
    tree_bad = None
    if nodes < 1:
        tree_bad = Violation("tree", "decomposition has no nodes")
    elif len(edges) != nodes - 1:
        tree_bad = Violation(
            "tree", f"{len(edges)} edges on {nodes} nodes (need {nodes - 1})"
        )
    else:
        nbrs = [[] for _ in range(nodes)]
        seen_pairs = set()
        for a, b in edges:
            key = (min(a, b), max(a, b))
            if not (0 <= a < nodes and 0 <= b < nodes):
                tree_bad = Violation(
                    "tree", "edge ({}, {}) references a missing node", (a, b)
                )
            elif a == b:
                tree_bad = Violation("tree", "self-loop on node {}", (a,))
            elif key in seen_pairs:
                tree_bad = Violation("tree", "duplicate edge ({}, {})", key)
            else:
                seen_pairs.add(key)
                nbrs[a].append(b)
                nbrs[b].append(a)
                continue
            break
        if tree_bad is None:
            # Correct edge count + no duplicates, so connectivity implies acyclicity.
            stack = [0]
            reached = {0}
            while stack:
                for y in nbrs[stack.pop()]:
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
            if len(reached) != nodes:
                missing = min(set(range(nodes)) - reached)
                tree_bad = Violation(
                    "tree", "node {} is disconnected from node {}", (missing, 0)
                )
    if tree_bad is not None:
        violations.append(tree_bad)

    if universe is None:
        universe = frozenset(range(graph.n))
    else:
        universe = check_vertex_set(graph, universe)

    index = {v: set() for v in universe}
    coverage_bad = None
    for t in range(nodes):
        for v in td.bags[t]:
            if v in index:
                index[v].add(t)
            elif coverage_bad is None:
                coverage_bad = Violation(
                    "coverage", "bag {} contains {}, outside the vertex universe", (t, v)
                )
    if coverage_bad is None:
        missing = next((v for v in sorted(index) if not index[v]), None)
        if missing is not None:
            coverage_bad = Violation(
                "coverage", "vertex {} is in no bag", (missing,)
            )
    if coverage_bad is not None:
        violations.append(coverage_bad)

    for u, v in graph.edges():
        if u in index and v in index and index[u].isdisjoint(index[v]):
            violations.append(Violation("edges", "edge ({}, {}) is in no bag", (u, v)))
            break

    if tree_bad is None:
        shared = Counter()
        for a, b in edges:
            shared.update(td.bags[a] & td.bags[b])
        for v in sorted(index):
            if index[v] and len(index[v]) - shared[v] != 1:
                violations.append(
                    Violation(
                        "connectivity",
                        "nodes holding vertex {} do not form a subtree",
                        (v,),
                    )
                )
                break

    for t in range(nodes):
        if not td.refined[t] <= td.bags[t]:
            extra = min(td.refined[t] - td.bags[t])
            violations.append(
                Violation("refined", "U_{} contains {}, not in bag {}", (t, extra, t))
            )
            break

    return ValidationReport(not violations, tuple(violations))


def reference_order(graph):
    """An independent maximum cardinality search and its check, for
    `chordal._perfect_order`: a search heap of (-weight, id) tuples, so the
    largest weight and then the smallest id comes next, and a mark array per
    latest earlier neighbour.

    Returns (order, earlier), earlier[i] listing the neighbours of order[i]
    that come before it, or None when the graph is not chordal."""
    n = graph.n
    adj = graph.adj
    weight = [0] * n
    visited = [False] * n
    heap = [(0, v) for v in range(n)]
    order = []
    while heap:
        w, z = heapq.heappop(heap)
        if visited[z] or -w != weight[z]:
            continue
        visited[z] = True
        order.append(z)
        for y in adj[z]:
            if not visited[y]:
                weight[y] += 1
                heapq.heappush(heap, (-weight[y], y))
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
    """Whether `graph` is chordal, by `reference_order`; the null graph is."""
    return reference_order(graph) is not None


def reference_clique_tree(graph):
    """`chordal.clique_tree` as it was before the tree was built from minimal
    separators, with the order of `reference_order`: the largest weight,
    then the smallest id, comes next. Kruskal runs over all clique pairs,
    weight-0 pairs included, in (-|C_i & C_j|, i, j) order. Only pairs that
    share a vertex are listed; the weight-0 pairs come last, and in (i, j)
    order each component without clique 0 joins it through its smallest
    clique id.

    Returns (order, bags, tree_edges) with bags as sorted lists, or None when
    the graph is not chordal."""
    found = reference_order(graph)
    if found is None:
        return None
    order, earlier = found
    n = graph.n
    if n == 0:
        return (), [], ()

    candidates = [[v] + before for v, before in zip(order, earlier)]
    maximal = [
        frozenset(c)
        for c, nxt in zip(candidates, candidates[1:] + [()])
        if len(nxt) <= len(c)
    ]
    maximal.sort(key=sorted)
    q = len(maximal)
    holding = [[] for _ in range(n)]
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
    # The weight-0 pairs, in (i, j) order.
    for j in range(1, q):
        if find(j) != find(0):
            parent[find(j)] = find(0)
            edges.append((0, j))
    return tuple(order), [sorted(c) for c in maximal], tuple(sorted(edges))


@pytest.fixture
def rng():
    return random.Random(0xA1FA)
