"""Exact ground truth at desk scale: tree-independence number, treewidth, MWIS.

Both width-style parameters are computed by dynamic programming over subsets
of eliminated vertices. Restricting attention to elimination orderings is
exhaustive: any tree decomposition induces a chordal fill-in (make every bag
a clique) whose maximal cliques each lie inside some original bag; since the
independence number is monotone under taking subsets, the clique tree of the
fill-in is at least as good as the original decomposition; and every chordal
fill-in arises from some elimination ordering. Minimizing the worst bag cost
over all orderings therefore attains the true optimum.

State is the set S of already-eliminated vertices only, since the bag of the
next vertex depends on nothing else: 2^n states with up to n moves each,
capped at n = 20. The components of G[S] are found once per state and give
the bag of every move; bag costs are read from one table over all 2^n
subsets (independence numbers for tin_exact, size - 1 for treewidth_exact).
"""

import sys
from fractions import Fraction

from .chordal import clique_tree
from .decomposition import make_decomposition, trivial_decomposition
from .errors import CapExceededError, GraphError
from .graph import Graph, check_vertex_set, mask_of, members

DEFAULT_SUBSET_DP_CAP = 20
DEFAULT_BRUTE_FORCE_CAP = 22
# The DP holds lists of 2^n pointers; past this n (59 on 64-bit builds) such a
# list exceeds sys.maxsize bytes, so no `cap` lifts it.
_SUBSET_DP_LIMIT = sys.maxsize.bit_length() - 4


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


def _bag_mask(rows, v, emask):
    nb = rows[v]
    seen = 0
    pend = nb & emask
    while pend:
        b = pend & -pend
        seen |= b
        nb |= rows[b.bit_length() - 1]
        pend = nb & emask & ~seen
    return (nb & ~emask) | (1 << v)


def _refuse_over_cap(name, graph, cap):
    cap = min(cap, _SUBSET_DP_LIMIT)
    if graph.n > cap:
        raise CapExceededError(f"{name} refused for n={graph.n} > cap={cap}")


def _alpha_table(rows, n):
    """Independence number of every subset of range(n), indexed by mask.

    alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])) for v the lowest
    vertex of S; every value is at most n, so one byte per subset holds it.
    """
    alpha = bytearray(1 << n)
    for s in range(1, 1 << n):
        b = s & -s
        a = alpha[s ^ b]
        c = alpha[s & ~(rows[b.bit_length() - 1] | b)] + 1
        alpha[s] = a if a > c else c
    return alpha


def _elimination_dp(graph, cost):
    """min over elimination orderings of the max bag cost; returns (value, order).

    `cost[bag]` is the cost of the bag with that mask. Ties go to the first
    state in mask order, then to the lowest vertex.
    """
    n = graph.n
    rows = graph.bit_rows()
    closed = [r | 1 << v for v, r in enumerate(rows)]
    size = 1 << n
    full = size - 1
    dp = [n + 1] * size
    dp[0] = -1
    choice = [0] * size
    for s in range(size):
        d = dp[s]  # final: every s - v is a smaller mask
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


def _fill_in(graph, order):
    """Chordal supergraph from eliminating vertices in the given order."""
    rows = graph.bit_rows()
    emask = 0
    for v in order:
        bag = _bag_mask(rows, v, emask)
        for a in members(bag):
            rows[a] |= bag ^ (1 << a)
        emask |= 1 << v
    return Graph(graph.n, tuple(tuple(members(r)) for r in rows))


def treewidth_exact(graph, cap=DEFAULT_SUBSET_DP_CAP):
    """Exact treewidth by subset DP; the null graph has treewidth -1."""
    _refuse_over_cap("treewidth_exact", graph, cap)
    if graph.n == 0:
        return -1
    # Every bag holds its own vertex, so the empty mask's entry is never read.
    sizes = bytearray(max(m.bit_count() - 1, 0) for m in range(1 << graph.n))
    value, _ = _elimination_dp(graph, sizes)
    return value


def tin_exact(graph, cap=DEFAULT_SUBSET_DP_CAP):
    """Exact tree-independence number plus an optimal witness decomposition.

    The witness is the clique tree of the fill-in of the optimal elimination
    ordering, expressed over the input graph's vertices; it validates and its
    independence number equals the returned value.
    """
    _refuse_over_cap("tin_exact", graph, cap)
    if graph.n == 0:
        return 0, trivial_decomposition(graph)
    alpha = _alpha_table(graph.bit_rows(), graph.n)
    value, order = _elimination_dp(graph, alpha)
    filled = _fill_in(graph, order)
    ct = clique_tree(filled)
    witness = make_decomposition(graph, ct.bags, ct.tree_edges)
    return value, witness


def brute_force_mwis(graph, weights, cap=DEFAULT_BRUTE_FORCE_CAP):
    """Exhaustive max weight independent set; exact rational optimum.

    Branch and bound over include/exclude decisions with a remaining-weight
    prune; deterministic witness for fixed inputs.
    """
    n = graph.n
    if n > cap:
        raise CapExceededError(f"brute_force_mwis refused for n={n} > cap={cap}")
    if n == 0:
        return Fraction(0), frozenset()
    rows = graph.bit_rows()
    closed = [rows[v] | (1 << v) for v in range(n)]
    w = [weights[v] for v in range(n)]
    order = sorted(range(n), key=lambda v: (-w[v], v))
    suffix = [Fraction(0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[order[i]]
    best_w = Fraction(-1)
    best_set = 0

    def rec(idx, cand, cur_w, cur_set):
        nonlocal best_w, best_set
        while idx < n and not (cand >> order[idx] & 1):
            idx += 1
        if idx == n:
            if cur_w > best_w:
                best_w = cur_w
                best_set = cur_set
            return
        if cur_w + suffix[idx] <= best_w:
            return
        v = order[idx]
        rec(idx + 1, cand & ~closed[v], cur_w + w[v], cur_set | (1 << v))
        rec(idx + 1, cand & ~(1 << v), cur_w, cur_set)

    rec(0, (1 << n) - 1, Fraction(0), 0)
    return best_w, frozenset(members(best_set))
