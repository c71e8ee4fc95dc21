"""Exact ground truth at desk scale: tree-independence number, treewidth, MWIS.

Both width-style parameters are computed by dynamic programming over subsets
of eliminated vertices. Restricting attention to elimination orderings is
exhaustive: any tree decomposition induces a chordal fill-in (make every bag
a clique) whose maximal cliques each lie inside some original bag; since the
independence number is monotone under taking subsets, the clique tree of the
fill-in is at least as good as the original decomposition; and every chordal
fill-in arises from some elimination ordering. Minimizing the worst bag cost
over all orderings therefore attains the true optimum.

State is the set of already-eliminated vertices only, since the bag of the
next vertex depends on nothing else: 2^n * n states, capped at n = 20.
"""

import sys
from fractions import Fraction

from .chordal import clique_tree
from .decomposition import make_decomposition, trivial_decomposition
from .errors import CapExceededError, GraphError
from .exact import _complement_rows, _max_clique_size
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


def _elimination_dp(graph, cost_of_bag):
    """min over elimination orderings of the max bag cost; returns (value, order)."""
    n = graph.n
    rows = graph.bit_rows()
    size = 1 << n
    big = n + 2**30
    dp = [big] * size
    dp[0] = -1
    choice = [0] * size
    bag_cost = {}
    for s in range(size):
        d = dp[s]
        if d >= big:
            continue
        rest = (size - 1) ^ s
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            nb = rows[v]
            seen = 0
            pend = nb & s
            while pend:
                u = pend & -pend
                seen |= u
                nb |= rows[u.bit_length() - 1]
                pend = nb & s & ~seen
            bag = (nb & ~s) | b
            c = bag_cost.get(bag)
            if c is None:
                c = cost_of_bag(bag)
                bag_cost[bag] = c
            cand = d if d > c else c
            t = s | b
            if cand < dp[t]:
                dp[t] = cand
                choice[t] = v
    order = []
    s = size - 1
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return dp[size - 1], order


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
    value, _ = _elimination_dp(graph, lambda bag: bag.bit_count() - 1)
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
    comp = _complement_rows(graph.bit_rows())
    value, order = _elimination_dp(graph, lambda bag: _max_clique_size(comp, bag))
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
