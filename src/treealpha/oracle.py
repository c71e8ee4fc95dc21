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
next vertex depends on nothing else: 2^n states, capped at n = 20. Bag costs
come from one table over all 2^n subsets (independence numbers for
tin_exact, size - 1 for treewidth_exact); both are monotone under inclusion.
Eliminating v last among S leaves the bag {v} + N(C), C the component of
G[S] holding v, and each state's components are read off two tables filled
from smaller states (no search runs). A state whose G[S] is disconnected
takes the max over its components, since their bags do not depend on each
other. A connected state pulls from the states one vertex smaller, and its
scan stops once it reaches cost[N(S)], which no move can beat. The moves are
rebuilt afterwards on the optimal path alone. The DP keeps 9 bytes per
subset for n <= 32, beside the 1-byte cost table.
"""

import sys
from fractions import Fraction

from .chordal import clique_tree
from .decomposition import make_decomposition, trivial_decomposition
from .errors import CapExceededError
from .graph import Graph, members

DEFAULT_SUBSET_DP_CAP = 20
DEFAULT_BRUTE_FORCE_CAP = 22
# The DP holds arrays of 2^n entries of up to 8 bytes; past this n (59 on 64-bit
# builds) such an array exceeds sys.maxsize bytes, so no `cap` lifts it.
_SUBSET_DP_LIMIT = sys.maxsize.bit_length() - 4
# Byte maps x -> x + 1 and x -> max(x - 1, 0) for `bytearray.translate`.
_PLUS_ONE = bytes(range(1, 256)) + b"\0"
_LESS_ONE = b"\0" + bytes(range(255))


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


def _size_table(n):
    """max(|S| - 1, 0) of every subset S of range(n), indexed by mask.

    Built by doubling: the masks with vertex v are those without it, one
    larger. Both steps are `translate` calls, so no Python loop runs per mask.
    """
    sizes = bytearray(1)
    for _ in range(n):
        sizes += sizes.translate(_PLUS_ONE)
    return sizes.translate(_LESS_ONE)


def _elimination_dp(graph, cost):
    """min over elimination orderings of the max bag cost; returns (value, order).

    `cost[bag]` is the cost of the bag with that mask, a byte, and must be
    monotone under inclusion. dp[t] is the best worst bag over orderings that
    eliminate the set t first. Eliminating v last among t costs
    cost[{v} + N(C)], C the component of G[t] holding v.

    If G[t] has several components, the bags inside one do not depend on the
    others, so dp[t] is the max of dp over them: dp[low[t]] and
    dp[t - low[t]]. If G[t] is connected, every move into t shares the bag
    part N(t), so no move costs less than cost[N(t)]; the scan over the moves
    stops once its best reaches that bound. Only the states on the optimal
    path need a move: walking back from the full set, each takes the largest
    v among its optimal moves, which is the rule "first state in mask order,
    then lowest vertex" of the forward (push) recurrence.

    The components come from two tables over the states: low[t] is the
    component of G[t] holding t's lowest vertex b, and nb[t] its open
    neighbourhood. Those of G[t - b] are the chain low[r], r ^= low[r]; b
    joins the ones it touches, and the rest stay components of G[t].
    """
    n = graph.n
    rows = graph.bit_rows()
    size = 1 << n
    full = size - 1
    # Zeroed 4- or 8-byte cells over a bytearray; a memoryview cast needs no
    # extension module loaded, unlike `array`.
    tc, width = ("I", 4) if n <= 32 else ("Q", 8)
    low = memoryview(bytearray(width * size)).cast(tc)
    nb = memoryview(bytearray(width * size)).cast(tc)
    # dp[0] stands in for -1: every cost is at least 0, so max(0, c) = c.
    dp = bytearray(size)
    for t in range(1, size):
        b = t & -t
        rb = rows[b.bit_length() - 1]
        comp = b
        nbs = rb
        rest = t ^ b
        while rest & rb:
            c = low[rest]
            if c & rb:
                comp |= c
                nbs |= nb[rest]
            rest ^= c
        nbs &= ~t
        low[t] = comp
        nb[t] = nbs
        if comp != t:
            c = dp[comp]
            d = dp[t ^ comp]
            dp[t] = c if c > d else d
            continue
        floor = cost[nbs]
        best = 255
        while comp:
            b = comp & -comp
            comp ^= b
            c = dp[t ^ b]
            if c < best:
                d = cost[b | nbs]
                if d > c:
                    c = d
                if c < best:
                    best = c
                    if c == floor:
                        break
        dp[t] = best
    order = []
    s = full
    while s:
        best = dp[s]
        bb = 0
        rest = s
        while rest:
            comp = low[rest]
            nbs = nb[rest]
            rest ^= comp
            while comp:
                b = comp & -comp
                comp ^= b
                if b > bb and dp[s ^ b] <= best and cost[b | nbs] <= best:
                    bb = b
        order.append(bb.bit_length() - 1)
        s ^= bb
    order.reverse()
    return (dp[full] if n else -1), order


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
    value, _ = _elimination_dp(graph, _size_table(graph.n))
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


def brute_force_mwis(graph, weights):
    """Exhaustive max weight independent set; exact rational optimum.

    Branch and bound over include/exclude decisions with a remaining-weight
    prune; deterministic witness for fixed inputs. Refuses graphs above
    DEFAULT_BRUTE_FORCE_CAP vertices.
    """
    n = graph.n
    if n > DEFAULT_BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"brute_force_mwis refused for n={n} > cap={DEFAULT_BRUTE_FORCE_CAP}"
        )
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
