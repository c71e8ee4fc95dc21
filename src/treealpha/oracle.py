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
G[S] holding v. Each state's components are read off a table filled from
smaller states, and N(C) = U[C] - C off a union table U[S] of the rows over
S (no search runs). A state whose G[S] is disconnected takes the max over its
components, since their bags do not depend on each other. A connected state
pulls from the states one vertex smaller, and its scan stops once it reaches
cost[N(S)], which no move can beat. The moves and their bags are rebuilt
afterwards on the optimal path alone. The cost and union tables are built by
doubling, the block of masks with top vertex v from the block below it, in
whole-int operations with no Python loop per subset. The pass splits each
mask into a low part of ceil(n/2) bits and a high part, and reads a state's
lowest vertex and its vertex bits off a table over the low values, so no
state peels its bits one at a time. The DP keeps 9 bytes per subset, beside
the 1-byte cost table; the low-part table adds under 100 bytes per low
value, 2^ceil(n/2) of them (0.1 MB at n = 20). No `cap` lifts n past 32, since
the union and component tables hold masks in 4-byte cells.
"""

import sys
from fractions import Fraction

from .chordal import clique_tree
from .decomposition import trivial_decomposition
from .errors import CapExceededError
from .graph import Graph, members

DEFAULT_SUBSET_DP_CAP = 20
DEFAULT_BRUTE_FORCE_CAP = 22
# The DP holds masks in 4-byte cells, so no `cap` lifts n past 32; on 32-bit
# builds (27) its arrays of 2^n cells must also fit in sys.maxsize bytes.
_SUBSET_DP_LIMIT = min(32, sys.maxsize.bit_length() - 4)
# Byte map x -> max(x - 1, 0) for `bytearray.translate`.
_LESS_ONE = b"\0" + bytes(range(255))
# Cells per int OR when the union table is filled.
_UNION_CHUNK = 1 << 10


def _refuse_over_cap(name, graph, cap):
    cap = min(cap, _SUBSET_DP_LIMIT)
    if graph.n > cap:
        raise CapExceededError(f"{name} refused for n={graph.n} > cap={cap}")


def _alpha_table(rows, n):
    """Independence number of every subset of range(n), indexed by mask.

    Built by doubling: for S below 2^v, alpha(S + v) = max(alpha(S),
    1 + alpha(S - N(v))). The table so far is read as one int with a byte
    lane per subset, so each block is a few whole-int operations, with no
    Python loop per mask. Every value is at most n <= _SUBSET_DP_LIMIT (32),
    so value + 1 < 128: the lane-wise max, a guard-bit compare, then never
    borrows from a neighbouring lane. On all-zero rows, alpha(S) = |S|.
    """
    alpha = bytearray(1 << n)
    view = memoryview(alpha)
    for v in range(n):
        h = 1 << v
        a = int.from_bytes(view[:h], "little")
        # Lane S of x becomes alpha(S - N(v)): per neighbour u < v, keep the
        # lanes with bit u clear and copy them 2^u lanes up.
        x = a
        lower = rows[v] & (h - 1)
        while lower:
            w = lower & -lower
            lower ^= w
            x &= int.from_bytes((b"\xff" * w + bytes(w)) * (h // (2 * w)), "little")
            x |= x << 8 * w
        ones = int.from_bytes(b"\x01" * h, "little")
        x += ones
        # 0x80 in the lanes where alpha(S) >= x, then 0xff there.
        ge = ((a | ones << 7) - x) & ones << 7
        ge = (ge << 1) - (ge >> 7)
        view[h : 2 * h] = (x ^ ((a ^ x) & ge)).to_bytes(h, "little")
    return alpha


def _union_table(rows, n):
    """U[S], the union of the rows over S, of every subset S of range(n).

    4-byte cells in a memoryview, indexed by mask. Built by doubling,
    U[S + v] = U[S] | row(v) for S below 2^v, one int OR per chunk of
    _UNION_CHUNK cells, so the transient memory is fixed.
    """
    view = memoryview(bytearray(4 << n))
    for v in range(n):
        cells = min(1 << v, _UNION_CHUNK)
        span = 4 * cells
        # The cells are native-order ints; an OR acts byte by byte, so the
        # ints below may read the bytes in either order.
        row = rows[v].to_bytes(4, sys.byteorder) * cells
        row = int.from_bytes(row, "little")
        top = 4 << v
        for lo in range(0, top, span):
            chunk = int.from_bytes(view[lo : lo + span], "little") | row
            view[top + lo : top + lo + span] = chunk.to_bytes(span, "little")
    return view.cast("I")


def _elimination_dp(rows, cost):
    """min over elimination orderings of the max bag cost; (value, order, bags).

    `rows` are the graph's `bit_rows()`. `cost[bag]` is the cost of the bag
    with that mask, a byte, and must be monotone under inclusion. dp[t] is
    the best worst bag over orderings that eliminate the set t first.
    Eliminating v last among t costs cost[{v} + N(C)], C the component of
    G[t] holding v.

    If G[t] has several components, the bags inside one do not depend on the
    others, so dp[t] is the max of dp over them: dp[low[t]] and
    dp[t - low[t]]. If G[t] is connected, every move into t shares the bag
    part N(t), so no move costs less than cost[N(t)]; the scan over the moves
    stops once its best reaches that bound. Only the states on the optimal
    path need a move: walking back from the full set, each takes the largest
    v among its optimal moves, which is the rule "first state in mask order,
    then lowest vertex" of the forward (push) recurrence. bags[i], the mask of
    order[i]'s bag, is the mask whose cost the walk tested for that move.

    The components come from two tables over the states: low[t] is the
    component of G[t] holding t's lowest vertex b, filled in mask order, and
    the union table U[t], the union of the rows over t, built by doubling
    before the pass. Those of G[t - b] are the chain low[r], r ^= low[r]; b
    joins the ones it touches, and the rest stay components of G[t]. A
    component C has the open neighbourhood N(C) = U[C] - C.

    The pass runs over split masks t = th | tl, tl the low h = ceil(n/2)
    bits: the high part in the outer loop, the low part in the inner one,
    which is still ascending mask order. A table over the 2^h low values
    holds each tl's vertex bits, ascending; its entry 0 is set to the high
    part's bits once per outer step. So a state's lowest vertex b is the
    first of its tabled bits and b's row is U[b], with no bit peeled per
    state, and a connected state scans its moves over the low part's bits,
    then the high part's. The table holds 2^h tuples, under 100 bytes each.
    The scan builds no tuple per state: CPython keeps freed tuples in free
    lists, which tracemalloc still counts.
    """
    n = len(rows)
    size = 1 << n
    full = size - 1
    # 4-byte cells in memoryview casts, which need no extension module
    # loaded, unlike `array`. The union table is filled before low and dp
    # exist, so its transient chunks add nothing to the DP's peak.
    union = _union_table(rows, n)
    low = memoryview(bytearray(union.nbytes)).cast(union.format)
    # Split masks t = th | tl, tl the low `half` bits: lo_bits[tl] holds
    # tl's vertex bits, ascending. Entry 0 holds the high part's, so that
    # bits[0] is every state's lowest vertex; a state with tl = 0 scans
    # those moves twice, which leaves its best as it is.
    half = (n + 1) // 2
    lo_bits = [()]
    for v in range(half):
        b = 1 << v
        lo_bits += [x + (b,) for x in lo_bits]
    # dp[0] stands in for -1: every cost is at least 0, so max(0, c) = c.
    dp = bytearray(size)
    for th in range(0, size, 1 << half):
        hi_bits = lo_bits[0] = [1 << v for v in members(th)]
        for tl in range(0 if th else 1, 1 << half):
            t = th | tl
            bits = lo_bits[tl]
            comp = bits[0]
            # The row of a vertex is the union over its one-bit set.
            rb = union[comp]
            rest = t ^ comp
            while rest & rb:
                c = low[rest]
                if c & rb:
                    comp |= c
                rest ^= c
            low[t] = comp
            if comp != t:
                c = dp[comp]
                d = dp[t ^ comp]
                dp[t] = c if c > d else d
                continue
            nbs = union[t] & ~t
            floor = cost[nbs]
            best = 255
            for b in bits:
                c = dp[t ^ b]
                if c < best:
                    d = cost[b | nbs]
                    if d > c:
                        c = d
                    if c < best:
                        best = c
                        if c == floor:
                            break
            else:
                for b in hi_bits:
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
    bags = []
    s = full
    while s:
        best = dp[s]
        bb = bag = 0
        rest = s
        while rest:
            comp = low[rest]
            nbs = union[comp] & ~comp
            rest ^= comp
            while comp:
                b = comp & -comp
                comp ^= b
                if b > bb and dp[s ^ b] <= best and cost[b | nbs] <= best:
                    bb = b
                    bag = b | nbs
        order.append(bb.bit_length() - 1)
        bags.append(bag)
        s ^= bb
    return (dp[full] if n else -1), order[::-1], bags[::-1]


def _fill_in(rows, bags):
    """Chordal supergraph of the graph with these `bit_rows()` and an
    elimination ordering: its bags made cliques."""
    rows = list(rows)
    for bag in bags:
        for a in members(bag):
            rows[a] |= bag ^ (1 << a)
    return Graph(len(rows), tuple(tuple(members(r)) for r in rows))


def treewidth_exact(graph, cap=DEFAULT_SUBSET_DP_CAP):
    """Exact treewidth by subset DP; the null graph has treewidth -1."""
    _refuse_over_cap("treewidth_exact", graph, cap)
    if graph.n == 0:
        return -1
    # Costs max(|S| - 1, 0): alpha(S) = |S| on the edgeless graph. Every bag
    # holds its own vertex, so the empty mask's entry is never read.
    sizes = _alpha_table([0] * graph.n, graph.n).translate(_LESS_ONE)
    value, _, _ = _elimination_dp(graph.bit_rows(), sizes)
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
    rows = graph.bit_rows()
    value, _, bags = _elimination_dp(rows, _alpha_table(rows, graph.n))
    return value, clique_tree(_fill_in(rows, bags))


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
