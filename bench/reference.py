"""Independent answers and witness checks for the benchmark.

None of this calls treealpha: each workload's expected optimum comes from a
method that shares no code with the program (weighted interval scheduling,
a closed form, or a direct enumeration), and every witness the program
returns is re-checked here against the benchmark's own edge lists.
"""

from bisect import bisect_left
from fractions import Fraction


class WrongAnswer(Exception):
    """The program returned a value or witness that the reference rejects."""


def interval_scheduling(intervals, weights):
    """Maximum total weight of pairwise disjoint closed intervals."""
    order = sorted(range(len(intervals)), key=lambda v: intervals[v][1])
    rights = [intervals[v][1] for v in order]
    best = [Fraction(0)]
    for i, v in enumerate(order):
        # Intervals ending strictly left of this one's left endpoint.
        p = bisect_left(rights, intervals[v][0], 0, i)
        best.append(max(best[i], best[p] + weights[v]))
    return best[-1]


def cocycle_mwis(cycle, weights):
    """MWIS of the complement of a cycle: its independent sets are the
    cliques of the cycle, i.e. single vertices and cycle edges."""
    singles = max(weights[v] for v in cycle)
    pairs = max(weights[a] + weights[b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    return max(singles, pairs)


def _rows(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def alpha(n, edges, vertices=None):
    """Independence number of the graph (or of the subgraph induced by
    `vertices`), by branching on a vertex of largest remaining degree."""
    rows = _rows(n, edges)
    start = (1 << n) - 1
    if vertices is not None:
        start = 0
        for v in vertices:
            start |= 1 << v

    def rec(cand):
        if not cand:
            return 0
        best_v, best_d = -1, -1
        m = cand
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            d = (rows[v] & cand).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d == 0:
            return cand.bit_count()
        v = best_v
        return max(rec(cand & ~(1 << v)), 1 + rec(cand & ~rows[v] & ~(1 << v)))

    return rec(start)


def check_independent(edges, chosen):
    """Edge scan: no edge may have both endpoints in `chosen`."""
    for u, v in edges:
        if u in chosen and v in chosen:
            raise WrongAnswer(f"witness contains the edge ({u}, {v})")


def check_value(got, want, what="optimum"):
    if got != want:
        raise WrongAnswer(f"{what} {got} differs from the reference {want}")


def check_packing(spans):
    """Pairwise-compatibility scan over the selected members' union
    intervals: two connected members of an interval graph conflict exactly
    when their union intervals meet."""
    for i, (l1, r1) in enumerate(spans):
        for l2, r2 in spans[i + 1 :]:
            if l1 <= r2 and l2 <= r1:
                raise WrongAnswer(f"selected members {(l1, r1)} and {(l2, r2)} conflict")


def check_decomposition(n, edges, bags, tree_edges):
    """Tree decomposition clauses, checked directly: the tree is a tree,
    every vertex and edge lies in a bag, and each vertex's bags are
    connected in the tree."""
    count = len(bags)
    nbrs = [[] for _ in range(count)]
    for a, b in tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    if len(tree_edges) != count - 1 or not _connected(nbrs, set(range(count))):
        raise WrongAnswer("witness decomposition is not a tree")
    holding = [set() for _ in range(n)]
    for t, bag in enumerate(bags):
        for v in bag:
            holding[v].add(t)
    for v in range(n):
        if not holding[v] or not _connected(nbrs, holding[v]):
            raise WrongAnswer(f"bags holding vertex {v} are empty or disconnected")
    for u, v in edges:
        if not holding[u] & holding[v]:
            raise WrongAnswer(f"edge ({u}, {v}) lies in no bag")


def _connected(nbrs, nodes):
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y in nodes and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nodes)
