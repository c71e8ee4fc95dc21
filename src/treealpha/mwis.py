"""Max Weight Independent Set over a refined tree decomposition.

The solver converts the decomposition to nice form and runs one bottom-up
pass over it. c[t, S] is the best weight of an independent set I of the
subtree's vertices with I restricted to the bag X_t equal to S. Table keys
are int bit masks (bit v stands for vertex v), and each node's table is
derived from its child's:

- leaf: {0: 0};
- introduce v: the child's entries, plus S | v with value c + w(v) for
  every child key S that holds no neighbor of v;
- forget v: the child's entries with v projected out, keeping the larger
  value (the entry without v on ties);
- join: c1[S] + c2[S] - w(S) over the common keys of the two children.

So every table is keyed by exactly the independent subsets of its bag.
The refinement promise bounds them: each independent S of X_t has at most
k vertices outside the marked part U_t, which leaves at most
2^|U_t| * sum_{s<=k} C(|X_t - U_t|, s) keys. The pass checks the promise
on every key of every node and reports a decomposition that breaks it via
ResidualBoundViolation, with k+1 independent residual vertices as witness.

Values are exact rationals end to end. One optimal witness set is rebuilt
top-down from the stored values, with the same tie rule as the forget
step, and re-verified before it is returned.
"""

from fractions import Fraction

from .errors import GraphError, ResidualBoundViolation
from .graph import is_independent, mask_of, members
from .nice import INTRODUCE, JOIN, LEAF, make_nice


def _check_residual(table, residual, k):
    """Raise ResidualBoundViolation if a key has more than k residual bits.

    The witness is the lexicographically first independent (k+1)-subset of
    the residual: every such subset is itself a key, and any key over the
    bound starts with one.
    """
    over = [s for s in table if (s & residual).bit_count() > k]
    if over:
        first = min(members(s & residual)[: k + 1] for s in over)
        raise ResidualBoundViolation(
            f"residual bound violated: independent set of size {k + 1} "
            f"in bag residual",
            witness=frozenset(first),
        )


def compute_tables(graph, weights, nice, k):
    """Bottom-up tables for every node of a nice decomposition.

    Returns {node: {key mask: value}}. Exposed for inspection and tests;
    `solve_mwis` is a thin shell over this plus witness reconstruction.
    """
    if k < 0:
        raise GraphError("residual bound k must be nonnegative")
    td = nice.td
    tables = {}
    for t in nice.postorder():
        kind = nice.kinds[t]
        kids = nice.children[t]
        if kind == LEAF:
            table = {0: Fraction(0)}
        elif kind == JOIN:
            other = tables[kids[1]]
            table = {
                s: x + other[s] - weights.total(members(s))
                for s, x in tables[kids[0]].items()
            }
        else:
            child = tables[kids[0]]
            v = nice.vertices[t]
            bit = 1 << v
            if kind == INTRODUCE:
                nbrs = mask_of(graph.adj[v])
                wv = weights[v]
                table = dict(child)
                for s, x in child.items():
                    if not s & nbrs:
                        table[s | bit] = x + wv
            else:  # FORGET
                table = {s: x for s, x in child.items() if not s & bit}
                for s, x in child.items():
                    if s & bit and x > table[s ^ bit]:
                        table[s ^ bit] = x
        _check_residual(table, mask_of(td.bags[t] - td.refined[t]), k)
        tables[t] = table
    return tables


def _rebuild_witness(nice, tables):
    """One optimal set, read top-down from the tables."""
    chosen = 0
    stack = [(nice.root, 0)]
    while stack:
        t, s = stack.pop()
        chosen |= s
        kind = nice.kinds[t]
        kids = nice.children[t]
        if kind == JOIN:
            stack.extend((c, s) for c in kids)
        elif kind != LEAF:
            bit = 1 << nice.vertices[t]
            child = tables[kids[0]]
            if kind == INTRODUCE:
                s &= ~bit
            # Forget: take v only where the forget step did, strictly better
            # (values are nonnegative, so -1 stands for "no entry with v").
            elif child.get(s | bit, -1) > child[s]:
                s |= bit
            stack.append((kids[0], s))
    return frozenset(members(chosen))


def solve_mwis(graph, weights, td, k):
    """Optimal independent set weight and one witness set.

    `k` is the promised residual independence bound of the decomposition; it
    bounds the table sizes, and a decomposition that breaks the promise is
    reported via ResidualBoundViolation rather than silently blowing up.
    The witness is re-verified before returning.
    """
    nice = make_nice(graph, td)
    tables = compute_tables(graph, weights, nice, k)
    value = tables[nice.root][0]
    witness = _rebuild_witness(nice, tables)
    if not is_independent(graph, witness):
        raise RuntimeError("internal: witness set is not independent")
    if weights.total(witness) != value:
        raise RuntimeError("internal: witness weight does not match optimum")
    return value, witness


def solve_mwis_plain(graph, weights, td, k):
    """The unrefined specialization: requires every marked set to be empty."""
    if any(td.refined):
        raise GraphError("solve_mwis_plain requires an unrefined decomposition")
    return solve_mwis(graph, weights, td, k)
