"""Max Weight Independent Set over a refined tree decomposition.

One bottom-up pass runs over the tree of `nice.rooted_contraction`, nested
neighbours contracted, children taken largest id first; no nice form is
built. c[t, S] is the best weight of an independent set I of the subtree's
vertices with I & X_t = S, and t's table maps every independent subset S of
X_t (an int bit mask, bit v for vertex v) to c[t, S]:

- child c passes its parent p one projection onto X_c & X_p: for each key
  S', the max of c[c, S] over the keys S with S & X_p = S', and for the
  witness the numerically smallest such S attaining it;
- t starts from its largest-id child's projection (a leaf from {0: 0}) and
  extends it over the rest of X_t one vertex v at a time, smallest id
  first: S | v gets c[t, S] + w(v) for each key S with no neighbour of v.
  Every key lies in D, the part of X_t the table already spans, so those
  keys are the table's subsets of D - N(v). Where WALK * 2^|D - N(v)| is
  below the table's size they are found by walking those subsets and
  looking each up, otherwise by one scan of the table; so adding v costs
  the smaller of the table's size and 2^|D - N(v)|, times a constant;
- each further child c adds its projection at S & X_c less w(S & X_c).

The refinement promise bounds each table by 2^|U_t| * sum_{s<=k}
C(|X_t - U_t|, s) keys. The promise is checked after every added vertex,
so a broken one fails before its bag is enumerated, as a
ResidualBoundViolation with k+1 independent residual vertices as witness.
Before a vertex is added, the keys it would add are counted wherever the
table could pass MAX_COUNT keys; over the cap is a CapExceededError. The
count is of real keys, not of the promise's bound, so a wide bag with few
independent sets (a clique) still runs.
Weights are scaled once by the lcm L of their denominators; the pass runs
on ints and the optimum is value / L. Every table value is about as wide
as L, so an L over MAX_SCALE_BITS bits is refused before the pass, as a
CapExceededError. The witness is read top-down and re-verified against the
rational weights. Answers, witnesses and violations are those of the
textbook pass over `make_nice`'s form, which forgets X_c - X_p smallest id
first and keeps v only where strictly better.
"""

from fractions import Fraction
from math import lcm

from .decomposition import require_valid
from .errors import CapExceededError, GraphError, ResidualBoundViolation
from .graph import MAX_COUNT, is_independent, mask_of, members
from .nice import rooted_contraction

#: Walking one subset of `free` costs about as much as testing 2-3 keys
#: in a scan, so the walk runs only where WALK * 2^|free| is below the
#: table's size, where it never costs more than the scan.
WALK = 4

#: Widest lcm of the weights' denominators the pass scales by, in bits.
MAX_SCALE_BITS = 1 << 18


def _dp(rows, weights, td, k):
    """Optimum, witness set and the final table of every contracted node.

    The graph is given by its neighbour rows: `rows[v]` is the bit set of
    vertex v's neighbours, as `Graph.bit_rows()` builds them. `td` must be a
    valid decomposition of that graph; it is not checked here, and only its
    tree, bags and marked sets are read. `weights[v]` is the exact
    nonnegative weight of vertex v (Fraction or int), read once per vertex.
    Tables map keys to L * c[t, S], indexed by the node ids of
    `rooted_contraction(td)`. The witness is re-verified against `rows`.
    """
    if k < 0:
        raise GraphError("residual bound k must be nonnegative")
    weights = [weights[v] for v in range(len(rows))]
    scale = 1
    for q in {x.denominator for x in weights}:
        scale = lcm(scale, q)
        if scale.bit_length() > MAX_SCALE_BITS:
            raise CapExceededError(
                "mwis refused: the lcm of the weights' denominators "
                f"passes cap={MAX_SCALE_BITS} bits"
            )
    w = [x.numerator * (scale // x.denominator) for x in weights]
    bags, refs, root, parent, kids = rooted_contraction(td)
    bag = [mask_of(b) for b in bags]
    order, stack = [], [root]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(reversed(kids[t]))

    def extend(table, t, start):
        """Grow `table` over X_t - `start`, checking each added vertex."""
        residual = bag[t] & ~mask_of(refs[t])
        done = start
        for i, v in enumerate(members(bag[t] & ~start)):
            bit, avoid, wv = 1 << v, rows[v], w[v]
            # Every key lies in `done`, so the keys that can take v are the
            # subsets of `free` in the table: where those subsets are few,
            # walk them and look each up instead of scanning the table.
            free = done & ~avoid
            done |= bit
            walk = WALK << free.bit_count() < len(table)
            if walk:
                grown, sub = {}, free
                while True:
                    x = table.get(sub)
                    if x is not None:
                        grown[sub | bit] = x + wv
                    if not sub:
                        break
                    sub = (sub - 1) & free
            # Counted only where the table could double past the cap.
            if 2 * len(table) > MAX_COUNT and len(table) + (
                len(grown) if walk else sum(not s & avoid for s in table)
            ) > MAX_COUNT:
                raise CapExceededError(
                    f"mwis refused: the table of a bag of {len(bags[t])} vertices, "
                    f"{len(refs[t])} marked, would pass cap={MAX_COUNT} keys"
                )
            if not walk:
                grown = {s | bit: x + wv for s, x in table.items() if not s & avoid}
            table.update(grown)
            if i and not bit & residual:
                continue
            for s in grown if i else table:
                if (s & residual).bit_count() > k:
                    # Every independent (k+1)-subset of the residual is a
                    # key; report the lexicographically first.
                    first = min(
                        members(s & residual)[: k + 1]
                        for s in table
                        if (s & residual).bit_count() > k
                    )
                    raise ResidualBoundViolation(
                        f"residual bound violated: independent set of size "
                        f"{k + 1} in bag residual",
                        witness=frozenset(first),
                    )
        return table

    tables, picks = {}, {}
    for t in reversed(order):
        if not kids[t]:
            tables[t] = extend({0: 0}, t, 0)
        p = parent[t]
        keep = 0 if p is None else bag[t] & bag[p]
        best, pick = {}, {}
        table = tables[t]
        for s, x in table.items():
            key = s & keep
            y = best.get(key, -1)
            if x > y or x == y and s < pick[key]:
                best[key] = x
                pick[key] = s
        picks[t] = pick
        if p is None:
            value = best[0]
        elif t == kids[p][-1]:
            tables[p] = extend(best, p, keep)
        else:
            for key in best:
                best[key] -= sum(w[v] for v in members(key))
            tables[p] = {s: x + best[s & keep] for s, x in tables[p].items()}

    chosen, union = [0] * len(bags), 0
    for t in order:
        p = parent[t]
        chosen[t] = picks[t][0 if p is None else chosen[p] & bag[t]]
        union |= chosen[t]
    witness = frozenset(members(union))
    value = Fraction(value, scale)
    if any(map(union.__and__, map(rows.__getitem__, witness))):
        raise RuntimeError("internal: witness set is not independent")
    if sum(weights[v] for v in witness) != value:
        raise RuntimeError("internal: witness weight does not match optimum")
    return value, witness, tables


def solve_mwis(graph, weights, td, k):
    """Optimal independent set weight and one witness set.

    `k` is the promised residual independence bound of the decomposition; it
    bounds the table sizes, and a decomposition that breaks the promise is
    reported via ResidualBoundViolation rather than silently blowing up.
    The pass runs on the graph's bit rows; the witness is re-verified
    against those rows and again against the adjacency lists.
    """
    require_valid(graph, td)
    return _solve_mwis(graph, weights, td, k)


def _solve_mwis(graph, weights, td, k):
    """`solve_mwis` less its check of `td`."""
    value, witness, _ = _dp(graph.bit_rows(), weights, td, k)
    if not is_independent(graph, witness):
        raise RuntimeError("internal: witness set is not independent")
    return value, witness
