"""Conversion of refined tree decompositions to nice form.

A nice decomposition is rooted, has empty root and leaf bags, and every
other node is an introduce, forget, or join node. The conversion contracts
tree edges whose bags are nested, then emits the nice nodes in one walk down
from the root. It keeps, for every output node, some input node t with
X' <= X_t and U' = U_t & X', so the residual independence number never grows.
The output is a plain RefinedTreeDecomposition; `node_kinds` reads each
node's kind off its numbering and bags.

Node count of the output is at most NICE_NODE_FACTOR * (width(T) + 2) *
|V(T)| on valid inputs; the constant is asserted by the test suite. Only
the `nice` command converts: the MWIS solver walks the contracted tree of
`rooted_contraction` directly.
"""

import heapq

from .decomposition import make_decomposition, require_valid
from .errors import CapExceededError
from .graph import MAX_COUNT

#: Documented constant C in the node-count bound C * (width + 2) * |V(T)|.
NICE_NODE_FACTOR = 8

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


def rooted_contraction(td):
    """Contract tree edges whose bags are nested, then root the result.

    Each step takes the lowest node a with a nested neighbour and its lowest
    such neighbour b; the node with the smaller bag (b if they are equal) is
    merged into the other, which keeps its bag and U. In a valid
    decomposition, merging a node into a superset neighbour never makes two
    bags nested that were not, so no node below a gains a nested neighbour
    again: one sweep over the nodes, each with a heap of its nested
    neighbours, performs the same steps.

    The contracted tree is rooted at its lowest-id node of degree at most
    one. Returns (bags, refined, root, parent, children), children in
    ascending id; `make_nice` and the MWIS solver both walk this tree.
    """
    n = td.node_count
    bag = list(td.bags)
    ref = list(td.refined)
    nbrs = [set() for _ in range(n)]
    for a, b in td.tree_edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    alive = [True] * n

    def nested(a, b):
        return bag[b] <= bag[a] or bag[a] < bag[b]

    def merge(keep, drop):
        moved = nbrs[drop]
        moved.discard(keep)
        nbrs[keep].discard(drop)
        for c in moved:
            nbrs[c].discard(drop)
            nbrs[c].add(keep)
        nbrs[keep] |= moved
        alive[drop] = False
        return moved

    for a in range(n):
        if not alive[a]:
            continue
        heap = [b for b in nbrs[a] if nested(a, b)]
        heapq.heapify(heap)
        while heap:
            b = heapq.heappop(heap)
            if bag[b] <= bag[a]:
                for c in merge(a, b):
                    if nested(a, c):
                        heapq.heappush(heap, c)
            else:
                merge(b, a)
                break
    ids = [i for i in range(n) if alive[i]]
    remap = {old: new for new, old in enumerate(ids)}
    bags = [bag[i] for i in ids]
    refs = [ref[i] for i in ids]
    adj = [sorted(remap[b] for b in nbrs[a]) for a in ids]
    root = min(t for t in range(len(ids)) if len(adj[t]) <= 1)
    kids, up, stack = [None] * len(ids), [None] * len(ids), [root]
    while stack:
        t = stack.pop()
        kids[t] = [c for c in adj[t] if c != up[t]]
        for c in kids[t]:
            up[c] = t
        stack.extend(kids[t])
    return bags, refs, root, up, kids


def _nice_bag_total(bags, root, kids):
    """Sum of the bag sizes `make_nice` emits for this contracted tree.

    A step down from bag X to bag Y passes through the sizes |X| - 1 down to
    |X & Y|, then |X & Y| + 1 up to |Y|; a node with m children adds 2(m - 1)
    join copies of its bag.
    """

    def tri(a):
        return a * (a + 1) // 2

    def step(x, y):
        i = len(x & y)
        return tri(len(x) - 1) - tri(i - 1) + tri(len(y)) - tri(i)

    total = step(frozenset(), bags[root])
    for x, down in enumerate(kids):
        if not down:
            total += step(bags[x], frozenset())
        total += 2 * max(len(down) - 1, 0) * len(bags[x])
        total += sum(step(bags[x], bags[c]) for c in down)
    return total


def make_nice(graph, td):
    """Rewrite a valid refined tree decomposition into nice form.

    The tree of `rooted_contraction` is walked down from an empty root,
    children in ascending id; a childless node leads to an empty leaf.
    Each step down is a chain of one-vertex changes: first the upper bag's
    extra vertices are dropped, then the lower bag's are added, each largest
    id first, so the node above a drop introduces that vertex and the node
    above an add forgets it. A chain node whose bag lies inside the lower
    bag carries the lower U restricted to it, any other the upper U. A node
    with m >= 2 children becomes m - 1 chained joins, each with two copies
    of its bag and U: the first leads to the next child, the second is the
    next join or leads to the last child. A chain between equal bags is
    empty, so an all-empty decomposition gives one empty node. Node 0 of
    the result is the root and nodes are numbered breadth-first, so every
    tree edge (a, b) runs from the parent a to its child b.

    A nice form whose bags would hold over MAX_COUNT vertex ids in all is
    refused with CapExceededError before any node is built.
    """
    require_valid(graph, td)
    bags, refs, root0, _, down_of = rooted_contraction(td)
    total = _nice_bag_total(bags, root0, down_of)
    if total > MAX_COUNT:
        raise CapExceededError(
            f"make_nice refused: the nice form would hold {total} bag entries"
            f" > cap={MAX_COUNT}"
        )

    bag, ref, kids = [], [], []

    def new(b, u):
        bag.append(b)
        ref.append(u)
        kids.append([])
        return len(bag) - 1

    def chain(top, target, marked):
        """Step down from node `top` to a new node with bag `target`."""
        cur, u_top = bag[top], ref[top]
        for v in sorted(cur - target)[::-1] + sorted(target - cur)[::-1]:
            cur = cur ^ {v}
            below = new(cur, (marked if cur <= target else u_top) & cur)
            kids[top] = [below]
            top = below
        return top

    empty = frozenset()
    root = new(empty, empty)
    stack = [(root0, chain(root, bags[root0], refs[root0]))]
    while stack:
        x, t = stack.pop()
        down = down_of[x]
        if not down:
            chain(t, empty, empty)
            continue
        for c in down[:-1]:
            first, rest = new(bags[x], refs[x]), new(bags[x], refs[x])
            kids[t] = [first, rest]
            stack.append((c, chain(first, bags[c], refs[c])))
            t = rest
        stack.append((down[-1], chain(t, bags[down[-1]], refs[down[-1]])))

    order = [root]
    for t in order:  # breadth-first: the loop reads what it appends
        order.extend(kids[t])
    new_id = {old: i for i, old in enumerate(order)}
    return make_decomposition(
        graph,
        [bag[t] for t in order],
        [(new_id[t], new_id[c]) for t in order for c in kids[t]],
        [ref[t] for t in order],
    )


def node_kinds(td):
    """Each node's kind in a nice form numbered as `make_nice` numbers it:
    a leaf with no child, a join with two, and with one an introduce node
    when its bag is larger than the child's, a forget node otherwise."""
    kids = [[] for _ in td.bags]
    for a, b in td.tree_edges:
        kids[a].append(b)
    kinds = []
    for bag, down in zip(td.bags, kids):
        if len(down) != 1:
            kinds.append(JOIN if down else LEAF)
        else:
            kinds.append(INTRODUCE if len(bag) > len(td.bags[down[0]]) else FORGET)
    return tuple(kinds)
