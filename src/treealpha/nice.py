"""Conversion of refined tree decompositions to nice form.

A nice decomposition is rooted, has empty root and leaf bags, and every
other node is an introduce, forget, or join node. The conversion contracts
tree edges whose bags are nested, testing them on the bags' int masks, then
emits the nice nodes in one walk down from the root. It keeps, for every
output node, some input node t with X' <= X_t and U' = U_t & X', so the
residual independence number never grows.
The output is a plain RefinedTreeDecomposition; `node_kinds` reads each
node's kind off its numbering and bags.

Node count of the output is at most NICE_NODE_FACTOR * (width(T) + 2) *
|V(T)| on valid inputs; the constant is asserted by the test suite. Only
the `nice` command converts: the MWIS solver walks the contracted tree of
`rooted_contraction` directly, on the masks it already holds. On a clique
tree no two adjacent bags are nested, and the contraction only roots the
tree.
"""

import heapq

from .decomposition import make_decomposition, require_valid
from .errors import CapExceededError
from .graph import MAX_COUNT, mask_of

#: Documented constant C in the node-count bound C * (width + 2) * |V(T)|.
NICE_NODE_FACTOR = 8

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


def rooted_contraction(bags, edges):
    """Contract tree edges whose bags are nested, then root the result.

    `bags` are the bags as int masks (bit v for vertex v) and `edges` the
    tree edges of a valid decomposition; neither is checked here. Each step
    takes the lowest node a with a nested neighbour and its lowest such
    neighbour b; the node with the smaller bag (b if they are equal) is
    merged into the other, which is kept with its own bag and U. Merging a
    node into a superset neighbour never makes two bags nested that were
    not, so only the ends of the edges nested in the input ever have a
    nested neighbour: one pass finds those edges, and where there are none
    (as on a clique tree) nothing is merged. Otherwise one sweep over their
    ends in ascending id, each with a heap of its nested neighbours,
    performs the same steps.

    The contracted tree is rooted at its lowest-id node of degree at most
    one. Returns (ids, order, parent, children): `ids` the kept input nodes
    ascending, the contracted tree's nodes their positions in `ids`, `order`
    those nodes parent first with subtrees in ascending id (`order[0]` is
    the root), and children in ascending id. `make_nice` and the MWIS pass
    both walk this tree.
    """
    n = len(bags)
    adj = [[] for _ in range(n)]
    ends = set()
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        both = bags[a] & bags[b]
        if both == bags[a] or both == bags[b]:
            ends.add(a)
            ends.add(b)
    if ends:
        ids, adj = _contract(bags, adj, sorted(ends))
    else:
        ids = range(n)
        for row in adj:
            row.sort()
    root = next(t for t, row in enumerate(adj) if len(row) <= 1)
    kids, up, order, stack = [None] * len(ids), [None] * len(ids), [], [root]
    while stack:
        t = stack.pop()
        order.append(t)
        kids[t] = [c for c in adj[t] if c != up[t]]
        for c in kids[t]:
            up[c] = t
        stack.extend(reversed(kids[t]))
    return ids, order, up, kids


def _contract(bags, adj, ends):
    """The sweep of `rooted_contraction` from each of `ends` in ascending
    id: the kept nodes and their neighbour lists over positions in them."""
    nbrs = list(map(set, adj))
    alive = [True] * len(bags)

    def nested(a, b):
        both = bags[a] & bags[b]
        return both == bags[a] or both == bags[b]

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

    for a in ends:
        if not alive[a]:
            continue
        heap = [b for b in nbrs[a] if nested(a, b)]
        heapq.heapify(heap)
        while heap:
            b = heapq.heappop(heap)
            if not bags[b] & ~bags[a]:
                for c in merge(a, b):
                    if nested(a, c):
                        heapq.heappush(heap, c)
            else:
                merge(b, a)
                break
    ids = [i for i, kept in enumerate(alive) if kept]
    remap = {old: new for new, old in enumerate(ids)}
    return ids, [sorted(remap[b] for b in nbrs[a]) for a in ids]


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
    masks = list(map(mask_of, td.bags))
    ids, walk, _, down_of = rooted_contraction(masks, td.tree_edges)
    root0 = walk[0]
    bags = [td.bags[i] for i in ids]
    refs = [td.refined[i] for i in ids]
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
