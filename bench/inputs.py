"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: it imports nothing from
treealpha or from the repository's tests. Each generator takes a
`random.Random`, so the same seed always yields the same instance, and
returns plain Python data. The `format_*` functions serialise that data into
the program's text formats (`.gr`, `.td`, `.w`, all 1-indexed); the program
under test only ever sees that text.
"""

from fractions import Fraction


def random_intervals(rng, n, spacing=3, min_len=15, max_len=27):
    """`n` closed integer intervals with shuffled vertex ids.

    Left endpoints advance by about `spacing` per interval and lengths are
    uniform in [min_len, max_len], so every point is covered by about
    (min_len + max_len) / (2 * spacing) intervals: the clique number stays
    near 7 for the defaults whatever the seed.
    """
    spans = []
    for i in range(n):
        left = spacing * i + rng.randrange(spacing)
        spans.append((left, left + rng.randint(min_len, max_len)))
    rng.shuffle(spans)
    return spans


def interval_edges(intervals):
    """Edges (u, v), u < v, of the intersection graph of closed intervals."""
    order = sorted(range(len(intervals)), key=lambda v: intervals[v])
    edges = []
    for a, u in enumerate(order):
        right = intervals[u][1]
        for v in order[a + 1 :]:
            if intervals[v][0] > right:
                break
            edges.append((min(u, v), max(u, v)))
    edges.sort()
    return edges


def interval_clique_path(intervals):
    """Maximal cliques of an interval graph, in left-to-right order.

    Sweep the endpoints (a left endpoint before a right one at the same
    coordinate, since the intervals are closed); the active set just before
    a right endpoint that follows a left endpoint is a maximal clique.
    Consecutive cliques joined in a path form a clique tree.
    """
    events = []
    for v, (left, right) in enumerate(intervals):
        events.append((left, 0, v))
        events.append((right, 1, v))
    events.sort()
    active = set()
    cliques = []
    opened = False
    for _, kind, v in events:
        if kind == 0:
            active.add(v)
            opened = True
        else:
            if opened:
                cliques.append(frozenset(active))
                opened = False
            active.discard(v)
    return cliques


def rational_weights(rng, n):
    """Exact positive rationals p/q with p in [1, 999] and q in [1, 12]."""
    return [Fraction(rng.randint(1, 999), rng.randint(1, 12)) for _ in range(n)]


def cocycle(rng, n, window=0):
    """Complement of a cycle through all `n` vertices in a seeded order.

    Returns (cycle, edges, marked): `cycle` lists the vertices in cycle
    order, `edges` are the complement's edges, and `marked` holds the first
    `window` cycle vertices (empty for window 0).

    The marked vertices get evenly spaced ids, in seeded order along the
    cycle. Nice form introduces vertices in id order, so where the marked
    ids fall decides how many marked vertices each bag holds, and with it
    the 2^ell factor; fixing their spacing keeps the solve cost the same
    for every seed.
    """
    marked = [(2 * i + 1) * n // (2 * window) for i in range(window)]
    rest = [v for v in range(n) if v not in marked]
    rng.shuffle(marked)
    rng.shuffle(rest)
    cycle = marked + rest
    ring = {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in ring]
    return cycle, edges, frozenset(marked)


def complete_bipartite_edges(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def cycle_edges(n):
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def sharpness_edges(k):
    """K_k on hubs 0..k-1 with every hub pair joined by k private 2-paths."""
    edges = []
    nxt = k
    for i in range(k):
        for j in range(i + 1, k):
            for _ in range(k):
                edges.append((i, nxt))
                edges.append((j, nxt))
                nxt += 1
    return nxt, sorted(edges)


def random_graph_edges(rng, n, p=0.5):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def double_join_edges(n, edges):
    """Two copies of a base graph on `n` vertices plus every cross edge."""
    out = list(edges)
    out += [(u + n, v + n) for u, v in edges]
    out += [(i, n + j) for i in range(n) for j in range(n)]
    return 2 * n, sorted(out)


def format_graph(n, edges):
    lines = [f"p tw {n} {len(edges)}"]
    lines += [f"{u + 1} {v + 1}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def format_weights(weights):
    return "".join(
        f"{v + 1} {w.numerator}/{w.denominator}\n" for v, w in enumerate(weights)
    )


def format_td(n, bags, tree_edges, marked=None):
    """`.td` text; `marked` maps a bag index to its marked subset."""
    marked = marked or {}
    width = max((len(b) for b in bags), default=0)
    lines = [f"s td {len(bags)} {width} {n}"]
    for i, bag in enumerate(bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    for i, u in sorted(marked.items()):
        lines.append(" ".join(["r", str(i + 1)] + [str(v + 1) for v in sorted(u)]))
    lines += [f"{a + 1} {b + 1}" for a, b in tree_edges]
    return "\n".join(lines) + "\n"
