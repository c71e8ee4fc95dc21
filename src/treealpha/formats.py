"""Text file formats. All vertex and bag ids are 1-indexed on disk.

Graph (.gr):   header `p tw <n> <m>`, then m lines `<u> <v>`; `c` comments.
Decomposition (.td): header `s td <#bags> <max-bag-size> <n>`, bag lines
    `b <id> <v...>`, optional `r <id> <u...>` lines declaring the marked
    subset of bag <id>, remaining lines `<i> <j>` are tree edges.
Weights (.w):  lines `<v> <value>` with value a rational `p/q` or a decimal
    literal, parsed exactly; missing vertices default to weight 1.
Family (.fam): header `s fam <count>`, lines `f <id> <weight> <size> <v...>`.
Vertex set (.set): whitespace-separated vertex ids.

Before anything is allocated, header counts (<n>, <#bags>, <count>) are
capped at MAX_COUNT and a weight literal's length plus decimal exponent at
MAX_WEIGHT_DIGITS; over a cap is a ParseError naming the line.

`_Reader` is the one grammar: it reads comments, blank lines and any line
ends, and names the line of every ParseError. Canonical graph and weight
text (what the writers emit: single spaces, `\n` line ends, no comments,
ascending edge lines, `p/q` weights) is first read in bulk, checked by
whole-text operations; when any of those checks fails, `_Reader` reads the
text again, so the result or the error is the one it gives.

Writers emit canonical form (sorted members, sorted edges), so write-read
round trips are identity on canonicalized objects.
"""

import re
from contextlib import suppress
from fractions import Fraction

from .decomposition import _EMPTY, make_decomposition
from .errors import ParseError
from .graph import MAX_COUNT, Graph, build_graph
from .packing import PackingInstance, SubgraphFamily, _is_connected_subset
from .weights import WeightMap

MAX_WEIGHT_DIGITS = 1000

# Canonical shapes. Possessive repeats keep no backtracking state per line.
_PART = f"[0-9]{{1,{(MAX_WEIGHT_DIGITS - 1) // 2}}}+"  # p/q within the cap
_GRAPH_SHAPE = re.compile(r"p tw ([0-9]++) ([0-9]++)(?:\n[0-9]++ [0-9]++)*+\n?")
_WEIGHTS_SHAPE = re.compile(rf"(?:[0-9]++ {_PART}/{_PART}(?:\n|\Z))*+")


class _Reader:
    """Checked fields of one input text. Iterating yields the tokens of each
    non-blank, non-comment line and keeps its number in `no` for `fail` (0
    once the text is exhausted); a header (`usage`, e.g. "p tw <n> <m>") must
    come before any other line. A check made after the loop passes `fail`
    the number of the line it reports on."""

    def __init__(self, text, source, usage=None):
        self.text, self.source, self.usage = text, source, usage
        self.no, self.seen = 0, usage is None

    def __iter__(self):
        for i, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("c"):
                self.no = i
                tok = line.split()
                if not self.seen and tok[0] != self.usage.split()[0]:
                    self.fail(f"line before `{self.usage}` header")
                yield tok
        self.no = 0
        if not self.seen:
            self.fail(f"missing `{self.usage}` header")

    def fail(self, message, no=None):
        raise ParseError(self.source, self.no if no is None else no, message)

    def header(self, tok, what):
        """Check a header line against `usage`; returns its count field, capped
        since it sizes what is allocated, and the fields after it."""
        if self.seen:
            self.fail("duplicate header line")
        form = self.usage.split()
        if len(tok) != len(form) or tok[1] != form[1]:
            self.fail(f"header must be `{self.usage}`")
        self.seen = True
        return self.integer(tok[2], what, 0, MAX_COUNT), tok[3:]

    def integer(self, token, what, lo=None, hi=None):
        """An int field, checked against [lo, hi] when `hi` is given."""
        try:
            v = int(token)
        except ValueError:
            self.fail(f"non-integer {what} {token!r}")
        if hi is not None and not lo <= v <= hi:
            self.fail(f"{what} {v} outside [{lo}, {hi}]")
        return v

    def ids(self, tokens, what, hi):
        """1-based ids in [1, hi], returned 0-based."""
        return [self.integer(t, what, 1, hi) - 1 for t in tokens]

    def pair(self, tok, what, hi):
        """`ids` of a two-id line."""
        if len(tok) != 2:
            self.fail(f"line must hold two {what}s")
        return self.ids(tok, what, hi)

    def weight(self, token):
        """Exact nonnegative rational whose length plus exponent is capped."""
        size = len(token)
        if size <= MAX_WEIGHT_DIGITS and "e" in token.lower():
            with suppress(ValueError):  # Fraction rejects a bad exponent below
                size += abs(int(token.lower().partition("e")[2]))
        if size > MAX_WEIGHT_DIGITS:
            self.fail(f"weight literal over {MAX_WEIGHT_DIGITS} digits")
        try:
            f = Fraction(token)
        except (ValueError, ZeroDivisionError):
            self.fail(f"unparsable weight {token!r}")
        if f < 0:
            self.fail(f"negative weight {token}")
        return f


def _bulk_graph(text):
    """The graph of canonical text with at least n ids, or None when a check
    fails. Ids map through a table of the n id strings, so a bad id is a
    KeyError. Edge lines must ascend with u < v, which leaves each row
    sorted and duplicate-free; isolated vertices keep the shared empty
    tuple."""
    head = _GRAPH_SHAPE.fullmatch(text)
    if head is None:
        return None
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:  # over the interpreter's digit limit
        return None
    if n > MAX_COUNT:
        return None
    tokens = text.split()
    del tokens[:4]
    if len(tokens) != 2 * m or len(tokens) < n:
        return None
    ids = map({str(v + 1): v for v in range(n)}.__getitem__, tokens)
    rows = [[] for _ in range(n)]
    last = -1
    try:
        for u, v in zip(ids, ids):
            key = u * n + v
            if key <= last or u >= v:
                return None
            last = key
            rows[u].append(v)
            rows[v].append(u)
    except KeyError:
        return None
    return Graph(n, tuple(map(tuple, rows)))


def parse_graph(text, source="<graph>"):
    graph = _bulk_graph(text)
    return _read_graph(text, source) if graph is None else graph


def _read_graph(text, source):
    r = _Reader(text, source, "p tw <n> <m>")
    edges = []
    for tok in r:
        if tok[0] == "p":
            n, rest = r.header(tok, "vertex count")
            m = r.integer(rest[0], "edge count")
        else:
            u, v = r.pair(tok, "endpoint", n)
            if u == v:
                r.fail(f"self-loop at {u + 1}")
            edges.append((u, v))
    if len(edges) != m:
        r.fail(f"header announced {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def format_graph(graph):
    out = [f"p tw {graph.n} {graph.m}"]
    out += [f"{u + 1} {v + 1}" for u, v in graph.edges()]
    return "\n".join(out) + "\n"


def parse_td(text, graph, source="<td>"):
    r = _Reader(text, source, "s td <#bags> <max-bag-size> <n>")
    bag_of, refined, lines, edges = {}, {}, {}, []
    for tok in r:
        if tok[0] == "s":
            count, rest = r.header(tok, "bag count")
            r.integer(rest[0], "max bag size")
            n = r.integer(rest[1], "vertex count")
            if n != graph.n:
                r.fail(f"decomposition is over {n} vertices, graph has {graph.n}")
        elif tok[0] in ("b", "r"):
            what, found = ("bag", bag_of) if tok[0] == "b" else ("refined set", refined)
            if len(tok) < 2:
                r.fail("missing bag id")
            bid = r.integer(tok[1], "bag id", 1, count) - 1
            if bid in found:
                r.fail(f"duplicate {what} {bid + 1}")
            found[bid] = frozenset(r.ids(tok[2:], "vertex", graph.n))
            if found is refined:
                lines[bid] = r.no
        else:
            edges.append(r.pair(tok, "bag id", count))
    bags = [bag_of.get(bid, _EMPTY) for bid in range(count)]
    for bid, u in refined.items():
        if not u <= bags[bid]:
            missing = min(u - bags[bid]) + 1
            r.fail(f"refined vertex {missing} is not in bag {bid + 1}", lines[bid])
    refs = [refined.get(bid, _EMPTY) for bid in range(count)]
    return make_decomposition(graph, bags, edges, refs)


def format_td(td):
    maxbag = max((len(b) for b in td.bags), default=0)
    out = [f"s td {td.node_count} {maxbag} {td.n}"]
    for i, b in enumerate(td.bags):
        out.append("b " + " ".join([str(i + 1)] + [str(v + 1) for v in sorted(b)]))
    for i, u in enumerate(td.refined):
        if u:
            out.append("r " + " ".join([str(i + 1)] + [str(v + 1) for v in sorted(u)]))
    out += [f"{a + 1} {b + 1}" for a, b in td.tree_edges]
    return "\n".join(out) + "\n"


def _bulk_weights(text, n):
    """The weights of canonical `<v> <p>/<q>` text, or None when a check
    fails."""
    if _WEIGHTS_SHAPE.fullmatch(text) is None:
        return None
    tokens = text.replace("/", " ").split()
    parts = iter(tokens)
    values = {}
    try:
        for v, p, q in zip(parts, parts, parts):
            values[int(v) - 1] = Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError):
        return None
    if 3 * len(values) != len(tokens):  # a vertex repeats
        return None
    if values and (min(values) < 0 or max(values) >= n):
        return None
    return WeightMap._from_checked(n, values)


def parse_weights(text, n, source="<weights>"):
    weights = _bulk_weights(text, n)
    return _read_weights(text, n, source) if weights is None else weights


def _read_weights(text, n, source):
    r = _Reader(text, source)
    values = {}
    for tok in r:
        if len(tok) != 2:
            r.fail("weight line must be `<v> <value>`")
        v = r.integer(tok[0], "vertex", 1, n) - 1
        if v in values:
            r.fail(f"duplicate weight for vertex {v + 1}")
        values[v] = r.weight(tok[1])
    return WeightMap._from_checked(n, values)


def parse_family(text, graph, source="<family>"):
    r = _Reader(text, source, "s fam <count>")
    members, weights, lines = {}, {}, {}
    for tok in r:
        if tok[0] == "s":
            count, _ = r.header(tok, "member count")
        elif tok[0] == "f":
            if len(tok) < 4:
                r.fail("member line must be `f <id> <weight> <size> <v...>`")
            fid = r.integer(tok[1], "member id", 1, count) - 1
            if fid in members:
                r.fail(f"duplicate member {fid + 1}")
            weights[fid] = r.weight(tok[2])
            vs = members[fid] = frozenset(r.ids(tok[4:], "vertex", graph.n))
            lines[fid] = r.no
            if len(vs) != r.integer(tok[3], "member size"):
                r.fail(f"member {fid + 1} announced {tok[3]} vertices, found {len(vs)}")
        else:
            r.fail(f"unexpected line starting with {tok[0]!r}")
    if len(members) < count:
        r.fail(f"missing member id {min(set(range(count)) - members.keys()) + 1}")
    sets = [members[i] for i in range(count)]
    for i, s in enumerate(sets):
        if not s or not _is_connected_subset(graph, s):
            r.fail(f"member {i + 1} is empty or not connected", lines[i])
    fam = SubgraphFamily(graph, tuple(sets))
    return PackingInstance(fam, tuple(weights[i] for i in range(count)))


def parse_vertex_set(text, n, source="<set>"):
    r = _Reader(text, source)
    return frozenset(v for tok in r for v in r.ids(tok, "vertex", n))
