"""Spans around treealpha's public functions, recorded from outside.

The tracer never edits the program. `install` replaces each target with a
wrapper at the name through which callers look it up, e.g.
`treealpha.mwis.make_nice` (the name `solve_mwis` calls) or
`treealpha.packing.solve_mwis_plain` (the name `solve_packing` calls), and
`uninstall` puts the originals back. A target the program no longer has is
skipped and listed in `missing`, so the traced run keeps working while the
library is refactored.

A span is `[name, start_ns, end_ns, parent, request, counts]`: the name is
`<module>.<function>` of the function's home module, `parent` is the index
of the enclosing span (None for a request's root), and `counts` holds sizes
read off the call's arguments and result after the span has closed.
Spans stay in memory until the run writes them out.
"""

import importlib
import json
import statistics
from math import comb
from time import perf_counter_ns


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _text_bytes(args, kwargs, out):
    return {"bytes": len(_arg(args, kwargs, 0, "text"))}


def _cliques(args, kwargs, out):
    return {"cliques": len(out.bags)}


def _nice_nodes(args, kwargs, out):
    return {"nodes": len(out.kinds), "joins": out.kinds.count("join")}


def _bag_family(args, kwargs, out):
    # Sizes from the bag, its marked set and k (computed, not observed):
    # candidates = 2^|U| * sum_{s<=k} C(r, s) subsets examined, and
    # residual_checks = C(r, k+1) independence tests of the bound check,
    # where r = |X - U|.
    bag = _arg(args, kwargs, 1, "bag")
    refined = _arg(args, kwargs, 2, "refined")
    k = _arg(args, kwargs, 3, "k")
    r = len(frozenset(bag) - frozenset(refined))
    candidates = sum(comb(r, s) for s in range(min(k, r) + 1)) << len(refined)
    return {
        "sets": len(out),
        "candidates": candidates,
        "residual_checks": comb(r, k + 1),
    }


def _members(args, kwargs, out):
    return {"members": len(out)}


def _edges(args, kwargs, out):
    return {"m": out.m}


def _width(args, kwargs, out):
    return {"width": max(len(b) for b in out.bags) - 1}


def _states(args, kwargs, out):
    # The subset DP visits every subset of the vertex set (computed).
    return {"states": 2 ** _arg(args, kwargs, 0, "graph").n}


#: (module, attribute looked up by callers, span name, counter)
TARGETS = (
    ("treealpha.formats", "parse_graph", "formats.parse_graph", _text_bytes),
    ("treealpha.formats", "parse_td", "formats.parse_td", _text_bytes),
    ("treealpha.formats", "parse_weights", "formats.parse_weights", _text_bytes),
    ("treealpha.decomposition", "validate", "decomposition.validate", None),
    (
        "treealpha.decomposition",
        "residual_independence_number",
        "decomposition.residual_independence_number",
        None,
    ),
    (
        "treealpha.decomposition",
        "independence_number",
        "decomposition.independence_number",
        None,
    ),
    ("treealpha.decomposition", "alpha_of_subset", "exact.alpha_of_subset", None),
    ("treealpha.chordal", "clique_tree", "chordal.clique_tree", _cliques),
    ("treealpha.oracle", "clique_tree", "chordal.clique_tree", _cliques),
    ("treealpha.chordal", "is_chordal", "chordal.is_chordal", None),
    ("treealpha.mwis", "make_nice", "nice.make_nice", _nice_nodes),
    ("treealpha.mwis", "solve_mwis", "mwis.solve_mwis", None),
    ("treealpha.mwis", "compute_tables", "mwis.compute_tables", None),
    (
        "treealpha.mwis",
        "enumerate_bag_independent_sets",
        "mwis.enumerate_bag_independent_sets",
        _bag_family,
    ),
    ("treealpha.packing", "solve_mwis_plain", "mwis.solve_mwis_plain", None),
    ("treealpha.packing", "enumerate_F_subgraphs", "packing.enumerate_F_subgraphs", _members),
    ("treealpha.packing", "derived_graph", "packing.derived_graph", _edges),
    ("treealpha.packing", "derived_decomposition", "packing.derived_decomposition", _width),
    ("treealpha.packing", "solve_packing", "packing.solve_packing", None),
    ("treealpha.oracle", "tin_exact", "oracle.tin_exact", _states),
)

#: Spans inside which `Graph.bit_rows` calls for the span's own graph (its
#: first argument) skip the wrapper once that graph's rows have their span.
#: `is_independent` asks for the rows on every call, about a million times
#: per co-cycle request, nearly all of them from the bag-family enumeration.
QUIET_ROWS = ("mwis.enumerate_bag_independent_sets",)

REQUEST = "bench.request"
CHECK = "bench.check"


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._open = []
        self._request = None
        self._rows_built = {}
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0, 0, opened[-1] if opened else None, self._request, None]
            opened.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                opened.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        return traced

    def _wrap_bit_rows(self, fn):
        # Only the first call per graph in a request, the one that builds
        # the rows, gets a span; later calls go straight through.
        built = self._rows_built
        spanned = self._wrap(fn, "graph.bit_rows", None)

        def traced(graph, *args, **kwargs):
            if id(graph) in built:
                return fn(graph, *args, **kwargs)
            built[id(graph)] = graph
            return spanned(graph, *args, **kwargs)

        return traced

    def _quiet_rows(self, wrapped, owner, plain, traced):
        # Put the original `bit_rows` back for the call when the graph's
        # rows already have their span, so that the wrapper's cost on those
        # calls does not inflate this span's self time.
        built = self._rows_built

        def quiet(graph, *args, **kwargs):
            if id(graph) not in built:
                return wrapped(graph, *args, **kwargs)
            owner.bit_rows = plain
            try:
                return wrapped(graph, *args, **kwargs)
            finally:
                owner.bit_rows = traced

        return quiet

    def install(self):
        from treealpha.graph import Graph

        self.missing = []
        plain = Graph.__dict__["bit_rows"]
        rows = self._wrap_bit_rows(plain)
        self._saved.append((Graph, "bit_rows", plain))
        Graph.bit_rows = rows
        for module, attr, name, counter in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(fn, name, counter)
            if name in QUIET_ROWS:
                wrapped = self._quiet_rows(wrapped, Graph, plain, rows)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def request(self, rid, solve):
        """Run `solve()` as request `rid` under a root span; return its result."""
        self._request = rid
        self._rows_built.clear()
        try:
            return self._wrap(solve, REQUEST, None)()
        finally:
            self._request = None
            self._rows_built.clear()

    def span(self, name, fn, *args):
        """Call `fn(*args)` inside a span of the benchmark's own."""
        return self._wrap(fn, name, None)(*args)

    def write(self, path, meta):
        """One JSON header line (`meta`), then one line per span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta}) + "\n")
            for i, (name, start, end, parent, rid, counts) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "name": name,
                    "start_ns": start - origin,
                    "end_ns": end - origin,
                    "parent": parent,
                    "request": rid,
                }
                if counts:
                    doc["counts"] = counts
                f.write(json.dumps(doc) + "\n")


def summarize(spans):
    """Per-name totals over a list of spans.

    Returns (stats, requests): stats[name] has `calls`, `busy_ns` (inclusive
    time), `self_ns` (time no child span covers) and each count summed,
    plus `max_<count>`; requests lists the root span durations in ns.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    stats = {}
    requests = []
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        s["calls"] += 1
        s["busy_ns"] += end - start
        s["self_ns"] += end - start - child_ns[i]
        for key, value in (counts or {}).items():
            s[key] = s.get(key, 0) + value
            s["max_" + key] = max(s.get("max_" + key, 0), value)
        if name == REQUEST:
            requests.append(end - start)
    return stats, requests


def layer_metrics(spans, untraced_p50_s):
    """The per-layer metrics of BENCHMARK.json from one traced run.

    Times and counts are means per traced request; `*_max` and `derived_width`
    are maxima over the run. `mwis.candidate_yield` is family sets over
    candidates examined, both summed over the run (its base is reported as
    `mwis.candidates`).
    """
    stats, requests = summarize(spans)
    n = max(len(requests), 1)
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0}

    def get(name, key):
        return stats.get(name, empty).get(key, 0)

    def busy(name):
        return get(name, "busy_ns") / n / 1e9

    def self_s(name):
        return get(name, "self_ns") / n / 1e9

    def per_request(name, key):
        return get(name, key) / n

    parse_names = [x for x in stats if x.startswith("formats.")]
    family = "mwis.enumerate_bag_independent_sets"
    candidates = get(family, "candidates")
    traced_p50 = statistics.median(requests) / 1e9 if requests else 0.0
    layer_self = sum(
        s["self_ns"] for name, s in stats.items() if not name.startswith("bench.")
    )
    return {
        "formats.parse_s": sum(busy(x) for x in parse_names),
        "formats.input_bytes": sum(per_request(x, "bytes") for x in parse_names),
        "graph.bit_rows_s": busy("graph.bit_rows"),
        "graph.bit_rows_builds": per_request("graph.bit_rows", "calls"),
        "exact.alpha_s": busy("exact.alpha_of_subset"),
        "exact.alpha_calls": per_request("exact.alpha_of_subset", "calls"),
        "chordal.clique_tree_s": busy("chordal.clique_tree"),
        "chordal.cliques": per_request("chordal.clique_tree", "cliques"),
        "decomposition.validate_s": busy("decomposition.validate"),
        "nice.make_nice_s": busy("nice.make_nice"),
        "nice.nodes": per_request("nice.make_nice", "nodes"),
        "nice.join_nodes": per_request("nice.make_nice", "joins"),
        "mwis.tables_s": busy("mwis.compute_tables"),
        "mwis.enumerate_s": busy(family),
        "mwis.enumerate_calls": per_request(family, "calls"),
        "mwis.family_total": per_request(family, "sets"),
        "mwis.family_max": get(family, "max_sets"),
        "mwis.candidates": candidates / n,
        "mwis.candidate_yield": get(family, "sets") / candidates if candidates else 0.0,
        "mwis.residual_checks": per_request(family, "residual_checks"),
        "mwis.witness_s": self_s("mwis.solve_mwis"),
        "packing.family_s": busy("packing.enumerate_F_subgraphs"),
        "packing.members": per_request("packing.enumerate_F_subgraphs", "members"),
        "packing.derived_graph_s": busy("packing.derived_graph"),
        "packing.derived_m": per_request("packing.derived_graph", "m"),
        "packing.derived_td_s": busy("packing.derived_decomposition"),
        "packing.derived_width": get("packing.derived_decomposition", "max_width"),
        "packing.verify_s": self_s("packing.solve_packing"),
        "oracle.subset_dp_s": self_s("oracle.tin_exact"),
        "oracle.states": per_request("oracle.tin_exact", "states"),
        "trace.request_p50_s": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50_s,
        "trace.layer_share": layer_self / sum(requests) if requests else 0.0,
        "trace.check_s": busy(CHECK),
        "trace.spans": len(spans) / n,
    }


def self_time_table(spans):
    """Rows (name, calls per request, self s per request, share of request
    time), largest self time first; the shares sum to 1 by construction."""
    stats, requests = summarize(spans)
    n = max(len(requests), 1)
    total = sum(requests) or 1
    rows = [
        (name, s["calls"] / n, s["self_ns"] / n / 1e9, s["self_ns"] / total)
        for name, s in stats.items()
    ]
    rows.sort(key=lambda r: -r[2])
    return rows
