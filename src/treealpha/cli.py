"""Command-line surface.

Every command prints one machine-readable JSON report to stdout (rational
values appear as `p/q` strings, never floats) and is deterministic up to the
wall_time_s field; `gen` without -o prints the raw graph instead. Exit codes:
0 success, 1 usage or unreadable input, 2 validation failure or violated
precondition, 3 size cap exceeded, 4 internal fault (a failed self-check or an
exhausted memory). Ids in reports and error lines are 1-based, as in files.

Each `_cmd_*` reads its inputs through `_Inputs.parse` and returns the report's
parameters, results and artifacts (report key -> (path, text)); `validate`
appends its exit code. Only `main` writes artifacts, once the command has
succeeded, and prints.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import formats
from .decomposition import (
    compose_clique_cutset,
    independence_number,
    require_valid,
    residual_independence_number,
    trivial_decomposition,
    validate,
    width,
)
from .errors import (
    CapExceededError,
    GraphError,
    InvalidDecompositionError,
    ParseError,
    ResidualBoundViolation,
)
from .generators import generate
from .mwis import _solve_mwis
from .nice import FORGET, INTRODUCE, JOIN, LEAF, make_nice, node_kinds
from .oracle import _SUBSET_DP_LIMIT, DEFAULT_SUBSET_DP_CAP, tin_exact, treewidth_exact
from .packing import (
    PackingInstance,
    _solve_packing,
    _transferred,
    derived_graph,
    enumerate_F_subgraphs,
    pattern_by_name,
)
from .weights import WeightMap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _rational(f):
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        # Python's int-to-str digit limit, left as the interpreter sets it.
        limit = sys.get_int_max_str_digits()
        raise CapExceededError(
            f"rational result refused: a part has over cap={limit} digits"
        ) from None


def _one_indexed(vertices):
    return [v + 1 for v in sorted(vertices)]


class _Inputs:
    """Reads input files in order, recording each path and content digest
    for the report's `inputs`."""

    def __init__(self):
        self.seen = {}
        self.stdin = None  # the name of the input read from stdin

    def parse(self, name, path, parser, *args):
        """`parser(text, *args, source=...)` on the file at `path` (`-`: stdin).
        A byte that is not UTF-8 fails the read, or the hash for a stdin decoded
        with `surrogateescape`, and is a ParseError on its line. Stdin holds
        one input, so a second `-` is refused before it is read."""
        if path == "-":
            if self.stdin is not None:
                raise GraphError(
                    f"{self.stdin} and {name} both read stdin; give `-` to one input"
                )
            self.stdin = name
        shown = "<stdin>" if path == "-" else str(path)
        try:
            data = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
            digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
        except UnicodeError as e:
            line = len(e.object[: e.start + 1].splitlines())
            raise ParseError(shown, line, "not valid UTF-8 text") from None
        self.seen[name] = {"path": shown, "sha256": digest}
        return parser(data, *args, source=shown)


def _cmd_validate(args, inputs):
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    td = inputs.parse("td", args.td, formats.parse_td, g)
    report = validate(g, td)
    shown = [{"clause": v.clause, "detail": v.detail(1)} for v in report.violations]
    code = EXIT_OK if report.ok else EXIT_VIOLATION
    return {}, {"ok": report.ok, "violations": shown}, {}, code


def _cmd_measure(args, inputs):
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    td = inputs.parse("td", args.td, formats.parse_td, g)
    require_valid(g, td)
    results = {
        "width": width(td),
        "independence_number": independence_number(g, td),
        "residual_independence_number": residual_independence_number(g, td),
        "refinement_size": td.refinement_size,
        "nodes": td.node_count,
    }
    return {}, results, {}


def _cmd_nice(args, inputs):
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    td = inputs.parse("td", args.td, formats.parse_td, g)
    nice = make_nice(g, td)
    kinds = node_kinds(nice)
    results = {
        "nodes": nice.node_count,
        "kinds": {k: kinds.count(k) for k in (LEAF, INTRODUCE, FORGET, JOIN)},
        "width": width(nice),
        "residual_independence_number": residual_independence_number(g, nice),
    }
    return {}, results, {"td": (args.output, formats.format_td(nice))}


def _cmd_mwis(args, inputs):
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    td = inputs.parse("td", args.td, formats.parse_td, g)
    require_valid(g, td)
    w = WeightMap(g.n)
    if args.weights is not None:
        w = inputs.parse("weights", args.weights, formats.parse_weights, g.n)
    k = args.k if args.k is not None else residual_independence_number(g, td)
    value, chosen = _solve_mwis(g, w, td, k)
    results = {"weight": _rational(value), "independent_set": _one_indexed(chosen)}
    return {"k": k}, results, {}


def _cmd_pack(args, inputs):
    if args.family is not None and (
        args.patterns is not None or args.pattern_file or args.weights is not None
    ):
        raise GraphError(
            "pack --family carries its member weights; "
            "it takes no --patterns, --pattern-file or --weights"
        )
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    td = inputs.parse("td", args.td, formats.parse_td, g)
    require_valid(g, td)
    if args.family is not None:
        inst = inputs.parse("family", args.family, formats.parse_family, g)
    elif args.patterns is not None or args.pattern_file:
        pats = [pattern_by_name(p) for p in (args.patterns or "").split(",") if p]
        for i, path in enumerate(args.pattern_file or ()):
            pats.append(inputs.parse(f"pattern_{i}", path, formats.parse_graph))
        fam = enumerate_F_subgraphs(g, pats)
        w = WeightMap(g.n)
        if args.weights is not None:
            w = inputs.parse("weights", args.weights, formats.parse_weights, g.n)
        inst = PackingInstance(fam, tuple(w.total(s) for s in fam.members))
    else:
        raise GraphError("pack needs --family, --patterns, or --pattern-file")
    k = args.k if args.k is not None else independence_number(g, td)
    value, chosen, bags = _solve_packing(inst, td, k)
    artifacts = {}
    # The solve ran on conflict rows and bag masks; the derived graph and the
    # transferred decomposition, over the bags the solve ran on, are built
    # only to be written.
    if args.emit_derived:
        derived = derived_graph(inst.family)
        artifacts["derived_graph"] = (args.emit_derived, formats.format_graph(derived))
    if args.emit_derived_td:
        td2 = _transferred(inst.family, td, bags)
        artifacts["derived_td"] = (args.emit_derived_td, formats.format_td(td2))
    selected = [
        {"index": j + 1, "vertices": _one_indexed(inst.family.members[j])}
        for j in sorted(chosen)
    ]
    results = {"weight": _rational(value), "selected": selected}
    return {"k": k, "members": len(inst.family)}, results, artifacts


def _cmd_subset_dp(args, inputs):
    """`tin` and `tw`: one cap rule, lifted by --force to the graph's order
    (the oracle stops it at _SUBSET_DP_LIMIT)."""
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    cap = g.n if args.force else DEFAULT_SUBSET_DP_CAP
    if args.command == "tw":
        return {}, {"treewidth": treewidth_exact(g, cap=cap)}, {}
    value, witness = tin_exact(g, cap=cap)
    results = {"tree_independence_number": value, "witness_nodes": witness.node_count}
    artifacts = {}
    if args.output:
        artifacts["witness_td"] = (args.output, formats.format_td(witness))
    return {"exact": True}, results, artifacts


def _cmd_gen(args, inputs):
    base = None
    if args.kind == "double-join":
        if args.graph is None:
            raise GraphError("gen double-join needs --graph for the base graph")
        base = inputs.parse("graph", args.graph, formats.parse_graph)
    elif args.graph is not None:
        raise GraphError(f"gen {args.kind} reads no --graph; only double-join does")
    g = generate(args.kind, tuple(args.params), base=base)
    text = formats.format_graph(g)
    artifacts = {}
    if args.emit_trivial_td:
        td = trivial_decomposition(g)
        artifacts["trivial_td"] = (args.emit_trivial_td, formats.format_td(td))
    if not args.output:
        return {}, text, artifacts  # text results: the raw graph, for piping
    artifacts["graph"] = (args.output, text)
    parameters = {"kind": args.kind, "params": list(args.params)}
    return parameters, {"n": g.n, "m": g.m}, artifacts


def _cmd_compose(args, inputs):
    g = inputs.parse("graph", args.graph, formats.parse_graph)
    a, b, c = (
        inputs.parse(f"cut_{side}", path, formats.parse_vertex_set, g.n)
        for side, path in zip("abc", args.cut)
    )
    td_a = inputs.parse("td_a", args.td_a, formats.parse_td, g)
    td_b = inputs.parse("td_b", args.td_b, formats.parse_td, g)
    composed = compose_clique_cutset(g, a, b, c, td_a, td_b)
    results = {
        "nodes": composed.node_count,
        "width": width(composed),
        "independence_number": independence_number(g, composed),
    }
    return {}, results, {"td": (args.output, formats.format_td(composed))}


def build_parser():
    top = argparse.ArgumentParser(
        prog="treealpha",
        description=(
            "Tree decompositions measured by bag independence number: "
            "validation, nice-form conversion, exact tree-independence "
            "number, and exact solvers for max weight independent set and "
            "independent subgraph packing."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, td=True, weights=False, output=False):
        p.add_argument("--graph", required=True, help="graph file (.gr), `-` for stdin")
        if td:
            p.add_argument("--td", required=True, help="tree decomposition file (.td)")
        if weights:
            p.add_argument("--weights", help="vertex weight file, default all 1")
        if output:
            p.add_argument("-o", "--output", required=True, help="output path")

    p = sub.add_parser(
        "validate",
        help="check the decomposition clauses; exit 2 on any violation",
        description=(
            "Checks vertex coverage, edge coverage, subtree connectivity, "
            "marked-set containment, and tree-ness, reporting the first "
            "witness of each violated clause."
        ),
    )
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "measure",
        help="width, independence number, and residual independence number",
        description=(
            "Reports width(T), the maximum independence number over bags, "
            "and the residual variant that ignores each bag's marked subset."
        ),
    )
    common(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser(
        "nice",
        help="convert to a nice decomposition (introduce/forget/join nodes)",
        description=(
            "Rewrites the decomposition into nice form with empty root and "
            "leaf bags; bags only shrink and each marked set is the original "
            "one restricted to the new bag, so the residual independence "
            "number cannot grow."
        ),
    )
    common(p, output=True)
    p.set_defaults(func=_cmd_nice)

    p = sub.add_parser(
        "mwis",
        help="exact max weight independent set over the decomposition",
        description=(
            "Dynamic program over the decomposition with nested neighbours "
            "contracted, indexing tables by bag subsets that combine any part "
            "of the marked set with at most k residual vertices. Runs in "
            "O(2^ell * n^(k+1) * |T|) for residual bound k."
        ),
    )
    common(p, weights=True)
    p.add_argument("-k", type=int, help="residual bound; default: measured value")
    p.set_defaults(func=_cmd_mwis)

    p = sub.add_parser(
        "pack",
        help="exact max weight independent packing of connected subgraphs",
        description=(
            "Solves MWIS on the conflict graph of the family (members "
            "adjacent iff they share a vertex or an edge joins them), over "
            "the decomposition transferred to it without increasing its "
            "independence number. The solve reads each member's conflicts "
            "as one bit row; the conflict graph itself is built only for "
            "--emit-derived. Member weights come from the family file; with "
            "--patterns, each member weighs the sum of its vertex weights "
            "(default 1 each)."
        ),
    )
    common(p, weights=True)
    p.add_argument("--family", help="explicit family file (.fam)")
    p.add_argument(
        "--patterns",
        help="comma-separated pattern names (k1,k2,k3,p3,p4,c3,...)",
    )
    p.add_argument(
        "--pattern-file",
        action="append",
        help="custom connected pattern as a .gr file; repeatable",
    )
    p.add_argument("-k", type=int, help="independence bound; default: measured value")
    p.add_argument("--emit-derived", help="write the conflict graph (.gr)")
    p.add_argument("--emit-derived-td", help="write the transferred decomposition (.td)")
    p.set_defaults(func=_cmd_pack)

    force_help = (
        f"lift the n <= {DEFAULT_SUBSET_DP_CAP} cap; it lifts only to {_SUBSET_DP_LIMIT}"
    )
    p = sub.add_parser(
        "tin",
        help="exact tree-independence number with witness decomposition",
        description=(
            "Subset dynamic programming over elimination orderings; exact "
            f"for up to {DEFAULT_SUBSET_DP_CAP} vertices (--force raises the "
            f"cap, to {_SUBSET_DP_LIMIT} at most). The witness decomposition "
            "attains the optimum."
        ),
    )
    common(p, td=False)
    p.add_argument("--force", action="store_true", help=force_help)
    p.add_argument("-o", "--output", help="write the witness decomposition here")
    p.set_defaults(func=_cmd_subset_dp)

    p = sub.add_parser(
        "tw",
        help="exact treewidth (same subset dynamic program, size cost)",
    )
    common(p, td=False)
    p.add_argument("--force", action="store_true", help=force_help)
    p.set_defaults(func=_cmd_subset_dp)

    p = sub.add_parser(
        "gen",
        help="graph generators, including double-join and sharpness gadgets",
        description=(
            "Kinds: complete N, path N, cycle N, complete-bipartite M N, "
            "knn N, sharpness K (complete graph on K hubs, each edge "
            "replaced by K length-2 paths), double-join (--graph gives the "
            "base; two copies plus all cross edges). Without -o the graph "
            "text goes to stdout for piping."
        ),
    )
    p.add_argument("kind", help="generator id")
    p.add_argument("params", nargs="*", type=int, help="integer parameters")
    p.add_argument("--graph", help="base graph for double-join")
    p.add_argument("-o", "--output", help="output file; default stdout")
    p.add_argument(
        "--emit-trivial-td", help="also write the single-bag decomposition here"
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "compose",
        help="join two decompositions along a clique cutset",
        description=(
            "Given a cut-partition (A, B, C) with C a clique and "
            "decompositions of G[A+C] and G[B+C] (host vertex ids), links a "
            "bag containing C on each side; the result's independence "
            "number is the max of the parts."
        ),
    )
    common(p, td=False, output=True)
    p.add_argument(
        "--cut",
        nargs=3,
        required=True,
        metavar=("A", "B", "C"),
        help="vertex set files for the cut-partition",
    )
    p.add_argument("--td-a", required=True, help="decomposition of G[A+C]")
    p.add_argument("--td-b", required=True, help="decomposition of G[B+C]")
    p.set_defaults(func=_cmd_compose)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error; 2 is
        # reserved for validation failures here.
        return EXIT_USAGE if e.code else EXIT_OK
    started = time.monotonic()
    inputs = _Inputs()
    try:
        parameters, results, artifacts, *code = args.func(args, inputs)
        for path, text in artifacts.values():
            Path(path).write_text(text, "utf-8")
        if isinstance(results, str):
            sys.stdout.write(results)
            return EXIT_OK
        doc = {
            "command": args.command,
            "inputs": inputs.seen,
            "parameters": parameters,
            "results": results,
            "artifacts": {key: path for key, (path, _) in artifacts.items()},
            "wall_time_s": round(time.monotonic() - started, 6),
        }
        print(json.dumps(doc, indent=2))
        return code[0] if code else EXIT_OK
    except (ParseError, GraphError, OSError) as e:
        shown = e.text(1) if isinstance(e, GraphError) else e
        print(f"error: {shown}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidDecompositionError as e:
        print(f"error: {e.text(1)}", file=sys.stderr)
        return EXIT_VIOLATION
    except ResidualBoundViolation as e:
        shown = " ".join(str(v) for v in _one_indexed(e.witness))
        print(f"error: {e}; witness vertices {shown}", file=sys.stderr)
        return EXIT_VIOLATION
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (RuntimeError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
