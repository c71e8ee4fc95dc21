"""treealpha benchmark: seeded solve requests through the public library.

One process, one thread, a closed loop with a single client: the next
request starts when the previous one has been checked. Each request parses
the serialised inputs, validates, measures k as the CLI does without -k,
solves, and checks the answer against the benchmark's own reference.

    python3 bench/run.py --workload interval-mwis --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload interval-mwis --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 25

Untraced runs print the end-to-end metrics, every time scaled to a
reference VM speed by a calibration timed next to it. Traced runs alternate
traced and untraced requests on the same inputs, print the per-layer
metrics and write the spans to bench/out/spans-<workload>.jsonl. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from itertools import combinations

import inputs
import reference
from tracing import CHECK, Tracer, layer_metrics, self_time_table

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

#: Fresh processes timed from spawn to their first request; setup_s is the median.
SETUP_PROBES = 5
#: Enough requests for a tail percentile with ten samples beyond it.
MIN_REQUESTS = 11
#: The timed phase never runs longer, so a run ends within its 180 s limit.
LOOP_CAP_S = 120
#: Median seconds of one calibration on the VM where BENCHMARK.json was
#: made (2 vCPUs, Python 3.11.7); scaled times are seconds at that speed.
REFERENCE_CAL_S = 0.013


def import_program():
    """Import treealpha from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "treealpha", "__init__.py")):
        sys.exit(f"error: no treealpha sources under {SRC}")
    sys.path.insert(0, SRC)
    import treealpha

    if os.path.dirname(os.path.dirname(os.path.abspath(treealpha.__file__))) != SRC:
        sys.exit(f"error: treealpha was imported from {treealpha.__file__}")


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def tail(times):
    """(p, value): the highest whole percentile p with at least ten samples
    beyond it, by nearest rank."""
    n = len(times)
    p = max(0, 100 * (n - 10) // n)
    rank = max(1, -(-p * n // 100))
    return p, sorted(times)[rank - 1]


def probe_setup(args):
    """Seconds from spawning a fresh workload process until it is ready to
    send its first timed request."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("error: setup probe failed")
    return ready - start


def attempt(wl, inst, failures, tracer=None, rid=None):
    """One request; returns its seconds. A raise or a wrong answer is
    appended to `failures` and the run goes on."""

    def solve_and_check():
        answer = wl.solve(inst)
        if tracer is None:
            wl.check(inst, answer)
        else:
            tracer.span(CHECK, wl.check, inst, answer)

    start = time.perf_counter()
    try:
        if tracer is None:
            solve_and_check()
        else:
            tracer.request(rid, solve_and_check)
    except Exception as e:  # counted as a failed request; the loop goes on
        failures.append(f"{type(e).__name__}: {e}")
    return time.perf_counter() - start


class Calibration:
    """Fixed work of the benchmark's own, timed next to every measurement.

    It mixes what requests spend their time on (exact rational sums, int
    bit-mask branching, frozenset building) and never changes, so its time
    tracks the speed of the shared VM, which swings by up to a third within
    minutes. `scale` turns a measured time into seconds at the reference
    speed, using the calibrations just before and just after it.
    """

    def __init__(self):
        rng = random.Random("calibration")
        self.spans = inputs.random_intervals(rng, 1000)
        self.weights = inputs.rational_weights(rng, 1000)
        self.edges = inputs.random_graph_edges(rng, 36, 0.25)
        self.samples = [self.run()]

    def run(self):
        start = time.perf_counter()
        reference.interval_scheduling(self.spans, self.weights)
        reference.alpha(36, self.edges)
        sum(1 for c in combinations(range(32), 3) if frozenset(c) & {1, 2, 3})
        return time.perf_counter() - start

    def scale(self, seconds):
        """`seconds`, measured since the last calibration, at reference speed."""
        self.samples.append(self.run())
        return seconds * REFERENCE_CAL_S * 2 / sum(self.samples[-2:])

    def speed(self):
        """Median VM speed of this run relative to the reference."""
        return REFERENCE_CAL_S / statistics.median(self.samples)


def closed_loop(seconds, step):
    """Call `step(i)` for i = 0, 1, ... until `seconds` have passed and at
    least MIN_REQUESTS were sent, or LOOP_CAP_S have passed."""
    start = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and i >= MIN_REQUESTS or elapsed >= LOOP_CAP_S:
            return


def untraced(wl, pool, args, cal):
    """End-to-end metrics; every time is scaled to the reference speed by
    `cal`, and the unscaled medians are printed beside them."""
    setup_raw, setup = [], []
    for _ in range(SETUP_PROBES):
        setup_raw.append(probe_setup(args))
        setup.append(cal.scale(setup_raw[-1]))
    raw, times, failures = [], [], []

    def step(i):
        raw.append(attempt(wl, pool[i % len(pool)], failures))
        times.append(cal.scale(raw[-1]))

    closed_loop(args.seconds, step)
    attempted = len(times)
    verified = attempted - len(failures)
    p, tail_s = tail(times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_p50_s": (statistics.median(times), "s"),
        "request_tail_s": (tail_s, "s"),
        "throughput_rps": (verified / sum(times), "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "verified_ratio": (verified / attempted, "ratio"),
    }
    notes = {
        "setup_s": "median of %d fresh processes; unscaled %s"
        % (len(setup), " ".join(f"{x:.4f}" for x in setup_raw)),
        "request_p50_s": f"{attempted} requests; unscaled {statistics.median(raw):.4f} s,"
        f" VM speed {cal.speed():.3f} of the reference",
        "request_tail_s": f"p{p} of {attempted} requests; unscaled {tail(raw)[1]:.4f} s",
        "throughput_rps": f"verified requests per scaled request-second; {wl.size}",
        "peak_rss_mib": "ru_maxrss of this process after the timed phase",
        "verified_ratio": f"failed_ratio = {len(failures)}/{attempted}"
        f" = {len(failures) / attempted:.4f}",
    }
    return attempted, failures, metrics, notes


def traced(wl, pool, args):
    """Alternate untraced and traced requests, two per input, swapping which
    goes first on every other input so neither side always runs warm."""
    tracer = Tracer()
    plain, spanned, failures = [], [], []

    def step(i):
        with_trace = (i % 2) != (i // 2 % 2)
        inst = pool[i // 2 % len(pool)]
        if with_trace:
            tracer.install()
            try:
                spanned.append(attempt(wl, inst, failures, tracer, i))
            finally:
                tracer.uninstall()
        else:
            plain.append(attempt(wl, inst, failures))

    closed_loop(args.seconds, step)
    untraced_p50 = statistics.median(plain)
    layers = layer_metrics(tracer.spans, untraced_p50)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}.jsonl")
    meta = dict(environment(), workload=wl.name, seed=args.seed, missing=tracer.missing)
    tracer.write(path, meta)
    units = {"_s": "s", "_share": "ratio", "_yield": "ratio"}
    metrics = {
        name: (value, next((u for suf, u in units.items() if name.endswith(suf)), "count"))
        for name, value in layers.items()
    }
    notes = {
        "trace.overhead_s": f"traced p50 minus untraced p50 ({untraced_p50:.4f} s),"
        f" {len(spanned)} traced and {len(plain)} untraced requests",
        "mwis.candidates": "computed from bag, marked-set and k sizes",
        "mwis.candidate_yield": "family sets / mwis.candidates, over the run",
        "mwis.residual_checks": "computed: sum of C(|X_t - U_t|, k+1)",
        "oracle.states": "computed: 2^n per tin_exact call",
        "trace.layer_share": "program self time / traced request time",
    }
    print(f"spans: {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    if tracer.missing:
        print("not traced (absent from the program): " + ", ".join(tracer.missing))
    print("self time per traced request (sums to the request time):")
    for name, calls, self_s, share in self_time_table(tracer.spans):
        print(f"  {name:45s} {calls:10.1f} calls {self_s:10.6f} s {share:7.2%}")
    return len(plain) + len(spanned), failures, metrics, notes


def run_one(args):
    started = time.perf_counter()
    import_program()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"error: unknown workload; choose from {', '.join(workloads.WORKLOADS)}")
    pool = wl.instances(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup = time.perf_counter() - started
    env = environment()
    print(
        f"env: python {env['python']}, nproc {env['nproc']}, loadavg "
        + " ".join(str(x) for x in env["loadavg"])
    )
    print(
        f"workload {wl.name} ({wl.size}), seed {args.seed}, {len(pool)} inputs,"
        f" closed loop with 1 client, {'traced' if args.trace else 'untraced'},"
        f" in-process set-up after interpreter start {own_setup:.4f} s"
    )
    if args.trace:
        attempted, failures, metrics, notes = traced(wl, pool, args)
    else:
        attempted, failures, metrics, notes = untraced(wl, pool, args, Calibration())
    for msg in failures[:5]:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:28s} {value:14.6f} {unit:6s} {note}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    import_program()
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
