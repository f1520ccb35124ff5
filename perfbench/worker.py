"""In-process worker: one closed-loop client calling tropmaps directly.

Started by run.py with the pinned child environment.  It imports tropmaps,
generates and pre-builds its inputs, warms up, prints READY and waits for
one command on stdin: "quit", or "run" to measure and print one JSON line.
While it runs it asks run.py for host-speed reference times: it prints
"probe" and reads the reference time in nanoseconds from stdin.

  python3 perfbench/worker.py --workload d3-small --seed 1 --seconds 10 --mode measure
"""

import argparse
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_tropmaps():
    import tropmaps
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(tropmaps.__file__).startswith(src):
        raise SystemExit("tropmaps resolves to %s, outside %s" % (tropmaps.__file__, src))


import_tropmaps()
import inputs  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

LAYER_PER_OP = 3      # requests per operation in the traced fixed-size pass


def verify(pool, shared, oracle):
    verifier = ops.Verifier(oracle)
    for i, req in enumerate(pool):
        verifier.first(i, req, ops.execute(req, shared))
    return verifier


def parent_reference_ns():
    """The host-speed reference, timed by run.py: a process that runs no
    tropmaps code, so process-wide effects of the program (garbage-collector
    settings, heap size) do not reach it."""
    print("probe", flush=True)
    return int(sys.stdin.readline())


def loop(pool, shared, verifier, seconds, whole_cycles=True):
    """Closed loop over the pool; returns (speed.Scaled times, failed count).

    With whole_cycles the loop stops only at the end of a pass over the
    pool, so every run sees the same mix of operations.
    """
    times, failed = speed.Scaled(parent_reference_ns), 0
    clock = time.perf_counter_ns
    end = time.perf_counter() + seconds
    while True:
        for i, req in enumerate(pool):
            t0 = clock()
            outcome = ops.execute(req, shared)
            times.add(clock() - t0)
            if not verifier.repeat(i, outcome):
                failed += 1
            if not whole_cycles and time.perf_counter() >= end:
                return times, failed
        if time.perf_counter() >= end:
            return times, failed


def layer_pass(tracer, requests, shared):
    """Each request once, traced, each under its own root span."""
    tracer.phase = "layer"
    for req in requests:
        frame = tracer.start("request", {"label": "request:" + req["op"], "op": req["op"]})
        ops.execute(req, shared)
        tracer.end(frame)


def first_per_op(pool, n):
    seen, out = {}, []
    for req in pool:
        if seen.get(req["op"], 0) < n:
            seen[req["op"]] = seen.get(req["op"], 0) + 1
            out.append(req)
    return out


def probe(tracer, label, fn, repeats):
    for _ in range(repeats):
        frame = tracer.start("probe", {"label": label})
        result = fn()
        if label.startswith("enumerate_types."):
            frame[5]["types"] = len(result)
        tracer.end(frame)


def scaling_probes(tracer, seed):
    """The ROADMAP scaling curves: evaluate against k, network_to_map against
    n, map_to_network at k=2000 and enumerate_types against d."""
    from tropmaps import plcore, relu, types_enum
    tracer.phase = "probe"
    rng = random.Random("probes/%d" % seed)
    for k, reps in ((4, 200), (64, 100), (2000, 20)):
        breaks, slopes, anchor = inputs.valid_map(rng, k)
        m = plcore.TropicalMap(tuple(breaks), tuple(slopes), anchor)
        xs = [breaks[0] + (breaks[-1] - breaks[0]) * Fraction(i, reps) for i in range(reps)]
        it = iter(xs)
        probe(tracer, "evaluate.k%d" % k, lambda: plcore.evaluate(m, next(it)), reps)
        if k == 2000:
            probe(tracer, "map_to_network.k2000", lambda: relu.map_to_network(m), 5)
    for n, reps in ((4, 100), (200, 20), (2000, 5)):
        breaks, slopes, anchor = inputs.valid_map(rng, n)
        net = relu.map_to_network(plcore.TropicalMap(tuple(breaks), tuple(slopes), anchor))
        probe(tracer, "network_to_map.n%d" % n, lambda: relu.network_to_map(net), reps)
    for d, reps in ((4, 10), (5, 5), (6, 2), (7, 1)):
        probe(tracer, "enumerate_types.d%d" % d, lambda: types_enum.enumerate_types(d), reps)


def overhead_ratio(plain, traced):
    """Untraced over traced throughput, both at the reference speed."""
    return (plain["n"] / plain["busy_ns"]) / (traced["n"] / traced["busy_ns"])


def measure(pool, shared, oracle, seconds):
    verifier = verify(pool, shared, oracle)
    times, failed = loop(pool, shared, verifier, seconds)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return dict(times.summary(), attempted=len(pool) + len(times.raw),
                failed=len(verifier.failures) + failed, failures=verifier.failures[:20],
                digest=verifier.digest.hexdigest(), maxrss_kb=maxrss_kb)


def trace(pool, shared, oracle, seconds, seed, spans_path, workload_pass=True):
    """Traced run: tracing overhead, one traced pass, then the scaling probes.

    The wrappers are never removed, so the untraced half of the overhead
    measurement runs before they are installed.
    """
    verifier = verify(pool, shared, oracle)
    attempted, failed = len(pool), len(verifier.failures)
    result = {}
    if workload_pass:
        plain, f1 = loop(pool, shared, verifier, seconds / 2, whole_cycles=False)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.on = True
    if workload_pass:
        tracer.phase = "overhead"
        traced, f2 = loop(pool, shared, verifier, seconds / 2, whole_cycles=False)
        attempted += len(plain.raw) + len(traced.raw)
        failed += f1 + f2
        result["overhead_ratio"] = overhead_ratio(plain.summary(), traced.summary())
    layer_pass(tracer, (first_per_op(pool, LAYER_PER_OP) if workload_pass else [])
               + ops.parse(inputs.coverage(seed)), shared)
    scaling_probes(tracer, seed)
    tracer.on = False
    tracer.write(spans_path)
    return dict(result, attempted=attempted, failed=failed, failures=verifier.failures[:20],
                digest=verifier.digest.hexdigest())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace", "probe"), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    if args.mode == "probe":
        pool, shared_json = [], {}
    else:
        pool, shared_json = inputs.pool(args.workload, args.seed)
    ops.parse(pool)
    shared = ops.prepare(shared_json)
    warm = {}
    for req in pool:
        warm.setdefault((req["op"], req["args"].get("degree")), req)
    for req in warm.values():      # one per operation and degree: a seed-independent cost
        ops.execute(req, shared)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    oracle = ops.oracle_for(shared)
    if args.mode == "measure":
        result = measure(pool, shared, oracle, args.seconds)
    else:
        result = trace(pool, shared, oracle, args.seconds, args.seed, args.spans,
                       workload_pass=args.mode == "trace")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
