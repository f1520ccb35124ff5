"""tropmaps benchmark: one closed-loop client, four workloads, checked outputs.

  python3 perfbench/run.py --workload d3-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the benchmark uses the checkout's src/.
With --trace 0 it prints the end-to-end metrics of one workload; with
--trace 1 a separately traced run prints the per-layer metrics.  The last
line of stdout is one JSON object; earlier lines are for people.

Workloads (see BENCHMARK.json and perfbench/README.md):
  cli-mix       one `python -m tropmaps.cli <sub> --json` process per request
  d3-small      in-process, small degree-3 requests over twelve operations
  large-inputs  in-process, k=2000 maps, n=2000 networks, 400/300 coefficients
  enumerate     in-process, enumerate_types(d) for d in {4, 5, 6}
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
PY = sys.executable
WORKLOADS = ("cli-mix", "d3-small", "large-inputs", "enumerate")
SETUPS = 5            # set-ups per run; setup_s is their median
MIN_SAMPLES = 100     # so that p90 has at least ten samples beyond it
CLI_PROBE_REPEATS = 5
DEFAULT_SEED = 1      # the seed whose output digests are recorded in digests.json
CHILD_TIMEOUT = 150
CLI_NOMINAL_NS = 60_000_000   # bare `python -c pass` time cli-mix times are quoted at


def fail(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(2)


def child_env():
    """The pinned environment of every child; nothing is inherited."""
    return {
        "PATH": "/usr/bin:/bin",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(STATE, "pycache"),
        "PYTHONNOUSERSITE": "1",
        "PYTHONIOENCODING": "utf-8",
    }


def run_child(cmd, env, stdin_text=""):
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, input=stdin_text, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return time.perf_counter_ns() - t0, proc


def environment(env):
    """Record the interpreter, core count and resolved package; this child
    also fills the bytecode cache before anything is timed."""
    code = ("import json, os, sys, tropmaps, tropmaps.cli; print(json.dumps({"
            "'python': sys.version.split()[0], 'nproc': os.cpu_count(), "
            "'tropmaps': os.path.abspath(tropmaps.__file__)}))")
    _, proc = run_child([PY, "-c", code], env)
    if proc.returncode != 0:
        fail("cannot import tropmaps from %s:\n%s" % (SRC, proc.stderr[-2000:]))
    info = json.loads(proc.stdout)
    if not info["tropmaps"].startswith(SRC + os.sep):
        fail("tropmaps resolves to %s, outside %s" % (info["tropmaps"], SRC))
    print("# env: python %s (%s), nproc %s, tropmaps %s, PYTHONHASHSEED=0, "
          "PYTHONPYCACHEPREFIX=.perfbench/pycache" % (
              info["python"], platform.python_implementation(), info["nproc"],
              os.path.relpath(info["tropmaps"], ROOT)))
    return info


def digest_ok(workload, seed, digest):
    if seed != DEFAULT_SEED:
        return True
    with open(os.path.join(HERE, "digests.json")) as fh:
        want = json.load(fh).get(workload)
    ok = want == digest
    print("# output digest for seed %d: %s (%s)" % (seed, digest, "matches" if ok else
                                                    "MISMATCH, recorded %s" % want))
    return ok


# --- in-process workloads: one worker process at a time ----------------------

class Worker:
    """A worker child; a timer kills it if it overruns."""

    def __init__(self, env, workload, seed, seconds, mode, spans=None):
        cmd = [PY, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.close()
            fail("worker for %s did not start (exit %s)" % (workload, self.proc.returncode))

    def finish(self, command):
        """Send "quit" or "run"; during a run, answer the worker's reference
        probes until it prints its result."""
        result = None
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
            for line in self.proc.stdout:
                if line.strip() == "probe":
                    self.proc.stdin.write("%d\n" % speed.reference_ns())
                    self.proc.stdin.flush()
                else:
                    result = json.loads(line)
                    break
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            self.close()
        if self.proc.returncode != 0 or (command == "run" and result is None):
            fail("worker exited with %s" % self.proc.returncode)
        return result

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def in_process(env, workload, seed, seconds):
    setups = []
    for i in range(SETUPS):
        w, setup_s = speed.scaled_time(lambda: Worker(env, workload, seed, seconds, "measure"))
        setups.append(setup_s)
        result = w.finish("run" if i == SETUPS - 1 else "quit")
    result["setup_s"] = statistics.median(setups)
    result["peak_rss_mb"] = result.pop("maxrss_kb") / 1024
    return result


# --- cli-mix: one CLI process per request, from this process ------------------

def cli_request(env, req, spans=None):
    import ops
    if spans is None:
        cmd = [PY, "-m", "tropmaps.cli"] + ops.argv(req)
    else:
        cmd = [PY, os.path.join(HERE, "cli_shim.py"), spans] + ops.argv(req)
    ns, proc = run_child(cmd, env, req["text"] or "")
    return ns, ops.cli_outcome(proc.returncode, proc.stdout, proc.stderr)


def import_for_checks():
    sys.path.insert(0, SRC)
    import tropmaps
    if not os.path.abspath(tropmaps.__file__).startswith(SRC + os.sep):
        fail("tropmaps resolves to %s, outside %s" % (tropmaps.__file__, SRC))


def cli_setup(env, seed):
    import inputs
    warm = inputs.request("types", None, None, degree=3)
    def setup():
        pool = inputs.pool("cli-mix", seed)[0]
        cli_request(env, warm)
        return pool

    setups = []
    for _ in range(SETUPS):
        pool, setup_s = speed.scaled_time(setup, bare_interpreter(env), CLI_NOMINAL_NS)
        setups.append(setup_s)
    return pool, statistics.median(setups)


def cli_verify(env, pool):
    import ops
    verifier = ops.Verifier({})
    for i, req in enumerate(pool):
        verifier.first(i, req, cli_request(env, req)[1])
    return verifier


def bare_interpreter(env):
    """The cli-mix reference probe: wall time of a `python -c pass` child."""
    return lambda: run_child([PY, "-c", "pass"], env)[0]


def cli_loop(env, pool, verifier, seconds, whole_cycles=True, spans=None):
    """Closed loop of CLI processes, scaled by a bare-interpreter probe."""
    times = speed.Scaled(bare_interpreter(env), nominal_ns=CLI_NOMINAL_NS, window_s=0.5)
    failed = 0
    end = time.perf_counter() + seconds
    while True:
        for i, req in enumerate(pool):
            ns, outcome = cli_request(env, req, spans)
            times.add(ns)
            if not verifier.repeat(i, outcome):
                failed += 1
            if not whole_cycles and time.perf_counter() >= end:
                return times, failed
        if time.perf_counter() >= end and len(times.raw) >= MIN_SAMPLES:
            return times, failed


def cli_mix(env, seed, seconds):
    pool, setup_s = cli_setup(env, seed)
    verifier = cli_verify(env, pool)
    times, failed = cli_loop(env, pool, verifier, seconds)
    return dict(times.summary(), setup_s=setup_s, attempted=len(pool) + len(times.raw),
                failed=len(verifier.failures) + failed, failures=verifier.failures[:20],
                digest=verifier.digest.hexdigest(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


# --- traced run -----------------------------------------------------------------

def cli_probes(env):
    """Bare interpreter start, and a fresh `import tropmaps.cli` on top of it."""
    start = [run_child([PY, "-c", "pass"], env)[0] for _ in range(CLI_PROBE_REPEATS)]
    imp = [run_child([PY, "-c", "import tropmaps.cli"], env)[0]
           for _ in range(CLI_PROBE_REPEATS)]
    interp = statistics.median(start) / 1e6
    return interp, statistics.median(imp) / 1e6 - interp


def spans_file(name):
    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
    path = os.path.join(STATE, "spans", name + ".jsonl")
    if os.path.exists(path):
        os.remove(path)
    return path


def traced(env, workload, seed, seconds):
    """Per-layer metrics: CLI probes, then a worker that measures tracing
    overhead (in-process workloads), makes the traced pass and runs the
    scaling probes, then CLI requests through the traced shim."""
    import inputs
    import tracer as tracing
    from worker import LAYER_PER_OP, first_per_op, overhead_ratio
    interp_ms, import_ms = cli_probes(env)
    if workload == "cli-mix":
        pool, _ = cli_setup(env, seed)
        verifier = cli_verify(env, pool)
        plain, f1 = cli_loop(env, pool, verifier, seconds / 2, whole_cycles=False)
        shimmed, f2 = cli_loop(env, pool, verifier, seconds / 2, False, spans="-")
        cli_layer = first_per_op(pool, LAYER_PER_OP)
    else:
        cli_layer = [r for r in inputs.pool("cli-mix", seed)[0]
                     if r["op"] in ("types", "eval", "hurwitz", "strata")]
    paths = [spans_file("%s-worker" % workload)]
    mode = "probe" if workload == "cli-mix" else "trace"
    run = Worker(env, workload, seed, seconds, mode, spans=paths[0]).finish("run")
    if workload == "cli-mix":
        run = {"overhead_ratio": overhead_ratio(plain.summary(), shimmed.summary()),
               "attempted": len(pool) + len(plain.raw) + len(shimmed.raw),
               "failed": len(verifier.failures) + f1 + f2,
               "failures": verifier.failures[:20], "digest": verifier.digest.hexdigest()}
    for i, req in enumerate(cli_layer):
        paths.append(spans_file("%s-cli-%d" % (workload, i)))
        cli_request(env, req, spans=paths[-1])
    metrics = tracing.layer_metrics(tracing.read(paths))
    metrics["cli.interp_start_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["trace.overhead_ratio"] = (run["overhead_ratio"], "1")
    return metrics, run


# --- main -----------------------------------------------------------------------

def report(workload, seed, run, metrics):
    """Print the metrics for people, then the one-line JSON result."""
    attempted, failed = run["attempted"], run["failed"]
    correct = failed == 0 and digest_ok(workload, seed, run["digest"])
    print("# failed_ratio %.6g (%d of %d requests attempted)" % (failed / attempted, failed,
                                                                  attempted))
    for line in run["failures"]:
        print("# FAILED " + line)
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tropmaps", "__init__.py")):
        fail("no tropmaps package under %s; run from the root of a checkout" % SRC)
    if args.workload == "cli-mix" or args.trace:
        # In-process workloads keep tropmaps out of this process, which
        # times their host-speed reference.
        import_for_checks()
    env = child_env()
    os.makedirs(STATE, exist_ok=True)
    environment(env)
    print("# workload %s, seed %d, %gs, closed loop, one client, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))

    if args.trace:
        metrics, r = traced(env, args.workload, args.seed, args.seconds)
        report(args.workload, args.seed, r, metrics)
        return 0

    if args.workload == "cli-mix":
        r = cli_mix(env, args.seed, args.seconds)
    else:
        r = in_process(env, args.workload, args.seed, args.seconds)
    print("# %d timed requests; latency percentiles over all of them" % r["n"])
    print("# host speed %.3f of nominal; raw: %.6g req/s, p50 %.6g ms, p90 %.6g ms" % (
        r["speed"], r["n"] / (r["raw_busy_ns"] / 1e9), r["raw_p50_ns"] / 1e6,
        r["raw_p90_ns"] / 1e6))
    metrics = {
        "setup_s": (r["setup_s"], "s"),
        "throughput_rps": (r["n"] / (r["busy_ns"] / 1e9), "req/s"),
        "latency_ms_p50": (r["p50_ns"] / 1e6, "ms"),
        "latency_ms_p90": (r["p90_ns"] / 1e6, "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    report(args.workload, args.seed, r, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
