"""Self-test of the benchmark itself.

  python3 perfbench/selftest.py

1. Two traced runs per workload with the same seed must give identical
   values for every count metric (calls, constructions, ratios per call,
   error ratios), and both must be correct (outputs checked, digest of the
   default seed matched).
2. A directory holding only BENCHMARK.json and perfbench/ (no src/) must
   make run.py exit non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2          # run length of each traced run
COUNT = re.compile(r"\.calls|\.constructions|_per_|_calls$|\.errors$")


def traced(workload, seed, seconds, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    if proc.returncode != 0:
        raise SystemExit("traced run of %s failed:\n%s" % (workload, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    sys.path.insert(0, HERE)
    from run import DEFAULT_SEED, WORKLOADS
    problems = []

    for workload in WORKLOADS:
        a, b = (traced(workload, DEFAULT_SEED, SECONDS) for _ in range(2))
        counts = sorted(n for n in a["metrics"] if COUNT.search(n))
        differ = [n for n in counts if a["metrics"][n] != b["metrics"][n]]
        for run in (a, b):
            if not run["correct"]:
                problems.append("%s: traced run not correct (%d failed)" % (workload, run["failed"]))
        problems += ["%s: %s differs between runs: %s vs %s" % (
            workload, n, a["metrics"][n]["value"], b["metrics"][n]["value"]) for n in differ]
        print("%-13s %d count metrics, %d differ" % (workload, len(counts), len(differ)))

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "d3-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        problems.append("bare directory: exit %d, last line %r" % (proc.returncode, last))
    print("bare directory: exit %d" % proc.returncode)

    for p in problems:
        print("PROBLEM " + p)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
