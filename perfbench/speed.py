"""Host-speed reference for scaling request times.

The benchmark was tuned on a shared 2-vCPU VM whose speed drifts by up to
±25% over periods of several seconds (other tenants), more than the changes
the benchmark must resolve.  So a fixed reference, which no change to
tropmaps can alter, is timed between windows of requests, and each request
time is scaled by nominal / (reference time around its window).  Reported
times are request times at the nominal reference speed; raw values are
printed beside them.  In-process workloads use a pure-Python task as the
reference, timed by run.py, which runs no tropmaps code, so that nothing
the program does to its own process reaches the reference; cli-mix uses a
bare `python -c pass` child.
"""

import json
import statistics
import time
from array import array
from fractions import Fraction

NOMINAL_NS = 1_300_000     # reference task time the scaled values are quoted at
PROBE_REPEATS = 5


def reference_task():
    """Exact-rational, tuple, dict and JSON work like the library's own paths."""
    out = []
    for _ in range(3):
        s = Fraction(0)
        rows = []
        for i in range(1, 90):
            s += Fraction(i, i + 2)
            rows.append((i, s.numerator % 1009, str(s.denominator % 97)))
        out.append(json.dumps({str(i): [a, b] for i, a, b in rows}))
    return out


def reference_ns():
    """Median time of a few runs of the reference task."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        reference_task()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


class Scaled:
    """Request times in windows, with a reference probe between windows."""

    def __init__(self, probe, nominal_ns=NOMINAL_NS, window_s=0.25):
        self.probe, self.nominal, self.window_s = probe, nominal_ns, window_s
        self.raw = array("q")     # compact, so the harness adds little to peak RSS
        self.starts = [0]         # index in raw where each window starts
        self.refs = [probe()]
        self.next = time.perf_counter() + window_s

    def add(self, ns):
        self.raw.append(ns)
        if time.perf_counter() >= self.next:
            self.refs.append(self.probe())
            self.starts.append(len(self.raw))
            self.next = time.perf_counter() + self.window_s

    def summary(self):
        """Scaled and raw statistics; each time is scaled by the mean
        reference time of the probes before and after its window."""
        self.refs.append(self.probe())
        bounds = self.starts + [len(self.raw)]
        scaled = array("d")
        for i in range(len(self.starts)):
            factor = self.nominal / ((self.refs[i] + self.refs[i + 1]) / 2)
            scaled.extend(ns * factor for ns in self.raw[bounds[i]:bounds[i + 1]])
        n = len(scaled)
        s, r = sorted(scaled), sorted(self.raw)
        return {"n": n, "busy_ns": sum(s), "p50_ns": s[n // 2], "p90_ns": s[(9 * n) // 10],
                "raw_busy_ns": sum(r), "raw_p50_ns": r[n // 2], "raw_p90_ns": r[(9 * n) // 10],
                "speed": self.nominal / statistics.mean(self.refs)}


def scaled_time(fn, probe=reference_ns, nominal_ns=NOMINAL_NS):
    """(fn(), its wall time in seconds scaled by reference probes around it)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed * nominal_ns / ((before + probe()) / 2)
