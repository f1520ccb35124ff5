"""Trace spans around calls into tropmaps, installed from the benchmark side.

`install` wraps every public function of the traced modules and rebinds
the wrapper in every tropmaps namespace that binds the original, since
modules import functions by name (`from .plcore import evaluate`).  A few
helpers are counted without a span, and two constructors are counted.
Spans stay in memory with a request id and a parent id; self time is the
duration minus the time covered by child spans.  Each span also carries
the inclusive counts of the spans and counted calls beneath it.
"""

import importlib
import inspect
import json
import statistics
import time

MODULES = ("cli", "serialize", "rational", "plcore", "types_enum", "moduli",
           "hurwitz", "compact", "relu")
COUNTED = {"plcore.break_values"}            # calls counted, no span
SKIPPED = {"rational.is_infinite"}           # trivial predicate on every path
CONSTRUCTORS = (("plcore", "TropicalMap"), ("types_enum", "SlopeSequence"))
EXIT_CODED = {"cli.main"}                    # a non-zero return is a failed call
# Functions whose failed calls per call are reported as <name>.errors: the
# ones requests enter each layer through.
ERRORS = (
    "cli.main",
    "serialize.map_from_json", "serialize.point_from_json",
    "serialize.compact_point_from_json", "serialize.network_from_json",
    "serialize.polynomial_from_json",
    "rational.parse_rational", "rational.parse_extended",
    "plcore.evaluate", "plcore.validate", "plcore.tropicalize_rational",
    "types_enum.enumerate_types", "types_enum.registry_sequence",
    "moduli.moduli_point", "moduli.automorphisms", "moduli.degenerate",
    "hurwitz.fiber", "hurwitz.hurwitz_number",
    "compact.face_lattice", "compact.classify_stratum",
    "relu.network_to_map", "relu.map_to_network", "relu.symmetry_report",
)


class Tracer:
    def __init__(self):
        self.on = False
        self.phase = "layer"
        self.spans = []
        self._stack = []
        self._next = 1
        self._root = None

    def start(self, name, attrs=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4][name] = parent[4].get(name, 0) + 1
        else:
            self._root = (self._next, attrs.get("label", name) if attrs else name)
        frame = [self._next, parent, name, 0, {}, attrs, time.perf_counter_ns()]
        self._next += 1
        stack.append(frame)
        return frame

    def end(self, frame, error=False):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        span_id, parent, name, child_ns, counts, attrs, t0 = frame
        dur = t1 - t0
        if parent is not None:
            parent[3] += dur
            pc = parent[4]
            for key, n in counts.items():
                pc[key] = pc.get(key, 0) + n
        self.spans.append({
            "id": span_id, "parent": parent[0] if parent else 0,
            "pname": parent[2] if parent else "", "req": self._root[0],
            "root": self._root[1], "phase": self.phase, "name": name,
            "ns": dur, "self_ns": dur - child_ns, "error": error,
            **({"counts": counts} if counts else {}), **({"attrs": attrs} if attrs else {})})
        if parent is None and self.phase == "overhead":
            self.spans.clear()     # the overhead loop keeps no spans, so memory stays flat

    def count(self, name):
        if self._stack:
            c = self._stack[-1][4]
            c[name] = c.get(name, 0) + 1

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _span_wrapper(tracer, name, fn):
    exit_coded = name in EXIT_CODED

    def wrapped(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        frame = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(frame, True)
            raise
        tracer.end(frame, exit_coded and result != 0)
        return result
    wrapped.__wrapped__ = fn
    wrapped.__name__ = fn.__name__
    return wrapped


def _count_wrapper(tracer, name, fn):
    def wrapped(*args, **kwargs):
        if tracer.on:
            tracer.count(name)
        return fn(*args, **kwargs)
    wrapped.__wrapped__ = fn
    wrapped.__name__ = fn.__name__
    return wrapped


def install(tracer):
    """Wrap the public functions of every traced module in all tropmaps namespaces."""
    mods = {name: importlib.import_module("tropmaps." + name) for name in MODULES}
    wrappers = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            qual = "%s.%s" % (mname, attr)
            if (attr.startswith("_") or qual in SKIPPED or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            make = _count_wrapper if qual in COUNTED else _span_wrapper
            wrappers[obj] = make(tracer, qual, obj)
    namespaces = [importlib.import_module("tropmaps")] + list(mods.values())
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])
    for mname, cname in CONSTRUCTORS:
        cls = getattr(mods[mname], cname)
        cls.__init__ = _count_wrapper(tracer, "%s.%s" % (mname, cname), cls.__init__)


# --- per-layer metrics from spans ----------------------------------------------

def read(paths):
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def layer_metrics(spans):
    """Per-layer metrics from spans of the fixed-size passes.

    Phase "layer" holds one traced pass over requests; phase "probe" holds
    the scaling probes, whose root spans are labelled like "evaluate.k64".
    """
    layer = [s for s in spans if s["phase"] == "layer"]
    probe = [s for s in spans if s["phase"] == "probe"]
    by_name = {}
    for s in layer:
        by_name.setdefault(s["name"], []).append(s)

    def mean_self_us(names):
        group = [s for n in names for s in by_name.get(n, ())]
        return sum(s["self_ns"] for s in group) / len(group) / 1e3 if group else 0.0

    def per(group, counted):
        """Mean inclusive count of `counted` per span of the group."""
        return (sum(s.get("counts", {}).get(counted, 0) for s in group) / len(group)
                if group else 0.0)

    def probe_self(name, label, scale):
        vals = [s["self_ns"] / scale for s in probe if s["name"] == name and s["root"] == label]
        return statistics.median(vals) if vals else 0.0

    roots = [s for s in layer if s["pname"] == "" and s["name"] == "request"]
    totals = {}
    for s in roots:
        for key, n in s.get("counts", {}).items():
            totals[key] = totals.get(key, 0) + n
    decoders = [n for n in by_name if n.startswith("serialize.") and n.endswith("_from_json")]
    encoders = [n for n in by_name if n.startswith("serialize.") and n.endswith("_to_json")]
    fiber_roots = [s for s in roots if s.get("counts", {}).get("hurwitz.fiber")]
    enum_roots = [s for s in probe if s["pname"] == "" and s["root"].startswith("enumerate_types.")]

    m = {}
    m["cli.main.self_us"] = (mean_self_us(["cli.main"]), "us")
    m["serialize.decode.self_us"] = (mean_self_us(decoders), "us")
    m["serialize.encode.self_us"] = (mean_self_us(encoders), "us")
    m["serialize.decode.calls"] = (sum(len(by_name[n]) for n in decoders), "count")
    m["rational.parse_rational.calls"] = (len(by_name.get("rational.parse_rational", ())), "count")
    m["rational.parse_rational.self_us"] = (mean_self_us(["rational.parse_rational"]), "us")
    for k in (4, 64, 2000):
        m["plcore.evaluate.self_us.k%d" % k] = (
            probe_self("plcore.evaluate", "evaluate.k%d" % k, 1e3), "us")
    evaluates = [s for s in spans if s["name"] == "plcore.evaluate"]
    m["plcore.break_values.calls_per_evaluate"] = (
        per(evaluates, "plcore.break_values"), "count")
    m["plcore.TropicalMap.constructions"] = (totals.get("plcore.TropicalMap", 0), "count")
    m["plcore.validate.self_us"] = (mean_self_us(["plcore.validate"]), "us")
    m["plcore.tropicalize_rational.self_us"] = (mean_self_us(["plcore.tropicalize_rational"]), "us")
    for d in (4, 5, 6, 7):
        m["types_enum.enumerate_types.self_ms.d%d" % d] = (
            probe_self("types_enum.enumerate_types", "enumerate_types.d%d" % d, 1e6), "ms")
    n_types = sum(s["attrs"]["types"] for s in enum_roots)
    m["types_enum.SlopeSequence.constructions_per_type"] = (
        sum(s.get("counts", {}).get("types_enum.SlopeSequence", 0) for s in enum_roots)
        / n_types if n_types else 0.0, "count")
    m["types_enum.canonical_type.calls"] = (len(by_name.get("types_enum.canonical_type", ())), "count")
    for fn in ("moduli_point", "automorphisms", "stratum", "degenerate", "weighted_curve"):
        m["moduli.%s.self_us" % fn] = (mean_self_us(["moduli." + fn]), "us")
    m["moduli.automorphisms.evaluate_calls"] = (
        per(by_name.get("moduli.automorphisms", ()), "plcore.evaluate"), "count")
    m["hurwitz.fiber.self_us"] = (mean_self_us(["hurwitz.fiber"]), "us")
    m["hurwitz.hurwitz_number.self_us"] = (mean_self_us(["hurwitz.hurwitz_number"]), "us")
    m["hurwitz.fiber.calls_per_request"] = (per(fiber_roots, "hurwitz.fiber"), "count")
    m["compact.face_lattice.self_us"] = (mean_self_us(["compact.face_lattice"]), "us")
    m["compact.classify_stratum.self_us"] = (mean_self_us(["compact.classify_stratum"]), "us")
    m["compact.classify_stratum.calls_per_face_lattice"] = (
        per(by_name.get("compact.face_lattice", ()), "compact.classify_stratum"), "count")
    for n in (4, 200, 2000):
        m["relu.network_to_map.self_us.n%d" % n] = (
            probe_self("relu.network_to_map", "network_to_map.n%d" % n, 1e3), "us")
    m["relu.map_to_network.self_us.k2000"] = (
        probe_self("relu.map_to_network", "map_to_network.k2000", 1e3), "us")
    m["relu.symmetry_report.self_us"] = (mean_self_us(["relu.symmetry_report"]), "us")
    # Failed calls per call: an exception raised, or for cli.main a non-zero exit code.
    for name in ERRORS:
        group = by_name.get(name, ())
        m[name + ".errors"] = (sum(s["error"] for s in group) / len(group) if group else 0.0, "1")
    return m
