"""Seeded request generator for the benchmark workloads.

Inputs follow the README file formats.  Every request carries the outcome
the README contract promises for it (a payload property or an error code),
worked out here from how the input was built, never by running tropmaps.
The share of each outcome class is fixed per workload, so seeds change the
values and the order of the inputs but not the mix.
"""

import json
import random
from fractions import Fraction

# The paper's ten degree-3 types, labelled I-X.
D3 = {
    "I": (3, 4, 5, 4, 3), "II": (3, 4, 3, 4, 3), "III": (3, 4, 3, 2, 3),
    "IV": (3, 2, 3, 2, 3), "V": (3, 2, 1, 2, 3), "VI": (3, 5, 4, 3),
    "VII": (3, 1, 2, 3), "VIII": (3, 4, 2, 3), "IX": (3, 5, 3), "X": (3, 1, 3),
}
MAXIMAL = ("I", "II", "III", "IV", "V")
TYPE_COUNTS = {2: 2, 3: 10, 4: 62, 5: 446, 6: 3482}


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def canonical(slopes):
    return min(tuple(slopes), tuple(reversed(slopes)))


LABEL = {canonical(s): label for label, s in D3.items()}


def pos(rng):
    return Fraction(rng.randint(1, 40), rng.randint(1, 6))


def rat(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 6))


def request(op, text=None, expect=None, **args):
    return {"op": op, "text": text, "args": args, "expect": expect or {}}


def error(code):
    return {"error": code}


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


# --- degree-3 building blocks ------------------------------------------------
# Generators take a balancing index j: a pool cycles j through each choice
# that changes the cost of a request (type, symmetry, size), so that every
# seed gets the same mix of costs; the seed picks the values.

def pick(choices, j):
    return choices[j % len(choices)]


def symmetric_half(j, n=10):
    """True for half of any n*2 consecutive indices, each label once each way."""
    return (j // n) % 2 == 0


def d3_slopes(rng, j, labels=None):
    labels = labels or sorted(D3)
    label = pick(labels, j)
    s = D3[label]
    return label, (tuple(reversed(s)) if rng.random() < 0.5 else s)


def palindromic_gaps(rng, k):
    gaps = [pos(rng) for _ in range(k - 1)]
    for i in range(len(gaps) // 2):
        gaps[-1 - i] = gaps[i]
    return gaps


def point(rng, j, labels=None, symmetric=False):
    label, slopes = d3_slopes(rng, j, labels)
    k = len(slopes) - 1
    gaps = palindromic_gaps(rng, k) if symmetric else [pos(rng) for _ in range(k - 1)]
    return label, slopes, gaps, rat(rng)


def point_json(slopes, gaps, position):
    return {"slopes": list(slopes), "gaps": [fmt(g) for g in gaps],
            "position": fmt(position)}


def breaks_of(gaps, position):
    xs = [position]
    for g in gaps:
        xs.append(xs[-1] + g)
    return xs


def map_json(breaks, slopes, anchor):
    return {"breaks": [fmt(x) for x in breaks], "slopes": list(slopes),
            "anchor": fmt(anchor)}


def valid_map(rng, k, top_slope=5):
    """A valid map with k breaks and integer slopes.  Its first slope is not
    positive, so it is never admissible of any degree."""
    slopes = [rng.randint(-top_slope, 0)]
    for _ in range(k):
        s = rng.randint(-top_slope, top_slope - 1)
        slopes.append(s + 1 if s >= slopes[-1] else s)
    x = rat(rng)
    breaks = []
    for _ in range(k):
        breaks.append(x)
        x += pos(rng)
    return breaks, slopes, rat(rng)


def network_of(rng, breaks, slopes, anchor, extra_dead=0):
    """A ReLU network realizing the map, with rescaled and sign-flipped units.

    Unit j is a_j * max(0, w_j*x + b_j) with kink at breaks[j] and jump
    slopes[j+1] - slopes[j].  A flipped unit uses max(0, u) = u + max(0, -u)
    and moves its affine part into the base terms.  Dead units (zero
    coefficient or zero weight with inactive bias) leave the map unchanged.
    Returns the network JSON and the indices and reasons of the dead units.
    """
    base_slope = Fraction(slopes[0])
    base_bias = anchor - slopes[0] * breaks[0] if breaks else anchor
    units = []
    for t, lo, hi in zip(breaks, slopes, slopes[1:]):
        jump = Fraction(hi - lo)
        w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if rng.random() < 0.3:
            # a*max(0, w(x-t)) = a*w*(x-t) + a*max(0, -w(x-t))
            a = jump / w
            base_slope += a * w
            base_bias -= a * w * t
            units.append((-w, w * t, a))
        else:
            units.append((w, -w * t, jump / w))
    dead = []
    for _ in range(extra_dead):
        at = rng.randint(0, len(units))
        if rng.random() < 0.5:
            units.insert(at, (pos(rng), rat(rng), Fraction(0)))
            reason = "zero-coefficient"
        else:
            units.insert(at, (Fraction(0), -pos(rng), pos(rng)))
            reason = "zero-weight"
        dead = [(i + 1 if i >= at else i, r) for i, r in dead] + [(at, reason)]
    net = {"base_slope": fmt(base_slope), "base_bias": fmt(base_bias),
           "units": [{"w": fmt(w), "b": fmt(b), "a": fmt(a)} for w, b, a in units]}
    return net, sorted(dead)


def concave_coefficients(rng, n, absent=0):
    """Coefficients whose n lines all touch the upper envelope (corners at
    strictly increasing x); `absent` interior entries become "-inf"."""
    corners = [i + Fraction(rng.randint(0, 9), 10) for i in range(n)]
    coeffs = [rat(rng)]
    for t in corners[:n - 1]:
        coeffs.append(coeffs[-1] - t)
    out = [fmt(c) for c in coeffs]
    for i in rng.sample(range(1, n - 1), min(absent, max(n - 2, 0))):
        out[i] = "-inf"
    return out


# --- one generator per operation ----------------------------------------------
# Each takes (rng, kind, j) and returns a request; kind "ok" is a success case.

MALFORMED_MAPS = (
    lambda m: {k: v for k, v in m.items() if k != "anchor"},
    lambda m: dict(m, anchor="1/0"),
    lambda m: dict(m, slopes=[s + 0.5 for s in m["slopes"]]),
    lambda m: dict(m, breaks=m["breaks"][:-1] + ["x"]),
)
MALFORMED_POINTS = (
    lambda p: {k: v for k, v in p.items() if k != "gaps"},
    lambda p: dict(p, gaps=p["gaps"][:-1]),
    lambda p: dict(p, gaps=["0"] + p["gaps"][1:]),
    lambda p: dict(p, slopes=[3, 4, 3]),
    lambda p: dict(p, position="abc"),
)


def gen_classify(rng, kind, j):
    if kind == "ok":
        label, slopes, gaps, x0 = point(rng, j)
        m = map_json(breaks_of(gaps, x0), slopes, rat(rng))
        return request("classify", dumps(m), {"valid": True, "admissible": True,
                                              "type": label})
    if kind == "inadmissible":
        slopes = pick([(2, 3, 2), (3, 4, 3), (3, 5, 4, 5, 3), (3, 0, 3)], j)
        m = map_json(breaks_of([pos(rng) for _ in slopes[2:]], rat(rng)), slopes, rat(rng))
        return request("classify", dumps(m), {"valid": True, "admissible": False})
    if kind == "invalid":
        _, slopes = d3_slopes(rng, j, MAXIMAL)
        slopes = slopes[:2] + slopes[1:]       # repeated slope: a zero jump
        m = map_json(breaks_of([pos(rng) for _ in slopes[2:]], rat(rng)), slopes, rat(rng))
        return request("classify", dumps(m), {"valid": False})
    _, slopes, gaps, x0 = point(rng, j)
    m = map_json(breaks_of(gaps, x0), slopes, rat(rng))
    return request("classify", dumps(pick(MALFORMED_MAPS, j)(m)), error("invalid-input"))


def gen_moduli_point(rng, kind, j):
    if kind == "ok":
        _, slopes, gaps, x0 = point(rng, j)
        m = map_json(breaks_of(gaps, x0), slopes, rat(rng))
        return request("moduli-point", dumps(m), {"point": point_json(slopes, gaps, x0)})
    if kind == "inadmissible-map":
        breaks, slopes, anchor = valid_map(rng, 2 + j % 3)
        return request("moduli-point", dumps(map_json(breaks, slopes, anchor)),
                       error("inadmissible-map"))
    _, slopes, gaps, x0 = point(rng, j)
    m = map_json(breaks_of(gaps, x0), slopes, rat(rng))
    return request("moduli-point", dumps(pick(MALFORMED_MAPS, j)(m)), error("invalid-input"))


def _values(slopes, gaps):
    """Break values of the anchor-0 map of a point: v_j = v_{j-1} + s_j * l_j."""
    vals = [Fraction(0)]
    for s, g in zip(slopes[1:-1], gaps):
        vals.append(vals[-1] + s * g)
    return vals


def _malformed_point(rng, op, j):
    _, slopes, gaps, x0 = point(rng, j)
    return request(op, dumps(pick(MALFORMED_POINTS, j)(point_json(slopes, gaps, x0))),
                   error("invalid-input"))


def gen_aut(rng, kind, j):
    if kind != "ok":
        return _malformed_point(rng, "aut", j)
    _, slopes, gaps, x0 = point(rng, j, symmetric=symmetric_half(j))
    expect = {"kind": "trivial"}
    if slopes == tuple(reversed(slopes)) and gaps == list(reversed(gaps)):
        vals = _values(slopes, gaps)
        expect = {"kind": "z2", "reflection_center": fmt(x0 + sum(gaps) / 2),
                  "target_shift": fmt(vals[0] + vals[-1])}
    return request("aut", dumps(point_json(slopes, gaps, x0)), expect)


def gen_stratum(rng, kind, j):
    if kind != "ok":
        return _malformed_point(rng, "stratum", j)
    _, slopes, gaps, x0 = point(rng, j, symmetric=symmetric_half(j))
    k = len(slopes) - 1
    z2 = slopes == tuple(reversed(slopes)) and gaps == list(reversed(gaps))
    label = {2: "symmetric-boundary", 3: "intermediate"}.get(k, "symmetric" if z2 else "generic")
    expect = {"aut": "z2" if z2 else "trivial", "cell_dimension": k,
              "symmetric_locus": z2 and k != 3, "label": label}
    return request("stratum", dumps(point_json(slopes, gaps, x0)), {"payload": expect})


def _merges(same_sign):
    """(slope sequence, merge index) pairs whose colliding jumps share a sign or not."""
    out = set()
    for s in D3.values():
        for seq in (s, tuple(reversed(s))):
            for i in range(1, len(seq) - 1):
                a, b = seq[i] - seq[i - 1], seq[i + 1] - seq[i]
                if ((a > 0) == (b > 0)) == same_sign:
                    out.add((seq, i))
    return sorted(out)


def gen_degenerate(rng, kind, j):
    if kind == "invalid-input":
        _, slopes, gaps, x0 = point(rng, j, MAXIMAL)
        return request("degenerate", dumps(point_json(slopes, gaps, x0)),
                       error("invalid-input"), merge=pick([0, 4, 9], j))
    slopes, i = pick(_merges(kind == "ok"), j)
    gaps = [pos(rng) for _ in slopes[2:]]
    x0 = rat(rng)
    text = dumps(point_json(slopes, gaps, x0))
    if kind == "ok":
        merged = point_json(slopes[:i] + slopes[i + 1:], gaps[:i - 1] + gaps[i:], x0)
        return request("degenerate", text, {"payload": merged}, merge=i)
    return request("degenerate", text, error("invalid-degeneration"), merge=i)


def gen_curve(rng, kind, j):
    if kind != "ok":
        if j % 2:
            return _malformed_point(rng, "curve", j // 2)
        _, slopes, gaps, x0 = point(rng, j)
        text = dumps(point_json(slopes, gaps, x0))
        return request("curve", text[:len(text) // 2], error("invalid-input"))
    _, slopes, gaps, x0 = point(rng, j)
    xs = breaks_of(gaps, x0)
    expect = {
        "vertices": [{"position": fmt(x), "weight": abs(b - a)}
                     for x, a, b in zip(xs, slopes, slopes[1:])],
        "edges": [{"length": fmt(g), "dilation": s} for g, s in zip(gaps, slopes[1:-1])],
        "leaf_dilations": [3, 3],
    }
    return request("curve", dumps(point_json(slopes, gaps, x0)), {"payload": expect})


def gen_hurwitz(rng, kind, j):
    if kind != "ok":
        dists = [pos(rng) for _ in range(3)]
        dists[j % 3] = Fraction(0) if j % 2 else -pos(rng)
        return request("hurwitz", None, error("non-generic-configuration"),
                       distances=[fmt(d) for d in dists])
    if j % 2:
        pts = set()
        while len(pts) < 4:
            pts.add(rat(rng))
        pts = sorted(pts)
        dists = [b - a for a, b in zip(pts, pts[1:])]
        return request("hurwitz", None, {"distances": [fmt(d) for d in dists]},
                       branch=[fmt(p) for p in rng.sample(pts, 4)])
    dists = [pos(rng) for _ in range(3)]
    return request("hurwitz", None, {"distances": [fmt(d) for d in dists]},
                   distances=[fmt(d) for d in dists])


def gen_strata(rng, kind, j):
    if kind == "ok":
        label = pick(MAXIMAL, j)
        return request("strata", None, {"type": label}, type=label)
    return request("strata", None, error("not-a-maximal-type"),
                   type=pick(["VI", "VII", "VIII", "IX", "X"], j))


FACES = [(a, b, c) for a in ("zero", "open", "infinite") for b in ("zero", "open", "infinite")
         for c in ("zero", "open", "infinite")]


def gen_classify_compact(rng, kind, j):
    _, slopes = d3_slopes(rng, j, MAXIMAL)
    if kind != "ok":
        bad = [pick(["-1", "-3/2", "1/0"], j), fmt(pos(rng)), "inf"]
        return request("classify-compact", dumps({"slopes": list(slopes), "gaps": bad}),
                       error("invalid-input"))
    states = list(pick(FACES, j))
    gaps = [{"zero": "0", "infinite": "inf"}.get(st) or fmt(pos(rng)) for st in states]
    jumps = [b - a for a, b in zip(slopes, slopes[1:])]
    collisions, groups = [], [[jumps[0]]]
    for i, st in enumerate(states, start=1):
        if st == "zero":
            same = (jumps[i - 1] > 0) == (jumps[i] > 0)
            collisions.append({"index": i, "kind": "valid-merge" if same else "reduced-variation"})
            groups[-1].append(jumps[i])
        else:
            groups.append([jumps[i]])
    merged = [sum(g) for g in groups if sum(g) != 0]
    limit = [3]
    for jump in merged:
        limit.append(limit[-1] + jump)
    in_moduli = sum(abs(jump) for jump in merged) == 4
    expect = {
        "states": states,
        "codimension": sum(st != "open" for st in states),
        "collisions": collisions,
        "infinity": [i for i, st in enumerate(states, start=1) if st == "infinite"],
        "limit_slopes": limit,
        "in_moduli": in_moduli,
        "limit_label": LABEL.get(canonical(limit)) if in_moduli else None,
    }
    return request("classify-compact", dumps({"slopes": list(slopes), "gaps": gaps}),
                   {"payload": expect})


def gen_symmetry(rng, kind, j):
    if kind == "inadmissible":
        breaks, slopes, anchor = valid_map(rng, 1 + j % 5)
        net, dead = network_of(rng, breaks, slopes, anchor, j % 3)
        return request("symmetry", dumps(net), {"admissible": False, "dead": dead})
    if kind != "ok":
        _, slopes, gaps, x0 = point(rng, j)
        net, _ = network_of(rng, breaks_of(gaps, x0), slopes, rat(rng))
        net["units"][0] = {"w": "1", "b": "0"}
        return request("symmetry", dumps(net), error("invalid-input"))
    label, slopes, gaps, x0 = point(rng, j, symmetric=symmetric_half(j))
    net, dead = network_of(rng, breaks_of(gaps, x0), slopes, rat(rng), j % 3)
    z2 = slopes == tuple(reversed(slopes)) and gaps == list(reversed(gaps))
    gap_condition = None
    if slopes == tuple(reversed(slopes)) and len(slopes) == 5:
        gap_condition = {"l1": fmt(gaps[0]), "l3": fmt(gaps[2]), "equal": gaps[0] == gaps[2]}
    return request("symmetry", dumps(net), {
        "admissible": True, "dead": dead, "type": label,
        "aut": "z2" if z2 else "trivial", "gap_condition": gap_condition})


def gen_from_relu(rng, kind, j, k=None):
    if k is None and kind == "ok":
        _, slopes, gaps, x0 = point(rng, j)
        breaks, anchor, admissible = breaks_of(gaps, x0), rat(rng), True
    else:
        breaks, slopes, anchor = valid_map(rng, k or 1 + j % 5)
        admissible = False
    net, _ = network_of(rng, breaks, slopes, anchor, 0 if k else j % 3)
    return request("from-relu", dumps(net), {"map": map_json(breaks, slopes, anchor),
                                             "admissible": admissible})


def gen_to_relu(rng, kind, j, k=None):
    if kind == "invalid-map":
        breaks, slopes, anchor = valid_map(rng, 2 + j % 4)
        slopes[2] = slopes[1]               # zero jump: not a valid map
        return request("to-relu", dumps(map_json(breaks, slopes, anchor)), error("invalid-map"))
    if k is None:
        _, slopes, gaps, x0 = point(rng, j)
        breaks, anchor = breaks_of(gaps, x0), rat(rng)
    else:
        breaks, slopes, anchor = valid_map(rng, k)
    return request("to-relu", dumps(map_json(breaks, slopes, anchor)), {"round_trip": True})


def gen_tropicalize(rng, kind, j, sizes=None):
    if kind != "ok":
        p = [fmt(rat(rng)) for _ in range(3)] + ["-inf"]   # top coefficient absent
        return request("tropicalize", dumps({"p": p, "q": ["0"]}), error("invalid-input"))
    n, m = sizes or (2 + j % 3, 1 + (j // 3) % 3)
    p = concave_coefficients(rng, n, absent=n // 10)
    q = concave_coefficients(rng, m, absent=m // 10)
    return request("tropicalize", dumps({"p": p, "q": q}), {"pointwise": True})


def gen_eval(rng, kind, j):
    if kind == "invalid-map":
        breaks, slopes, anchor = valid_map(rng, 2 + j % 4)
        slopes[1] = slopes[0]
        return request("eval", dumps(map_json(breaks, slopes, anchor)), error("invalid-map"),
                       at=fmt(rat(rng)))
    breaks, slopes, anchor = valid_map(rng, j % 5)
    text = dumps(map_json(breaks, slopes, anchor))
    if kind == "ok":
        return request("eval", text, {"oracle": True}, at=fmt(rat(rng)))
    return request("eval", text, error("invalid-input"), at=pick(["x", "1/0", "", "2..5"], j))


def gen_types(rng, kind, j, degree=None):
    d = 3 if kind == "registry" else degree or pick([2, 4], j)
    return request("types", None, {"count": TYPE_COUNTS[d]}, degree=d)


GENERATORS = {
    "types": gen_types, "classify": gen_classify, "eval": gen_eval, "aut": gen_aut,
    "stratum": gen_stratum, "degenerate": gen_degenerate, "curve": gen_curve,
    "hurwitz": gen_hurwitz, "strata": gen_strata, "classify-compact": gen_classify_compact,
    "from-relu": gen_from_relu, "to-relu": gen_to_relu, "symmetry": gen_symmetry,
    "tropicalize": gen_tropicalize, "moduli-point": gen_moduli_point,
}

# Outcome classes per operation: (kind, count).  Success counts are whole
# periods of the balancing index (20 for type and symmetry, 27 faces, 18
# tropicalize sizes), so every seed gets the same mix of costs.
CLI_MIX = {
    "types": [("registry", 1), ("ok", 1)],
    "classify": [("ok", 1), ("inadmissible", 1)],
    "eval": [("ok", 1), ("invalid-input", 1)],
    "aut": [("ok", 2)],
    "stratum": [("ok", 2)],
    "degenerate": [("ok", 1), ("invalid-degeneration", 1)],
    "curve": [("ok", 1), ("invalid-input", 1)],
    "hurwitz": [("ok", 1), ("non-generic-configuration", 1)],
    "strata": [("ok", 2)],
    "classify-compact": [("ok", 2)],
    "from-relu": [("ok", 1), ("inadmissible", 1)],
    "to-relu": [("ok", 1), ("invalid-map", 1)],
    "symmetry": [("ok", 2)],
    "tropicalize": [("ok", 1), ("invalid-input", 1)],
}

D3_SMALL = {
    "classify": [("ok", 20), ("inadmissible", 4), ("invalid", 5), ("invalid-input", 2)],
    "moduli-point": [("ok", 20), ("inadmissible-map", 3), ("invalid-input", 2)],
    "aut": [("ok", 20), ("invalid-input", 2)],
    "stratum": [("ok", 20), ("invalid-input", 2)],
    "degenerate": [("ok", 20), ("invalid-degeneration", 8), ("invalid-input", 2)],
    "curve": [("ok", 20), ("invalid-input", 2)],
    "hurwitz": [("ok", 20), ("non-generic-configuration", 4)],
    "strata": [("ok", 40), ("not-a-maximal-type", 2)],
    "classify-compact": [("ok", 27), ("invalid-input", 2)],
    "symmetry": [("ok", 20), ("inadmissible", 5), ("invalid-input", 2)],
    "tropicalize": [("ok", 18), ("invalid-input", 2)],
    "eval": [("ok", 20), ("invalid-map", 4), ("invalid-input", 4)],
}

LARGE_K = 2000            # breaks of the evaluated and converted maps, units of networks
LARGE_POLY = (400, 300)   # coefficients of p and q for tropicalize
LARGE_POINTS = 100
LARGE_MIX = {"from-relu": 20, "to-relu": 10, "tropicalize": 10}
ENUMERATE_CYCLE = (4, 5, 4, 5, 6) * 4    # 8 x d=4, 8 x d=5, 4 x d=6


def _mixed(rng, table):
    reqs = []
    for op, kinds in table.items():
        for kind, count in kinds:
            offset = rng.randrange(540)     # a multiple of every balancing period
            reqs += [GENERATORS[op](rng, kind, offset + j) for j in range(count)]
    rng.shuffle(reqs)
    return reqs


def pool(workload, seed):
    """(requests, shared) for a workload; shared holds inputs built once in set-up."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "cli-mix":
        return _mixed(rng, CLI_MIX), {}
    if workload == "d3-small":
        return _mixed(rng, D3_SMALL), {}
    if workload == "enumerate":
        # The seed rotates one fixed interleaving, so which degree follows
        # which (and so garbage-collection timing) is the same for every seed.
        shift = rng.randrange(len(ENUMERATE_CYCLE))
        cycle = ENUMERATE_CYCLE[shift:] + ENUMERATE_CYCLE[:shift]
        return [gen_types(rng, "ok", 0, d) for d in cycle], {}
    if workload == "large-inputs":
        breaks, slopes, anchor = valid_map(rng, LARGE_K)
        shared = {"map": dumps(map_json(breaks, slopes, anchor))}
        lo, hi = breaks[0] - 10, breaks[-1] + 10
        reqs = [request("eval-shared", None, {"oracle": True},
                        at=fmt(lo + (hi - lo) * Fraction(rng.randint(0, 10 ** 6), 10 ** 6)))
                for _ in range(LARGE_POINTS)]
        reqs += [gen_from_relu(rng, "ok", 0, LARGE_K) for _ in range(LARGE_MIX["from-relu"])]
        reqs += [gen_to_relu(rng, "ok", 0, LARGE_K) for _ in range(LARGE_MIX["to-relu"])]
        reqs += [gen_tropicalize(rng, "ok", 0, LARGE_POLY)
                 for _ in range(LARGE_MIX["tropicalize"])]
        rng.shuffle(reqs)
        return reqs, shared
    raise ValueError("unknown workload %r" % workload)


def coverage(seed):
    """One success request per in-process operation, for layers a workload leaves idle."""
    rng = random.Random("coverage/%d" % seed)
    return [GENERATORS[op](rng, "ok", j) for j, op in enumerate(D3_SMALL)]
