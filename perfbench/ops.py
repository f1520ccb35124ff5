"""Requests against tropmaps: in-process runs of the CLI's own subcommand
handlers, the same requests as CLI argument lists, and the output checks
for both.

In-process, each request's arguments are parsed once in set-up with
`cli.build_parser()`; a request then calls the handler with stdin and
stdout swapped for in-memory streams, so it pays the program's own JSON
decode, op and encode.  Payloads are the ones `tropmaps <cmd> --json`
prints, so one checker serves both paths.
"""

import hashlib
import io
import json
import sys
import traceback
from fractions import Fraction

from tropmaps import cli, moduli, plcore, rational, relu, serialize

EXIT = {None: 0, "invalid-input": 2}     # every other error code exits 1


# --- in-process operations ------------------------------------------------------

def _moduli_point(req, shared):
    """A library call the CLI has no subcommand for."""
    m = serialize.map_from_json(json.load(sys.stdin))
    print(json.dumps(serialize.point_to_json(moduli.moduli_point(m))))


def _eval_shared(req, shared):
    """One point of the map built once in set-up."""
    x = rational.parse_extended(req["args"]["at"])
    print(json.dumps({"value": rational.format_extended(plcore.evaluate(shared["map"], x))}))


DIRECT = {"moduli-point": _moduli_point, "eval-shared": _eval_shared}


def parse(requests):
    """Parse each request's CLI arguments once, in set-up."""
    parser = cli.build_parser()
    for req in requests:
        if req["op"] not in DIRECT:
            req["parsed"] = parser.parse_args(argv(req))
    return requests


def prepare(shared_json):
    """Decode the inputs a workload builds once in set-up."""
    shared = {}
    if "map" in shared_json:
        shared["map"] = serialize.map_from_json(json.loads(shared_json["map"]))
    return shared


def execute(req, shared):
    """Run one request in-process; returns (exit code, error code, output text).

    The exception-to-code mapping is the one `cli.main` applies.
    """
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(req["text"] or ""), io.StringIO()
    try:
        if req["op"] in DIRECT:
            DIRECT[req["op"]](req, shared)
        else:
            req["parsed"].func(req["parsed"])
        return 0, None, sys.stdout.getvalue()
    except cli.DomainError as exc:
        return 1, exc.code, None
    except (cli.InputError, serialize.SchemaError):
        return 2, "invalid-input", None
    except ValueError as exc:
        return 1, "inadmissible-map" if "inadmissible" in str(exc) else "domain-error", None
    except Exception as exc:   # a request must not end the run; crashes are recorded
        return -1, "crash", "".join(traceback.format_exception_only(type(exc), exc))
    finally:
        sys.stdin, sys.stdout = stdin, stdout


def argv(req):
    """The `tropmaps` arguments of a request; JSON input goes to stdin."""
    op, args = req["op"], req["args"]
    if op == "types":
        return ["types", "--degree=%d" % args["degree"], "--json"]
    if op == "hurwitz":
        key = "branch" if "branch" in args else "distances"
        return ["hurwitz", "--%s=%s" % (key, ",".join(args[key])), "--json"]
    if op == "strata":
        return ["strata", "--type=%s" % args["type"], "--json"]
    out = [op, "-"]
    if op == "eval":
        out.append("--at=%s" % args["at"])
    if op == "degenerate":
        out.append("--merge=%d" % args["merge"])
    return out + ["--json"]


def cli_outcome(returncode, stdout, stderr):
    """(exit code, error code, output text) of one CLI process.

    The error code is read from the last JSON line with an "error" key on
    either stream; a traceback or another exit code is a crash.
    """
    if "Traceback (most recent call last)" in stderr or returncode not in (0, 1, 2):
        return -1, "crash", stderr[-2000:]
    if returncode == 0:
        return 0, None, stdout.strip()
    for line in reversed((stdout + "\n" + stderr).splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("error"), str):
            return returncode, obj["error"], None
    return returncode, "no-error-code", stderr[-2000:]


# --- output checks ------------------------------------------------------------

def check(req, outcome, oracle):
    """None when the outcome meets the README contract, else a reason."""
    exit_code, code, text = outcome
    expect = req["expect"]
    if "error" in expect:
        want = expect["error"]
        if code != want or exit_code != EXIT.get(want, 1):
            return "expected %s (exit %d), got exit %s code %s" % (
                want, EXIT.get(want, 1), exit_code, code)
        return None
    if exit_code != 0:
        return "expected success, got exit %s code %s %s" % (exit_code, code, (text or "")[:200])
    try:
        payload = json.loads(text)
        problem = CHECKS[req["op"]](req, payload, oracle)
    except Exception as exc:   # a malformed payload is a failed check, not a crash
        problem = "check raised %r" % (exc,)
    return problem


def _same(got, want, what):
    return None if got == want else "%s: got %r, want %r" % (what, got, want)


def _check_types(req, rows, oracle):
    d = req["args"]["degree"]
    if len(rows) != req["expect"]["count"]:
        return "types: %d rows, want %d" % (len(rows), req["expect"]["count"])
    seen = set()
    for r in rows:
        s = r["slopes"]
        if (s[0] != d or s[-1] != d or min(s) < 1 or r["k"] != len(s) - 1
                or any(a == b for a, b in zip(s, s[1:]))
                or sum(abs(b - a) for a, b in zip(s, s[1:])) != 2 * d - 2
                or r["palindromic"] != (s == s[::-1])):
            return "types: inadmissible row %r" % (r,)
        seen.add(min(tuple(s), tuple(s[::-1])))
    if len(seen) != len(rows):
        return "types: rows repeat a type up to reversal"
    if d == 3 and [r["label"] for r in rows] != ["I", "II", "III", "IV", "V", "VI",
                                                "VII", "VIII", "IX", "X"]:
        return "types: degree-3 labels out of registry order"
    return None


def _check_classify(req, p, oracle):
    e = req["expect"]
    if p["valid"] != e["valid"]:
        return _same(p["valid"], e["valid"], "valid")
    if not e["valid"]:
        return None if p["problems"] else "classify: invalid map without problems"
    if p.get("admissible") != e["admissible"]:
        return _same(p.get("admissible"), e["admissible"], "admissible")
    return _same(p.get("type"), e.get("type"), "type")


def _check_eval(req, p, oracle):
    m = oracle["map"] if req["text"] is None else serialize.map_from_json(json.loads(req["text"]))
    net = oracle["net"] if req["text"] is None else relu.map_to_network(m)
    want = rational.format_rational(net.evaluate(Fraction(req["args"]["at"])))
    return _same(p["value"], want, "value against the ReLU network")


def _check_round_trip(req, p, oracle):
    m = serialize.map_from_json(json.loads(req["text"]))
    back = relu.network_to_map(serialize.network_from_json(p)).map
    if not plcore.maps_equal(back, m):
        return "to-relu: network does not convert back to the map"
    return _same(len(p["units"]), m.k, "unit count")


def _check_from_relu(req, p, oracle):
    return (_same(p["map"], req["expect"]["map"], "map")
            or _same(p["admissible"], req["expect"]["admissible"], "admissible"))


def _check_symmetry(req, p, oracle):
    e = req["expect"]
    dead = [(d["index"], d["reason"]) for d in p["dead_units"]]
    problem = (_same(dead, [tuple(x) for x in e["dead"]], "dead units")
               or _same(p["admissible"], e["admissible"], "admissible"))
    if problem or not e["admissible"]:
        return problem
    return (_same(p["type"], e["type"], "type") or _same(p["aut"], e["aut"], "aut")
            or _same(p["gap_condition"], e["gap_condition"], "gap condition"))


def _check_hurwitz(req, p, oracle):
    dists = [Fraction(d) for d in req["expect"]["distances"]]
    problem = (_same(p["geometric_count"], 6, "geometric count")
               or _same(p["weighted_count"], 9, "weighted count"))
    if problem:
        return problem
    for e in p["elements"]:
        gaps = [Fraction(g) for g in e["gaps"]]
        if [g * s for g, s in zip(gaps, e["slopes"][1:-1])] != dists:
            return "hurwitz: element %r does not lie over the configuration" % (e,)
    return None


def _check_strata(req, p, oracle):
    return (_same(p["type"], req["expect"]["type"], "type")
            or _same(len(p["strata"]), 27, "face count")
            or _same(p["codimension_census"], {"0": 1, "1": 6, "2": 12, "3": 8}, "census"))


def _check_pointwise(req, p, oracle):
    obj = json.loads(req["text"])
    pp = serialize.polynomial_from_json(obj["p"])
    qq = serialize.polynomial_from_json(obj["q"])
    m = serialize.map_from_json(p)
    xs = list(m.break_points)
    step = max(1, len(xs) // 8)
    xs = xs[::step]
    samples = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    samples += [(xs[0] if xs else Fraction(0)) - 3, (xs[-1] if xs else Fraction(0)) + 3]
    for x in samples:
        want = (plcore.tropical_polynomial_evaluate(pp, x)
                - plcore.tropical_polynomial_evaluate(qq, x))
        if plcore.evaluate(m, x) != want:
            return "tropicalize: differs from trop(p) - trop(q) at %s" % (x,)
    return None


def _check_payload(req, p, oracle):
    return _same(p, req["expect"]["payload"], req["op"])


CHECKS = {
    "types": _check_types, "classify": _check_classify, "eval": _check_eval,
    "eval-shared": _check_eval, "aut": lambda req, p, o: _same(p, req["expect"], "aut"),
    "stratum": _check_payload, "degenerate": _check_payload, "curve": _check_payload,
    "hurwitz": _check_hurwitz, "strata": _check_strata,
    "classify-compact": _check_payload, "from-relu": _check_from_relu,
    "to-relu": _check_round_trip, "symmetry": _check_symmetry,
    "tropicalize": _check_pointwise,
    "moduli-point": lambda req, p, o: _same(p, req["expect"]["point"], "point"),
}


def oracle_for(shared):
    if "map" not in shared:
        return {}
    return {"map": shared["map"], "net": relu.map_to_network(shared["map"])}


def canonical_line(req, outcome):
    """One digest line: exit code, error code and the success payload in
    canonical form; free-text error detail is left out."""
    exit_code, code, text = outcome
    payload = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) \
        if exit_code == 0 else ""
    return "%s\t%s\t%s\t%s\n" % (req["op"], exit_code, code, payload)


class Verifier:
    """Checks each pool entry once against the contract and keeps its output,
    so later repeats of the entry are checked by comparison."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.reference = {}
        self.failures = []
        self.digest = hashlib.sha256()

    def first(self, i, req, outcome):
        problem = check(req, outcome, self.oracle)
        self.reference[i] = (outcome, problem)
        self.digest.update(canonical_line(req, outcome).encode())
        if problem:
            self.failures.append("pool[%d] %s: %s" % (i, req["op"], problem))
        return problem is None

    def repeat(self, i, outcome):
        ref, problem = self.reference[i]
        return problem is None and outcome == ref
