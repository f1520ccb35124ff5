"""Command-line interface: JSON in, JSON (or a small table) out.

Every subcommand is one row of COMMANDS and runs load -> decode -> op ->
encode.  Exit codes: 0 success, 1 domain error, 2 malformed input, 3 a
fault of the program itself, 141 a closed stdout.  An error prints
{"error": code, "detail": text}: domain errors on stdout, the others on
stderr.  The README lists every code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import cache
from itertools import islice

from . import compact, hurwitz, moduli, plcore, relu, serialize, types_enum
from .errors import DomainError, InputError, TropmapsError, decoder
from .rational import _bounded_echo, _too_large, format_extended, format_rational


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:   # its own text would echo the whole path
        raise InputError("cannot read %s: %s" % (_bounded_echo(path), exc.strerror)) from None


def _print_kv(payload):
    for key, value in payload.items():
        print("%s: %s" % (key, json.dumps(value)))


# --- decoders: args -> the value an op takes ----------------------------

def _map(args):
    return serialize.map_from_json(_load_json(args.input))


def _valid_map(args):
    m = _map(args)
    report = plcore.validate(m)
    if not report.ok:
        raise DomainError(_bounded_echo("; ".join(report.problems), str, 160),
                          code="invalid-map")
    return m


def _point(args):
    return serialize.point_from_json(_load_json(args.input))


def _network(args):
    return serialize.network_from_json(_load_json(args.input))


def _branch_configuration(args):
    if args.branch is not None:   # an empty --branch= is a bad value, not an absent one
        return hurwitz.BranchConfiguration.from_branch_points(args.branch.split(","))
    return hurwitz.BranchConfiguration(tuple(args.distances.split(",")))


def _rational_function(args):
    obj = _load_json(args.input)
    return (serialize.polynomial_from_json(serialize._list(obj, "p")),
            serialize.polynomial_from_json(serialize._list(obj, "q")))


# --- ops and payloads ------------------------------------------------------

_MAX_DEGREE = 8   # types: d=8 lists 235,734 types, each degree costs about 8x more


def _types(degree, max_breaks):
    """The (label, slopes) pair of each type, in the order the listing prints."""
    if not 1 <= degree <= _MAX_DEGREE:
        raise InputError("degree must be positive" if degree < 1
                         else "degree must be at most %d" % _MAX_DEGREE)
    if max_breaks is not None and max_breaks < 0:
        raise InputError("max-breaks must be at least 0")
    if degree == 3:   # the registry's labelled sequences, in its order I-X
        return [(label, q) for label, q in types_enum._REGISTRY_D3
                if max_breaks is None or len(q) - 1 <= max_breaks]
    # the search proves each tuple admissible: no type objects needed
    return ((None, q) for q in types_enum.canonical_sequences(degree, max_breaks))


def _print_types(pairs):
    for label, q in pairs:
        print("%-5s k=%d  %s%s" % (label or "-", len(q) - 1, q,
                                   "  (palindromic)" if types_enum._is_palindrome(q) else ""))


_ROWS_PER_WRITE = 4096


@cache
def _row_template(label, n, palindromic):
    """The JSON text of a row of this shape, its n slopes left as %d."""
    return '{"label": %s, "slopes": [%s], "palindromic": %s, "k": %d}' % (
        json.dumps(label), ", ".join(["%d"] * n), json.dumps(palindromic), n - 1)


def _dump_types(pairs):
    """types --json: the bytes json.dumps gives for the rows, written as they
    are rendered, a fixed number of rows at a time.  Each row fills its
    shape's template with its slope tuple."""
    is_palindrome = types_enum._is_palindrome
    rows = (_row_template(label, len(q), is_palindrome(q)) % q for label, q in pairs)
    sys.stdout.write("[")
    sep = ""
    while chunk := ", ".join(islice(rows, _ROWS_PER_WRITE)):
        sys.stdout.write(sep + chunk)
        sep = ", "
    sys.stdout.write("]\n")


def _classify(m):
    report = plcore.validate(m)
    payload = {"valid": report.ok, "problems": list(report.problems)}
    if report.ok:
        reasons = types_enum._admissibility_reasons(3, m.slopes)
        payload.update(admissible=not reasons, reasons=reasons)
        if not reasons:
            payload["type"] = types_enum._D3_LABELS[m.slopes]
            payload["canonical_slopes"] = list(types_enum._reversal_min(m.slopes)[0][0])
    return payload


def _aut_json(group):
    payload = {"kind": group.kind}
    if group.kind == moduli.Z2:
        payload["reflection_center"] = format_rational(group.reflection_center)
        payload["target_shift"] = format_rational(group.target_shift)
    return payload


def _curve_json(c):
    return {
        "vertices": [{"position": format_rational(x), "weight": w}
                     for x, w in c.finite_vertices],
        "edges": [{"length": format_rational(l), "dilation": s}
                  for l, s in c.bounded_edges],
        "leaf_dilations": list(c.leaf_dilations),
    }


def _hurwitz(b):
    elements = hurwitz.fiber(b)
    return {
        "geometric_count": len(elements),
        "weighted_count": hurwitz.hurwitz_number(b),
        "elements": [{"slopes": list(e.seq.slopes),
                      "gaps": [format_rational(g) for g in e.gaps],
                      "multiplicity": e.multiplicity} for e in elements],
    }


def _print_hurwitz(p):
    print("geometric count: %d" % p["geometric_count"])
    print("weighted count:  %d" % p["weighted_count"])
    for e in p["elements"]:
        print("  %s gaps=%s mult=%d" % (tuple(e["slopes"]), e["gaps"], e["multiplicity"]))


def _stratum_json(s):
    return {
        "states": list(s.coordinate_states),
        "codimension": s.codimension,
        "collisions": [{"index": i, "kind": kind} for i, kind in s.collisions],
        "infinity": list(s.infinity_indices),
        "limit_slopes": list(s.limit_slopes),
        "in_moduli": s.in_moduli,
        "limit_label": s.limit_label,
    }


def _strata(seq):
    strata = compact.face_lattice(seq)
    census = Counter(s.codimension for s in strata)
    return {
        "type": types_enum._D3_LABELS[seq.slopes],
        "codimension_census": {str(c): census[c] for c in sorted(census)},
        "strata": [_stratum_json(s) for s in strata],
    }


def _print_strata(p):
    print("type %s: %d strata, census %s"
          % (p["type"], len(p["strata"]), p["codimension_census"]))
    for s in p["strata"]:
        print("  %-28s codim %d  limit %s  in_moduli=%s"
              % ("/".join(s["states"]), s["codimension"],
                 tuple(s["limit_slopes"]), s["in_moduli"]))


def _symmetry_json(report):
    payload = {
        "dead_units": [{"index": d.index, "reason": d.reason}
                       for d in report.dead_units],
        "admissible": report.admissible,
        "problems": list(report.problems),
        "type": report.type_label,
        "aut": report.aut,
        "gap_condition": None,
    }
    if report.gap_condition is not None:
        l1, l3, equal = report.gap_condition
        payload["gap_condition"] = {"l1": format_rational(l1),
                                    "l3": format_rational(l3), "equal": equal}
    return payload


# --- the dispatch table ------------------------------------------------------

INPUT = ("input", {"help": "JSON file path, or - for stdin"})

# One row per subcommand: name, help, arguments, decode(args) -> value,
# op(value) -> result, encode(result) -> payload (None: the result is the
# payload), human(payload), and optionally dump(payload), what --json
# writes (by default one json.dumps line).  An argument is a (flag, kwargs)
# pair; a list of them is a required choice of exactly one.  Rows look
# library functions up when they run, so rebinding a module attribute
# reaches them.
COMMANDS = (
    ("types", "enumerate combinatorial types",
     [("--degree", {"type": int, "required": True}),
      ("--max-breaks", {"type": int, "default": None})],
     lambda a: (a.degree, a.max_breaks), lambda v: _types(*v), None, _print_types, _dump_types),
    ("classify", "validate a map and identify its type", [INPUT],
     _map, _classify, None, _print_kv),
    ("eval", "evaluate a map at a point",
     [INPUT, ("--at", {"required": True, "help": "write a negative value as --at=-1/2"})],
     lambda a: (_valid_map(a), a.at), lambda v: plcore.evaluate(*v),
     lambda x: {"value": format_extended(x)}, lambda p: print(p["value"])),
    ("aut", "automorphism group of a moduli point", [INPUT],
     _point, lambda p: moduli.automorphisms(p), _aut_json, _print_kv),
    ("stratum", "symmetry stratum of a moduli point", [INPUT],
     _point, lambda p: moduli.stratum(p),
     lambda s: {"aut": s.aut, "cell_dimension": s.cell_dimension,
                "symmetric_locus": s.symmetric_locus, "label": s.label}, _print_kv),
    ("degenerate", "merge two adjacent break points",
     [INPUT, ("--merge", {"type": int, "required": True})],
     lambda a: (_point(a), a.merge), lambda v: moduli.degenerate(*v),
     lambda q: serialize.point_to_json(q), _print_kv),
    ("curve", "underlying weighted tropical curve", [INPUT],
     _point, lambda p: moduli.weighted_curve(p), _curve_json, _print_kv),
    ("classify-compact", "boundary stratum of a compactified point", [INPUT],
     lambda a: serialize.compact_point_from_json(_load_json(a.input)),
     lambda p: compact.classify_stratum(p), _stratum_json, _print_kv),
    ("from-relu", "convert a ReLU network to a map", [INPUT],
     _network, lambda n: relu.network_to_map(n),
     lambda c: {"map": serialize.map_to_json(c.map), "admissible": c.admissible,
                "problems": list(c.problems)}, _print_kv),
    ("to-relu", "canonical ReLU network of a map", [INPUT],
     _valid_map, lambda m: relu.map_to_network(m),
     lambda n: serialize.network_to_json(n), _print_kv),
    ("symmetry", "symmetry / pruning report of a network", [INPUT],
     _network, lambda n: relu.symmetry_report(n), _symmetry_json, _print_kv),
    ("tropicalize", "tropicalize a rational function from coefficient data", [INPUT],
     _rational_function, lambda v: plcore.tropicalize_rational(*v),
     lambda m: serialize.map_to_json(m), _print_kv),
    ("hurwitz", "Hurwitz fiber over a branch configuration",
     [[("--branch", {"help": "four branch points p1,p2,p3,p4 "
                               "(--branch=-1,0,2,5 if p1 < 0)"}),
       ("--distances", {"help": "three distances d1,d2,d3 "
                                "(--distances=-1,2,3 if d1 < 0)"})]],
     _branch_configuration, _hurwitz, None, _print_hurwitz),
    ("strata", "face lattice of a maximal type's cube",
     [("--type", {"required": True, "help": "registry label I-V"})],
     lambda a: types_enum.registry_sequence(a.type), _strata, None, _print_strata),
)
_ROWS = {row[0]: row for row in COMMANDS}


def _print_json(payload):
    print(json.dumps(payload))


def _runner(decode, op, encode, human, dump):
    """args.func of one row.  Coded errors pass through; any other error of
    the decode step is malformed input."""
    decode = decoder(decode)

    def run(args):
        result = op(decode(args))
        payload = result if encode is None else encode(result)
        try:
            (dump if args.json else human)(payload)
            sys.stdout.flush()   # a closed stdout shows here, not in the exit's own flush
        except ValueError:   # an int past the interpreter's int-string digit limit
            raise _too_large() from None
    return run


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's passes over a closed stdout in silence
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def build_parser(command=None):
    """The CLI's parser, or a subcommand's parser alone, each built on its first
    call and shared after it: parse_args keeps no state between calls."""
    return _parser(command)


@cache   # build_parser stays a plain function, so perfbench's tracer still times the build
def _parser(command):
    if command is not None:   # the subparser that the full parser adds for it
        parser = _Parser(prog="tropmaps " + command)
        _add_row(parser, command, *_ROWS[command][2:])
        return parser
    parser = _Parser(
        prog="tropmaps",
        description="Degree-3 tropical rational maps: types, moduli, "
                    "Hurwitz fibers, compactification, ReLU bridge.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, *row in COMMANDS:
        _add_row(sub.add_parser(name, help=help_), name, *row)
    return parser


def _add_row(p, command, arguments, decode, op, encode, human, dump=_print_json):
    p.add_argument("--json", action="store_true", help="JSON output")
    for arg in arguments:
        if isinstance(arg, list):
            group = p.add_mutually_exclusive_group(required=True)
            for flag, kwargs in arg:
                group.add_argument(flag, **kwargs)
        else:
            p.add_argument(arg[0], **arg[1])
    p.set_defaults(command=command, func=_runner(decode, op, encode, human, dump))


def _parse(argv):
    """argv parsed by its own subcommand's parser if that reads every argument,
    else by the full parser: no or an unknown command, a leading -h, a leftover."""
    if argv and argv[0] in _ROWS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def _report(exc):
    stream = sys.stderr if isinstance(exc, InputError) else sys.stdout
    print(json.dumps({"error": exc.code, "detail": str(exc)}), file=stream, flush=True)
    return exc.exit_code


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        try:
            args.func(args)
            return 0
        except TropmapsError as exc:
            return _report(exc)
        except ValueError as exc:   # an uncoded rejection raised by a module
            return _report(DomainError(str(exc)))
    except BrokenPipeError:   # the reader left early: exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:    # a fault of the program, not of its input
        detail = _bounded_echo("%s: %s" % (type(exc).__name__, exc), str, 160)
        print(json.dumps({"error": "internal-error", "detail": detail}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
