"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; all checks are exact (no tolerances anywhere).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from tropmaps import (BranchConfiguration, InvalidDegeneration, ModuliPoint,
                      TropicalMap, TropicalPolynomial, automorphisms,
                      branch_configuration, canonical_type,
                      degenerate, enumerate_types, evaluate,
                      face_lattice, fiber, hurwitz_number, maps_equal,
                      map_to_network, moduli_point, network_to_map,
                      registry_d3, representative_map,
                      tropical_polynomial_evaluate, tropicalize_rational)
from tropmaps.plcore import break_values
from conftest import call, example_formula, random_fraction
from test_types_enum import THEOREM_SEQUENCES, oracle_types

NEG_INF = float("-inf")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("\n[acceptance] criterion %2d (%s): FAIL" % (num, desc))
        raise
    print("\n[acceptance] criterion %2d (%s): PASS" % (num, desc))


def test_criterion_01_enumeration():
    with criterion(1, "ten degree-3 types"):
        start = time.monotonic()
        code, out, _ = call(["types", "--degree", "3", "--json"])
        rows = json.loads(out)
        elapsed = time.monotonic() - start
        assert code == 0
        assert len(rows) == 10
        by_k = {}
        for r in rows:
            by_k.setdefault(r["k"], set()).add(tuple(r["slopes"]))
        assert by_k == THEOREM_SEQUENCES
        assert sorted((len(v) for v in by_k.values()), reverse=True) == [5, 3, 2]
        assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    with criterion(2, "enumerator equals brute-force oracle, d=1..5"):
        start = time.monotonic()
        counts = {}
        for d in range(1, 6):
            got = {t.canonical.slopes for t in enumerate_types(d)}
            assert got == oracle_types(d)
            counts[d] = len(got)
        assert counts[1] == 1 and counts[2] == 2 and counts[3] == 10
        assert time.monotonic() - start < 10.0


def test_criterion_03_riemann_hurwitz_invariant():
    with criterion(3, "ramification 2d-2 and degree-3 slope bound"):
        for d in range(1, 6):
            for t in enumerate_types(d):
                seq = t.canonical
                assert sum(abs(j) for j in seq.jumps) == 2 * d - 2
                if d == 3:
                    assert all(1 <= s <= 5 for s in seq.slopes)


def test_criterion_04_example_reproduction():
    with criterion(4, "worked example map"):
        m = TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0)
        for x in [-1, 0, Fraction(1, 2), 1, 2, 3, Fraction(7, 2), 4, 5]:
            assert evaluate(m, x) == example_formula(x)
        assert break_values(m) == [0, 4, 14, 18]
        g = automorphisms(moduli_point(m))
        assert g.kind == "z2"
        samples = list(m.break_points)
        samples += [(a + b) / 2 for a, b in
                    zip(m.break_points, m.break_points[1:])]
        for x in samples:
            assert (evaluate(m, 2 * g.reflection_center - x)
                    == -evaluate(m, x) + g.target_shift)


def test_criterion_05_stratification():
    with criterion(5, "symmetry stratification, 10^4 random samples"):
        rng = random.Random(2024)
        reg = registry_d3()
        for _ in range(10_000):
            t = rng.choice(reg)
            seq = t.representative
            gaps = tuple(random_fraction(rng) for _ in range(seq.k - 1))
            p = ModuliPoint(seq, gaps, random_fraction(rng, -30, 30))
            kind = automorphisms(p).kind
            palindromic_gaps = gaps == tuple(reversed(gaps))
            assert kind == ("z2" if t.palindromic and palindromic_gaps
                            else "trivial")
            if seq.k == 2:
                assert kind == "z2"
            if seq.k == 4 and t.palindromic:
                assert kind == ("z2" if gaps[0] == gaps[2] else "trivial")
            if not t.palindromic:
                assert kind == "trivial"


def test_criterion_06_degeneration_poset():
    with criterion(6, "degeneration poset over all types and indices"):
        expected = {("I", "VI"), ("III", "VIII"), ("V", "VII"),
                    ("VI", "IX"), ("VII", "X")}
        registry_canon = {t.canonical.slopes for t in registry_d3()}
        found = set()
        for t in registry_d3():
            for seq in {t.representative, t.representative.reversed_()}:
                gaps = tuple(Fraction(2 * n + 1, 2) for n in range(seq.k - 1))
                p = ModuliPoint(seq, gaps, 0)
                for i in range(1, seq.k):
                    try:
                        q = degenerate(p, i)
                    except InvalidDegeneration:
                        continue
                    child = canonical_type(q.seq)
                    assert child.canonical.slopes in registry_canon
                    found.add((t.label, child.label))
        assert found == expected


def test_criterion_07_hurwitz():
    with criterion(7, "nine-sheeted Hurwitz count, 100 random fibers"):
        start = time.monotonic()
        rng = random.Random(99)
        for _ in range(100):
            b = BranchConfiguration(tuple(random_fraction(rng)
                                          for _ in range(3)))
            elements = fiber(b)
            assert len(elements) == 6
            assert hurwitz_number(b) == 9
            assert sum({canonical_type(e.seq).label: e.multiplicity
                        for e in elements}.values()) == 9
            for e in elements:
                p = ModuliPoint(e.seq, e.gaps, 0)
                assert branch_configuration(p).distances == b.distances
        assert time.monotonic() - start < 1.0


def test_criterion_08_compactification_census():
    with criterion(8, "27-face cube census per maximal type"):
        degenerate_labels = {"VI", "VII", "VIII", "IX", "X"}
        for t in registry_d3():
            if t.k != 4:
                continue
            strata = face_lattice(t.representative)
            assert len(strata) == 27
            census = {}
            for s in strata:
                census[s.codimension] = census.get(s.codimension, 0) + 1
            assert census == {0: 1, 1: 6, 2: 12, 3: 8}
            for s in strata:
                variation = sum(abs(b - a) for a, b in
                                zip(s.limit_slopes, s.limit_slopes[1:]))
                assert s.in_moduli == (variation == 4)
                if s.collisions and s.in_moduli:
                    assert s.limit_label in degenerate_labels


def test_criterion_09_relu_round_trip():
    with criterion(9, "ReLU round trip, 10^3 random maps"):
        rng = random.Random(41)
        reg = registry_d3()
        for _ in range(1000):
            t = rng.choice(reg)
            seq = t.representative
            gaps = tuple(random_fraction(rng) for _ in range(seq.k - 1))
            m = representative_map(
                ModuliPoint(seq, gaps, random_fraction(rng, -30, 30)))
            assert maps_equal(network_to_map(map_to_network(m)).map, m)
        from tropmaps import ReLUNetwork
        star = ReLUNetwork(3, 0, ((1, 0, 1), (1, -1, 1),
                                  (1, -3, -1), (1, -4, -1)))
        assert maps_equal(network_to_map(star).map,
                          TropicalMap((0, 1, 3, 4), (3, 4, 5, 4, 3), 0))


def test_criterion_10_tropicalization():
    with criterion(10, "tropicalization envelopes and pointwise oracle"):
        cases = [
            ((0, 0, 0, 0), (0,), ((0,), (0, 3), 0)),
            ((0, NEG_INF, NEG_INF, 0), (0,), ((0,), (0, 3), 0)),
            ((0, 0), (0,), ((0,), (0, 1), 0)),
        ]
        rng = random.Random(55)
        for p_coeffs, q_coeffs, (breaks, slopes, anchor) in cases:
            p = TropicalPolynomial(p_coeffs)
            q = TropicalPolynomial(q_coeffs)
            m = tropicalize_rational(p, q)
            assert m.break_points == breaks
            assert m.slopes == slopes
            assert m.anchor_value == anchor
            for _ in range(100):
                x = random_fraction(rng, -50, 50)
                assert evaluate(m, x) == (tropical_polynomial_evaluate(p, x)
                                          - tropical_polynomial_evaluate(q, x))
