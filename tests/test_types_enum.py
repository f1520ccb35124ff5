import gc
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from tropmaps import (SlopeSequence, canonical_type, enumerate_types,
                      registry_d3, registry_sequence)
from tropmaps.rational import _bounded_echo
from tropmaps.types_enum import _D3_LABELS, _admissibility_reasons, canonical_sequences

THEOREM_SEQUENCES = {
    4: {(3, 4, 5, 4, 3), (3, 4, 3, 4, 3), (3, 4, 3, 2, 3),
        (3, 2, 3, 2, 3), (3, 2, 1, 2, 3)},
    3: {(3, 5, 4, 3), (3, 1, 2, 3), (3, 4, 2, 3)},
    2: {(3, 5, 3), (3, 1, 3)},
}


def _compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle_types(degree):
    """Brute-force oracle: all jump sequences via compositions of the
    variation budget and sign patterns, canonicalized up to reversal.

    Deliberately a different code path from the production depth-first
    enumerator.
    """
    budget = 2 * degree - 2
    canon = set()
    if budget == 0:
        return {(degree,)}
    for k in range(1, budget + 1):
        for magnitudes in _compositions(budget, k):
            for signs in product((1, -1), repeat=k):
                jumps = tuple(s * m for s, m in zip(signs, magnitudes))
                if sum(jumps) != 0:
                    continue
                slopes = [degree]
                for j in jumps:
                    slopes.append(slopes[-1] + j)
                if any(s < 1 for s in slopes):
                    continue
                t = tuple(slopes)
                canon.add(min(t, tuple(reversed(t))))
    return canon


@cache
def _walks(degree, s, budget, breaks, home):
    """Slope walks from slope s that spend exactly `budget` of variation in
    at most `breaks` nonzero jumps with every slope >= 1, and end at slope
    `degree` if `home`, anywhere otherwise."""
    if breaks < 0:
        return 0
    if budget == 0:
        return int(s == degree or not home)
    return sum(_walks(degree, t, budget - abs(t - s), breaks - 1, home)
               for t in range(max(1, s - budget), s + budget + 1) if t != s)


def oracle_count(degree, cap=None):
    """Counting oracle: the number of types up to reversal, by Burnside's
    lemma over reversal, (sequences + palindromes) / 2, with no listing.  A
    palindrome has an even number 2m of breaks (an odd one would repeat its
    middle slope) and is its first half: m breaks spending d - 1."""
    cap = 2 * degree - 2 if cap is None else cap
    sequences = _walks(degree, degree, 2 * degree - 2, cap, True)
    palindromes = _walks(degree, degree, degree - 1, cap // 2, False)
    return (sequences + palindromes) // 2


class TestEnumeration:
    def test_degree3_matches_theorem_list(self):
        types = enumerate_types(3)
        assert len(types) == 10
        by_k = {}
        for t in types:
            by_k.setdefault(t.k, set()).add(t.canonical.slopes)
        expected = {k: {min(s, tuple(reversed(s))) for s in seqs}
                    for k, seqs in THEOREM_SEQUENCES.items()}
        assert by_k == expected

    def test_degree1(self):
        types = enumerate_types(1)
        assert [t.canonical.slopes for t in types] == [(1,)]

    def test_degree2(self):
        types = enumerate_types(2)
        assert {t.canonical.slopes for t in types} == {(2, 3, 2), (2, 1, 2)}

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle(self, degree):
        oracle = oracle_types(degree)
        got = {t.canonical.slopes for t in enumerate_types(degree)}
        assert got == oracle
        for cap in range(-1, 2 * degree - 1):
            got = [t.canonical.slopes for t in enumerate_types(degree, cap)]
            assert len(got) == len(set(got))
            assert set(got) == {s for s in oracle if len(s) - 1 <= cap}

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_exact_output_for_every_cap(self, degree):
        oracle = sorted(oracle_types(degree), key=lambda s: (-len(s), s))
        for cap in range(-1, 2 * degree - 1):
            types = enumerate_types(degree, cap)
            assert [t.canonical.slopes for t in types] == [s for s in oracle if len(s) - 1 <= cap]
            for t in types:
                s = t.canonical.slopes
                assert t.palindromic == (s == s[::-1])
                assert t.representative is t.canonical
                assert t.label == (_D3_LABELS[s] if degree == 3 else None)
                assert canonical_type(t.canonical) == t

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_canonical_sequences_come_sorted_and_admissible(self, degree):
        # sorting by length alone keeps the search's lexicographic order
        got = canonical_sequences(degree)
        assert got == sorted(got, key=lambda q: (-len(q), q))
        assert not any(_admissibility_reasons(degree, q) for q in got)

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_counting_oracle_at_every_cap(self, degree):
        for cap in [None, *range(-1, 2 * degree - 1)]:
            assert len(canonical_sequences(degree, cap)) == oracle_count(degree, cap)

    def test_counting_oracle_pins_the_largest_degrees(self):
        # degree 8 is counted, not listed
        assert (oracle_count(7), oracle_count(8)) == (28_338, 235_734)

    @pytest.mark.parametrize("search", [canonical_sequences, enumerate_types])
    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_must_be_positive(self, search, degree):
        with pytest.raises(ValueError, match="^degree must be positive$"):
            search(degree)

    def test_leaves_no_cyclic_garbage(self):
        # cycles are freed only by the collector, which a long search
        # may not run for a while: the search must not make any
        gc.collect()
        gc.disable()
        try:
            enumerate_types(6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_max_breaks_filter(self):
        types = enumerate_types(3, max_breaks=3)
        assert all(t.k <= 3 for t in types)
        assert len(types) == 5

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_invariants_of_enumerated_types(self, degree):
        for t in enumerate_types(degree):
            seq = t.canonical
            jumps = seq.jumps
            assert sum(abs(j) for j in jumps) == 2 * degree - 2
            assert all(s >= 1 for s in seq.slopes)
            if degree == 3:
                assert all(1 <= s <= 5 for s in seq.slopes)


class TestCanonicalType:
    def test_reversal_pair_shares_label(self):
        a = canonical_type(SlopeSequence(3, (3, 2, 3, 4, 3)))
        b = canonical_type(SlopeSequence(3, (3, 4, 3, 2, 3)))
        assert a.canonical.slopes == b.canonical.slopes == (3, 2, 3, 4, 3)
        assert a.label == b.label == "III"

    def test_palindrome_is_its_own_canonical(self):
        t = canonical_type(SlopeSequence(3, (3, 4, 5, 4, 3)))
        assert t.canonical.slopes == (3, 4, 5, 4, 3)
        assert t.palindromic and t.label == "I"

    def test_two_break_type(self):
        t = canonical_type(SlopeSequence(3, (3, 5, 3)))
        assert t.palindromic and t.label == "IX"

    def test_idempotent_and_reversal_invariant(self):
        for t in enumerate_types(4):
            seq = t.canonical
            again = canonical_type(seq)
            rev = canonical_type(seq.reversed_())
            assert again.canonical == rev.canonical == seq


class TestRegistry:
    def test_labels_and_order(self):
        reg = registry_d3()
        assert [t.label for t in reg] == ["I", "II", "III", "IV", "V",
                                          "VI", "VII", "VIII", "IX", "X"]
        assert reg[0].representative.slopes == (3, 4, 5, 4, 3)
        assert reg[7].representative.slopes == (3, 4, 2, 3)
        assert reg[9].representative.slopes == (3, 1, 3)

    def test_registry_matches_enumeration(self):
        enum_set = {t.canonical.slopes for t in enumerate_types(3)}
        reg_set = {t.canonical.slopes for t in registry_d3()}
        assert enum_set == reg_set

    def test_registry_sequence_lookup(self):
        assert registry_sequence("VI").slopes == (3, 5, 4, 3)
        with pytest.raises(KeyError):
            registry_sequence("XI")


class TestSlopeBound:
    @pytest.mark.parametrize("slopes", [(3, 4, 5, 4, 3), (3, 5, 3), (3, 1, 3)])
    def test_admissible_sequences_pass(self, slopes):
        # degree-3 slope bound: every slope within 2 of the degree
        assert all(abs(s - 3) <= 2 for s in SlopeSequence(3, slopes).slopes)

    def test_bound_violation_is_unconstructible(self):
        # a slope 6 sequence already violates the variation invariant
        with pytest.raises(ValueError):
            SlopeSequence(3, (3, 6, 3))


class TestSlopeSequence:
    def test_rejects_bad_variation(self):
        with pytest.raises(ValueError, match="total ramification 6 != 4"):
            SlopeSequence(3, (3, 0, 1, 2, 3))

    def test_rejects_zero_jump(self):
        with pytest.raises(ValueError, match="zero jump"):
            SlopeSequence(3, (3, 5, 5, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^empty slope sequence$"):
            SlopeSequence(3, ())

    def test_every_reason_in_order(self):
        reasons = ["end slopes (2, 0) differ from degree 3", "non-positive slope present",
                   "zero jump (repeated consecutive slope)", "total ramification 2 != 4"]
        with pytest.raises(ValueError) as err:
            SlopeSequence(3, (2, 0, 0))
        assert str(err.value) == "; ".join(reasons)
        # the Fraction slopes of a map, as plcore.is_admissible passes them
        assert _admissibility_reasons(3, (Fraction(2), Fraction(0), Fraction(0))) == reasons

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError, match="end slopes"):
            SlopeSequence(3, (3, 4, 5, 6, 7))

    @pytest.mark.parametrize("slopes", [(3, 4.7, 5, 4, 3), (3, 4, 5, 4, 3.0),
                                        (3, True, 3), (3, Fraction(7, 2), 3)])
    def test_rejects_non_integer_slopes(self, slopes):
        with pytest.raises(ValueError, match="non-integer slope"):
            SlopeSequence(3, slopes)

    @pytest.mark.parametrize("slope, echo", [(4.5, "4.5"), (True, "True"),
                                             ("x", "'x'"), (3.0, "3.0")])
    def test_non_integer_slope_message(self, slope, echo):
        with pytest.raises(ValueError) as err:
            SlopeSequence(3, (3, slope, 3))
        assert str(err.value) == "non-integer slope: " + echo

    @pytest.mark.parametrize("slope", [[4], None, {}, 1 + 0j, Decimal(5)],
                             ids=["list", "none", "dict", "complex", "decimal"])
    def test_only_ints_and_integral_fractions_are_slopes(self, slope):
        with pytest.raises(ValueError) as err:
            SlopeSequence(3, (3, slope, 3))
        assert type(err.value) is ValueError
        assert str(err.value) == "non-integer slope: " + _bounded_echo(slope)

    def test_non_integer_slope_is_echoed_as_a_rational(self):
        with pytest.raises(ValueError, match="^non-integer slope: 7/2$"):
            SlopeSequence(3, (3, Fraction(7, 2), 3))

    def test_integral_values_become_ints(self):
        seq = SlopeSequence(3, (3, Fraction(4), 5, 4, 3))
        assert seq.slopes == (3, 4, 5, 4, 3)
        assert all(type(s) is int for s in seq.slopes)

    def test_jump_cache_is_invisible(self):
        seq, fresh = SlopeSequence(3, (3, 4, 3, 2, 3)), SlopeSequence(3, (3, 4, 3, 2, 3))
        seen = (hash(seq), repr(seq))
        jumps = seq.jumps
        assert jumps == (1, -1, -1, 1) and "jumps" in vars(seq)
        assert seq == fresh and fresh == seq
        assert (hash(seq), repr(seq)) == seen == (hash(fresh), repr(fresh))
        assert seq._fields == ("degree", "slopes")
        with pytest.raises(AttributeError):
            seq.jumps = (1, 1, -1, -1)
        with pytest.raises(AttributeError):
            del seq.jumps
        assert seq.jumps is jumps
