import io
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import enumerate_weight_class
from isiecc import (
    CodeSpec,
    build_codebook,
    density_profile,
    design_for_rate,
    export_codebook_csv,
    message_matrix,
    parity_weight_cap,
    verify_min_distance,
)
from isiecc.bits import bits_to_str
from isiecc.codebook import MAX_K, MAX_M, _class_starts, unrank_stack

# the (8,8,3) reference codebook, rows r=1..8 as (message, parity, extra)
REFERENCE_38 = [
    ("111", "0000", 1),
    ("110", "1000", 0),
    ("101", "0100", 0),
    ("100", "0010", 0),
    ("011", "0001", 0),
    ("010", "1100", 1),
    ("001", "1010", 1),
    ("000", "1001", 1),
]

SPECS = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 23), (7, 27)]


class TestMessageMatrix:
    def test_k1_base_case(self):
        assert message_matrix(1).tolist() == [[1], [0]]

    def test_k2_one_unrolling(self):
        assert [bits_to_str(r) for r in message_matrix(2)] == ["11", "10", "01", "00"]

    def test_k3_first_and_last(self):
        mat = message_matrix(3)
        assert bits_to_str(mat[0]) == "111"
        assert bits_to_str(mat[-1]) == "000"

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rows_strictly_decreasing_and_value(self, k):
        mat = message_matrix(k)
        vals = [int(bits_to_str(r), 2) for r in mat]
        assert vals == sorted(vals, reverse=True)
        assert vals == [(1 << k) - r for r in range(1, (1 << k) + 1)]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_column_sums(self, k):
        assert (message_matrix(k).sum(axis=0) == 1 << (k - 1)).all()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            message_matrix(0)
        with pytest.raises(ValueError):
            message_matrix(21)


def weight_class_matrix(m, i):
    """The weight-i class of m-bit words: its rows of the weight-stacked list,
    which start after the C(m, j) rows of every lighter weight j."""
    start = sum(math.comb(m, j) for j in range(i))
    return unrank_stack(np.arange(start, start + math.comb(m, i)), m)


class TestWeightClassMatrix:
    def test_weight_zero_single_row(self):
        assert weight_class_matrix(4, 0).tolist() == [[0, 0, 0, 0]]

    def test_m4_weight1(self):
        rows = [bits_to_str(r) for r in weight_class_matrix(4, 1)]
        assert rows == ["1000", "0100", "0010", "0001"]

    def test_m4_weight2(self):
        mat = weight_class_matrix(4, 2)
        rows = [bits_to_str(r) for r in mat]
        assert rows == ["1100", "1010", "1001", "0110", "0101", "0011"]
        assert (mat.sum(axis=0) == 3).all()

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_enumeration_oracle(self, m):
        for i in range(m + 1):
            built = weight_class_matrix(m, i)
            oracle = enumerate_weight_class(m, i)
            assert built.shape == (math.comb(m, i), m)
            assert (built == oracle).all()
            expected_col = math.comb(m - 1, i - 1) if i >= 1 else 0
            assert (built.sum(axis=0) == expected_col).all()

    def test_rejects_weight_above_length(self):
        # no 4-bit word has weight 5: its class is empty, and its first row
        # would be row 2^4, past the stack
        assert weight_class_matrix(4, 5).shape == (0, 4)
        with pytest.raises(ValueError):
            unrank_stack([sum(math.comb(4, j) for j in range(5))], 4)


class TestParityWeightCap:
    def test_reference_values(self):
        assert parity_weight_cap(3, 4) == 2
        assert parity_weight_cap(4, 5) == 2
        assert parity_weight_cap(6, 23) == 2
        assert parity_weight_cap(7, 27) == 2

    def test_exact_boundary_k4(self):
        # cumulative 1 + 5 + 10 = 16 = 2^4, so the cap lands exactly on 2
        assert 1 + 5 + 10 == 16
        assert parity_weight_cap(4, 5) == 2

    @pytest.mark.parametrize("k", range(1, 10))
    def test_adjacent_length_closed_form(self, k):
        assert parity_weight_cap(k, k + 1) == math.ceil(k / 2)

    @pytest.mark.parametrize("k,m", SPECS)
    def test_sandwich_property(self, k, m):
        cap = parity_weight_cap(k, m)
        below = sum(math.comb(m, j) for j in range(cap))
        assert below < (1 << k) <= below + math.comb(m, cap)

    def test_requires_m_above_k(self):
        with pytest.raises(ValueError):
            parity_weight_cap(4, 4)

    def test_cap_bounds_over_supported_range(self):
        # every k <= MAX_K, k < m <= MAX_M: the cap is the smallest whose
        # classes hold 2^k rows, at most k, and below m, so design_for_rate
        # needs no check of its own
        pairs = 0
        for k in range(1, MAX_K + 1):
            for m in range(k + 1, MAX_M + 1):
                cap = parity_weight_cap(k, m)
                below = sum(math.comb(m, j) for j in range(cap))
                assert below < (1 << k) <= below + math.comb(m, cap), (k, m)
                assert cap <= k and cap < m, (k, m)
                pairs += 1
        assert pairs == 590

    def test_matches_binomial_loop_past_supported_m(self):
        # design_for_rate asks for caps at m beyond MAX_M, where the class
        # starts pass 2^63
        def loop(k, m):
            total, tau = 0, 0
            while True:
                total += math.comb(m, tau)
                if total >= 1 << k:
                    return tau
                tau += 1

        for k in range(1, 21):
            for m in range(k + 1, 101):
                assert parity_weight_cap(k, m) == loop(k, m), (k, m)

    def test_class_starts_exact_past_int64(self):
        # an int64 running sum would wrap from m = 63 on
        starts = _class_starts(64)
        assert starts[-1] == 2**64
        assert starts == [sum(math.comb(64, j) for j in range(w)) for w in range(66)]


class TestCodeSpec:
    @pytest.mark.parametrize(
        "k,m,message",
        [
            (3, 3, "m must satisfy k < m <= 40, got m=3 for k=3"),
            (0, 4, "k must be in [1, 20], got 0"),
            (21, 30, "k must be in [1, 20], got 21"),
        ],
    )
    def test_inconsistent_spec_rejected(self, k, m, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CodeSpec(k, m)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="k and m must be integers"):
            CodeSpec(4.0, 5)

    def test_derived_fields(self):
        spec = CodeSpec(4, 5)
        assert (spec.n, spec.size, spec.max_parity_weight) == (10, 16, 2)
        assert Fraction(spec.k, spec.n) == Fraction(2, 5)


class TestBuildCodebook:
    def test_reference_codebook_exact(self):
        book = build_codebook(3, 4)
        assert book.spec.n == 8 and book.spec.size == 8
        for row, (u, p, extra) in zip(book.codewords, REFERENCE_38):
            assert bits_to_str(row[:3]) == u
            assert bits_to_str(row[3:7]) == p
            assert int(row[7]) == extra

    @pytest.mark.parametrize("k,m", SPECS)
    def test_message_section_is_message_matrix(self, k, m):
        book = build_codebook(k, m)
        assert (book.codewords[:, :k] == message_matrix(k)).all()

    @pytest.mark.parametrize("k,m", SPECS)
    def test_codewords_distinct(self, k, m):
        book = build_codebook(k, m)
        seen = {bits_to_str(row) for row in book.codewords}
        assert len(seen) == book.spec.size

    @pytest.mark.parametrize("k,m", SPECS)
    def test_extra_bit_tracks_weight_parity(self, k, m):
        book = build_codebook(k, m)
        weights = book.codewords[:, k : k + m].sum(axis=1)
        assert (book.codewords[:, -1] == (1 - weights % 2)).all()

    @pytest.mark.parametrize("k,m", SPECS)
    def test_parity_weights_never_exceed_cap(self, k, m):
        book = build_codebook(k, m)
        assert int(book.codewords[:, k : k + m].sum(axis=1).max()) == book.spec.max_parity_weight

    def test_rejects_m_not_above_k(self):
        with pytest.raises(ValueError):
            build_codebook(4, 4)
        with pytest.raises(ValueError):
            build_codebook(4, 3)


class TestMinDistance:
    @pytest.mark.parametrize("k,m", SPECS)
    def test_distance_three_everywhere(self, k, m):
        book = build_codebook(k, m)
        assert verify_min_distance(book.codewords) == 3

    def test_matches_pairwise_oracle_small(self):
        book = build_codebook(3, 4)
        oracle = min(
            int((a != b).sum()) for a, b in combinations(book.codewords, 2)
        )
        assert verify_min_distance(book.codewords) == oracle

    def test_single_codeword_sentinel(self):
        assert verify_min_distance(np.array([[0, 1, 0]])) == math.inf

    @pytest.mark.parametrize("words", [np.zeros((0, 3)), np.zeros(3)], ids=["no-rows", "1-D"])
    def test_empty_or_flat_input_rejected(self, words):
        with pytest.raises(ValueError, match="non-empty matrix"):
            verify_min_distance(words)


class TestColumnWeights:
    @pytest.mark.parametrize("k,m", SPECS)
    def test_message_columns_exactly_half(self, k, m):
        book = build_codebook(k, m)
        assert all(w == 1 << (k - 1) for w in book.codewords.sum(axis=0)[:k])

    @pytest.mark.parametrize("k,m", SPECS)
    def test_body_columns_at_most_half(self, k, m):
        # holds for message and parity-body columns; the final weight-parity
        # column can exceed half (e.g. 11/16 for k=4, m=5)
        book = build_codebook(k, m)
        assert all(w <= 1 << (k - 1) for w in book.codewords.sum(axis=0)[: k + m])

    @pytest.mark.parametrize("k,m", SPECS)
    def test_parity_columns_nonincreasing(self, k, m):
        book = build_codebook(k, m)
        body = book.codewords.sum(axis=0)[k : k + m]
        assert all(body[j + 1] <= body[j] for j in range(len(body) - 1))


class TestDensityProfile:
    def test_reference_values(self, profile_03):
        dens = density_profile(build_codebook(3, 4))
        assert dens[:3].tolist() == [0.5, 0.5, 0.5]
        assert dens[4] == 2 / 8
        assert dens[7] == 4 / 8
        # bounds quoted for this code: both are 0.5
        assert dens[4] <= (math.comb(3, 0) + math.comb(3, 1)) / 8
        assert dens[7] <= (math.comb(3, 0) + math.comb(3, 2)) / 8

    @pytest.mark.parametrize("k,m", SPECS)
    def test_density_bound_cases(self, k, m):
        book = build_codebook(k, m)
        dens = density_profile(book)
        cap = book.spec.max_parity_weight
        size = book.spec.size
        assert (dens[:k] == 0.5).all()
        body_bound = sum(math.comb(m - 1, r - 1) for r in range(1, cap + 1)) / size
        assert (dens[k : k + m] <= body_bound + 1e-15).all()
        extra_bound = sum(math.comb(m, 2 * r) for r in range(cap // 2 + 1)) / size
        assert dens[-1] <= extra_bound + 1e-15


class TestRateDesign:
    def test_rate_one_fifth_contains_published_pair(self):
        design = design_for_rate(Fraction(1, 5), 7)
        assert (6, 23, 2) in design
        assert (7, 27, 2) in design

    def test_candidates_sorted_and_conditions_hold(self):
        design = design_for_rate(Fraction(1, 5), 7)
        ks = [c[0] for c in design]
        assert ks == sorted(ks)
        for k, m, cap in design:
            n = 5 * k
            assert m == n - k - 1
            assert cap <= k and cap + k + 1 < n
            below = sum(math.comb(m, j) for j in range(cap))
            assert below < (1 << k) <= below + math.comb(m, cap)

    def test_matches_brute_force_oracle(self):
        # independent scan over every k, checking the construction conditions
        # directly from their definitions
        def feasible(k):
            n = 5 * k
            m = n - k - 1
            if m <= k:
                return None
            cap = parity_weight_cap(k, m)
            below = sum(math.comb(m, j) for j in range(cap))
            ok = (
                cap <= k
                and cap + k + 1 < n
                and below < (1 << k) <= below + math.comb(m, cap)
            )
            return (k, m, cap) if ok else None

        oracle = tuple(c for c in (feasible(k) for k in range(1, 8)) if c)
        assert design_for_rate(Fraction(1, 5), 7) == oracle

    def test_rate_half_rejected(self):
        with pytest.raises(ValueError):
            design_for_rate(Fraction(1, 2), 7)

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            design_for_rate(Fraction(1, 5), k_max)

    def test_candidates_achieve_exact_rate(self):
        for k, m, _ in design_for_rate(Fraction(1, 5), 7):
            assert Fraction(k, CodeSpec(k, m).n) == Fraction(1, 5)

    @pytest.mark.parametrize(
        "rate,exact",
        [
            (0.2, Fraction(1, 5)),
            (1 / 3, Fraction(1, 3)),
            (2 / 9, Fraction(2, 9)),
            (0.25, Fraction(1, 4)),
        ],
    )
    def test_float_rate_reads_as_its_fraction(self, rate, exact):
        # 0.2's binary value has a huge denominator, so read exactly it finds no k
        assert design_for_rate(rate, 9) == design_for_rate(exact, 9) != ()

    def test_infeasible_rate_gives_empty_list(self):
        # 19k/9 is integral only for multiples of 9, all beyond k_max here
        design = design_for_rate(Fraction(9, 19), 8)
        assert design == ()

    @pytest.mark.parametrize("k", range(2, 9))
    def test_adjacent_rate_monotone_below_half(self, k):
        assert Fraction(k, 2 * k + 2) > Fraction(k - 1, 2 * k)
        assert Fraction(k, 2 * k + 2) < Fraction(1, 2)


class TestCodewordIsiBudget:
    def test_all_zero_word_within_budget(self, profile_03):
        from isiecc import codeword_isi_bound

        word = np.zeros(30, dtype=np.uint8)
        assert codeword_isi_bound(word, profile_03, 2, 6)

    def test_capped_parity_within_budget(self, profile_03):
        from isiecc import codeword_isi_bound

        book = build_codebook(6, 23)
        for row in book.codewords[::7]:
            assert codeword_isi_bound(row, profile_03, 2, 6)

    def test_overweight_parity_run_violates_budget(self, profile_03):
        from isiecc import codeword_isi_bound

        # three adjacent parity 1s exceed what a weight cap of 2 allows
        word = np.zeros(30, dtype=np.uint8)
        word[6:9] = 1
        assert not codeword_isi_bound(word, profile_03, 2, 6)

    def test_message_run_does_not_trip_the_budget(self, profile_03):
        from isiecc import codeword_isi_bound

        # the budget constrains coding overhead, not the user's message bits
        word = np.zeros(30, dtype=np.uint8)
        word[:6] = 1
        assert codeword_isi_bound(word, profile_03, 2, 6)

    def test_inputs_beyond_the_memory_rejected(self, profile_03):
        from isiecc import codeword_isi_bound, expected_isi

        # past the memory nothing lands: a cap of L parity 1s (or more) has
        # the budget p_2 + ... + p_L, which a parity run of L + 1 slots
        # reaches at its last position, while a cap of L - 2 lacks p_L
        L = profile_03.size
        run = np.ones(L + 1, dtype=np.uint8)
        tail = profile_03[1:].sum()
        assert expected_isi(run, profile_03)[-1] == pytest.approx(tail, abs=1e-15)
        for cap in (L, 10 * L):
            assert codeword_isi_bound(run, profile_03, cap, 0)
        assert not codeword_isi_bound(run, profile_03, L - 2, 0)
        # a negative cap bounds nothing; a float is no count of 1s or slots
        for cap in (-1, -5):
            with pytest.raises(ValueError, match=f"cap of {cap} parity 1s is negative"):
                codeword_isi_bound(np.zeros(30, dtype=np.uint8), profile_03, cap, 6)
        for name, args in (("max_parity_weight", (2.0, 6)), ("message_len", (2, 3.0))):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                codeword_isi_bound(np.zeros(30, dtype=np.uint8), profile_03, *args)
        # a message length outside 0..n marks the wrong slots as parity:
        # 00011010 breaks a cap of 2 with its message of 3
        word = np.array([0, 0, 0, 1, 1, 0, 1, 0], dtype=np.uint8)
        assert not codeword_isi_bound(word, profile_03, 2, 3)
        for message_len in (-3, 9, 99):
            with pytest.raises(ValueError, match=f"message length {message_len} outside 0..8"):
                codeword_isi_bound(word, profile_03, 2, message_len)


class TestCsvExport:
    def test_header_and_reference_row(self):
        buf = io.StringIO()
        export_codebook_csv(build_codebook(3, 4), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "r,u,p,rho,codeword"
        assert lines[5] == "5,011,0001,0,01100010"
        assert len(lines) == 9
