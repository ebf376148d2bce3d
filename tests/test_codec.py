import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_decode, brute_encode, enumerate_weight_class
from isiecc import BatchCodec, CodeSpec, build_codebook, decode, encode
from isiecc.bits import as_bits, bits_to_str, parse_bits
from isiecc.codebook import MAX_K, MAX_M, rank_stack, unrank_stack
from isiecc.codec import swap_pairs, swap_permutation

ROUNDTRIP_SPECS = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 23), (7, 27)]


def all_messages(k):
    return [np.array(bits, dtype=np.uint8) for bits in product((0, 1), repeat=k)]


def swapped(word, spec):
    """A bit string or array with the transmit swaps applied, or undone: the
    permutation is an involution."""
    bits = parse_bits(word) if isinstance(word, str) else np.asarray(word)
    return bits[swap_permutation(spec)]


def class_start(m, i):
    """Stack row where the weight-i class of m-bit words starts."""
    return sum(math.comb(m, j) for j in range(i))


def rank_in_class(word, m, i):
    """1-based row of an m-bit weight-i word inside its class."""
    return int(rank_stack(np.asarray(word)[None, :])[0]) - class_start(m, i) + 1


def unrank_in_class(r, m, i):
    """Row r (1-based) of the weight-i class of length m."""
    return unrank_stack([class_start(m, i) + r - 1], m)[0]


class TestSwapSchedule:
    def test_printed_pairs(self):
        assert swap_pairs(3) == ((3, 4),)
        assert swap_pairs(4) == ((3, 5),)
        assert swap_pairs(5) == ((4, 6),)
        assert swap_pairs(6) == ((4, 7), (6, 9))
        assert swap_pairs(7) == ((5, 8), (7, 10))

    def test_degenerate_small_k_empty(self):
        assert swap_pairs(1) == ()

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(ValueError, match="message length must be positive"):
            swap_pairs(k)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_pairs_disjoint_and_in_range(self, k):
        pairs = swap_pairs(k)
        flat = [i for pair in pairs for i in pair]
        assert len(set(flat)) == len(flat)
        n = 2 * k + 2  # shortest codeword for this k
        assert all(1 <= i <= n for i in flat)
        # the permutation is an involution that moves exactly these positions
        perm = swap_permutation(CodeSpec(k, k + 1))
        assert (perm[perm] == np.arange(n)).all()
        assert (np.flatnonzero(perm != np.arange(n)) + 1).tolist() == sorted(flat)

    def test_schedule_for_spec(self):
        spec = CodeSpec(4, 5)
        assert swap_pairs(spec.k) == ((3, 5),)
        perm = swap_permutation(spec)
        assert (perm[perm] == np.arange(10)).all()


class TestPostEncode:
    def test_reference_swap(self):
        spec = CodeSpec(3, 4)
        assert bits_to_str(swapped("01100010", spec)) == "01010010"

    def test_all_zero_unchanged(self):
        spec = CodeSpec(3, 4)
        assert bits_to_str(swapped("00000000", spec)) == "00000000"

    def test_k4_swaps_positions_3_and_5_only(self):
        spec = CodeSpec(4, 5)
        assert bits_to_str(swapped("1110000000", spec)) == "1100100000"

    def test_pre_decode_reference(self):
        spec = CodeSpec(3, 4)
        assert bits_to_str(swapped("01010010", spec)) == "01100010"

    def test_all_ones_unchanged(self):
        spec = CodeSpec(3, 4)
        assert bits_to_str(swapped("11111111", spec)) == "11111111"

    @pytest.mark.parametrize("k,m", ROUNDTRIP_SPECS)
    def test_involution_and_weight_preserving(self, k, m):
        spec = CodeSpec(k, m)
        rng = np.random.default_rng(7 * k + m)
        for _ in range(20):
            w = rng.integers(0, 2, size=spec.n, dtype=np.uint8)
            assert (swapped(swapped(w, spec), spec) == w).all()
            assert swapped(w, spec).sum() == w.sum()

    def test_length_mismatch_rejected(self):
        # the swap runs only inside decode, which checks the length first
        spec = CodeSpec(3, 4)
        with pytest.raises(ValueError):
            decode("0101", spec)


class TestRankUnrank:
    def test_examples(self):
        assert rank_in_class(parse_bits("0001"), 4, 1) == 4
        assert rank_in_class(parse_bits("1001"), 4, 2) == 3
        assert rank_in_class(parse_bits("1111"), 4, 4) == 1
        assert bits_to_str(unrank_in_class(1, 4, 2)) == "1100"
        assert bits_to_str(unrank_in_class(math.comb(4, 2), 4, 2)) == "0011"
        assert bits_to_str(unrank_in_class(1, 5, 0)) == "00000"

    @pytest.mark.parametrize("m", range(1, 13))
    def test_agrees_with_enumeration(self, m):
        for i in range(m + 1):
            rows = enumerate_weight_class(m, i)
            for r, row in enumerate(rows, start=1):
                assert (unrank_in_class(r, m, i) == row).all()
                assert rank_in_class(row, m, i) == r

    def test_rank_rejects_weight_mismatch(self):
        # a weight-2 word ranks past the end of the weight-1 class
        assert rank_in_class(parse_bits("0011"), 4, 1) > math.comb(4, 1)

    def test_unrank_rejects_out_of_range(self):
        # unrank_stack rejects rows outside the 2^m-row stack
        with pytest.raises(ValueError):
            unrank_stack([1 << 4], 4)
        with pytest.raises(ValueError):
            unrank_stack([-1], 4)


class TestEncode:
    def test_reference_rows(self):
        spec = CodeSpec(3, 4)
        assert bits_to_str(encode("111", spec, post_encoding=False)) == "11100001"
        assert bits_to_str(encode("011", spec, post_encoding=False)) == "01100010"
        assert bits_to_str(encode("000", spec, post_encoding=False)) == "00010011"

    def test_transmitted_is_post_encoded(self):
        spec = CodeSpec(3, 4)
        raw = encode("011", spec, post_encoding=False)
        assert (encode("011", spec) == swapped(raw, spec)).all()

    @pytest.mark.parametrize("k,m", ROUNDTRIP_SPECS)
    def test_encode_equals_codebook_row(self, k, m):
        spec = CodeSpec(k, m)
        book = build_codebook(k, m)
        for row, u in zip(book.codewords, book.codewords[:, :k]):
            assert (encode(u, spec, post_encoding=False) == row).all()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode("0110", CodeSpec(3, 4))

    @pytest.mark.parametrize(
        "bits, message",
        [([], "non-empty 1-D"), ([[0, 1, 1]], "non-empty 1-D"), ([0, 2, 1], "only 0 and 1")],
    )
    def test_malformed_bit_arrays_rejected(self, bits, message):
        with pytest.raises(ValueError, match=message):
            as_bits(bits)
        with pytest.raises(ValueError, match=message):
            encode(bits, CodeSpec(3, 4))


class TestDecode:
    def test_no_error(self):
        spec = CodeSpec(3, 4)
        assert bits_to_str(decode("01010010", spec)) == "011"

    def test_message_bit_error_corrected(self):
        spec = CodeSpec(3, 4)
        tx = encode("011", spec)
        tx[0] ^= 1
        assert bits_to_str(decode(tx, spec)) == "011"

    def test_parity_bit_error_passes_message_through(self):
        spec = CodeSpec(3, 4)
        raw = encode("011", spec, post_encoding=False)
        raw[3] ^= 1  # first parity-body position
        assert bits_to_str(decode(swapped(raw, spec), spec)) == "011"

    @pytest.mark.parametrize("k,m", ROUNDTRIP_SPECS)
    def test_round_trip_all_messages(self, k, m):
        spec = CodeSpec(k, m)
        for u in all_messages(k):
            assert (decode(encode(u, spec), spec) == u).all()

    @pytest.mark.parametrize("k,m", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
    def test_every_single_flip_corrected(self, k, m):
        spec = CodeSpec(k, m)
        for u in all_messages(k):
            tx = encode(u, spec)
            for pos in range(spec.n):
                hit = tx.copy()
                hit[pos] ^= 1
                assert (decode(hit, spec) == u).all()

    def test_out_of_codebook_row_falls_back_to_message(self):
        # weight-2 body beyond the truncated stack: rank 6 of six rows maps to
        # row index 5 + 6 = 11 > 8, a two-error situation
        spec = CodeSpec(3, 4)
        raw = parse_bits("10100111")  # body 0011 (last weight-2 row), extra 1
        assert bits_to_str(decode(swapped(raw, spec), spec)) == "101"

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode("010100", CodeSpec(3, 4))


class TestBatchCodec:
    @pytest.mark.parametrize("k,m", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 23)])
    @pytest.mark.parametrize("post", [True, False])
    def test_matches_scalar_paths(self, k, m, post):
        spec = CodeSpec(k, m)
        book = build_codebook(k, m)
        codec = BatchCodec(book, post_encoding=post)
        msgs = np.array(all_messages(k), dtype=np.uint8)
        words = codec.encode(msgs)
        for u, w in zip(msgs, words):
            assert (w == brute_encode(u, spec, post_encoding=post)).all()
        assert (codec.decode(words) == msgs).all()

    @pytest.mark.parametrize(
        "method, shape", [("encode", (2, 5)), ("encode", (4,)), ("decode", (2, 9))]
    )
    def test_wrong_shape_rejected(self, method, shape):
        codec = BatchCodec(build_codebook(4, 5))
        width = 4 if method == "encode" else 10
        with pytest.raises(ValueError, match=rf"expected shape \(N, {width}\)"):
            getattr(codec, method)(np.zeros(shape, dtype=np.uint8))

    def test_batch_decode_single_flips(self):
        book = build_codebook(4, 5)
        codec = BatchCodec(book)
        rng = np.random.default_rng(11)
        msgs = rng.integers(0, 2, size=(500, 4), dtype=np.uint8)
        words = codec.encode(msgs)
        for pos in range(book.spec.n):
            hit = words.copy()
            hit[:, pos] ^= 1
            assert (codec.decode(hit) == msgs).all()

    def test_batch_decode_matches_scalar_on_random_words(self):
        spec = CodeSpec(4, 5)
        codec = BatchCodec(build_codebook(4, 5))
        rng = np.random.default_rng(23)
        words = rng.integers(0, 2, size=(400, spec.n), dtype=np.uint8)
        batch = codec.decode(words)
        for w, got in zip(words, batch):
            assert (brute_decode(w, spec) == got).all()


_enumerated_class = lru_cache(maxsize=None)(enumerate_weight_class)


@st.composite
def code_params(draw, max_m=MAX_M):
    """(k, m) over the supported range: 1 <= k <= 20, k < m <= max_m."""
    k = draw(st.integers(1, min(MAX_K, max_m - 1)))
    return k, draw(st.integers(k + 1, max_m))


@st.composite
def code_and_messages(draw):
    k, m = draw(code_params())
    values = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=20))
    msgs = np.array([[(v >> (k - 1 - j)) & 1 for j in range(k)] for v in values], dtype=np.uint8)
    return CodeSpec(k, m), msgs


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rank_inverts_unrank(self, data):
        k, m = data.draw(code_params())
        rows = np.array(data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=40)))
        bodies = unrank_stack(rows, m)
        assert bodies.shape == (rows.size, m)
        assert (rank_stack(bodies) == rows).all()

    @settings(max_examples=12, deadline=None)
    @given(case=code_and_messages())
    def test_batch_encode_equals_one_row_encode(self, case):
        spec, msgs = case
        codec = BatchCodec(build_codebook(spec.k, spec.m))
        words = codec.encode(msgs)
        assert (words == np.array([encode(u, spec) for u in msgs])).all()
        for pos in range(spec.n):
            hit = words.copy()
            hit[:, pos] ^= 1
            assert (codec.decode(hit) == msgs).all()

    @settings(max_examples=25, deadline=None)
    @given(case=code_and_messages())
    def test_every_single_flip_decodes_to_the_message(self, case):
        spec, msgs = case
        for u in msgs:
            tx = encode(u, spec)
            assert (decode(tx, spec) == u).all()
            for pos in range(spec.n):
                hit = tx.copy()
                hit[pos] ^= 1
                assert (decode(hit, spec) == u).all()

    @settings(max_examples=25, deadline=None)
    @given(km=code_params(max_m=16))
    def test_parity_bodies_match_enumeration(self, km):
        k, m = km
        book = build_codebook(k, m)
        classes = [_enumerated_class(m, i) for i in range(book.spec.max_parity_weight + 1)]
        assert (book.codewords[:, k : k + m] == np.vstack(classes)[: 1 << k]).all()
