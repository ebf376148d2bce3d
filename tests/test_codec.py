import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_decode, brute_encode, enumerate_weight_class
from isiecc import (
    BatchCodec,
    CodeSpec,
    build_codebook,
    decode,
    encode,
    post_encode,
    pre_decode,
    rank_in_weight_class,
    unrank_in_weight_class,
)
from isiecc.bits import bits_to_str, parse_bits
from isiecc.codebook import MAX_K, MAX_M, rank_stack, unrank_stack
from isiecc.codec import swap_pairs, swap_permutation

ROUNDTRIP_SPECS = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 23), (7, 27)]


def all_messages(k):
    return [np.array(bits, dtype=np.uint8) for bits in product((0, 1), repeat=k)]


class TestSwapSchedule:
    def test_printed_pairs(self):
        assert swap_pairs(3) == ((3, 4),)
        assert swap_pairs(4) == ((3, 5),)
        assert swap_pairs(5) == ((4, 6),)
        assert swap_pairs(6) == ((4, 7), (6, 9))
        assert swap_pairs(7) == ((5, 8), (7, 10))

    def test_degenerate_small_k_empty(self):
        assert swap_pairs(1) == ()

    @pytest.mark.parametrize("k", range(1, 21))
    def test_pairs_disjoint_and_in_range(self, k):
        pairs = swap_pairs(k)
        flat = [i for pair in pairs for i in pair]
        assert len(set(flat)) == len(flat)
        n = 2 * k + 2  # shortest codeword for this k
        assert all(1 <= i <= n for i in flat)
        # the permutation is an involution that moves exactly these positions
        perm = swap_permutation(CodeSpec.for_params(k, k + 1))
        assert (perm[perm] == np.arange(n)).all()
        assert (np.flatnonzero(perm != np.arange(n)) + 1).tolist() == sorted(flat)

    def test_schedule_for_spec(self):
        spec = CodeSpec.for_params(4, 5)
        assert swap_pairs(spec.k) == ((3, 5),)
        perm = swap_permutation(spec)
        assert (perm[perm] == np.arange(10)).all()


class TestPostEncode:
    def test_reference_swap(self):
        spec = CodeSpec.for_params(3, 4)
        assert bits_to_str(post_encode("01100010", spec)) == "01010010"

    def test_all_zero_unchanged(self):
        spec = CodeSpec.for_params(3, 4)
        assert bits_to_str(post_encode("00000000", spec)) == "00000000"

    def test_k4_swaps_positions_3_and_5_only(self):
        spec = CodeSpec.for_params(4, 5)
        assert bits_to_str(post_encode("1110000000", spec)) == "1100100000"

    def test_pre_decode_reference(self):
        spec = CodeSpec.for_params(3, 4)
        assert bits_to_str(pre_decode("01010010", spec)) == "01100010"

    def test_all_ones_unchanged(self):
        spec = CodeSpec.for_params(3, 4)
        assert bits_to_str(pre_decode("11111111", spec)) == "11111111"

    @pytest.mark.parametrize("k,m", ROUNDTRIP_SPECS)
    def test_involution_and_weight_preserving(self, k, m):
        spec = CodeSpec.for_params(k, m)
        rng = np.random.default_rng(7 * k + m)
        for _ in range(20):
            w = rng.integers(0, 2, size=spec.n, dtype=np.uint8)
            assert (pre_decode(post_encode(w, spec), spec) == w).all()
            assert (post_encode(pre_decode(w, spec), spec) == w).all()
            assert post_encode(w, spec).sum() == w.sum()

    def test_length_mismatch_rejected(self):
        spec = CodeSpec.for_params(3, 4)
        with pytest.raises(ValueError):
            post_encode("0101", spec)


class TestRankUnrank:
    def test_examples(self):
        assert rank_in_weight_class(parse_bits("0001"), 4, 1) == 4
        assert rank_in_weight_class(parse_bits("1001"), 4, 2) == 3
        assert rank_in_weight_class(parse_bits("1111"), 4, 4) == 1
        assert bits_to_str(unrank_in_weight_class(1, 4, 2)) == "1100"
        assert bits_to_str(unrank_in_weight_class(math.comb(4, 2), 4, 2)) == "0011"
        assert bits_to_str(unrank_in_weight_class(1, 5, 0)) == "00000"

    @pytest.mark.parametrize("m", range(1, 13))
    def test_agrees_with_enumeration(self, m):
        for i in range(m + 1):
            rows = enumerate_weight_class(m, i)
            for r, row in enumerate(rows, start=1):
                assert (unrank_in_weight_class(r, m, i) == row).all()
                assert rank_in_weight_class(row, m, i) == r

    def test_rank_rejects_weight_mismatch(self):
        with pytest.raises(ValueError):
            rank_in_weight_class(parse_bits("0011"), 4, 1)

    def test_unrank_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_in_weight_class(7, 4, 2)
        with pytest.raises(ValueError):
            unrank_in_weight_class(0, 4, 2)


class TestEncode:
    def test_reference_rows(self):
        spec = CodeSpec.for_params(3, 4)
        assert bits_to_str(encode("111", spec).raw) == "11100001"
        assert bits_to_str(encode("011", spec).raw) == "01100010"
        assert bits_to_str(encode("000", spec).raw) == "00010011"

    def test_transmitted_is_post_encoded(self):
        spec = CodeSpec.for_params(3, 4)
        word = encode("011", spec)
        assert (word.transmitted == post_encode(word.raw, spec)).all()

    @pytest.mark.parametrize("k,m", ROUNDTRIP_SPECS)
    def test_encode_equals_codebook_row(self, k, m):
        spec = CodeSpec.for_params(k, m)
        book = build_codebook(k, m)
        for row, u in zip(book.codewords, book.message_bits):
            assert (encode(u, spec).raw == row).all()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            encode("0110", CodeSpec.for_params(3, 4))


class TestDecode:
    def test_no_error(self):
        spec = CodeSpec.for_params(3, 4)
        assert bits_to_str(decode("01010010", spec)) == "011"

    def test_message_bit_error_corrected(self):
        spec = CodeSpec.for_params(3, 4)
        tx = encode("011", spec).transmitted.copy()
        tx[0] ^= 1
        assert bits_to_str(decode(tx, spec)) == "011"

    def test_parity_bit_error_passes_message_through(self):
        spec = CodeSpec.for_params(3, 4)
        raw = encode("011", spec).raw.copy()
        raw[3] ^= 1  # first parity-body position
        assert bits_to_str(decode(post_encode(raw, spec), spec)) == "011"

    @pytest.mark.parametrize("k,m", ROUNDTRIP_SPECS)
    def test_round_trip_all_messages(self, k, m):
        spec = CodeSpec.for_params(k, m)
        for u in all_messages(k):
            assert (decode(encode(u, spec).transmitted, spec) == u).all()

    @pytest.mark.parametrize("k,m", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
    def test_every_single_flip_corrected(self, k, m):
        spec = CodeSpec.for_params(k, m)
        for u in all_messages(k):
            tx = encode(u, spec).transmitted
            for pos in range(spec.n):
                hit = tx.copy()
                hit[pos] ^= 1
                assert (decode(hit, spec) == u).all()

    def test_out_of_codebook_row_falls_back_to_message(self):
        # weight-2 body beyond the truncated stack: rank 6 of six rows maps to
        # row index 5 + 6 = 11 > 8, a two-error situation
        spec = CodeSpec.for_params(3, 4)
        raw = parse_bits("10100111")  # body 0011 (last weight-2 row), extra 1
        assert bits_to_str(decode(post_encode(raw, spec), spec)) == "101"

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode("010100", CodeSpec.for_params(3, 4))


class TestBatchCodec:
    @pytest.mark.parametrize("k,m", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 23)])
    @pytest.mark.parametrize("post", [True, False])
    def test_matches_scalar_paths(self, k, m, post):
        spec = CodeSpec.for_params(k, m)
        book = build_codebook(k, m)
        codec = BatchCodec(book, post_encoding=post)
        msgs = np.array(all_messages(k), dtype=np.uint8)
        words = codec.encode(msgs)
        for u, w in zip(msgs, words):
            ref = brute_encode(u, spec)
            assert (w == (ref.transmitted if post else ref.raw)).all()
        assert (codec.decode(words) == msgs).all()

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
        spec = CodeSpec.for_params(4, 5)
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
    return CodeSpec.for_params(k, m), msgs


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
        assert (words == np.array([encode(u, spec).transmitted for u in msgs])).all()
        for pos in range(spec.n):
            hit = words.copy()
            hit[:, pos] ^= 1
            assert (codec.decode(hit) == msgs).all()

    @settings(max_examples=25, deadline=None)
    @given(case=code_and_messages())
    def test_every_single_flip_decodes_to_the_message(self, case):
        spec, msgs = case
        for u in msgs:
            tx = encode(u, spec).transmitted
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
        assert (book.parity_bodies == np.vstack(classes)[: 1 << k]).all()
