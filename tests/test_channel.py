import math
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from conftest import isi_brute, multinomial_counts, pilot_errors, threshold_grid
from isiecc import (
    ChannelParams,
    build_codebook,
    calibrate_threshold,
    density_profile,
    detect,
    expected_isi,
    hitting_prob,
    load_channel_config,
    simulate_stream,
    slot_probs,
    stream_average_isi,
    streaming_expected_isi,
    swap_gain,
)
from isiecc import channel
from isiecc.channel import TRANSPORT_CHUNK, GuideTable, _observe, transmit_counts
from isiecc.codec import swap_pairs, swap_permutation

# F(0.3 s) for D=79.4, r=5, r0=10, fixed ahead of time with an independent
# series/continued-fraction erfc evaluation
F_03 = 0.2344071893112622


def erfc_series_oracle(x: float) -> float:
    """Independent erfc: Maclaurin series below 2, Lentz continued fraction above."""
    if x < 2.0:
        total, term, n = 0.0, x, 0
        while True:
            add = term / (2 * n + 1)
            total += add if n % 2 == 0 else -add
            n += 1
            term = term * x * x / n
            if term / (2 * n + 1) < 1e-18 * max(1.0, abs(total)):
                break
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    f = x
    c, d = x, 0.0
    j = 0
    while True:
        j += 1
        a = j * 0.5
        d = x + a * d
        c = x + a / c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / math.sqrt(math.pi) / f


class TestHittingProb:
    def test_zero_at_time_zero(self, params_03):
        assert hitting_prob(0.0, params_03) == 0.0

    def test_long_time_limit_is_radius_ratio(self, params_03):
        assert hitting_prob(1e6, params_03) == pytest.approx(0.5, abs=1e-3)

    def test_frozen_value_at_sampling_time(self, params_03):
        assert hitting_prob(0.3, params_03) == pytest.approx(F_03, abs=1e-12)

    def test_monotone_on_grid(self, params_03):
        ts = np.linspace(0.0, 300.0, 1000)
        vals = [hitting_prob(t, params_03) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 0.5 for v in vals)

    def test_negative_time_rejected(self, params_03):
        with pytest.raises(ValueError):
            hitting_prob(-1.0, params_03)

    def test_erfc_against_series_oracle(self):
        pts = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3622, 0.5, 0.51224, 0.7, 1.0,
               1.3, 1.7, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0]
        assert len(pts) == 20
        for x in pts:
            assert math.erfc(x) == pytest.approx(erfc_series_oracle(x), abs=1e-12)


class TestSlotProbs:
    def test_first_slot_is_hitting_prob(self, params_03, profile_03):
        assert profile_03[0] == pytest.approx(hitting_prob(0.3, params_03), abs=0)

    def test_telescoping_sum(self, params_03, profile_03):
        total = math.fsum(profile_03)
        expected = hitting_prob(params_03.L * params_03.ts, params_03)
        assert abs(total - expected) <= 1e-12 * expected

    def test_all_positive_and_length(self, params_03, profile_03):
        assert len(profile_03) == params_03.L
        assert (profile_03 > 0).all()

    def test_second_slot_value(self, params_03, profile_03):
        expected = hitting_prob(0.6, params_03) - hitting_prob(0.3, params_03)
        assert profile_03[1] == pytest.approx(expected, abs=0)

    def test_vanishing_slot_rejected(self, params_03):
        # at D = 1e-6 no molecule arrives within L slots: every p_i is 0
        with pytest.raises(ValueError, match="slot probabilities must all be positive"):
            slot_probs(replace(params_03, D=1e-6))


class TestIsiOfSequence:
    """expected_isi of one 1-D word: that word's own interference."""

    def test_first_position_zero(self, profile_03):
        assert expected_isi([1, 1, 1], 1, profile_03) == 0.0

    def test_single_term(self, profile_03):
        assert expected_isi([1, 0], 2, profile_03) == pytest.approx(
            profile_03[1], abs=0
        )

    def test_two_terms(self, profile_03):
        expected = profile_03[2] + profile_03[1]
        assert expected_isi([1, 1, 0], 3, profile_03) == pytest.approx(expected, abs=1e-15)

    def test_matches_brute_oracle(self, profile_03):
        rng = np.random.default_rng(3)
        for _ in range(25):
            word = rng.integers(0, 2, size=12)
            i = int(rng.integers(1, 13))
            assert expected_isi(word, i, profile_03) == pytest.approx(
                isi_brute(word, i, profile_03), abs=1e-14
            )

    def test_position_out_of_range(self, profile_03):
        with pytest.raises(ValueError):
            expected_isi([1, 0], 3, profile_03)
        with pytest.raises(ValueError):
            expected_isi([1, 0], 0, profile_03)

    def test_word_longer_than_memory_rejected(self, profile_03):
        with pytest.raises(ValueError, match="channel memory"):
            expected_isi(np.zeros(profile_03.size + 1), 2, profile_03)


class TestExpectedIsi:
    def test_all_zero_words(self, profile_03):
        assert expected_isi(np.zeros((4, 8), dtype=np.uint8), 8, profile_03) == 0.0

    def test_single_word_equals_own_isi(self, profile_03):
        word = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        assert expected_isi(word[None, :], 6, profile_03) == pytest.approx(
            expected_isi(word, 6, profile_03), abs=1e-15
        )

    def test_codebook_last_position_matches_brute_mean(self, profile_03):
        book = build_codebook(3, 4)
        brute = math.fsum(
            isi_brute(row, 8, profile_03) for row in book.codewords
        ) / book.spec.size
        assert expected_isi(book.codewords, 8, profile_03) == pytest.approx(brute, abs=1e-14)


class TestStreamingIsi:
    def test_matches_long_unrolled_stream(self, profile_03):
        # ckm:16,30's n = 47 slots outlast the channel memory L = 40
        p = profile_03
        for dens in (np.array([0.5, 0.25, 0.125]), density_profile(build_codebook(16, 30))):
            n = dens.size
            # unroll 30 periods and evaluate word 25 directly
            unrolled = np.tile(dens, 30)
            for position in range(1, n + 1):
                pos = n * 25 + position  # 1-based
                direct = math.fsum(unrolled[pos - 1 - g] * p[g] for g in range(1, len(p)))
                assert streaming_expected_isi(dens, position, p) == pytest.approx(
                    direct, abs=1e-14
                )

    @pytest.mark.parametrize("position", [0, 4])
    def test_position_out_of_range(self, profile_03, position):
        with pytest.raises(ValueError, match=f"position {position} outside 1..3"):
            streaming_expected_isi(np.full(3, 0.5), position, profile_03)

    def test_uniform_density_closed_form(self, profile_03):
        val = streaming_expected_isi(np.full(3, 0.5), 3, profile_03)
        assert val == pytest.approx(0.5 * profile_03[1:].sum(), abs=1e-14)

    def test_stream_average_is_density_scaled_tail_mass(self, profile_03):
        book = build_codebook(4, 5)
        dens = book.codewords.sum(axis=0) / book.spec.size
        avg = stream_average_isi(dens, profile_03)
        per_pos = [
            streaming_expected_isi(dens, pos, profile_03) for pos in range(1, 11)
        ]
        assert avg == pytest.approx(sum(per_pos) / 10, rel=1e-9)

    @pytest.mark.parametrize(
        "k,m", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 23), (7, 27)]
    )
    def test_stream_average_is_mean_over_positions(self, k, m, profile_03):
        dens = density_profile(build_codebook(k, m))
        per_pos = [streaming_expected_isi(dens, i, profile_03) for i in range(1, dens.size + 1)]
        expected = math.fsum(per_pos) / dens.size
        assert stream_average_isi(dens, profile_03) == pytest.approx(expected, rel=1e-15)


class TestSwapGain:
    def test_zero_when_column_weight_is_half(self, params_03, profile_03):
        # the first parity column of the (8,8,3) code has full weight 4
        book = build_codebook(3, 4)
        assert book.codewords.sum(axis=0)[3] == 4
        assert swap_gain(book, profile_03, 1) == 0.0

    @pytest.mark.parametrize("k,m", [(4, 5), (5, 6), (6, 7)])
    def test_gain_nonpositive_and_matches_brute_force(self, k, m, profile_03):
        book = build_codebook(k, m)
        words = book.codewords
        p = profile_03

        def sum_isi(mat, i):
            return math.fsum(isi_brute(row, i, p) for row in mat)

        for a, b in swap_pairs(k):
            t = a - math.ceil(k / 2)
            swapped = words.copy()
            swapped[:, [a - 1, b - 1]] = swapped[:, [b - 1, a - 1]]
            direct = (sum_isi(swapped, a + 1) + sum_isi(swapped, b + 1)) - (
                sum_isi(words, a + 1) + sum_isi(words, b + 1)
            )
            gain = swap_gain(book, profile_03, t)
            assert gain <= 0.0
            assert abs(gain - direct) <= 1e-12

    def test_invalid_t_rejected(self, profile_03):
        book = build_codebook(4, 5)
        with pytest.raises(ValueError):
            swap_gain(book, profile_03, 2)
        with pytest.raises(ValueError):
            swap_gain(book, profile_03, 3)


class TestNetIsiGainFullSchedule:
    @pytest.mark.parametrize("k,m", [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 23), (7, 27)])
    def test_swapped_code_never_worse_at_affected_positions(self, k, m, profile_03):
        book = build_codebook(k, m)
        perm = swap_permutation(book.spec)
        swapped = book.codewords[:, perm]
        affected = sorted({i + 1 for pair in swap_pairs(k) for i in pair})
        before = math.fsum(expected_isi(book.codewords, i, profile_03) for i in affected)
        after = math.fsum(expected_isi(swapped, i, profile_03) for i in affected)
        assert after <= before + 1e-15


class TestExpectedIsiMatchesMonteCarlo:
    def test_last_bit_interference_within_two_percent(self, params_03, profile_03):
        book = build_codebook(4, 5)
        n, L, M = book.spec.n, params_03.L, params_03.M
        trials = 100_000
        rng = np.random.default_rng(20_0808)
        rows = rng.integers(0, book.spec.size, size=trials)
        frames = np.zeros((trials, n + L), dtype=np.uint8)
        frames[:, :n] = book.codewords[rows]
        interference = transmit_counts(
            frames.reshape(-1), params_03, rng, include_own_slot=False
        ).reshape(trials, n + L)
        empirical = interference[:, n - 1].mean() / M
        analytic = expected_isi(book.codewords, n, profile_03)
        assert empirical == pytest.approx(analytic, rel=0.02)


def chunk_stream(params, seed) -> np.ndarray:
    """I.i.d. equiprobable bits expected to send ~1.5 TRANSPORT_CHUNKs of
    tail molecules (lags 2..L) at params."""
    per_one = params.M * float(slot_probs(params)[1:].sum())
    slots = int(3 * TRANSPORT_CHUNK / per_one)
    return np.random.default_rng(seed).integers(0, 2, size=slots, dtype=np.uint8)


def tail_molecules(tx, params) -> int:
    """Tail molecules absorbed inside the pattern: a lower bound on those
    transmit_counts draws for it."""
    return int(transmit_counts(tx, params, np.random.default_rng(0), False).sum())


class TestTransport:
    def test_no_molecules_means_silent_channel(self, params_03):
        bits = np.ones(50, dtype=np.uint8)
        silent = replace(params_03, M=0)
        (decisions,) = simulate_stream(bits, [silent], rng_seed=5, thresholds=[1.0])
        (counts,) = _observe(bits, [silent], np.random.default_rng(5))
        assert (counts == 0).all()
        assert (decisions == 0).all()

    def test_all_zero_stream_detects_zero(self, params_03):
        (decisions,) = simulate_stream(
            np.zeros(100, dtype=np.uint8), [params_03], rng_seed=5, thresholds=[0.5]
        )
        assert (decisions == 0).all()

    def test_single_release_slot_means(self, params_03):
        # isolated releases, L+1 slots apart so windows cannot overlap
        trials = 20_000
        L = params_03.L
        tx = np.zeros(trials * (L + 1), dtype=np.uint8)
        tx[:: L + 1] = 1
        rng = np.random.default_rng(99)
        counts = transmit_counts(tx, params_03, rng)
        windows = counts.reshape(trials, L + 1)[:, :L]
        mean = windows.mean(axis=0)
        p = slot_probs(params_03)
        M = params_03.M
        se = np.sqrt(M * p * (1 - p) / trials)
        assert (np.abs(mean - M * p) <= 4 * se).all()

    @pytest.mark.parametrize("M", [127, 128, 150, 211, 32_767, 32_768, 100_000])
    def test_memoryless_channel_counts_are_whole_and_bounded(self, params_03, M):
        # at L = 1 the emission table holds X_1 alone, in a dtype that the
        # own-count mask of M.bit_length() bits can overflow
        params = replace(params_03, L=1, M=M)
        tx = np.random.default_rng(2).integers(0, 2, size=2_000, dtype=np.uint8)
        counts = transmit_counts(tx, params, np.random.default_rng(3))
        assert (counts == np.round(counts)).all()
        assert (counts >= 0).all() and (counts <= M).all()
        assert (counts[tx == 0] == 0).all() and counts[tx == 1].max() > 0

    def test_counts_do_not_depend_on_draw_chunking(self, params_03, monkeypatch):
        # ~1.5 default chunks of tail molecules, so a full and a partial chunk are drawn
        tx = chunk_stream(params_03, 4)
        emissions, tail = int(tx.sum()), tail_molecules(tx, params_03)
        assert tail > TRANSPORT_CHUNK
        default = transmit_counts(tx, params_03, np.random.default_rng(8))
        # 1 and 7 molecules and one below an emission's mean tail give one
        # emission per chunk; then ~7 emissions, and every molecule sent
        per_emission = tail // emissions
        for chunk in (1, 7, per_emission - 1, 7 * per_emission, emissions * params_03.M):
            monkeypatch.setattr(channel, "TRANSPORT_CHUNK", chunk)
            counts = transmit_counts(tx, params_03, np.random.default_rng(8))
            assert (counts == default).all(), f"TRANSPORT_CHUNK={chunk}"

    def test_interference_only_drops_own_slot(self, params_03):
        tx = np.zeros(200, dtype=np.uint8)
        tx[0] = 1
        rng = np.random.default_rng(1)
        full = transmit_counts(tx, params_03, np.random.default_rng(1))
        interf = transmit_counts(tx, params_03, np.random.default_rng(1), include_own_slot=False)
        assert interf[0] == 0.0
        assert (full[1:] == interf[1:]).all()

    def test_transport_ignores_noise(self, params_03):
        # noise enters only the decisions, so a point's tables need no sigma_n2
        tx = chunk_stream(params_03, 2)
        assert tail_molecules(tx, params_03) > TRANSPORT_CHUNK
        clean = transmit_counts(tx, replace(params_03, sigma_n2=0.0), np.random.default_rng(4))
        noisy = transmit_counts(tx, replace(params_03, sigma_n2=50.0), np.random.default_rng(4))
        assert clean.sum() > 0 and (clean == noisy).all()

    @pytest.mark.parametrize("L", [1, 40])
    @pytest.mark.parametrize("include_own_slot", [True, False])
    def test_silent_prefix_only_shifts_counts(self, params_03, L, include_own_slot):
        # zeros emit nothing and no draw depends on where a slot sits, so L
        # leading zeros shift the counts draw for draw; more tail molecules
        # than one chunk at L = 40, so the carried cells cross a chunk boundary too
        params = replace(params_03, L=L)
        tx = chunk_stream(params_03, 4)
        assert tail_molecules(tx, params_03) > TRANSPORT_CHUNK
        padded = np.concatenate([np.zeros(L, dtype=np.uint8), tx])
        plain = transmit_counts(tx, params, np.random.default_rng(8), include_own_slot)
        shifted = transmit_counts(padded, params, np.random.default_rng(8), include_own_slot)
        assert (shifted[:L] == 0).all()
        assert (shifted[L:] == plain).all()
        # an all-zero pattern, or no molecules per 1-bit, sends nothing
        for sent, point in ((np.zeros_like(tx), params), (tx, replace(params, M=0))):
            counts = transmit_counts(sent, point, np.random.default_rng(8), include_own_slot)
            assert counts.shape == tx.shape and not counts.any()

    def test_transport_memory_does_not_grow_with_molecules(self, params_03):
        # a chunk holds TRANSPORT_CHUNK tail molecules whatever M is, so one
        # call's arrays stay near 0.5 MB, plus ~0.2 MB of counts for 25,000
        # slots; the 4 MB bound was fixed before the first run
        params = replace(params_03, M=5_000)
        tx = np.random.default_rng(3).integers(0, 2, size=25_000, dtype=np.uint8)
        channel._transport_tables(params)  # built before tracing starts
        tracemalloc.start()
        try:
            transmit_counts(tx, params, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_stream_deterministic_for_seed(self, params_03):
        msgs = np.random.default_rng(0).integers(0, 2, size=(300, 1), dtype=np.uint8)
        (a,) = _observe(msgs.ravel(), [params_03], np.random.default_rng([1, 2]))
        (b,) = _observe(msgs.ravel(), [params_03], np.random.default_rng([1, 2]))
        assert (a == b).all()

    def test_observed_points_share_one_channel(self, params_03):
        # points may differ in M and sigma_n2 only: a change of ts or L is another channel
        for change in ({"ts": 0.4}, {"L": 39}, {"ts": 0.4, "M": 301}):
            points = [params_03, replace(params_03, **change)]
            with pytest.raises(ValueError, match="M and sigma_n2 only"):
                simulate_stream(np.ones(10, dtype=np.uint8), points, 1, [1.0, 1.0])

    def test_observed_points_come_in_ascending_molecules(self, params_03):
        # simulate_stream sorts its points; _observe takes them sorted only
        points = [params_03, replace(params_03, M=params_03.M - 1)]
        with pytest.raises(ValueError, match="ascending M"):
            next(_observe(np.ones(10, dtype=np.uint8), points, np.random.default_rng(1)))

    @pytest.mark.parametrize("s2", [0.0, 60.0])
    def test_reversed_points_give_reversed_decisions(self, params_03, s2):
        # the channel sorts the points by M itself, so any order draws the
        # same counts and noise; each point's decisions come back in place
        tx = np.random.default_rng(6).integers(0, 2, size=3_000, dtype=np.uint8)
        points = [replace(params_03, M=m, sigma_n2=s2) for m in (150, 225, 300)]
        thetas = [30.0, 46.0, 61.0]
        forward = simulate_stream(tx, points, 4, thetas)
        backward = simulate_stream(tx, points[::-1], 4, thetas[::-1])
        assert len({d.tobytes() for d in forward}) == 3
        for a, b in zip(forward, backward[::-1], strict=True):
            assert a.tobytes() == b.tobytes()

    def test_threshold_count_must_match_the_points(self, params_03, monkeypatch):
        monkeypatch.setattr(channel, "transmit_counts", None)  # never called
        points = [params_03, replace(params_03, M=150)]
        for thetas in ([30.0], [30.0, 61.0, 61.0]):
            with pytest.raises(ValueError, match="2 points, but"):
                simulate_stream(np.ones(10, dtype=np.uint8), points, 1, thetas)

    def test_increments_keep_the_transport_law(self, params_03):
        # counts drawn as M1 = 100 molecules per 1, then M2 - M1 = 200 more,
        # against one direct draw at M2 = 300 on the same 60-slot pattern,
        # 300 seeds each: per-slot means, variances and adjacent-slot
        # covariances agree within 5 standard errors (bound fixed before the
        # first run)
        tx = np.random.default_rng(12).integers(0, 2, size=60, dtype=np.uint8)
        tx[0] = 1  # every slot then sees molecules
        low, high = replace(params_03, M=100), replace(params_03, M=300)
        seeds = 300
        stepped, direct = (np.zeros((seeds, tx.size)) for _ in range(2))
        for s in range(seeds):
            *_, stepped[s] = _observe(tx, [low, high], np.random.default_rng([s, 1]))
            direct[s] = transmit_counts(tx, high, np.random.default_rng([s, 2]))

        def moments(x):  # per-slot counts, squared deviations, adjacent-slot products
            dev = x - x.mean(axis=0)
            return x, dev**2, dev[:, 1:] * dev[:, :-1]

        for a, b in zip(moments(stepped), moments(direct)):
            se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / seeds)
            assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se).all()

    def test_count_type_holds_m_times_l_molecules(self, params_03):
        # a slot never holds more than M * L molecules: int32 below 2^31,
        # int64 from it on.  Checked on the rule, since transport tables at
        # such sizes would cost gigabytes
        for M, L, dtype in (
            (100_000, 21_474, np.int32),
            (100_000, 21_475, np.int64),
            (1 << 16, 1 << 15, np.int64),  # exactly 2^31
            (1, 2**31 - 1, np.int32),
        ):
            assert channel._count_dtype(replace(params_03, M=M, L=L)) == dtype
        counts = transmit_counts(np.ones(10, dtype=np.uint8), params_03, np.random.default_rng(1))
        assert counts.dtype == np.int32

    def test_running_counts_widen_past_int32(self, params_03, monkeypatch):
        # a running sum whose point reaches the int64 rule widens with every
        # count kept; the rule is moved down to M = 300 so that no large table is built
        tx = np.random.default_rng(4).integers(0, 2, size=2_000, dtype=np.uint8)
        points = [replace(params_03, M=150), params_03]
        narrow = [c.copy() for c in _observe(tx, points, np.random.default_rng(6))]

        def rule(point):  # int64 from M = 300 on
            return np.int64 if point.M >= 300 else np.int32

        monkeypatch.setattr(channel, "_count_dtype", rule)
        wide = [c.copy() for c in _observe(tx, points, np.random.default_rng(6))]
        assert [c.dtype for c in narrow] == [np.int32, np.int32]
        assert [c.dtype for c in wide] == [np.int32, np.int64]
        assert all((a == b).all() for a, b in zip(narrow, wide))

    def test_empty_stream_rejected(self, params_03):
        with pytest.raises(ValueError):
            simulate_stream(np.zeros(0, dtype=np.uint8), [params_03], 1, [1.0])

    def test_stream_slot_count_moments(self, params_03):
        # an uncoded i.i.d. stream with P(1) = 1/2: each slot sums one term
        # b X_d per lag d from a different emission, so its mean is
        # rho M sum p_d and its variance sums rho (M p_d (1 - p_d) + M^2 p_d^2)
        # - rho^2 M^2 p_d^2 exactly.  Batch means over 100 blocks of 4,000
        # slots, much longer than L, give the standard errors; 5 SE each.
        rho, M, L, p = 0.5, params_03.M, params_03.L, slot_probs(params_03)
        blocks, size = 100, 4_000
        rng = np.random.default_rng(31)
        tx = rng.integers(0, 2, size=L + blocks * size, dtype=np.uint8)
        counts = transmit_counts(tx, params_03, rng)[L:].reshape(blocks, size)
        mean = rho * M * p.sum()
        var = (rho * (M * p * (1 - p) + M**2 * p**2) - rho**2 * M**2 * p**2).sum()
        block_means = counts.mean(axis=1)
        block_vars = ((counts - mean) ** 2).mean(axis=1)
        root_n = math.sqrt(blocks)
        assert abs(block_means.mean() - mean) <= 5 * block_means.std(ddof=1) / root_n
        assert abs(block_vars.mean() - var) <= 5 * block_vars.std(ddof=1) / root_n


def isolated_windows(sampler, params, trials: int, seed) -> np.ndarray:
    """Per-emission slot counts (X_1 .. X_L) of `trials` isolated 1s, each
    sent L slots after the previous one so their windows cannot overlap."""
    tx = np.zeros(trials * params.L, dtype=np.uint8)
    tx[:: params.L] = 1
    counts = sampler(tx, params, np.random.default_rng(seed))
    return counts.reshape(trials, params.L).astype(np.int64)


def multinomial_pmf(x, M: int, p) -> float:
    """P(X_1 .. X_L = x) for M molecules over (p_1 .. p_L, never-absorbed)."""
    rest = M - sum(x)
    ways = math.factorial(M) // math.prod(math.factorial(v) for v in (*x, rest))
    return ways * math.prod(float(pi) ** v for pi, v in zip(p, x)) * (1.0 - float(p.sum())) ** rest


def implied_law(table) -> Counter:
    """Exact law of GuideTable.sample in units of 2^-64, by outcome value:
    every (16-bit cell, 64-bit fix-up word) pair counted once, the 2^16
    words sharing w >> 16 making one unit."""
    mass = Counter()
    values, cells = np.unique(table.guide[table.guide >= 0], return_counts=True)
    for value, n in zip(values.tolist(), cells.tolist()):
        mass[value] += n << 48
    keys = table.keys.tolist()
    crossed, words, widths = [], [], []
    for c in np.flatnonzero(table.guide < 0).tolist():
        lo, hi = c << 48, (c + 1) << 48
        # units between consecutive in-cell boundaries share one outcome
        cuts = [lo, *keys[bisect_right(keys, lo) : bisect_left(keys, hi)], hi]
        for a, b in zip(cuts, cuts[1:]):
            crossed.append(c)
            words.append((a - lo) << 16)
            widths.append(b - a)
    got = table.sample(
        np.array(crossed, dtype=np.uint16), lambda k: np.array(words, dtype=np.uint64)[:k]
    )
    for value, width in zip(got.tolist(), widths):
        mass[value] += width
    assert sum(mass.values()) == 1 << 64
    return mass


def implied_lag_probs(table, lags: int) -> np.ndarray:
    """Exact law of a lag table over slot offsets 0 .. lags."""
    mass = implied_law(table)
    return np.array([mass[d] / 2**64 for d in range(lags + 1)])


def lag_boundaries(tail) -> list[int]:
    """Inner lag boundaries in units of 2^-64: floor(CDF * 2^64)."""
    cdf = np.cumsum(tail)
    return [int(math.ldexp(c, 64)) for c in (cdf[:-1] / cdf[-1]).tolist()]


def lag_table(tail):
    return GuideTable(tail, np.arange(1, len(tail) + 1))


# lags of probability 1e-7 < 2^-16: two boundaries share the cell starting at
# 0.5 and a third has a cell of its own
RARE_TAIL = np.array([0.5, 1e-7, 1e-7, 0.3, 0.2 - 2e-7])


SAMPLERS = pytest.mark.parametrize(
    "sampler", [transmit_counts, multinomial_counts], ids=["transmit_counts", "multinomial"]
)

# L = 3, M = 6 on the 0.3 s physics: 84 outcomes (x_1, x_2, x_3).  Of 200,000
# emissions, 59 outcomes expect at least 5 and the rest pool into one bin, so
# the statistic has 59 degrees of freedom; 98.32 is the 0.999 quantile of
# chi^2(59), fixed before the test was first run.
LAW_PARAMS = ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.3, L=3, M=6, sigma_n2=0.0)
LAW_TRIALS = 200_000
CHI2_DF, CHI2_CRITICAL = 59, 98.32



def decide_counts(monkeypatch, counts, points, thresholds, seed):
    """simulate_stream's decisions at `points` over the given noise-free
    counts: transport returns them whatever it is sent, drawing nothing."""
    monkeypatch.setattr(channel, "transmit_counts", lambda *args, **kwargs: counts.copy())
    return simulate_stream(np.zeros(counts.size, dtype=np.uint8), points, seed, thresholds)


def erfc_above(theta: float, s2: float, counts) -> np.ndarray:
    """Independent oracle: P(c + noise >= theta) = erfc((theta - c) / sqrt(2 s2)) / 2."""
    return np.array([math.erfc((theta - c) / math.sqrt(2.0 * s2)) / 2 for c in counts])


class TestNoisyDecisions:
    # a noisy point decides a slot 1 with probability P(count + noise >=
    # theta) given its noise-free count; each bound was fixed before the first run

    def test_decisions_follow_the_noise_free_counts(self, params_03):
        # one generator: transport, then detect's draw over the table of
        # counts 0 .. max; the counts come straight from transport, one slot
        # per bit
        tx = np.random.default_rng(9).integers(0, 2, size=500, dtype=np.uint8)
        noisy = replace(params_03, sigma_n2=4.0)
        rng = np.random.default_rng(3)
        counts = transmit_counts(tx, params_03, rng)
        expected = detect(counts, 61.0, 4.0, rng)
        (observed,) = _observe(tx, [noisy], np.random.default_rng(3))
        (decisions,) = simulate_stream(tx, [noisy], 3, [61.0])
        assert (observed == counts).all()
        assert (decisions == expected).all() and 0 < decisions.sum() < tx.size

    def test_per_count_rates_match_the_erfc_law(self, params_03, monkeypatch):
        # 20,000 slots at each count 0 .. 139 around theta = 68.02 at s2 = 75:
        # each count's 1s within 6 binomial SE plus one decision of the oracle
        theta, s2, n = 68.02, 75.0, 20_000
        counts = np.repeat(np.arange(140, dtype=np.int32), n)
        point = replace(params_03, sigma_n2=s2)
        (decisions,) = decide_counts(monkeypatch, counts, [point], [theta], 11)
        ones = np.bincount(counts, weights=decisions)
        for c, p in enumerate(erfc_above(theta, s2, range(140))):
            assert abs(ones[c] - n * p) <= 6 * math.sqrt(n * p * (1 - p)) + 1, c

    def test_silent_channel_rate_is_the_noise_tail(self, params_03):
        # M = 0: every count is 0, so a slot decides 1 with probability
        # erfc(theta / sqrt(2 s2)) / 2; 200,000 slots, within 5 binomial SE
        theta, s2, slots = 10.0, 75.0, 200_000
        tx = np.random.default_rng(1).integers(0, 2, size=slots, dtype=np.uint8)
        (decisions,) = simulate_stream(tx, [replace(params_03, M=0, sigma_n2=s2)], 4, [theta])
        p = math.erfc(theta / math.sqrt(2.0 * s2)) / 2
        assert abs(int(decisions.sum()) - slots * p) <= 5 * math.sqrt(slots * p * (1 - p))

    def test_noisy_points_decide_independently(self, params_03, monkeypatch):
        # one count draw serves both points: independent draws make both 1
        # with probability a1[c] a2[c], where one shared draw would give
        # min(a1[c], a2[c]), ~20,000 more here; 201,000 slots over counts
        # 40 .. 99, each sum within 5 SE
        theta, s2 = 68.02, (30.0, 120.0)
        counts = np.tile(np.arange(40, 100, dtype=np.int32), 3_350)
        points = [replace(params_03, sigma_n2=s) for s in s2]
        first, second = decide_counts(monkeypatch, counts, points, [theta] * 2, 7)
        a1, a2 = (erfc_above(theta, s, range(100))[counts] for s in s2)
        for got, q in ((first & second, a1 * a2), (first, a1), (second, a2)):
            assert abs(int(got.sum()) - q.sum()) <= 5 * math.sqrt((q * (1 - q)).sum())

    def test_certain_counts_decide_with_certainty(self, params_03, monkeypatch):
        # at s2 = 1 the erfc tails round to 0 far from theta = 50, so counts
        # 0 .. 11 decide 1 with probability 0 and 59 .. 100 with probability
        # 1; 2^14 slots per count put cells on the top value 65535, which a
        # P = 1 count resolves on a fix-up word
        slots = 101 << 14
        counts = np.repeat(np.arange(101, dtype=np.int32), 1 << 14)
        above = channel._above(50.0 - np.arange(101), 1.0)[counts]
        assert (above == 0).sum() == 12 << 14 and (above == 1).sum() == 42 << 14
        point = replace(params_03, sigma_n2=1.0)
        (decisions,) = decide_counts(monkeypatch, counts, [point], [50.0], 5)
        cells = np.random.default_rng(5).bit_generator.random_raw(slots // 4).view(np.uint16)
        assert (cells[above == 1] == 65535).any()
        assert (decisions[above == 0] == 0).all() and (decisions[above == 1] == 1).all()

    def test_tied_cells_resolve_on_a_fixup_word(self, monkeypatch):
        # above = 1/2 + 2^-17 spans 2^63 + 2^47 units of 2^-64: a cell below
        # 32768 decides 1, above it 0, and a cell equal to it decides 1 when
        # its fix-up word (drawn after every cell) has top 48 bits below 2^47
        slots = 1 << 20
        counts = np.zeros(slots, dtype=np.int32)
        monkeypatch.setattr(channel, "_above", lambda gap, s2: np.array([0.5 + 2.0**-17]))
        decisions = detect(counts, 1.0, 1.0, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        cells = rng.bit_generator.random_raw(slots // 4).view(np.uint16)
        want = (cells < 32768).view(np.uint8)
        tie = np.flatnonzero(cells == 32768)
        want[tie] = rng.bit_generator.random_raw(tie.size) >> 16 < 1 << 47
        assert set(want[tie].tolist()) == {0, 1}  # both outcomes of a tie occur
        assert (decisions == want).all()

    def test_noise_free_points_draw_nothing_after_transport(self, params_03, monkeypatch):
        # the generator ends where the last transport call left it unless a
        # point is noisy; so noise-free decisions are those of the counts alone
        ends = []

        def transport(tx, params, rng, *args, _original=channel.transmit_counts):
            counts = _original(tx, params, rng, *args)
            ends.append((rng, rng.bit_generator.state))
            return counts

        monkeypatch.setattr(channel, "transmit_counts", transport)
        tx = np.random.default_rng(3).integers(0, 2, size=2_000, dtype=np.uint8)
        for s2, draws in ((0.0, False), (60.0, True)):
            points = [replace(params_03, M=150, sigma_n2=s2), replace(params_03, sigma_n2=s2)]
            simulate_stream(tx, points, 1, [30.0, 60.0])
            rng, state = ends[-1]
            assert (rng.bit_generator.state != state) is draws

    @pytest.mark.parametrize("s2", [0.0, 60.0])
    def test_negative_threshold_rejected_before_transport(self, params_03, monkeypatch, s2):
        monkeypatch.setattr(channel, "transmit_counts", None)  # never called
        point = replace(params_03, sigma_n2=s2)
        for theta in (-0.5, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                simulate_stream(np.ones(10, dtype=np.uint8), [point], 1, [theta])

    def test_point_table_is_the_scored_row(self, monkeypatch):
        # the decision table at a noisy point's threshold is, bit for bit,
        # the row detection_threshold scored for that grid value
        point = replace(BASE_03, ts=0.4, sigma_n2=75.0)
        tables = []

        def above(gap, s2, _original=channel._above):
            tables.append(_original(gap, s2))
            return tables[-1]

        monkeypatch.setattr(channel, "_above", above)
        theta = channel.detection_threshold(point, channel.slot_law(point, [0.5] * 39))
        tx = np.random.default_rng(3).integers(0, 2, size=50_000, dtype=np.uint8)
        simulate_stream(tx, [point], 4, [theta])
        scored, table = tables
        row = scored[np.flatnonzero(threshold_grid(point) == theta)[0]]
        assert 0 < table.size <= row.size
        assert table.tobytes() == row[: table.size].tobytes()

class TestTransportLaw:
    """transmit_counts draws each emission's exact multinomial law; the
    multinomial reference sampler passes the same checks."""

    @SAMPLERS
    def test_joint_law_chi_square(self, sampler):
        M, L = LAW_PARAMS.M, LAW_PARAMS.L
        p = slot_probs(LAW_PARAMS)
        x = isolated_windows(sampler, LAW_PARAMS, LAW_TRIALS, seed=2024)
        assert x.sum(axis=1).max() <= M  # no emission loses or gains molecules
        digits = (M + 1) ** np.arange(L)
        observed = np.bincount(x @ digits, minlength=(M + 1) ** L)
        expected = np.zeros(observed.size)
        for outcome in np.ndindex(*(M + 1,) * L):
            if sum(outcome) <= M:
                expected[np.dot(outcome, digits)] = LAW_TRIALS * multinomial_pmf(outcome, M, p)
        big = expected >= 5
        pooled = ~big & (expected > 0)
        assert big.sum() == CHI2_DF
        obs = np.append(observed[big], observed[pooled].sum())
        exp = np.append(expected[big], expected[pooled].sum())
        stat = float((((obs - exp) ** 2) / exp).sum())
        assert stat < CHI2_CRITICAL, f"chi^2 = {stat:.1f} on {CHI2_DF} df"

    @SAMPLERS
    def test_lag_moments_and_covariances(self, sampler, params_03):
        # every check at 5 standard errors: exact binomial ones for the lag
        # means and variances, the sample's own for adjacent-lag covariances
        trials = 50_000
        M = params_03.M
        p = slot_probs(params_03)
        x = isolated_windows(sampler, params_03, trials, seed=77).astype(np.float64)
        var = M * p * (1 - p)
        fourth = var * (1 + 3 * (M - 2) * p * (1 - p))  # binomial 4th central moment
        assert (np.abs(x.mean(axis=0) - M * p) <= 5 * np.sqrt(var / trials)).all()
        assert (np.abs(x.var(axis=0) - var) <= 5 * np.sqrt((fourth - var**2) / trials)).all()
        centred = x - x.mean(axis=0)
        products = centred[:, :-1] * centred[:, 1:]
        cov_se = products.std(axis=0) / math.sqrt(trials)
        assert (np.abs(products.mean(axis=0) + M * p[:-1] * p[1:]) <= 5 * cov_se).all()


class TestLagTable:
    @pytest.mark.parametrize("L", [2, 40, 100, 200])
    def test_implied_probabilities(self, params_03, L):
        tail = slot_probs(replace(params_03, L=L))[1:]
        table = lag_table(tail)
        assert table.guide.shape == (1 << 16,)
        assert table.guide.dtype == (np.int8 if L - 1 <= 127 else np.int16)
        implied = implied_lag_probs(table, L - 1)
        assert implied[0] == 0
        assert np.abs(implied[1:] - tail / tail.sum()).max() <= 1e-12

    def test_single_slot_memory_has_no_tail(self, params_03):
        p = replace(params_03, L=1)
        emission, lags = channel._transport_tables(replace(p, sigma_n2=0.0))
        assert lags is None
        assert (emission.values >> p.M.bit_length() == 0).all()

    @pytest.mark.parametrize("tail", ["L=40", "rare"])
    def test_straddled_cells_resolve_at_each_boundary(self, params_03, tail):
        tail = slot_probs(params_03)[1:] if tail == "L=40" else RARE_TAIL
        table = lag_table(tail)
        bounds = lag_boundaries(tail)
        inner = [b for b in bounds if b % (1 << 48)]
        assert (table.guide < 0).sum() == len({b >> 48 for b in inner})
        # every cell at its first and its last unit
        cells = np.arange(1 << 16, dtype=np.uint16)
        for w in (0, (1 << 64) - 1):
            got = table.sample(cells, lambda k: np.full(k, w, dtype=np.uint64))
            expected = [1 + bisect_right(bounds, (c << 48) + (w >> 16)) for c in range(1 << 16)]
            assert got.tolist() == expected
        # in a straddled cell, the words just below and at each boundary
        for b in inner:
            words = np.array([b % (1 << 48) - 1, b % (1 << 48)], dtype=np.uint64) << 16
            got = table.sample(np.full(2, b >> 48, dtype=np.uint16), lambda k: words[:k])
            assert got.tolist() == [1 + bisect_right(bounds, b - 1), 1 + bisect_right(bounds, b)]

    def test_rare_lags_sharing_a_cell(self):
        table = lag_table(RARE_TAIL)
        cells = [b >> 48 for b in lag_boundaries(RARE_TAIL)]
        assert cells[1] == cells[2] == 1 << 15 and cells[3] != cells[2]
        assert np.flatnonzero(table.guide < 0).tolist() == sorted({cells[1], cells[3]})
        implied = implied_lag_probs(table, RARE_TAIL.size)
        assert np.abs(implied[1:] - RARE_TAIL / RARE_TAIL.sum()).max() <= 1e-12
        # molecules in the shared cell draw both rare lags at their in-cell
        # rate 1e-7 * 2^16, within 5 binomial standard errors
        trials = 100_000
        cell = np.full(trials, 1 << 15, dtype=np.uint16)
        drawn = np.bincount(table.sample(cell, np.random.PCG64(5).random_raw), minlength=6)
        rate = 1e-7 * (1 << 16)
        se = math.sqrt(trials * rate * (1 - rate))
        assert drawn[0] == drawn[1] == drawn[5] == 0
        assert (np.abs(drawn[2:4] - trials * rate) <= 5 * se).all()

    @pytest.mark.parametrize("L", [1, 100])
    def test_transport_runs_at_any_memory(self, params_03, L):
        params = replace(params_03, L=L)
        trials = 20_000
        M, p = params.M, slot_probs(params)
        x = isolated_windows(transmit_counts, params, trials, seed=L)
        assert x.sum(axis=1).max() <= M
        se = np.sqrt(M * p * (1 - p) / trials)
        assert (np.abs(x.mean(axis=0) - M * p) <= 5 * se).all()


def log_factorials(M: int) -> np.ndarray:
    """ln k! for k = 0 .. M, each the log of an exact integer."""
    out, f = [0.0], 1
    for k in range(1, M + 1):
        f *= k
        out.append(math.log(f))
    return np.array(out)


def exact_pmf(x, t, M: int, p) -> np.ndarray:
    """P(X_1 = x, T = t) for M molecules over (p_1, P_tail, never-absorbed)."""
    x, t = np.asarray(x), np.asarray(t)
    lf = log_factorials(M)
    p1, tail = float(p[0]), float(p[1:].sum())
    log = lf[M] - lf[x] - lf[t] - lf[M - x - t] + x * math.log(p1)
    log += (M - x - t) * math.log1p(-p1 - tail)
    if tail:
        log += t * math.log(tail)
    return np.exp(log)


def binomial_pmf(k, n: int, prob: float) -> np.ndarray:
    """P(Bin(n, prob) = k)."""
    lf = log_factorials(n)
    k = np.asarray(k)
    return np.exp(lf[n] - lf[k] - lf[n - k] + k * math.log(prob) + (n - k) * math.log1p(-prob))


def emission_table(params):
    return channel._transport_tables(replace(params, sigma_n2=0.0))[0]


def implied_emission_law(params):
    """(x, t, implied probability) of every outcome the emission table draws."""
    mass = implied_law(emission_table(params))
    packed = np.array(sorted(mass))
    shift = params.M.bit_length()
    implied = np.array([mass[v] for v in packed.tolist()], dtype=np.float64) / 2**64
    return packed & (1 << shift) - 1, packed >> shift, implied


def check_emission_law(params):
    """The table's implied law of (X_1, T) against the exact pmf, and T's
    marginal against Bin(M, P_tail), both to 1e-12; returns the table's
    outcome count."""
    M, p = params.M, slot_probs(params)
    x, t, implied = implied_emission_law(params)
    exact = exact_pmf(x, t, M, p)
    assert np.abs(implied - exact).max() <= 1e-12
    assert exact.sum() >= 1 - 1e-12  # the outcomes left out carry no mass
    marginal = np.bincount(t, weights=implied, minlength=M + 1)
    tail = float(p[1:].sum())
    expected = binomial_pmf(np.arange(M + 1), M, tail) if tail else np.eye(M + 1)[0]
    assert np.abs(marginal - expected).max() <= 1e-12
    return emission_table(params).values.size


# M = 300, L = 40 on the 0.3 s physics.  Of 200,000 isolated emissions, 1,520
# (X_1, T) outcomes expect at least 5 and the rest pool into one bin, so the
# statistic has 1,520 degrees of freedom; 1696.1 is the 0.999 quantile of
# chi^2(1520) (Wilson-Hilferty), fixed before the test was first run.
PAIR_TRIALS = 200_000
PAIR_DF, PAIR_CRITICAL = 1520, 1696.1


class TestEmissionTable:
    @pytest.mark.parametrize("L", [1, 40])
    @pytest.mark.parametrize("M", [1, 6, 150, 300])
    def test_implied_law_is_exact(self, params_03, M, L):
        check_emission_law(replace(params_03, M=M, L=L))

    def test_large_molecule_count(self, params_03):
        # the band of outcomes above the pmf floor is an ellipse of area
        # ~ M (with a slowly growing log factor), not the (M+1)(M+2)/2
        # triangle: at most 25 % above linear growth from M = 300
        small = check_emission_law(params_03)
        large = check_emission_law(replace(params_03, M=2000))
        assert large <= 1.25 * (2000 / 300) * small

    def test_joint_draws_chi_square(self, params_03):
        M, p = params_03.M, slot_probs(params_03)
        windows = np.concatenate(
            [isolated_windows(transmit_counts, params_03, PAIR_TRIALS // 4, seed) for seed in range(4)]
        )
        x, t = windows[:, 0], windows[:, 1:].sum(axis=1)
        observed = np.bincount(x * (M + 1) + t, minlength=(M + 1) ** 2)
        gx, gt = np.divmod(np.arange((M + 1) ** 2), M + 1)
        valid = gx + gt <= M
        expected = np.zeros(observed.size)
        expected[valid] = PAIR_TRIALS * exact_pmf(gx[valid], gt[valid], M, p)
        assert observed[~valid].sum() == 0
        big = expected >= 5
        assert big.sum() == PAIR_DF
        obs = np.append(observed[big], observed[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        stat = float((((obs - exp) ** 2) / exp).sum())
        assert stat < PAIR_CRITICAL, f"chi^2 = {stat:.1f} on {PAIR_DF} df"


class TestGuideTable:
    @pytest.mark.parametrize("M", [1, 300, 2000])
    def test_keys_strictly_increase(self, params_03, M):
        for table in channel._transport_tables(replace(params_03, M=M, sigma_n2=0.0)):
            keys = table.keys.tolist()
            assert all(a < b for a, b in zip([0, *keys], keys))
            assert table.values.size == len(keys) + 1

    def test_zero_width_outcomes_dropped(self):
        table = GuideTable([0.0, 0.5, 0.0, 0.5], [1, 2, 3, 4])
        assert table.keys.tolist() == [1 << 63]
        assert table.values.tolist() == [2, 4]


def brute_slot_law(params, weights) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle: full, uncut Bin(M, p_d) pmfs, each lag's mixed
    with a point mass at 0, convolved one by one."""
    p, M = slot_probs(params), params.M
    off = np.ones(1)
    for p_d, w in zip(p[1:], weights):
        mix = w * binomial_pmf(np.arange(M + 1), M, float(p_d))
        mix[0] += 1 - w
        off = np.convolve(off, mix)
    return off, np.convolve(off, binomial_pmf(np.arange(M + 1), M, float(p[0])))


def exact_error_curve(params) -> np.ndarray:
    """Independent oracle: an uncoded slot's error probability at each grid
    threshold, summed count by count with statistics.NormalDist."""
    off, on = channel.slot_law(params, [0.5] * (params.L - 1))
    sd = math.sqrt(params.sigma_n2)
    curve = []
    for theta in threshold_grid(params):
        if sd:
            below = np.array([NormalDist(k, sd).cdf(theta) for k in range(on.size)])
        else:
            below = (np.arange(on.size) < theta).astype(np.float64)
        curve.append((below @ on + (1 - below) @ off) / 2)
    return np.array(curve)


BASE_03 = ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.3, L=40, M=300, sigma_n2=0.0)
# the benchmark's and criterion 10's points, with the threshold the modal
# 200k-slot pilot picks at each
PILOT_PICKS = [
    *((replace(BASE_03, M=M), theta) for M, theta in [(150, 33.09), (225, 50.05), (275, 61.18)]),
    (BASE_03, 67.29),
    *((replace(BASE_03, ts=0.4, sigma_n2=s2), 68.02) for s2 in (30.0, 75.0, 120.0)),
]


class TestSlotLaw:
    @pytest.mark.parametrize(
        "L, M, weights",
        [(40, 300, [0.5] * 39), (6, 40, [0.3, 1.0, 0.0, 0.7, 0.5]), (1, 25, []), (3, 0, [1, 1])],
    )
    def test_matches_brute_force_convolution(self, params_03, L, M, weights):
        params = replace(params_03, L=L, M=M)
        for pmf, brute in zip(channel.slot_law(params, weights), brute_slot_law(params, weights)):
            size = max(pmf.size, brute.size)
            pmf, brute = (np.pad(a, (0, size - a.size)) for a in (pmf, brute))
            assert np.abs(pmf - brute).max() < 1e-12

    def test_weights_must_cover_the_earlier_lags(self, params_03):
        with pytest.raises(ValueError):
            channel.slot_law(params_03, [0.5] * 38)

    def test_noise_free_counts_match_sampled_slots(self, params_03):
        # a fixed history: slot 3 of each 9-slot period sends a 1, as did
        # the slots 1 and 3 back; the period is longer than L, so no other
        # 1 reaches it
        params = replace(params_03, L=8)
        tx = np.tile(np.array([1, 0, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8), 20_000)
        counts = transmit_counts(tx, params, np.random.default_rng(5))[3::9]
        _, on = channel.slot_law(params, [1, 0, 1, 0, 0, 0, 0])
        observed = np.bincount(counts[1:].astype(np.int64), minlength=on.size)
        expected = on * observed.sum()
        pooled = expected >= 5
        obs = np.append(observed[pooled], observed[~pooled].sum())
        exp = np.append(expected[pooled], expected[~pooled].sum())
        stat, df = float(((obs - exp) ** 2 / exp).sum()), obs.size - 1
        assert stat < df + 5 * math.sqrt(2 * df), f"chi^2 = {stat:.1f} on {df} df"


class TestCalibration:
    @pytest.mark.parametrize("point, theta", PILOT_PICKS)
    def test_exact_pick_matches_sampled_pilots(self, point, theta):
        # 12 pilots of 200k slots per point: the exact pick is their modal
        # pick, and the exact error curve lies within sampling error of theirs
        exact = channel.detection_threshold(point, channel.slot_law(point, [0.5] * 39))
        curve, grid = exact_error_curve(point), threshold_grid(point)
        assert round(exact, 2) == theta
        assert exact == grid[np.argmin(curve)]
        errors = [pilot_errors(point, 200_000, [seed, 0, 0, 0]) for seed in range(12)]
        picks = Counter(int(np.argmin(e)) for e in errors)
        assert grid[picks.most_common(1)[0][0]] == exact
        slots = 12 * 200_000
        sd = np.sqrt(curve * (1 - curve) / slots)
        assert (np.abs(np.sum(errors, axis=0) / slots - curve) < 5 * sd).all()

    def test_exact_picks_keep_every_bit(self):
        # each PILOT_PICKS point's exact threshold to the last bit: the noise
        # rule the grid scores is shared with the decision draw, and sharing
        # it must not move a threshold
        exact = [33.09277966747231, 50.05282924705187, 61.17568019084118, 67.28865199052703]
        for (point, _), theta in zip(PILOT_PICKS, exact + [68.01923624236343] * 3, strict=True):
            assert channel.detection_threshold(point, channel.slot_law(point, [0.5] * 39)) == theta

    @pytest.mark.parametrize("s2", [75.0, 120.0])
    def test_noisy_pilot_adds_the_noise_exactly(self, s2):
        # the pilot samples transport only and the noise is added exactly, so
        # every 200k-slot pilot picks the exact threshold
        point = replace(BASE_03, ts=0.4, sigma_n2=s2)
        exact = channel.detection_threshold(point, channel.slot_law(point, [0.5] * 39))
        assert round(exact, 2) == 68.02
        picks = [calibrate_threshold(point, 200_000, [seed, 0, 0, 0]) for seed in range(6)]
        assert picks == [exact] * 6

    def test_memoryless_pilot_calibrates(self, params_03):
        point = replace(params_03, L=1, M=150)
        theta = calibrate_threshold(point, 10_000, rng_seed=4)
        assert theta == channel.detection_threshold(point, channel.slot_law(point, []))

    def test_deterministic_for_fixed_seed(self, params_03):
        a = calibrate_threshold(params_03, 20_000, rng_seed=42)
        b = calibrate_threshold(params_03, 20_000, rng_seed=42)
        assert a == b

    def test_pilot_oracle_is_the_sampled_calibration(self, params_03):
        errors = pilot_errors(params_03, 20_000, 42)
        theta = calibrate_threshold(params_03, 20_000, rng_seed=42)
        assert theta == threshold_grid(params_03)[np.argmin(errors)]

    def test_law_is_shared_by_points_differing_in_noise(self, params_03):
        law = channel.slot_law(params_03, [0.5] * 39)
        for s2 in (0.0, 45.0):
            point = replace(params_03, sigma_n2=s2)
            assert channel.detection_threshold(point, law) == threshold_grid(point)[
                np.argmin(exact_error_curve(point))
            ]

    def test_large_sampling_time_separates_classes(self):
        params = ChannelParams(D=79.4, r=5.0, r0=10.0, ts=3.0, L=40, M=300, sigma_n2=0.0)
        theta = channel.detection_threshold(params, channel.slot_law(params, [0.5] * 39))
        peak = params.M * slot_probs(params)[0]
        assert 0.0 < theta < peak
        # with negligible interference the chosen threshold separates a fresh
        # pilot nearly perfectly
        rng = np.random.default_rng(123)
        bits = rng.integers(0, 2, size=30_000, dtype=np.uint8)
        (decisions,) = simulate_stream(bits, [params], 9, thresholds=[theta])
        assert (decisions != bits).mean() < 1e-3

    def test_zero_signal_rejected(self, params_03):
        params = replace(params_03, M=0)
        with pytest.raises(ValueError, match="M \\* p_1 = 0"):
            channel.detection_threshold(params, channel.slot_law(params, [0.5] * 39))
        with pytest.raises(ValueError, match="M \\* p_1 = 0"):
            calibrate_threshold(params, 20_000, rng_seed=1)

    def test_short_pilot_rejected(self, params_03):
        with pytest.raises(ValueError):
            calibrate_threshold(params_03, 5_000, rng_seed=1)

    def test_noisy_threshold_without_scipy(self):
        # pyproject.toml declares numpy only: the noise step runs with scipy unimportable
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from isiecc import ChannelParams, detection_threshold, slot_law\n"
            "p = ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.4, L=40, M=300, sigma_n2=75.0)\n"
            "print(round(detection_threshold(p, slot_law(p, [0.5] * 39)), 2))\n"
        )
        src = str(Path(channel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "68.02\n"


class TestDetect:
    def test_zeros_below_threshold(self):
        assert detect([0.0, 0.0], 1.0).tolist() == [0, 0]

    def test_tie_decides_one(self):
        assert detect([2.5], 2.5).tolist() == [1]

    def test_calibrated_gap_case(self, params_03, profile_03):
        theta = channel.detection_threshold(params_03, channel.slot_law(params_03, [0.5] * 39))
        peak = params_03.M * profile_03[0]
        assert detect([peak + 5 * 10, 0.1 * peak], theta).tolist() == [1, 0]

    def test_integer_counts_decide_as_floats(self):
        counts = np.arange(200)
        for theta in (0.0, 0.5, 61.0, 61.18, 199.0, 199.5, 1e9):
            want = detect(counts.astype(np.float64), theta)
            for dtype in (np.int32, np.int64):
                assert (detect(counts.astype(dtype), theta) == want).all(), (dtype, theta)

    def test_integer_counts_are_not_copied_to_floats(self):
        # 1M int32 counts: the decisions take 1 MB, a float64 copy would take 8 MB
        counts = np.zeros(1 << 20, dtype=np.int32)
        tracemalloc.start()
        try:
            detect(counts, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_negative_threshold_rejected(self):
        for threshold in (-0.5, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                detect([1.0], threshold)

    @pytest.mark.parametrize("s2", [0.0, 60.0])
    def test_empty_counts_give_empty_decisions(self, s2):
        decisions = detect(np.zeros(0, dtype=np.int32), 61.0, s2, np.random.default_rng(1))
        assert decisions.dtype == np.uint8 and decisions.shape == (0,)

    def test_noisy_decisions_need_a_generator(self):
        with pytest.raises(ValueError, match="generator"):
            detect(np.arange(5), 2.0, 60.0)


CONFIG_TEXT = (
    "D_um2_per_s = 79.4\nr_um = 5\nr0_um = 10\nts_s = 0.3\n"
    "L = 40\nM = 250\nsigma_n2 = 0\nseed = 33\n"
)


class TestChannelConfig:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(
            "# test channel\n"
            "D_um2_per_s = 79.4\n"
            "r_um = 5\n"
            "r0_um = 10\n"
            "ts_s = 0.3\n"
            "L = 40\n"
            "M = 275\n"
            "sigma_n2 = 60\n"
            "seed = 17\n"
        )
        params, seed = load_channel_config(cfg)
        assert params == ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.3, L=40, M=275, sigma_n2=60.0)
        assert seed == 17

    def test_missing_key_rejected(self, tmp_path):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text("D_um2_per_s = 79.4\nr_um = 5\n")
        with pytest.raises(ValueError, match="missing required"):
            load_channel_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text("D = 79.4\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_channel_config(cfg)

    def test_fractional_molecule_count_rejected(self, params_03):
        with pytest.raises(ValueError, match="100.5"):
            replace(params_03, M=100.5)
        assert replace(params_03, M=101.0) == replace(params_03, M=101)
        assert type(replace(params_03, M=101.0).M) is int

    @pytest.mark.parametrize("field,value", [("M", 300.5), ("L", 40.5)])
    def test_non_whole_counts_rejected(self, params_03, field, value):
        with pytest.raises(ValueError, match=str(value)):
            replace(params_03, **{field: value})
        whole = replace(params_03, **{field: float(int(value))})
        assert whole == params_03 and type(getattr(whole, field)) is int

    @pytest.mark.parametrize("field", ["D", "r", "r0", "ts", "sigma_n2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, params_03, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            replace(params_03, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("D", 0.0, "D and ts must be positive"),
            ("ts", -0.3, "D and ts must be positive"),
            ("M", -1, "M and sigma_n2 must be non-negative"),
            ("sigma_n2", -1.0, "M and sigma_n2 must be non-negative"),
        ],
    )
    def test_out_of_range_values_rejected(self, params_03, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(params_03, **{field: value})

    def test_molecules_above_cap_rejected(self, params_03):
        cap = channel.MAX_MOLECULES
        assert replace(params_03, M=cap).M == cap
        with pytest.raises(ValueError, match=f"M = {cap + 1} exceeds the cap of {cap}"):
            replace(params_03, M=cap + 1)

    def test_non_finite_noise_rejected_by_replace(self, params_03):
        with pytest.raises(ValueError, match="sigma_n2 must be finite"):
            replace(params_03, sigma_n2=math.nan)

    @pytest.mark.parametrize("key,text,L,M", [("M", "3e2", 40, 300), ("L", "40.0", 40, 250)])
    def test_whole_number_spellings_load(self, tmp_path, key, text, L, M):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace(f"{key} = ", f"{key} = {text} #", 1))
        params, _ = load_channel_config(cfg)
        assert (params.L, params.M) == (L, M)
        assert type(params.L) is int and type(params.M) is int

    def test_fractional_config_count_rejected(self, tmp_path):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace("M = 250", "M = 300.5"))
        whole = "molecules per 1-bit must be a whole number, got 300.5"
        with pytest.raises(ValueError, match=whole):
            load_channel_config(cfg)

    @pytest.mark.parametrize("key", ["M", "seed"])
    def test_unparsable_value_names_file_and_key(self, tmp_path, key):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace(f"\n{key} = ", f"\n{key} = abc #"))
        with pytest.raises(ValueError) as err:
            load_channel_config(cfg)
        assert str(err.value) == f"{cfg}: {key} must be a number, got 'abc'"

    @pytest.mark.parametrize(
        "line, message",
        [("M 300", "expected 'key = value', got 'M 300'"), ("M = 300", "duplicate key 'M'")],
    )
    def test_malformed_line_rejected(self, tmp_path, line, message):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT + line + "\n")
        with pytest.raises(ValueError) as err:
            load_channel_config(cfg)
        assert str(err.value) == f"{cfg}:9: {message}"

    def test_fractional_seed_rejected(self, tmp_path):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace("seed = 33", "seed = 1.5"))
        with pytest.raises(ValueError) as err:
            load_channel_config(cfg)
        assert str(err.value) == f"{cfg}: seed must be a whole number, got '1.5'"

    def test_large_seed_loads_exactly(self, tmp_path):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace("seed = 33", f"seed = {2**70 + 1}"))
        assert load_channel_config(cfg)[1] == 2**70 + 1

    @pytest.mark.parametrize("text, seed", [("1e3", 1000), ("1e30", 10**30), ("2.0e1", 20)])
    def test_seed_whole_number_spellings_load_exactly(self, tmp_path, text, seed):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace("seed = 33", f"seed = {text}"))
        assert load_channel_config(cfg)[1] == seed

    # 1e999999999 parses exactly but would take a ~400 MB int: past int()'s
    # 4300-digit limit it is refused, as a float-parsed seed always was
    @pytest.mark.parametrize(
        "text, what",
        [
            ("6/2", "a number"),
            ("nan", "a whole number"),
            ("inf", "a whole number"),
            ("1e999999999", "a whole number"),
        ],
    )
    def test_seed_non_numbers_rejected(self, tmp_path, text, what):
        cfg = tmp_path / "chan.cfg"
        cfg.write_text(CONFIG_TEXT.replace("seed = 33", f"seed = {text}"))
        with pytest.raises(ValueError) as err:
            load_channel_config(cfg)
        assert str(err.value) == f"{cfg}: seed must be {what}, got {text!r}"

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(D=79.4, r=10.0, r0=5.0, ts=0.3, L=40, M=300, sigma_n2=0.0)
        with pytest.raises(ValueError):
            ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.3, L=0, M=300, sigma_n2=0.0)

    @pytest.mark.parametrize("name,ts", [("channel_ts0.3.cfg", 0.3), ("channel_ts0.4.cfg", 0.4)])
    def test_shipped_configs_load(self, name, ts):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "configs"
        params, seed = load_channel_config(root / name)
        assert params.ts == ts
        assert params == ChannelParams(
            D=79.4, r=5.0, r0=10.0, ts=ts, L=40, M=300, sigma_n2=0.0
        )
        assert seed == 20260808
