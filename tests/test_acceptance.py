"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values (run with -s to see them live).

Criteria 10 and 11 encode published BER targets that depend on an unspecified
detector; they are asserted as stated and their measured values reported.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from conftest import enumerate_weight_class, isi_brute
from isiecc import (
    CodeSpec,
    build_codebook,
    codeword_isi_bound,
    density_profile,
    design_for_rate,
    encode,
    decode,
    message_matrix,
    parity_weight_cap,
    slot_probs,
    swap_gain,
    verify_min_distance,
)
from isiecc import ChannelParams, expected_isi, hitting_prob
from isiecc.bits import bits_to_str, parse_bits
from isiecc.channel import transmit_counts
from isiecc.codebook import unrank_stack
from isiecc.codec import swap_pairs, swap_permutation
from isiecc.harness import report_csv_text, run_ber_experiment
from isiecc.harness import ExperimentConfig

PARAMS = ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.3, L=40, M=300, sigma_n2=0.0)
PROFILE = slot_probs(PARAMS)
VERIFIED_CODES = [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 23), (7, 27)]

TABLE_38 = [
    ("111", "0000", "1"),
    ("110", "1000", "0"),
    ("101", "0100", "0"),
    ("100", "0010", "0"),
    ("011", "0001", "0"),
    ("010", "1100", "1"),
    ("001", "1010", "1"),
    ("000", "1001", "1"),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_reference_codebook_exact():
    t0 = time.monotonic()
    book = build_codebook(3, 4)
    rows_ok = all(
        bits_to_str(row[:3]) == u and bits_to_str(row[3:7]) == p and str(row[7]) == extra
        for row, (u, p, extra) in zip(book.codewords, TABLE_38)
    )
    elapsed = time.monotonic() - t0
    report(1, rows_ok and elapsed < 1.0, f"8 rows bit-exact, {elapsed * 1e3:.0f} ms")


def test_criterion_02_parameters_by_brute_force():
    t0 = time.monotonic()
    ok = True
    for k, m in VERIFIED_CODES:
        book = build_codebook(k, m)
        ok &= verify_min_distance(book.codewords) == 3
        ok &= book.spec.size == (1 << k) == book.codewords.shape[0]
        ok &= book.spec.n == k + m + 1 == book.codewords.shape[1]
    elapsed = time.monotonic() - t0
    report(2, ok and elapsed < 10.0, f"7 codes, distance 3 by all-pairs scan, {elapsed:.2f} s")


def test_criterion_03_exhaustive_single_error_correction():
    t0 = time.monotonic()
    cases = 0
    ok = True
    for k, m in ((3, 4), (4, 5), (5, 6)):
        spec = CodeSpec(k, m)
        for bits in product((0, 1), repeat=k):
            u = np.array(bits, dtype=np.uint8)
            tx = encode(u, spec)
            for pos in range(spec.n):
                hit = tx.copy()
                hit[pos] ^= 1
                ok &= (decode(hit, spec) == u).all()
                cases += 1
    elapsed = time.monotonic() - t0
    report(3, ok and elapsed < 5.0, f"{cases} flip cases, 100% recovered, {elapsed:.2f} s")


def test_criterion_04_transmit_swap_golden_case():
    spec = CodeSpec(3, 4)
    got = bits_to_str(parse_bits("01100010")[swap_permutation(spec)])
    report(4, got == "01010010", f"row 5 transmits as {got}")


def test_criterion_05_matrix_property_suite():
    ok = True
    for m in range(1, 13):
        for i in range(m + 1):
            start = sum(math.comb(m, j) for j in range(i))  # rows of the lighter classes
            mat = unrank_stack(np.arange(start, start + math.comb(m, i)), m)
            ok &= (mat == enumerate_weight_class(m, i)).all()
            expected_col = math.comb(m - 1, i - 1) if i >= 1 else 0
            ok &= (mat.sum(axis=0) == expected_col).all()
    for k in range(1, 9):
        ok &= (message_matrix(k).sum(axis=0) == 1 << (k - 1)).all()
    report(5, ok, "weight classes match enumeration oracle for all m <= 12, column sums exact")


def test_criterion_06_density_and_column_weight_suite():
    ok = True
    for k, m in VERIFIED_CODES:
        book = build_codebook(k, m)
        dens = density_profile(book)
        cap = book.spec.max_parity_weight
        size = book.spec.size
        ok &= (dens[:k] == 0.5).all()
        body_bound = sum(math.comb(m - 1, r - 1) for r in range(1, cap + 1)) / size
        ok &= (dens[k : k + m] <= body_bound + 1e-15).all()
        # count of even-weight parity rows bounds the final column
        extra_bound = sum(math.comb(m, 2 * r) for r in range(cap // 2 + 1)) / size
        ok &= dens[-1] <= extra_bound + 1e-15
        col = book.codewords.sum(axis=0)
        ok &= all(w <= (1 << (k - 1)) for w in col[: k + m])
        ok &= all(col[t + 1] <= col[t] for t in range(k, k + m - 1))
    report(6, ok, "density equalities, bounds, and monotonicity hold for all 7 codes")


def test_criterion_07_swap_gains_nonpositive_and_exact():
    ok = True
    worst = 0.0
    for k, m in ((4, 5), (5, 6), (6, 7)):
        book = build_codebook(k, m)
        words = book.codewords
        p = PROFILE

        def sum_isi(mat, i):
            return math.fsum(isi_brute(row, i, p) for row in mat)

        for a, b in swap_pairs(k):
            t = a - math.ceil(k / 2)
            swapped = words.copy()
            swapped[:, [a - 1, b - 1]] = swapped[:, [b - 1, a - 1]]
            direct = (sum_isi(swapped, a + 1) + sum_isi(swapped, b + 1)) - (
                sum_isi(words, a + 1) + sum_isi(words, b + 1)
            )
            gain = swap_gain(book, PROFILE, t)
            ok &= gain <= 0.0 and abs(gain - direct) <= 1e-12
            worst = max(worst, abs(gain - direct))
    report(7, ok, f"all gains <= 0, |closed form - direct| <= {worst:.2e}")


def test_criterion_08_expected_isi_ordering():
    t0 = time.monotonic()
    last45 = expected_isi(build_codebook(4, 5).codewords, PROFILE)[9]
    last56 = expected_isi(build_codebook(5, 6).codewords, PROFILE)[11]
    rep3_stream = expected_isi(np.full(3, 0.5), PROFILE, stream=True)[2]
    gap = abs(last45 - last56) / min(last45, last56)
    elapsed = time.monotonic() - t0
    ok = last45 < rep3_stream and last56 < rep3_stream and gap < 0.10 and elapsed < 1.0
    report(
        8,
        ok,
        f"last-bit ISI {last45:.6f} and {last56:.6f} < rep3 streaming {rep3_stream:.6f},"
        f" codes differ {100 * gap:.1f}%, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_09_rate_design():
    design = design_for_rate(Fraction(1, 5), 7)
    cands = set(design)
    has_published = {(6, 23, 2), (7, 27, 2)} <= cands

    # oracle: direct re-derivation of the feasibility conditions per k
    def feasible(k):
        n = 5 * k
        m = n - k - 1
        if m <= k:
            return None
        cap = parity_weight_cap(k, m)
        below = sum(math.comb(m, j) for j in range(cap))
        if cap <= k and cap + k + 1 < n and below < (1 << k) <= below + math.comb(m, cap):
            return (k, m, cap)
        return None

    oracle = tuple(c for c in (feasible(k) for k in range(1, 8)) if c)
    matches_oracle = design == oracle

    book6 = build_codebook(6, 23)
    book7 = build_codebook(7, 27)
    avg6 = expected_isi(density_profile(book6), PROFILE, stream=True).mean()
    avg7 = expected_isi(density_profile(book7), PROFILE, stream=True).mean()
    isi_ordered = avg7 < avg6

    budget_ok = all(
        codeword_isi_bound(word, PROFILE, book.spec.max_parity_weight, book.spec.k)
        for book in (book6, book7)
        for word in book.codewords
    )
    ok = has_published and matches_oracle and isi_ordered and budget_ok
    report(
        9,
        ok,
        f"candidates={design} include published pair;"
        f" stream-average ISI {avg7:.6f} < {avg6:.6f}; all 192 codewords within budget",
    )


def test_criterion_10_transmit_swap_ber_benefit():
    results = {}
    for post in (False, True):
        config = ExperimentConfig(
            codes=("ckm:4,5",), channel=PARAMS, seed=424242, trials=4_000_000,
            sweep=(275.0,), post_encoding=post, workers=4,
        )
        row = run_ber_experiment(config, "ber-m").rows[0]
        results[post] = (row["ber"], row["bit_errors"], row["bits_sent"], row["threshold"])
    ber_raw, err_raw, bits_raw, theta = results[False]
    ber_post, err_post, _, _ = results[True]
    ratio = ber_raw / ber_post if ber_post > 0 else math.inf
    in_band_raw = 1.125e-6 <= ber_raw <= 1.125e-4
    in_band_post = 4.25e-7 <= ber_post <= 4.25e-5
    ok = ber_post < ber_raw and ratio >= 2.0 and in_band_raw and in_band_post
    report(
        10,
        ok,
        f"theta={theta:.2f}, BER without swaps {ber_raw:.3e} ({err_raw}/{bits_raw}),"
        f" with swaps {ber_post:.3e} ({err_post}), ratio {ratio:.2f}"
        f" (need >= 2, bands [1.125e-6, 1.125e-4] / [4.25e-7, 4.25e-5])",
    )


def test_criterion_11_noise_sweep_ordering():
    config = ExperimentConfig(
        codes=("ckm:4,5", "rep3", "uncoded"), channel=PARAMS, seed=777, trials=1_000_000,
        sweep=(0.0, 60.0, 120.0), workers=4,
    )
    rows = run_ber_experiment(config, "ber-noise").rows
    ok = True
    details = []
    for sigma2 in config.sweep:
        point = {}
        for row in rows:
            if row["sigma_n2"] == sigma2:
                errors, bits = row["bit_errors"], row["bits_sent"]
                se = math.sqrt(max(errors, 1)) / bits
                point[row["code"]] = (errors / bits, se)
        ours, se_ours = point["ckm:4,5"]
        rep, se_rep = point["rep3"]
        unc, se_unc = point["uncoded"]
        beats_rep = (rep - ours) > 2 * math.hypot(se_ours, se_rep)
        beats_unc = (unc - ours) > 2 * math.hypot(se_ours, se_unc)
        ok &= beats_rep and beats_unc
        details.append(
            f"s2={sigma2:.0f}: ours {ours:.3e}, rep3 {rep:.3e}, uncoded {unc:.3e}"
        )
    report(11, ok, "; ".join(details))


def test_criterion_12_channel_sanity():
    ok = hitting_prob(0.0, PARAMS) == 0.0
    grid = np.linspace(0.0, 300.0, 1000)
    vals = [hitting_prob(t, PARAMS) for t in grid]
    ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    total = math.fsum(PROFILE)
    limit = hitting_prob(PARAMS.L * PARAMS.ts, PARAMS)
    ok &= abs(total - limit) <= 1e-12 * limit

    trials = 100_000
    L = PARAMS.L
    tx = np.zeros(trials * (L + 1), dtype=np.uint8)
    tx[:: L + 1] = 1
    counts = transmit_counts(tx, PARAMS, np.random.default_rng(987654))
    mean = counts.reshape(trials, L + 1)[:, :L].mean(axis=0)
    p = PROFILE
    se = np.sqrt(PARAMS.M * p * (1 - p) / trials)
    worst_z = float(np.max(np.abs(mean - PARAMS.M * p) / se))
    ok &= worst_z <= 3.0
    report(12, ok, f"F sane, slot probabilities telescope, worst slot-mean z={worst_z:.2f}")


def test_criterion_13_deterministic_across_workers():
    def run(workers):
        config = ExperimentConfig(
            codes=("ckm:4,5", "rep3"),
            channel=PARAMS,
            seed=31415,
            trials=30_000,
            sweep=(150.0, 250.0),
            workers=workers,
            block_size=5_000,
        )
        return report_csv_text(run_ber_experiment(config, "ber-m")).encode()

    first = run(1)
    rerun = run(1)
    parallel = run(3)
    ok = first == rerun == parallel
    report(13, ok, f"{len(first)} CSV bytes identical for rerun and 3 workers")
