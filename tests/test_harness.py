import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_work
from isiecc import (
    ExperimentConfig,
    calibrate_threshold,
    detection_threshold,
    expected_isi,
    make_coder,
    message_matrix,
    run_ber_experiment,
    run_isi_experiment,
    simulate_stream,
    slot_law,
    slot_probs,
    streaming_expected_isi,
    write_report,
)
from isiecc import channel, harness
from isiecc.bits import bits_to_str, parse_bits
from isiecc.harness import ber_point, manifest_text, report_csv_text


REP3 = make_coder("rep3")


class TestRepetition3:
    def test_encode_definition(self):
        assert bits_to_str(REP3.encode(parse_bits("10"))) == "111000"

    def test_decode_majority(self):
        assert bits_to_str(REP3.decode(parse_bits("110"))) == "1"
        assert bits_to_str(REP3.decode(parse_bits("010"))) == "0"

    def test_any_single_flip_recovered(self):
        for bit in ("0", "1"):
            word = REP3.encode(parse_bits(bit))
            for pos in range(3):
                hit = word.copy()
                hit[pos] ^= 1
                assert bits_to_str(REP3.decode(hit)) == bit

    def test_length_must_be_multiple_of_three(self):
        with pytest.raises(ValueError):
            REP3.decode(parse_bits("1101"))

    def test_stream_coder_matches_functions(self):
        coder = make_coder("rep3")
        msgs = np.array([[0], [1], [1]], dtype=np.uint8)
        words = coder.encode(msgs)
        assert bits_to_str(words.ravel()) == "000111111"
        assert (coder.decode(words) == msgs).all()

    @pytest.mark.parametrize("label", ["uncoded", "rep3"])
    def test_every_received_word_decodes_by_majority(self, label):
        coder = make_coder(label)
        n = coder.block_len
        msgs = np.array([[0], [1]], dtype=np.uint8)
        assert (coder.encode(msgs) == np.repeat(msgs, n, axis=1)).all()
        words = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
        decoded = coder.decode(words)
        assert decoded.dtype == np.uint8 and decoded.shape == (2**n, 1)
        # a word decodes to the bit that fills more than half of its slots
        assert (decoded[:, 0] == (2 * words.sum(axis=1) > n)).all()
        if label == "uncoded":
            assert (decoded == words).all()  # an exact pass-through


class TestCoders:
    def test_labels(self):
        assert make_coder("uncoded").label == "uncoded"
        assert make_coder("rep3").label == "rep3"
        assert make_coder("ckm:4,5").label == "ckm:4,5"

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            make_coder("hamming")
        with pytest.raises(ValueError):
            make_coder("ckm:4")
        # out-of-range codes keep the reason the code spec gives
        with pytest.raises(ValueError, match="m must satisfy k < m"):
            make_coder("ckm:4,3")
        with pytest.raises(ValueError, match="k must be in"):
            make_coder("ckm:21,30")

    def test_ckm_round_trip_through_stream_shapes(self):
        coder = make_coder("ckm:4,5")
        msgs = np.random.default_rng(0).integers(0, 2, size=(64, 4), dtype=np.uint8)
        words = coder.encode(msgs)
        assert words.shape == (64, 10)
        assert (coder.decode(words) == msgs).all()

    @pytest.mark.parametrize("k", [0, *range(1, 13)])
    def test_every_word_received_as_sent_decodes_to_its_message(self, k):
        # ber_point decodes only words holding a slot error, which is exact
        # only if every word received as sent decodes to its own message:
        # k = 0 stands for uncoded and rep3, then every ckm code with this k
        labels = ["uncoded", "rep3"] if k == 0 else [f"ckm:{k},{m}" for m in range(k + 1, 41)]
        for label, post_encoding in itertools.product(labels, (True, False)):
            coder = make_coder(label, post_encoding=post_encoding)
            msgs = message_matrix(coder.message_len)
            assert np.array_equal(coder.decode(coder.encode(msgs)), msgs), (label, post_encoding)

    def test_post_encoding_flag_changes_words(self):
        raw = make_coder("ckm:4,5", post_encoding=False)
        swapped = make_coder("ckm:4,5", post_encoding=True)
        msgs = np.array([[1, 1, 1, 1]], dtype=np.uint8)
        assert not (raw.encode(msgs) == swapped.encode(msgs)).all()

    @pytest.mark.parametrize(
        "label, post_encoding, expected",
        [
            ("uncoded", True, ("na", 1, 1)),
            ("rep3", True, ("na", 1, 3)),
            ("ckm:4,5", True, ("true", 4, 10)),
            ("ckm:4,5", False, ("false", 4, 10)),
            ("ckm:16,30", True, ("true", 16, 47)),
        ],
    )
    def test_every_coder_offers_the_protocol(self, label, post_encoding, expected):
        # the members the experiments use: label, post_encoding_label,
        # message_len, block_len, encode, decode and transmitted_words
        coder = make_coder(label, post_encoding=post_encoding)
        assert coder.label == label
        assert (coder.post_encoding_label, coder.message_len, coder.block_len) == expected
        msgs = message_matrix(coder.message_len)
        words = coder.transmitted_words()
        assert words.dtype == np.uint8
        assert np.array_equal(words, coder.encode(msgs))
        assert np.array_equal(coder.decode(words), msgs)
        if label.startswith("ckm:"):
            with pytest.raises(ValueError, match="read-only"):
                words[0, 0] ^= 1


class TestBlockPlan:
    @pytest.mark.parametrize(
        "trials, size", [(1, 1), (7, 3), (9, 3), (2_000, 500), (25_001, 25_000)]
    )
    def test_blocks_cover_trials_in_order(self, trials, size):
        for n in (1, 10, 15):  # codes of up to 15 slots get `size` words
            blocks = harness._blocks(trials, size, n)
            assert [b for b, _ in blocks] == list(range(len(blocks)))
            words = [nb for _, nb in blocks]
            assert sum(words) == trials
            assert all(nb == size for nb in words[:-1])
            assert 1 <= words[-1] <= size

    def test_fewer_trials_than_block_size_is_one_block(self):
        assert harness._blocks(3, 25_000, 10) == [(0, 3)]

    @pytest.mark.parametrize("size", [1, 2, 7, 500, 25_000])
    def test_block_slots_are_bounded_for_every_code_length(self, size):
        # longer codes get fewer words, so no block passes 15 * size slots,
        # unless one word of the code alone does
        for n in range(1, 62):
            blocks = harness._blocks(3 * size, size, n)
            words = [nb for _, nb in blocks]
            assert sum(words) == 3 * size
            assert all(nb == words[0] for nb in words[:-1])
            assert words[0] == size if n <= 15 else 1 <= words[0] <= size
            assert words[0] * n <= (15 * size if size >= n // 8 else n)

    def test_block_size_below_the_rule_gives_one_word_blocks(self):
        assert harness._blocks(3, 1, 47) == [(0, 1), (1, 1), (2, 1)]


def small_config(params, **overrides):
    defaults = dict(
        codes=("ckm:4,5", "rep3", "uncoded"),
        channel=params,
        seed=11,
        trials=2_000,
        sweep=(150.0, 250.0),
        post_encoding=True,
        workers=1,
        block_size=500,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# small_config overrides for isi, which takes no sweep and every other BER
# setting at its default
ISI = {"sweep": (), "block_size": harness.DEFAULT_BLOCK_SIZE}


class TestIsiExperiment:
    def test_rows_and_analytic_column(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5",), trials=3_000, **ISI)
        report = run_isi_experiment(config)
        assert report.manifest["experiment"] == "isi"
        assert len(report.rows) == 10
        profile = slot_probs(params_03)
        coder = make_coder("ckm:4,5")
        words = coder.transmitted_words()
        last = report.rows[-1]
        assert last["position"] == 10
        assert last["expected_isi_analytic"] == pytest.approx(
            params_03.M * expected_isi(words, 10, profile), abs=1e-12
        )
        # streamed estimate sits near the analytic value, above it because
        # earlier codewords also interfere
        assert last["expected_isi_mc"] == pytest.approx(
            last["expected_isi_analytic"], rel=0.45
        )
        assert last["expected_isi_mc"] > 0

    def test_zero_molecules_zero_isi(self, params_03):
        config = small_config(
            replace(params_03, M=0), codes=("ckm:4,5", "rep3"), trials=500, **ISI
        )
        report = run_isi_experiment(config)
        for row in report.rows:
            assert row["expected_isi_analytic"] == 0.0
            assert row["expected_isi_mc"] == 0.0

    def test_first_position_analytic_zero(self, params_03):
        config = small_config(params_03, codes=("uncoded",), trials=500, **ISI)
        row = run_isi_experiment(config).rows[0]
        assert row["position"] == 1
        assert row["expected_isi_analytic"] == 0.0
        assert row["expected_isi_mc"] > 0  # stream interference from earlier words

    def test_code_longer_than_memory_fails_before_any_block(self, params_03, monkeypatch):
        blocks = []
        monkeypatch.setattr(harness, "_isi_mc_profile", lambda *args: blocks.append(args))
        config = small_config(params_03, codes=("ckm:4,5", "ckm:16,30"), **ISI)
        with pytest.raises(ValueError, match=r"ckm:16,30 has n=47 .* L=40"):
            run_isi_experiment(config)
        assert blocks == []

    @pytest.mark.parametrize("label", ["rep3", "ckm:4,5"])
    def test_monte_carlo_column_matches_streamed_expectation(self, params_03, label):
        # exact oracle: M times the endless-stream expected interference of
        # the transmitted words' per-position densities.  Each call below
        # runs one default-size block on its own seed; the tolerance, 5
        # standard errors of the 16 block means, was fixed before the first
        # run.  Each block starts on an empty channel, no molecules sent
        # before its first slot, which lowers its mean by at most 0.004
        # molecules here, under a tenth of a standard error.
        coder = make_coder(label)
        profile = slot_probs(params_03)
        densities = coder.transmitted_words().mean(axis=0)
        positions = range(1, coder.block_len + 1)
        exact = params_03.M * np.array(
            [streaming_expected_isi(densities, pos, profile) for pos in positions]
        )
        blocks = np.array(
            [
                harness._isi_mc_profile(coder, params_03, harness.DEFAULT_BLOCK_SIZE, seed)
                for seed in range(16)
            ]
        )
        se = blocks.std(axis=0, ddof=1) / math.sqrt(len(blocks))
        assert (np.abs(blocks.mean(axis=0) - exact) <= 5 * se).all()

    @pytest.mark.parametrize("label", ["rep3", "ckm:4,5"])
    def test_isi_block_is_the_ber_group_zero_block(self, params_03, label, monkeypatch):
        # one block plan and one seed layout: each isi block sends the words
        # of the BER block of the same index, under its channel key
        point = replace(params_03, sigma_n2=0.0)
        config = small_config(
            point, codes=(label,), trials=32_768, block_size=harness.DEFAULT_BLOCK_SIZE
        )
        coder = make_coder(label)
        seen = {"ber": [], "isi": []}

        def ber_stream(tx, points, rng_seed, thresholds):
            seen["ber"].append((tx, rng_seed))
            return [np.zeros_like(tx)]

        def isi_stream(*args, _original=harness._block_stream):
            msgs, tx, key = _original(*args)
            seen["isi"].append((tx, key))
            return msgs, tx, key

        monkeypatch.setattr(harness, "simulate_stream", ber_stream)
        ber_point(coder, [point], [1.0], config)
        monkeypatch.setattr(harness, "_block_stream", isi_stream)
        harness._isi_mc_profile(coder, point, config.trials, config.seed)
        assert len(seen["isi"]) == len(seen["ber"]) == 2
        for (tx, key), (isi_tx, isi_key) in zip(seen["ber"], seen["isi"]):
            assert isi_key == key
            assert (isi_tx == tx).all()

    @pytest.mark.parametrize("label", ["rep3", "ckm:4,5"])
    def test_isi_block_tail_goes_through_transport(self, params_03, label, monkeypatch):
        # transport sees exactly each block's last ceil((L-1)/n) words, and
        # its counts enter the sums bit for bit: 2^15 trials (two blocks)
        # divide exactly.  The spy always draws, so both runs draw alike.
        coder = make_coder(label)
        n, trials, seed = coder.block_len, 1 << 15, 5
        tail = math.ceil((params_03.L - 1) / n)
        seen, profiles = [], []
        for keep in (True, False):

            def transport(tx, params, rng, include_own_slot=True, _keep=keep):
                counts = channel.transmit_counts(tx, params, rng, include_own_slot)
                seen.append((tx, counts, include_own_slot))
                return counts if _keep else np.zeros_like(counts)

            monkeypatch.setattr(harness, "transmit_counts", transport)
            profiles.append(harness._isi_mc_profile(coder, params_03, trials, seed))
        jobs = harness._blocks(trials, harness.DEFAULT_BLOCK_SIZE, n)
        assert len(jobs) == 2 and len(seen) == 4
        for job, (tx, _, own) in zip(jobs * 2, seen):
            assert own is False
            assert (tx == harness._block_stream(coder, seed, job)[1][-tail * n :]).all()
        tails = sum(counts.reshape(-1, n).sum(axis=0) for _, counts, _ in seen[:2])
        assert tails.sum() > 0
        assert ((profiles[0] - profiles[1]) * trials == tails).all()

    @pytest.mark.parametrize("stream", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 10, 40, 47])
    @pytest.mark.parametrize("L", [1, 2, 40])
    def test_isi_matrix_and_rest_match_a_loop_over_lags(self, params_03, L, n, stream):
        p = slot_probs(replace(params_03, L=L))
        if n > L and not stream:  # an isolated word's lags would reach past p_L
            with pytest.raises(ValueError, match="longer than the slot profile"):
                channel.isi_matrix(p, n, stream)
            return
        share = channel.isi_matrix(p, n, stream)
        assert share.shape == (n, n)
        for i in range(n):
            row = [0.0] * n
            for g in range(1, L):  # a molecule g slots late lands on position i + g
                if stream or i + g < n:
                    row[(i + g) % n] += float(p[g])
            assert share[i].tolist() == row
            assert 1.0 - share[i].sum() >= p[0] - 1e-15  # the rest holds the own slot

    @pytest.mark.parametrize("label", ["rep3", "ckm:4,5"])
    def test_block_totals_follow_the_transport_law(self, params_03, label):
        # oracle: per-position totals of one transport call over the whole
        # block, on the same words.  300 seeds of one 100-word block, so the
        # block tail weighs.  Bounds fixed before the first run: 5 standard
        # errors of the paired mean difference, and of each covariance entry
        # taken as the two sides' independent sampling errors added.
        coder = make_coder(label)
        n, trials, seeds = coder.block_len, 100, range(300)

        def transported(seed):
            _, tx, key = harness._block_stream(coder, seed, (0, trials))
            rng = np.random.default_rng(key)
            counts = channel.transmit_counts(tx, params_03, rng, include_own_slot=False)
            return counts.reshape(-1, n).sum(axis=0)

        drawn = np.array([harness._isi_mc_profile(coder, params_03, trials, s) for s in seeds])
        drawn *= trials
        oracle = np.array([transported(s) for s in seeds])
        diff = drawn - oracle
        se = diff.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        assert (np.abs(diff.mean(axis=0)) <= 5 * se).all()
        covs = [np.cov(side, rowvar=False).reshape(n, n) for side in (drawn, oracle)]
        var = sum(np.outer(c.diagonal(), c.diagonal()) + c**2 for c in covs) / len(seeds)
        assert (np.abs(covs[0] - covs[1]) <= 5 * np.sqrt(var)).all()

    def test_memoryless_channel_zero_isi(self, params_03):
        # at L = 1 no molecule lands in a later slot: both columns read 0
        config = small_config(replace(params_03, L=1), codes=("uncoded",), trials=500, **ISI)
        (row,) = run_isi_experiment(config).rows
        assert row["expected_isi_analytic"] == 0.0
        assert row["expected_isi_mc"] == 0.0

    def test_sweep_rejected_before_any_block(self, params_03, monkeypatch):
        blocks = []
        monkeypatch.setattr(harness, "_isi_mc_profile", lambda *args: blocks.append(args))
        config = small_config(params_03, codes=("uncoded",), **{**ISI, "sweep": (150.0, 225.0)})
        with pytest.raises(ValueError, match=r"isi takes no sweep, got \(150.0, 225.0\)"):
            run_isi_experiment(config)
        assert blocks == []

    @pytest.mark.parametrize(
        "key, value", [("workers", 2), ("block_size", 7), ("pilot_slots", 20_000)]
    )
    def test_ber_settings_rejected_before_any_transport(self, params_03, monkeypatch, key, value):
        # isi runs one thread on default blocks with no pilot: a BER setting
        # would change nothing, so naming one is an error, not a no-op
        calls = []
        monkeypatch.setattr(harness, "transmit_counts", lambda *args, **kw: calls.append(args))
        config = small_config(params_03, codes=("rep3",), **{**ISI, key: value})
        with pytest.raises(ValueError, match=f"^isi takes no {key}, got {value}$"):
            run_isi_experiment(config)
        assert calls == []

    def test_streamed_last_bit_below_repetition3(self, params_03):
        config = small_config(
            params_03, codes=("ckm:4,5", "rep3"), trials=20_000, **ISI
        )
        rows = run_isi_experiment(config).rows
        last = {
            row["code"]: row["expected_isi_mc"]
            for row in rows
            if (row["code"], row["position"]) in (("ckm:4,5", 10), ("rep3", 3))
        }
        assert last["ckm:4,5"] < 0.9 * last["rep3"]


class TestBerExperiments:
    def test_bits_accounting_and_schema(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5", "uncoded"), trials=1_000)
        report = run_ber_experiment(config, "ber-m")
        assert report.manifest["experiment"] == "ber-m"
        assert len(report.rows) == 4  # 2 codes x 2 sweep points
        for row in report.rows:
            k = 4 if row["code"].startswith("ckm") else 1
            assert row["bits_sent"] == config.trials * k
            assert 0.0 <= row["ber"] <= 1.0
            assert row["bit_errors"] == round(row["ber"] * row["bits_sent"])
            assert row["threshold"] > 0

    def test_noise_sweep_uses_fixed_molecules(self, params_03):
        config = small_config(params_03, codes=("uncoded",), sweep=(0.0, 60.0), trials=1_000)
        report = run_ber_experiment(config, "ber-noise")
        assert [row["sigma_n2"] for row in report.rows] == [0.0, 60.0]
        assert all(row["M"] == params_03.M for row in report.rows)

    def test_same_seed_same_csv(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5",), trials=1_500)
        a = report_csv_text(run_ber_experiment(config, "ber-m"))
        b = report_csv_text(run_ber_experiment(config, "ber-m"))
        assert a == b

    def test_worker_count_does_not_change_csv(self, params_03):
        base = small_config(params_03, codes=("ckm:4,5", "rep3"), trials=2_000)
        parallel = small_config(
            params_03, codes=("ckm:4,5", "rep3"), trials=2_000, workers=4
        )
        assert report_csv_text(run_ber_experiment(base, "ber-m")) == report_csv_text(
            run_ber_experiment(parallel, "ber-m")
        )

    @pytest.mark.parametrize("label", ["uncoded", "rep3", "ckm:4,5"])
    def test_only_words_holding_a_slot_error_are_decoded(self, params_03, label, monkeypatch):
        # a spy on decode sees, block by block, exactly the words with a slot
        # decided against its sent bit; the errors equal a full decode of the
        # same decisions
        point, theta = replace(params_03, M=150, sigma_n2=60.0), 33.0
        config = small_config(point, codes=(label,), sweep=(60.0,), trials=3_000)
        coder = make_coder(label)
        seen, decode = [], coder.decode
        monkeypatch.setattr(coder, "decode", lambda words: seen.append(words) or decode(words))
        (errors,) = ber_point(coder, [point], [theta], config)
        jobs = harness._blocks(config.trials, config.block_size, coder.block_len)
        assert len(seen) == len(jobs) > 1
        full = 0
        for job, decoded in zip(jobs, seen):
            msgs, tx, key = harness._block_stream(coder, config.seed, job)
            (decisions,) = simulate_stream(tx, [point], key, [theta])
            words = decisions.reshape(len(msgs), -1)
            touched = (words != tx.reshape(len(msgs), -1)).any(axis=1)
            assert 0 < touched.sum() < len(msgs)
            assert np.array_equal(decoded, words[touched])
            full += int((decode(words) != msgs).sum())
        assert errors == full > 0

    @pytest.mark.parametrize(
        "kind, sweep", [("ber-m", (250.0, 150.0, 200.0)), ("ber-noise", (60.0, 0.0, 30.0))]
    )
    def test_detect_decides_each_block_once_per_point(self, params_03, monkeypatch, kind, sweep):
        # every slot decision, noisy or not, goes through channel.detect: one
        # call per (block, point) over the block's slots, points in ascending M
        calls, decide = [], channel.detect

        def spy(counts, threshold, *args):
            calls.append((counts.size, threshold, args[0]))
            return decide(counts, threshold, *args)

        monkeypatch.setattr(channel, "detect", spy)
        config = small_config(params_03, sweep=sweep, trials=1_200)
        first = run_ber_experiment(config, kind).rows[:3]  # one code's rows, in sweep order
        points = [(r["threshold"], r["sigma_n2"]) for r in sorted(first, key=lambda r: r["M"])]
        expected = []
        for label in config.codes:
            n = make_coder(label).block_len
            for _, words in harness._blocks(config.trials, config.block_size, n):
                expected += [(words * n, *point) for point in points]
        assert calls == expected

    def test_threshold_replay_reproduces_ber(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5",), seed=5, sweep=(250.0,))
        row = run_ber_experiment(config, "ber-m").rows[0]
        point = replace(params_03, M=250)
        (replayed,) = ber_point(make_coder("ckm:4,5"), [point], [row["threshold"]], config)
        assert replayed == row["bit_errors"]

    def test_long_code_noise_csv_ignores_workers(self, params_03):
        # ckm:8,16 has n = 25 slots, so a 900-word block size gives 300-word
        # blocks: 5 of them, shared out over the workers
        config = small_config(
            params_03, codes=("ckm:8,16",), trials=1_500, sweep=(0.0, 60.0), block_size=900
        )
        assert len(harness._blocks(config.trials, config.block_size, 25)) == 5
        one, two = (
            report_csv_text(run_ber_experiment(replace(config, workers=w), "ber-noise"))
            for w in (1, 2)
        )
        assert one == two

    def test_block_size_changes_the_draws_not_the_law(self, params_03):
        # block indices seed the streams, so the counts differ, but each BER
        # stays within 4 combined standard errors of the other size's
        config = small_config(
            params_03, codes=("uncoded", "ckm:4,5"), trials=20_000, sweep=(200.0,)
        )
        big, small = (
            run_ber_experiment(replace(config, block_size=size), "ber-m").rows
            for size in (25_000, 1_000)
        )
        for a, b in zip(big, small, strict=True):
            assert a["code"] == b["code"] and a["bits_sent"] == b["bits_sent"]
            bits = a["bits_sent"]
            se = math.sqrt((a["ber"] * (1 - a["ber"]) + b["ber"] * (1 - b["ber"])) / bits)
            assert abs(a["ber"] - b["ber"]) <= 4 * se, (a["code"], a["ber"], b["ber"])
        assert [r["bit_errors"] for r in big] != [r["bit_errors"] for r in small]

    def test_unknown_kind_names_the_kinds(self, params_03):
        with pytest.raises(ValueError, match="unknown BER kind 'ber-x'.*ber-m, ber-noise"):
            run_ber_experiment(small_config(params_03), "ber-x")

    def test_sweeps_build_each_table_once(self, params_03):
        # the transport tables do not depend on sigma_n2, and a ber-m block
        # draws 150 molecules per 1, then 50 more twice, so over every block
        # of 3 codes a 3-point ber-m sweep builds 2 table pairs and a 3-point
        # ber-noise sweep 1
        for kind, sweep, table_pairs in (
            ("ber-m", (150.0, 200.0, 250.0), 2),
            ("ber-noise", (0.0, 30.0, 60.0), 1),
        ):
            channel._transport_tables.cache_clear()
            run_ber_experiment(small_config(params_03, sweep=sweep, trials=500), kind)
            info = channel._transport_tables.cache_info()
            assert info.misses == table_pairs and info.currsize == table_pairs, kind

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="channel._transport_tables caches 2 table pairs, so increments of three"
        " sizes evict each other and rebuild at every block; ROADMAP item 6's fix,"
        " tables keyed per run for its blocks, builds each pair once",
    )
    def test_three_increment_sizes_build_each_table_once(self, params_03):
        # increments of 100, 125 and 75 molecules over 4 blocks: 3 table
        # pairs, each needed by every block
        config = small_config(
            params_03, codes=("uncoded",), sweep=(100.0, 225.0, 300.0), trials=2_000
        )
        assert len(harness._blocks(config.trials, config.block_size, 1)) == 4
        channel._transport_tables.cache_clear()
        run_ber_experiment(config, "ber-m")
        assert channel._transport_tables.cache_info().misses == 3

    def test_concurrent_workers_build_each_table_once(self, params_03, monkeypatch):
        # a slow build overlaps both workers' first blocks; the second worker
        # must wait for the first's table, not build its own.  A lo:hi:step
        # sweep's increments are lo and step molecules: 2 table pairs
        probs = channel.slot_probs

        def slow_probs(point):
            time.sleep(0.05)
            return probs(point)

        monkeypatch.setattr(channel, "slot_probs", slow_probs)
        sweep = (150.0, 225.0, 300.0)
        config = small_config(
            params_03, codes=("uncoded",), sweep=sweep, trials=500, block_size=250, workers=2
        )
        channel._transport_tables.cache_clear()
        run_ber_experiment(config, "ber-m")
        assert channel._transport_tables.cache_info().misses == 2

    @pytest.mark.parametrize("pilot_slots", [0, 10_000])
    @pytest.mark.parametrize("points", [16, 17])
    def test_long_sweep_builds_each_table_once(
        self, params_03, monkeypatch, points, pilot_slots
    ):
        # every threshold, pilot included, comes before the blocks, whose
        # increments of 100 and 20 molecules need 2 table pairs: each built
        # once and both kept cached.  A pilot draws transport at its point's
        # full M, so pilots build one pair per point first
        sweep = tuple(100.0 + 20 * i for i in range(points))
        config = small_config(
            params_03, codes=("uncoded",), sweep=sweep, trials=200, pilot_slots=pilot_slots
        )
        before_blocks, step = [], harness.ber_point
        monkeypatch.setattr(
            harness,
            "ber_point",
            lambda *a: before_blocks.append(channel._transport_tables.cache_info().misses)
            or step(*a),
        )
        channel._transport_tables.cache_clear()
        run_ber_experiment(config, "ber-m")
        info = channel._transport_tables.cache_info()
        assert before_blocks == [points if pilot_slots else 0]
        assert info.misses == before_blocks[0] + 2 and info.currsize == 2

    def test_noise_sweep_tables_are_noise_free(self, params_03, monkeypatch):
        seen, build = [], channel._transport_tables
        monkeypatch.setattr(channel, "_transport_tables", lambda pt: seen.append(pt) or build(pt))
        config = small_config(params_03, codes=("ckm:4,5",), sweep=(0.0, 60.0), trials=500)
        run_ber_experiment(config, "ber-noise")
        assert set(seen) == {replace(params_03, sigma_n2=0.0)}

    def test_empty_sweep_rejected(self, params_03):
        config = small_config(params_03, sweep=())
        with pytest.raises(ValueError):
            run_ber_experiment(config, "ber-m")

    def test_bad_code_label_fails_before_any_pilot(self, params_03, monkeypatch):
        # no threshold, exact or sampled, and no transport
        work = record_work(monkeypatch)
        for pilot_slots in (0, 10_000):
            config = small_config(
                params_03, codes=("ckm:4,5", "ckm:4,3"), pilot_slots=pilot_slots
            )
            with pytest.raises(ValueError, match="k < m"):
                run_ber_experiment(config, "ber-m")
        assert work == []

    def test_fractional_molecule_sweep_fails_before_any_pilot(self, params_03, monkeypatch):
        work = record_work(monkeypatch)
        config = small_config(params_03, sweep=(100.0, 100.5, 101.0))
        with pytest.raises(ValueError, match="100.5"):
            run_ber_experiment(config, "ber-m")
        assert work == []

    def test_one_slot_law_per_noise_free_point(self, params_03, monkeypatch):
        work = record_work(monkeypatch)
        config = small_config(params_03, sweep=(150.0, 250.0, 200.0))
        report = run_ber_experiment(config, "ber-m")
        # every point's law and threshold come before any block's transport
        stages = [name for name, _ in itertools.groupby(work)]
        assert stages == ["slot_law", "detection_threshold", "_transport_tables"]
        assert work.count("slot_law") == work.count("detection_threshold") == 3

        # each threshold is its point's own, and every row is what the whole
        # sweep replayed through ber_point gives
        points = [replace(params_03, M=value) for value in config.sweep]
        thetas = [detection_threshold(pt, slot_law(pt, [0.5] * 39)) for pt in points]
        expected = []
        for label in config.codes:
            coder = make_coder(label)
            errors = ber_point(coder, points, thetas, config)
            bits = config.trials * coder.message_len
            expected += list(zip([label] * 3, config.sweep, [bits] * 3, errors, thetas))
        assert [
            (r["code"], r["M"], r["bits_sent"], r["bit_errors"], r["threshold"])
            for r in report.rows
        ] == expected

        parallel = run_ber_experiment(replace(config, workers=3), "ber-m")
        assert report_csv_text(parallel) == report_csv_text(report)

    def test_first_point_rows_match_a_one_point_sweep(self, params_03):
        # the lowest M draws its transport before any increment, so its rows
        # are a one-point sweep's, bit for bit
        config = small_config(params_03, sweep=(150.0, 250.0))
        rows = run_ber_experiment(config, "ber-m").rows
        single = run_ber_experiment(replace(config, sweep=(150.0,)), "ber-m").rows
        assert rows[0::2] == single

    def test_reversed_sweep_gives_the_same_rows(self, params_03):
        # increments are drawn in ascending M whatever the sweep order, and
        # rows and manifest thresholds keep the sweep's order
        config = small_config(params_03, sweep=(150.0, 200.0, 250.0))
        forward = run_ber_experiment(config, "ber-m")
        backward = run_ber_experiment(replace(config, sweep=(250.0, 200.0, 150.0)), "ber-m")
        assert [r["M"] for r in backward.rows[:3]] == [250, 200, 150]
        for code in range(3):
            rows = slice(3 * code, 3 * code + 3)
            assert backward.rows[rows] == forward.rows[rows][::-1]
        thresholds = [k for k in backward.manifest if k.startswith("threshold[")]
        assert thresholds == ["threshold[M=250]", "threshold[M=200]", "threshold[M=150]"]

    def test_noise_sweep_computes_one_slot_law(self, params_03, monkeypatch):
        work = record_work(monkeypatch)
        config = small_config(params_03, codes=("uncoded",), sweep=(0.0, 30.0, 60.0), trials=300)
        run_ber_experiment(config, "ber-noise")
        stages = [name for name, _ in itertools.groupby(work)]
        assert stages == ["slot_law", "detection_threshold", "_transport_tables"]
        assert work.count("detection_threshold") == 3

    def test_pilot_slots_sample_each_threshold_from_a_pilot(self, params_03, monkeypatch):
        work = record_work(monkeypatch)
        config = small_config(params_03, codes=("uncoded",), trials=300, pilot_slots=10_000)
        report = run_ber_experiment(config, "ber-m")
        assert [name for name, _ in itertools.groupby(work)] == [
            "calibrate_threshold",
            "_transport_tables",
        ] * 2
        # below 2^32 a seed's pilot keys (seed, p, 0, 0) and (seed, p, 0) are one stream
        assert [row["threshold"] for row in report.rows] == [
            calibrate_threshold(replace(params_03, M=value), 10_000, [11, pi, 0])
            for pi, value in enumerate(config.sweep)
        ]

    @pytest.mark.parametrize("kind, per_block", [("ber-noise", 1), ("ber-m", 3)])
    def test_transport_once_per_block_for_a_noise_sweep(
        self, params_03, monkeypatch, kind, per_block
    ):
        # 3 sweep points share one noise-free channel in ber-noise, so each
        # (code, block) draws transport once for all of them; a ber-m block
        # draws once per molecule increment, so once per point
        calls, transport = [], channel.transmit_counts
        monkeypatch.setattr(
            channel, "transmit_counts", lambda *a, **kw: calls.append(1) or transport(*a, **kw)
        )
        sweep = (0.0, 60.0, 120.0) if kind == "ber-noise" else (150.0, 200.0, 250.0)
        config = small_config(params_03, codes=("ckm:4,5", "rep3"), sweep=sweep, trials=1_000)
        run_ber_experiment(config, kind)
        assert len(calls) == per_block * 2 * 2  # per_block x codes x blocks

    def test_longer_noise_sweep_keeps_earlier_rows(self, params_03):
        def rows(sweep):
            config = small_config(params_03, codes=("ckm:4,5", "uncoded"), sweep=sweep)
            return run_ber_experiment(config, "ber-noise").rows

        short, long = rows((0.0, 60.0)), rows((0.0, 60.0, 120.0))
        assert short == long[0:2] + long[3:5]  # rows go code by code

    def test_noise_free_point_matches_ber_m_row(self, params_03):
        # a ber-noise sweep's first point draws what a one-point ber-m draws
        noise = small_config(params_03, codes=("ckm:4,5", "rep3"), sweep=(0.0, 90.0))
        single = small_config(params_03, codes=("ckm:4,5", "rep3"), sweep=(float(params_03.M),))
        noise_rows = run_ber_experiment(noise, "ber-noise").rows
        assert run_ber_experiment(single, "ber-m").rows == (noise_rows[0], noise_rows[2])

    @pytest.mark.parametrize(
        "kind, sweep, overrides",
        [
            ("ber-m", 300.0, {}),
            ("ber-noise", 60.0, {}),
            ("ber-m", 300.0, {"L": 3}),
            ("ber-m", (150.0, 300.0), {}),
        ],
    )
    def test_uncoded_ber_matches_the_exact_slot_law(self, params_03, kind, sweep, overrides):
        # end to end against an independent law: an uncoded bit is one slot,
        # so its exact BER at the row's threshold is P(count + noise < theta
        # | 1) / 2 + P(count + noise >= theta | 0) / 2 over the i.i.d. slot
        # law; the bound, 4 binomial standard errors, was fixed before the
        # first run.  Blocks start on an empty channel, so the first L - 1
        # slots of each 25,000-slot block see less interference; that raises
        # the expected BER by 0.39 SE at L = 40, 0.22 SE at sigma_n2 = 60 and
        # under 0.01 SE at L = 3, computed from the same law.  The two-point
        # sweep checks the M = 300 point drawn as 150 molecules, then 150 more.
        base = replace(params_03, **overrides)
        sweep = sweep if isinstance(sweep, tuple) else (sweep,)
        config = small_config(
            base,
            codes=("uncoded",),
            sweep=sweep,
            trials=2_000_000,
            workers=2,
            seed=7,
            block_size=harness.DEFAULT_BLOCK_SIZE,
        )
        rows = run_ber_experiment(config, kind).rows
        assert len(rows) == len(sweep)
        for row, value in zip(rows, sweep):
            point = replace(base, **{harness.BER_SWEEPS[kind]: value})
            off, on = slot_law(point, [0.5] * (point.L - 1))
            theta = row["threshold"]
            if point.sigma_n2 > 0:
                root = math.sqrt(2.0 * point.sigma_n2)
                above = np.array([math.erfc((theta - c) / root) / 2 for c in range(on.size)])
            else:
                above = (np.arange(on.size) >= theta).astype(np.float64)
            exact = float(on @ (1.0 - above) + off @ above) / 2
            se = math.sqrt(exact * (1.0 - exact) / row["bits_sent"])
            assert row["bits_sent"] == 2_000_000
            assert abs(row["ber"] - exact) <= 4 * se, (value, row["ber"], exact)


class TestReportOutput:
    def test_csv_and_manifest_files(self, params_03, tmp_path):
        config = small_config(params_03, codes=("uncoded",), trials=800)
        report = run_ber_experiment(config, "ber-m")
        out = tmp_path / "run.csv"
        write_report(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "code,post_encoding,ts_s,L,M,sigma_n2,bits_sent,bit_errors,ber,threshold"
        )
        assert len(lines) == 1 + len(report.rows)
        manifest = (tmp_path / "run.manifest.txt").read_text()
        assert "seed = 11" in manifest
        assert "version = " in manifest
        assert "wall_clock_s = " in manifest
        assert "threshold[M=150]" in manifest

    def test_ber_manifest_names_the_threshold_rule(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5", "uncoded"), trials=800)
        text = manifest_text(run_ber_experiment(config, "ber-m"))
        assert "pilot_slots = 0\n" in text
        assert "pilots = " not in text and "pilot_s = " not in text

    def test_reports_compare_by_rows_not_manifest(self, params_03):
        config = small_config(params_03, codes=("uncoded",), trials=300, **ISI)
        report = run_isi_experiment(config)
        assert report == replace(report, manifest={})
        assert manifest_text(replace(report, manifest={"a": 1.5, "b": "0.250"})) == (
            "a = 1.5\nb = 0.250\n"
        )

    def test_isi_csv_header(self, params_03, tmp_path):
        config = small_config(params_03, codes=("uncoded",), trials=300, **ISI)
        report = run_isi_experiment(config)
        text = report_csv_text(report)
        assert text.splitlines()[0] == (
            "code,ts_s,L,position,expected_isi_analytic,expected_isi_mc"
        )

    def test_manifest_echoes_parameters(self, params_03):
        config = small_config(params_03, codes=("uncoded",), trials=300, sweep=(100.0,))
        report = run_ber_experiment(config, "ber-m")
        text = manifest_text(report)
        assert "D_um2_per_s = 79.4" in text
        assert "experiment = ber-m" in text


def run_seed_keys(monkeypatch, config, kind) -> list:
    """Every seed key a run passes to np.random.default_rng, in call order."""
    keys = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        keys.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    if kind == "isi":
        run_isi_experiment(config)
    else:
        run_ber_experiment(config, kind)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return keys


def state(key) -> tuple:
    """The generator state a seed key gives, as SeedSequence derives it."""
    return tuple(np.random.SeedSequence(key).generate_state(4).tolist())


class TestSeedLayout:
    def test_block_stream_keys_messages_and_channel(self):
        coder = make_coder("ckm:4,5")
        # every BER and isi draw keys index 0
        msgs, tx, key = harness._block_stream(coder, 5, (7, 10))
        rng = np.random.default_rng([5, 0, 1, 7])
        assert (msgs == rng.integers(0, 2, size=(10, 4), dtype=np.uint8)).all()
        assert (tx == coder.encode(msgs).reshape(-1)).all()
        assert key == [5, 0, 2, 7]

    def test_trailing_zeros_do_not_change_a_stream(self):
        # SeedSequence zero-pads a key shorter than 4 words
        draws = {
            tuple(np.random.default_rng(key).integers(0, 2**32, size=4).tolist())
            for key in ([5, 0, 0], [5, 0], [5], 5)
        }
        assert len(draws) == 1

    def test_keys_of_four_words_or_more_keep_trailing_zeros(self):
        assert state([5, 1, 1, 2, 0]) != state([5, 1, 1, 2])
        assert state([5, 1, 0, 0]) == state([5, 1, 0]) == state([5, 1])
        # a seed of 2^32 or more spans two words
        assert state([2**32 + 5, 1, 0]) == state([5, 1, 1, 0])

    @pytest.mark.parametrize("kind", ["ber-m", "ber-noise", "isi"])
    def test_no_two_streams_of_a_run_share_a_seed(self, params_03, monkeypatch, kind):
        # every generator a run seeds, pilots and blocks alike, gets its own
        # stream.  Each code of a run replays the same keys, so one code; 3
        # blocks (25,001 uncoded isi words make 2 default blocks)
        sweeps = {"ber-m": (150.0, 250.0), "ber-noise": (0.0, 60.0), "isi": ()}
        config = small_config(
            params_03, codes=("uncoded",), trials=1_200, block_size=500, sweep=sweeps[kind]
        )
        runs = [replace(config, trials=25_001, **ISI)] if kind == "isi" else [config]
        if kind != "isi":
            runs.append(replace(config, pilot_slots=10_000))
        for run, pilots in zip(runs, (0, 2)):
            keys = run_seed_keys(monkeypatch, run, kind)
            # any pilots, then messages and channel per block
            blocks = {"ber-m": 3 * 2, "ber-noise": 3 * 2, "isi": 2 * 2}[kind]
            assert len(keys) == pilots + blocks
            states = [state(key) for key in keys]
            assert len(set(states)) == len(states), keys

    @pytest.mark.parametrize("pilot_slots", [0, 10_000])
    @pytest.mark.parametrize("kind", ["ber-m", "ber-noise"])
    def test_runs_at_seeds_sharing_a_low_word_share_no_stream(
        self, params_03, monkeypatch, kind, pilot_slots
    ):
        # seed 2^32 + 5 is the words (5, 1): its keys must not repeat any of
        # seed 5's, whose point-1 pilot key starts (5, 1) too
        sweep = (150.0, 250.0) if kind == "ber-m" else (0.0, 60.0)
        config = small_config(
            params_03, codes=("uncoded",), trials=1_200, sweep=sweep, pilot_slots=pilot_slots
        )
        low, high = (
            {state(key) for key in run_seed_keys(monkeypatch, replace(config, seed=s), kind)}
            for s in (5, 2**32 + 5)
        )
        assert not low & high


class TestConfigValidation:
    def test_needs_codes(self, params_03):
        with pytest.raises(ValueError):
            small_config(params_03, codes=())

    def test_needs_positive_trials(self, params_03):
        with pytest.raises(ValueError):
            small_config(params_03, trials=0)

    @pytest.mark.parametrize("field", ["workers", "block_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_run_sizes_rejected(self, params_03, field, value):
        with pytest.raises(ValueError, match="workers and block_size must be positive"):
            small_config(params_03, **{field: value})

    def test_repeated_sweep_value_rejected(self, params_03):
        # two points at one value would compute two thresholds for one manifest line
        with pytest.raises(ValueError, match="repeats a value"):
            small_config(params_03, sweep=(150.0, 250.0, 150.0))
