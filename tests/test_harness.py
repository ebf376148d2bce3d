import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_pilots
from isiecc import (
    ExperimentConfig,
    expected_isi,
    make_coder,
    run_ber_experiment,
    run_isi_experiment,
    slot_probs,
    streaming_expected_isi,
    write_report,
)
from isiecc import channel, harness
from isiecc.bits import bits_to_str, parse_bits
from isiecc.harness import (
    CkmStreamCode,
    ber_point,
    manifest_text,
    report_csv_text,
)


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

    def test_post_encoding_flag_changes_words(self):
        raw = make_coder("ckm:4,5", post_encoding=False)
        swapped = make_coder("ckm:4,5", post_encoding=True)
        msgs = np.array([[1, 1, 1, 1]], dtype=np.uint8)
        assert not (raw.encode(msgs) == swapped.encode(msgs)).all()


class TestBlockPlan:
    @pytest.mark.parametrize(
        "trials, size", [(1, 1), (7, 3), (9, 3), (2_000, 500), (25_001, 25_000)]
    )
    def test_blocks_cover_trials_in_order(self, trials, size):
        blocks = harness._blocks(trials, size)
        assert [b for b, _ in blocks] == list(range(len(blocks)))
        words = [nb for _, nb in blocks]
        assert sum(words) == trials
        assert all(nb == size for nb in words[:-1])
        assert 1 <= words[-1] <= size

    def test_fewer_trials_than_block_size_is_one_block(self):
        assert harness._blocks(3, 25_000) == [(0, 3)]


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
        pilot_slots=20_000,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestIsiExperiment:
    def test_rows_and_analytic_column(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5",), trials=3_000, sweep=())
        report = run_isi_experiment(config)
        assert report.kind == "isi"
        assert len(report.rows) == 10
        profile = slot_probs(params_03)
        coder = CkmStreamCode(4, 5, post_encoding=True)
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
            params_03.with_molecules(0), codes=("ckm:4,5", "rep3"), trials=500, sweep=()
        )
        report = run_isi_experiment(config)
        for row in report.rows:
            assert row["expected_isi_analytic"] == 0.0
            assert row["expected_isi_mc"] == 0.0

    def test_first_position_analytic_zero(self, params_03):
        config = small_config(params_03, codes=("uncoded",), trials=500, sweep=())
        row = run_isi_experiment(config).rows[0]
        assert row["position"] == 1
        assert row["expected_isi_analytic"] == 0.0
        assert row["expected_isi_mc"] > 0  # stream interference from earlier words

    def test_code_longer_than_memory_fails_before_any_block(self, params_03, monkeypatch):
        blocks = []
        monkeypatch.setattr(harness, "_isi_mc_profile", lambda *args: blocks.append(args))
        config = small_config(params_03, codes=("ckm:4,5", "ckm:16,30"), sweep=())
        with pytest.raises(ValueError, match=r"ckm:16,30 has n=47 .* L=40"):
            run_isi_experiment(config)
        assert blocks == []

    @pytest.mark.parametrize("label", ["rep3", "ckm:4,5"])
    def test_monte_carlo_column_matches_streamed_expectation(self, params_03, label):
        # exact oracle: M times the endless-stream expected interference of
        # the transmitted words' per-position densities.  Each call below
        # runs one default-size block on its own seed; the tolerance, 5
        # standard errors of the 16 block means, was fixed before the first
        # run.  Each block starts after L silent slots, which lowers its mean
        # by at most 0.004 molecules here, under a tenth of a standard error.
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

    def test_streamed_last_bit_below_repetition3(self, params_03):
        config = small_config(
            params_03, codes=("ckm:4,5", "rep3"), trials=20_000, sweep=()
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
        assert report.kind == "ber-m"
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

    def test_threshold_replay_reproduces_ber(self, params_03):
        coder = make_coder("ckm:4,5")
        params = params_03.with_molecules(250)
        errors, bits, theta = ber_point(
            coder, params, trials=2_000, seed=5, block_size=500, pilot_slots=20_000
        )
        replay_errors, replay_bits, replay_theta = ber_point(
            coder, params, trials=2_000, seed=5, block_size=500, threshold=theta
        )
        assert (errors, bits, theta) == (replay_errors, replay_bits, replay_theta)

    def test_sweeps_build_each_table_once(self, params_03):
        # the transport tables do not depend on sigma_n2, so over 3 pilots
        # and every block of 3 codes a 3-point ber-m sweep builds 3 table
        # pairs and a 3-point ber-noise sweep 1
        for kind, sweep, table_pairs in (
            ("ber-m", (150.0, 200.0, 250.0), 3),
            ("ber-noise", (0.0, 30.0, 60.0), 1),
        ):
            channel._transport_tables.cache_clear()
            run_ber_experiment(small_config(params_03, sweep=sweep, trials=500), kind)
            assert channel._transport_tables.cache_info().misses == table_pairs, kind

    def test_empty_sweep_rejected(self, params_03):
        config = small_config(params_03, sweep=())
        with pytest.raises(ValueError):
            run_ber_experiment(config, "ber-m")

    def test_bad_code_label_fails_before_any_pilot(self, params_03, monkeypatch):
        pilots = count_pilots(monkeypatch)
        config = small_config(params_03, codes=("ckm:4,5", "ckm:4,3"))
        with pytest.raises(ValueError, match="k < m"):
            run_ber_experiment(config, "ber-m")
        assert pilots == []

    def test_fractional_molecule_sweep_fails_before_any_pilot(self, params_03, monkeypatch):
        pilots = count_pilots(monkeypatch)
        config = small_config(params_03, sweep=(100.0, 100.5, 101.0))
        with pytest.raises(ValueError, match="100.5"):
            run_ber_experiment(config, "ber-m")
        assert pilots == []

    def test_one_pilot_per_point_and_unchanged_rows(self, params_03, monkeypatch):
        pilots = count_pilots(monkeypatch)
        config = small_config(params_03)
        report = run_ber_experiment(config, "ber-m")
        assert len(pilots) == len(config.sweep) == 2
        # workers=1 runs every pilot inline: no pool thread, no extra malloc arena
        assert {thread for thread, _ in pilots} == {threading.get_ident()}
        assert sorted(seed for _, seed in pilots) == [[11, 0, 0], [11, 1, 0]]

        # each row is what a standalone point with its own pilot gives
        expected = []
        for label in config.codes:
            coder = make_coder(label)
            for pi, value in enumerate(config.sweep):
                errors, bits, theta = ber_point(
                    coder,
                    params_03.with_molecules(value),
                    config.trials,
                    config.seed,
                    point_idx=pi,
                    block_size=config.block_size,
                    pilot_slots=config.pilot_slots,
                )
                expected.append((label, value, bits, errors, theta))
        assert [
            (r["code"], r["M"], r["bits_sent"], r["bit_errors"], r["threshold"])
            for r in report.rows
        ] == expected

        parallel = run_ber_experiment(small_config(params_03, workers=3), "ber-m")
        assert report_csv_text(parallel) == report_csv_text(report)


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

    def test_ber_manifest_counts_pilots(self, params_03):
        config = small_config(params_03, codes=("ckm:4,5", "uncoded"), trials=800)
        text = manifest_text(run_ber_experiment(config, "ber-m"))
        assert "pilots = 2\n" in text
        assert "pilot_s = " in text

    def test_reports_compare_by_rows_not_manifest(self, params_03):
        config = small_config(params_03, codes=("uncoded",), trials=300, sweep=())
        report = run_isi_experiment(config)
        assert report == replace(report, manifest={})
        assert manifest_text(replace(report, manifest={"a": 1.5, "b": "0.250"})) == (
            "a = 1.5\nb = 0.250\n"
        )

    def test_isi_csv_header(self, params_03, tmp_path):
        config = small_config(params_03, codes=("uncoded",), trials=300, sweep=())
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


class TestConfigValidation:
    def test_needs_codes(self, params_03):
        with pytest.raises(ValueError):
            small_config(params_03, codes=())

    def test_needs_positive_trials(self, params_03):
        with pytest.raises(ValueError):
            small_config(params_03, trials=0)
