import argparse
import shlex
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import record_work
from isiecc import calibrate_threshold, channel, cli, codebook, detection_threshold, harness
from isiecc import load_channel_config, slot_law
from isiecc.cli import _parse_sweep, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, **overrides):
    values = {
        "D_um2_per_s": 79.4,
        "r_um": 5,
        "r0_um": 10,
        "ts_s": 0.3,
        "L": 40,
        "M": 250,
        "sigma_n2": 0,
        "seed": 33,
    }
    values.update(overrides)
    path = tmp_path / "chan.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestCodecCommands:
    def test_encode_transmitted(self, capsys):
        assert main(["encode", "--k", "3", "--m", "4", "--msg", "011"]) == 0
        assert capsys.readouterr().out.strip() == "01010010"

    def test_encode_raw(self, capsys):
        main(["encode", "--k", "3", "--m", "4", "--msg", "011", "--no-post-encode"])
        assert capsys.readouterr().out.strip() == "01100010"

    def test_decode(self, capsys):
        assert main(["decode", "--k", "3", "--m", "4", "--word", "01010010"]) == 0
        assert capsys.readouterr().out.strip() == "011"

    def test_decode_corrects_flip(self, capsys):
        main(["decode", "--k", "3", "--m", "4", "--word", "11010010"])
        assert capsys.readouterr().out.strip() == "011"

    def test_export_codebook_stdout(self, capsys):
        main(["export-codebook", "--k", "3", "--m", "4"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r,u,p,rho,codeword"
        assert lines[1] == "1,111,0000,1,11100001"

    def test_export_codebook_file(self, tmp_path, capsys):
        out = tmp_path / "book.csv"
        main(["export-codebook", "--k", "3", "--m", "4", "--out", str(out)])
        assert out.read_text().splitlines()[5] == "5,011,0001,0,01100010"

    def test_bad_bits_exit_code(self, capsys):
        assert main(["encode", "--k", "3", "--m", "4", "--msg", "21"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_word_path_builds_no_codebook(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("codebook built")

        monkeypatch.setattr(cli, "build_codebook", refuse)
        monkeypatch.setattr(codebook, "build_codebook", refuse)
        assert main(["encode", "--k", "20", "--m", "40", "--msg", "1" * 20]) == 0
        word = capsys.readouterr().out.strip()
        assert len(word) == 61
        hit = word[:30] + ("1" if word[30] == "0" else "0") + word[31:]
        assert main(["decode", "--k", "20", "--m", "40", "--word", hit]) == 0
        assert capsys.readouterr().out.strip() == "1" * 20

    def test_export_onto_directory_fails_before_the_build(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("codebook built")

        monkeypatch.setattr(cli, "build_codebook", refuse)
        assert main(["export-codebook", "--k", "3", "--m", "4", "--out", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    def test_export_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "book.csv"
        assert main(["export-codebook", "--k", "3", "--m", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err


class TestSweepParsing:
    def test_inclusive_range(self):
        assert _parse_sweep("100:300:100") == (100.0, 200.0, 300.0)

    def test_single_point(self):
        assert _parse_sweep("60:60:30") == (60.0,)

    def test_bad_spec_rejected(self):
        with pytest.raises(Exception):
            _parse_sweep("100:50:10")

    @pytest.mark.parametrize(
        "text, values",
        [
            ("150:300:75", (150.0, 225.0, 300.0)),
            ("30:120:45", (30.0, 75.0, 120.0)),
            ("100:300:25", tuple(100.0 + 25 * i for i in range(9))),
            ("0:120:30", (0.0, 30.0, 60.0, 90.0, 120.0)),
            ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
            ("0.1:0.3:0.1", (0.1, 0.2, 0.3)),
        ],
    )
    def test_shipped_style_sweeps(self, text, values):
        assert _parse_sweep(text) == values

    @pytest.mark.parametrize("text", ["1:2", "1:2:3:4", "a:b:c", ""])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="expected lo:hi:step"):
            _parse_sweep(text)

    def test_repeating_step_stops_at_the_first_repeat(self):
        # 10^7 points at a step below the 9-decimal rounding: the second value
        # already repeats the first, so nothing past it is made
        start = time.perf_counter()
        with pytest.raises(argparse.ArgumentTypeError, match="step 1e-10 repeats values"):
            _parse_sweep("0:1e-3:1e-10")
        assert time.perf_counter() - start < 1.0

    def test_fine_step_stops_at_hi(self):
        assert _parse_sweep("0:3e-9:1e-9") == (0.0, 1e-9, 2e-9, 3e-9)

    def test_step_below_resolution_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-noise", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--sweep", "0:1e-9:1e-10"])
        assert exit_info.value.code == 2
        assert "step 1e-10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        # the last two have finite bounds but overflow the point count
        ["0:inf:1", "-inf:0:1", "0:10:inf", "nan:10:1", "0:nan:1"]
        + ["0:1e300:1e-300", "0:1e308:1e-10"],
    )
    def test_non_finite_sweep_exits_2(self, tmp_path, capsys, text):
        with pytest.raises(argparse.ArgumentTypeError, match="must be finite"):
            _parse_sweep(text)
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [f"--sweep={text}"])  # "=" keeps a leading "-" a value
        assert exit_info.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestExperimentCommands:
    def test_ber_m_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        rc = main(
            [
                "ber-m",
                "--config", str(cfg),
                "--code", "uncoded",
                "--sweep", "200:250:50",
                "--out", str(out),
                "--trials", "1000",
                "--block-size", "500",
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("uncoded,na,0.3,40,200,0,1000,")
        assert (tmp_path / "ber.manifest.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_config_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, sigma_n2=value)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        assert main(argv + ["--sweep", "300:300:1", "--trials", "1000"]) == 2
        assert f"sigma_n2 must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_molecule_sweep_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        assert main(argv + ["--sweep", "100.5:101.5:0.5", "--trials", "1000"]) == 2
        assert "100.5" in capsys.readouterr().err
        assert not out.exists()

    def test_molecule_sweep_above_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        work = record_work(monkeypatch)
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        assert main(argv + ["--sweep", "300:200000:199700", "--trials", "1000"]) == 2
        assert "M = 200000 exceeds the cap of 100000" in capsys.readouterr().err
        assert work == []
        assert not out.exists()

    def test_manifest_thresholds_keyed_by_sweep_point(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "ckm:4,5", "--code", "uncoded"]
        argv += ["--sweep", "300:500:200", "--out", str(out), "--trials", "300"]
        assert main(argv) == 0
        manifest = (tmp_path / "ber.manifest.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in manifest if line.startswith("threshold[")]
        assert keys == ["threshold[M=300]", "threshold[M=500]"]
        rows = out.read_text().splitlines()[1:]
        by_m = {row.split(",")[4]: row.split(",")[-1] for row in rows}
        assert [line.split(" = ")[1] for line in manifest if line.startswith("threshold[")] == [
            by_m["300"],
            by_m["500"],
        ]

    def test_isi_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "isi.csv"
        main(
            [
                "isi",
                "--config", str(cfg),
                "--code", "ckm:3,4",
                "--code", "rep3",
                "--out", str(out),
                "--trials", "500",
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "code,ts_s,L,position,expected_isi_analytic,expected_isi_mc"
        assert len(lines) == 1 + 8 + 3

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--block-size", "7"], ["--pilot-slots", "1000"]]
    )
    def test_isi_rejects_ber_run_flags(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path)
        argv = ["isi", "--config", str(cfg), "--code", "rep3", "--out", str(tmp_path / "i.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_isi_manifest_omits_ber_run_flags(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "isi.csv"
        argv = ["isi", "--config", str(cfg), "--code", "rep3", "--out", str(out)]
        assert main(argv + ["--trials", "300"]) == 0
        manifest = (tmp_path / "isi.manifest.txt").read_text().splitlines()
        keys = {line.split(" = ")[0] for line in manifest}
        assert {"seed", "trials", "version"} <= keys
        assert not keys & {"workers", "block_size", "pilot_slots"}

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        main(
            [
                "ber-noise",
                "--config", str(cfg),
                "--code", "uncoded",
                "--sweep", "0:0:10",
                "--out", str(out),
                "--trials", "1000",
                "--seed", "77",
            ]
        )
        manifest = (tmp_path / "ber.manifest.txt").read_text()
        assert "seed = 77" in manifest

    def test_missing_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nope.cfg"
        argv = ["isi", "--config", str(cfg), "--code", "rep3", "--out", str(tmp_path / "i.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "i.csv"
        assert main(["isi", "--config", str(tmp_path), "--code", "rep3", "--out", str(out)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_output_into_missing_directory_fails_before_any_pilot(
        self, tmp_path, capsys, monkeypatch
    ):
        work = record_work(monkeypatch)
        cfg = write_config(tmp_path)
        out = tmp_path / "nodir" / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        assert main(argv + ["--sweep", "300:300:1", "--trials", "1000"]) == 2
        assert str(out.parent) in capsys.readouterr().err
        assert work == []

    @pytest.mark.parametrize("command", ["ber-m", "isi"])
    def test_output_onto_directory_fails_before_any_pilot(
        self, tmp_path, capsys, monkeypatch, command
    ):
        work = record_work(monkeypatch)
        cfg = write_config(tmp_path)
        argv = [command, "--config", str(cfg), "--code", "uncoded", "--out", str(tmp_path)]
        if command == "ber-m":
            argv += ["--sweep", "300:300:1"]
        assert main(argv + ["--trials", "1000"]) == 2
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err
        assert work == []

    def test_code_named_twice_exits_2_before_any_pilot(
        self, tmp_path, capsys, monkeypatch
    ):
        work = record_work(monkeypatch)
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--code", "uncoded"]
        assert main(argv + ["--sweep", "300:300:1", "--out", str(out), "--trials", "1000"]) == 2
        assert "code uncoded is selected more than once" in capsys.readouterr().err
        assert work == []
        assert not out.exists()

    def test_code_spelled_twice_exits_2_before_any_isi_block(self, tmp_path, capsys, monkeypatch):
        blocks, tables = [], []
        monkeypatch.setattr(harness, "_isi_mc_profile", lambda *args: blocks.append(args))
        monkeypatch.setattr(channel, "_transport_tables", lambda *args: tables.append(args))
        cfg = write_config(tmp_path)
        out = tmp_path / "isi.csv"
        argv = ["isi", "--config", str(cfg), "--code", "ckm:4,5", "--code", "ckm:04,05"]
        assert main(argv + ["--out", str(out), "--trials", "300"]) == 2
        assert "code ckm:4,5 is selected more than once" in capsys.readouterr().err
        assert blocks == [] and tables == []
        assert not out.exists()

    def test_run_prints_rows_and_manifest_wall_time(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "isi.csv"
        argv = ["isi", "--config", str(cfg), "--code", "rep3", "--out", str(out)]
        assert main(argv + ["--trials", "300"]) == 0
        wall = (tmp_path / "isi.manifest.txt").read_text().split("wall_clock_s = ")[1].split()[0]
        assert capsys.readouterr().out == f"wrote {out} (3 rows, {wall}s)\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        cfg = write_config(tmp_path, seed=-5 if source == "config" else 33)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--out", str(out)]
        argv += ["--sweep", "300:300:1", "--trials", "1000"]
        seed = "-5"
        if source == "flag":
            seed = "-1"
            argv += ["--seed", seed]
        assert main(argv) == 2
        assert f"seed must be non-negative, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (
                ["ber-m", "--code", "uncoded", "--sweep", "300:300:1"],
                ["workers", "block_size", "pilot_slots", "version", "threshold[M=300]",
                 "wall_clock_s"],
            ),
            (["isi", "--code", "rep3"], ["version", "wall_clock_s"]),
        ],
        ids=["ber-m", "isi"],
    )
    def test_manifest_key_order(self, tmp_path, argv, tail):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out), "--trials", "300"]) == 0
        lines = (tmp_path / "run.manifest.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == [
            "experiment", "codes", "D_um2_per_s", "r_um", "r0_um", "ts_s", "L", "M", "sigma_n2",
            "seed", "trials", "sweep", "post_encoding", *tail,
        ]

    def test_unset_run_flags_take_experiment_config_defaults(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--sweep", "300:300:1"]
        argv += ["--out", str(out), "--trials", "300"]
        args = build_parser().parse_args(argv)
        assert not any(hasattr(args, key) for key in ("workers", "block_size", "pilot_slots"))
        assert main(argv) == 0
        manifest = (tmp_path / "ber.manifest.txt").read_text().splitlines()
        assert {"workers = 1", "block_size = 25000", "pilot_slots = 0"} <= set(manifest)

    def test_memoryless_channel_runs_molecule_sweep(self, tmp_path):
        # at L = 1 the emission table holds X_1 alone, in a dtype narrower than
        # the own-count mask of M = 128 .. 211
        cfg = write_config(tmp_path, L=1)
        out = tmp_path / "ber.csv"
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--code", "ckm:4,5"]
        argv += ["--sweep", "100:300:100", "--trials", "2000", "--out", str(out)]
        assert main(argv) == 0
        # L and M counted from the end: the label ckm:4,5 holds a comma
        rows = [line.split(",")[-7:-5] for line in out.read_text().splitlines()[1:]]
        assert rows == [["1", m] for m in ("100", "200", "300")] * 2

    def test_pilot_slots_flag_samples_the_threshold(self, tmp_path):
        cfg = write_config(tmp_path)
        argv = ["ber-m", "--config", str(cfg), "--code", "uncoded", "--sweep", "250:250:1"]
        argv += ["--trials", "300", "--seed", "9"]
        thresholds = {}
        for extra in ([], ["--pilot-slots", "20000"]):
            out = tmp_path / f"ber{len(extra)}.csv"
            assert main(argv + extra + ["--out", str(out)]) == 0
            thresholds[len(extra)] = out.read_text().splitlines()[1].split(",")[-1]
        params, _ = load_channel_config(cfg)
        point = replace(params, M=250)
        assert thresholds == {
            0: format(detection_threshold(point, slot_law(point, [0.5] * 39)), ".12g"),
            2: format(calibrate_threshold(point, 20_000, [9, 0, 0]), ".12g"),
        }

    def test_help_tells_workers_from_block_size(self):
        # block indices seed the streams: only the worker count keeps CSV bytes
        sub = argparse.ArgumentParser()
        cli._add_ber_args(sub, default_sweep="300:300:1")
        helps = {action.dest: action.help for action in sub._actions}
        assert "keeps the CSV" in helps["workers"]
        assert "changes them, not the law" in helps["block_size"]
        assert "CSV" not in helps["block_size"]


def readme_commands() -> list[str]:
    """The isi-ecc lines of README's "Command line" block, continuations joined."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("isi-ecc ")]


class TestReadmeExamples:
    def test_every_command_parses(self):
        commands = readme_commands()
        parser = build_parser()
        seen = set()
        for line in commands:
            args = parser.parse_args(shlex.split(line.split("#", 1)[0])[1:])
            seen.add(args.command)
        # one example at least for every subcommand
        assert seen == {"encode", "decode", "export-codebook", "isi", "ber-m", "ber-noise"}

    def test_codec_examples_print_their_values(self, capsys):
        examples = [line for line in readme_commands() if "# ->" in line]
        assert len(examples) == 3
        for line in examples:
            command, _, result = line.partition("# ->")
            assert main(shlex.split(command)[1:]) == 0
            assert capsys.readouterr().out.strip() == result.split()[0], line
