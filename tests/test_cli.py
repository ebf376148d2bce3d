import argparse

import pytest

from isiecc.cli import _parse_sweep, main


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


class TestSweepParsing:
    def test_inclusive_range(self):
        assert _parse_sweep("100:300:100") == (100.0, 200.0, 300.0)

    def test_single_point(self):
        assert _parse_sweep("60:60:30") == (60.0,)

    def test_bad_spec_rejected(self):
        with pytest.raises(Exception):
            _parse_sweep("100:50:10")

    @pytest.mark.parametrize("text", ["0:inf:1", "-inf:0:1", "0:10:inf", "nan:10:1", "0:nan:1"])
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
                "--pilot-slots", "20000",
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
        assert not keys & {"workers", "block_size", "pilot_slots", "pilots", "pilot_s"}

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
                "--pilot-slots", "20000",
            ]
        )
        manifest = (tmp_path / "ber.manifest.txt").read_text()
        assert "seed = 77" in manifest
