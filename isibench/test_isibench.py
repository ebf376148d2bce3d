"""The benchmark's own tests.  Run from the checkout root:

    python3 -m pytest -q isibench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from checks import check_csv, expected_keys, load_reference, point_of
from run import declared_units, end_to_end, per_layer
from tracing import Span, Tracer, covered_s, self_times
from workloads import (
    ROOT,
    WORKLOADS,
    check_checkout,
    code_length,
    mean_weight,
    message_length,
)

check_checkout()

from isiecc import channel, cli, codec, harness  # noqa: E402  (needs src/ on the path)

MODULES = {"channel": channel, "cli": cli, "codec": codec, "harness": harness}
CONFIG = str(ROOT / "configs" / "channel_ts0.3.cfg")


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="channel.expected_isi slices p at L, so codes with n > L fail at position L+1",
)
def test_isi_experiment_accepts_codes_longer_than_channel_memory(tmp_path):
    # the reason isi-profile uses only codes with n <= L (= 40 in both configs)
    params, seed = channel.load_channel_config(CONFIG)
    config = harness.ExperimentConfig(codes=("ckm:16,30",), channel=params, seed=seed, trials=2_000)
    harness.run_isi_experiment(config)
    out = tmp_path / "isi.csv"
    argv = ["isi", "--config", CONFIG, "--code", "ckm:16,30", "--trials", "2000", "--out", str(out)]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("label", sorted({c for w in WORKLOADS.values() for c in w.codes}))
def test_code_accounting_matches_program(label):
    coder = harness.make_coder(label)
    assert coder.block_len == code_length(label)
    if label.startswith("ckm:"):
        program_mean = coder.transmitted_words().sum(axis=1).mean()
        assert mean_weight(label) == pytest.approx(program_mean, rel=1e-12)


def test_covered_and_self_times():
    assert covered_s([(0, 4), (2, 6), (8, 9)]) == pytest.approx(7e-9)
    spans = [
        Span(1, None, "outer", 1, 0, 100, None),
        Span(2, 1, "inner", 1, 10, 40, None),
        Span(3, 1, "inner", 1, 30, 60, None),
        Span(4, None, "other-thread", 2, 0, 50, None),
    ]
    expected = {"outer": 50e-9, "inner": 60e-9, "other-thread": 50e-9}
    assert self_times(spans) == pytest.approx(expected)


def _ber_argv(out, workers):
    codes = ["--code", "ckm:4,5", "--code", "uncoded"]
    sizes = ["--trials", "4000", "--block-size", "1000", "--pilot-slots", "10000"]
    return ["ber-m", "--config", CONFIG, *codes, "--sweep", "200:200:1", *sizes,
            "--workers", str(workers), "--out", str(out)]  # fmt: skip


@pytest.mark.parametrize("workers", [1, 2])
def test_tracing_keeps_csv_and_restores_targets(tmp_path, workers):
    targets = [("harness", "ber_point"), ("channel", "detect")]
    originals = {(k, a): vars(MODULES[k]).get(a) for k, a in targets}
    decode = codec.BatchCodec.decode
    assert cli.main(_ber_argv(tmp_path / "plain.csv", workers)) == 0
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        assert cli.main(_ber_argv(tmp_path / "traced.csv", workers)) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    assert {(k, a): vars(MODULES[k]).get(a) for k, a in originals} == originals
    assert codec.BatchCodec.decode is decode
    assert tracer.missing == []
    names = {s.name for s in tracer.spans}
    assert {
        "harness.ber_point",
        "channel.calibrate_threshold",
        "channel.transmit_counts",
        "codec.decode",
    } <= names
    threads = {s.thread for s in tracer.spans}
    # blocks run on the main thread, or on pool threads beside it
    assert len(threads) == 1 if workers == 1 else len(threads) >= 2


def _reference_csv(workload, reference, mutate=None):
    """A CSV whose every row carries its recorded mean error count."""
    column = "M" if workload.command == "ber-m" else "sigma_n2"
    rows = []
    for key in expected_keys(workload):
        code, value = key.split("@")
        bits = workload.trials * message_length(code)
        errors = round(reference["rows"][key]["centre"] * bits)
        row = {
            "code": code,
            "M": "0",
            "sigma_n2": "0",
            "bits_sent": str(bits),
            "bit_errors": str(errors),
            "ber": format(errors / bits, ".12g"),
            "threshold": f"t{value}",
        }
        row[column] = value
        if mutate:
            mutate(key, row)
        rows.append(",".join(row.values()))
    header = ",".join(row)
    return "\n".join([header, *rows, ""]).encode()


@pytest.mark.parametrize(
    "column,value,failed",
    [
        (None, None, []),
        ("ber", "0.5", ["150"]),
        ("bit_errors", "100000", ["150"]),
        ("bits_sent", "1", ["150"]),
        ("threshold", "other", ["150"]),
    ],
)
def test_gate_fails_the_point_of_a_bad_row(column, value, failed):
    workload = WORKLOADS["ber-m-compare"]
    reference = load_reference(workload)

    def mutate(key, row):
        if column and key == "rep3@150":
            row[column] = value

    result = check_csv(workload, _reference_csv(workload, reference, mutate), reference, seed=10**9)
    assert result["failed_points"] == failed
    assert result["sha256_match"] is None  # seed not recorded


@pytest.mark.parametrize(
    "name,code", [("ber-noise-bigcode", "ckm:16,30"), ("ber-m-compare", "ckm:4,5")]
)
def test_gate_fails_a_code_that_makes_no_errors(name, code):
    # every recorded seed saw errors on these rows, however widely the counts spread
    workload = WORKLOADS[name]
    reference = load_reference(workload)

    def no_errors(key, row):
        if row["code"] == code:
            row["bit_errors"] = row["ber"] = "0"

    result = check_csv(workload, _reference_csv(workload, reference, no_errors), reference, 10**9)
    assert result["failed_points"] == sorted(f"{v:g}" for v in workload.sweep_values())


def test_metric_names_match_benchmark_json():
    workload = WORKLOADS["ber-m-compare"]
    assert end_to_end(workload, [1.0], [0.1]).keys() == declared_units("end_to_end").keys()
    traced = per_layer(workload, [1.0], [1.1], [Tracer()])
    assert traced.keys() == declared_units("per_layer").keys()


@pytest.mark.parametrize("data", [None, b"code,position\nrep3,first\n"])
def test_gate_fails_every_point_without_a_readable_csv(data):
    workload = WORKLOADS["isi-profile"]
    result = check_csv(workload, data, load_reference(workload), seed=0)
    every_point = sorted({point_of(workload, k) for k in expected_keys(workload)})
    assert result["failed_points"] == every_point


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "isi-profile", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "isibench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
