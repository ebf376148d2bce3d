"""Experiment drivers reproducing the expected-ISI and BER comparisons.

Two baselines are built in, both repetition codes with majority decoding:
uncoded transmission (one slot per bit) and the rate-1/3 repetition code (the
distance-3 single error corrector of length 3).  Other published comparison
codes live in external references and are intentionally not reimplemented
here.  Every code, baseline or proposed, is a StreamCoder, so the
experiments never ask which one they hold.

Every run is reproducible: trials are partitioned into fixed-size blocks,
each block draws its messages and channel randomness from a generator seeded
by (seed, point index, role, block index), and results are reduced in block
order.  The partitioning does not depend on the worker count, so a run
produces identical CSV bytes at any parallelism level.

BER is measured on decoded message bits.  The detection threshold is
calibrated once per sweep point on an uncoded pilot seeded by (seed, point
index), before any block runs, and shared by all codes at that point
(recorded per row in the CSV and in the manifest).  The pilots run on the
same worker threads as the blocks; with one worker, pilots and blocks all
run on the calling thread.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .channel import (
    CONFIG_KEYS,
    ChannelParams,
    calibrate_threshold,
    expected_isi,
    simulate_stream,
    slot_probs,
    transmit_counts,
)
from .codebook import build_codebook, message_matrix
from .codec import BatchCodec

DEFAULT_BLOCK_SIZE = 25_000
DEFAULT_PILOT_SLOTS = 200_000


class StreamCoder:
    """What the experiments ask of a code: encode and decode word matrices
    (message_len bits in, block_len slots out), the words it puts on the
    channel, and its post_encoding CSV label."""

    post_encoding_label = "na"

    def transmitted_words(self) -> np.ndarray:
        """Every word as it appears on the channel, one per message."""
        return self.encode(message_matrix(self.message_len))


class RepetitionStream(StreamCoder):
    """Repetition coder over one message bit per word: the bit is sent
    block_len times and decoded by a majority of the block's slots, so
    block_len 1 is uncoded transmission."""

    message_len = 1

    def __init__(self, label: str, block_len: int):
        self.label = label
        self.block_len = block_len

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        return np.repeat(msgs, self.block_len, axis=-1)

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Majority per block; a flat input's length must be a multiple of block_len."""
        n = self.block_len
        return (words.reshape(-1, n).sum(axis=1, keepdims=True) > n // 2).astype(np.uint8)


class CkmStreamCode(StreamCoder, BatchCodec):
    """Proposed code wrapped for streaming, transmit swaps on by default."""

    def __init__(self, k: int, m: int, post_encoding: bool = True):
        super().__init__(build_codebook(k, m), post_encoding=post_encoding)
        self.label = f"ckm:{k},{m}"
        self.post_encoding_label = "true" if post_encoding else "false"


def make_coder(label: str, post_encoding: bool = True) -> StreamCoder:
    """Build a coder from its CLI label: ckm:K,M, uncoded, or rep3."""
    repeats = {"uncoded": 1, "rep3": 3}.get(label)
    if repeats:
        return RepetitionStream(label, repeats)
    if label.startswith("ckm:"):
        try:
            k, m = (int(part) for part in label[4:].split(","))
        except ValueError as exc:
            raise ValueError(f"bad code label {label!r}; expected ckm:K,M") from exc
        return CkmStreamCode(k, m, post_encoding=post_encoding)
    raise ValueError(f"unknown code label {label!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    codes: tuple[str, ...]
    channel: ChannelParams
    seed: int
    trials: int
    sweep: tuple[float, ...] = ()
    post_encoding: bool = True
    workers: int = 1
    block_size: int = DEFAULT_BLOCK_SIZE
    pilot_slots: int = DEFAULT_PILOT_SLOTS

    def __post_init__(self):
        if not self.codes:
            raise ValueError("select at least one code")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1 or self.block_size < 1:
            raise ValueError("workers and block_size must be positive")


@dataclass(frozen=True)
class TrialReport:
    kind: str
    rows: tuple[dict, ...]
    # manifest entries in write order, config echo first; timings are .3f text
    manifest: dict = field(compare=False)


# ExperimentConfig fields that only change how a BER sweep runs
BER_RUN_KEYS = ("workers", "block_size", "pilot_slots")


def _config_echo(config: ExperimentConfig, kind: str) -> dict:
    ber_run = BER_RUN_KEYS if kind != "isi" else ()
    return {
        "experiment": kind,
        "codes": ",".join(config.codes),
        **dict(zip(CONFIG_KEYS[:-1], astuple(config.channel))),
        "seed": config.seed,
        "trials": config.trials,
        "sweep": ",".join(_fmt(v) for v in config.sweep),
        "post_encoding": config.post_encoding,
        **{key: getattr(config, key) for key in ber_run},
        "version": _version,
    }


def _coders(config: ExperimentConfig) -> list[StreamCoder]:
    """The config's coders; a code selected twice (by label) is rejected."""
    coders = [make_coder(label, post_encoding=config.post_encoding) for label in config.codes]
    labels = [coder.label for coder in coders]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"code {label} is selected more than once")
    return coders


def _blocks(trials: int, size: int) -> list[tuple[int, int]]:
    """(block index, words) per block in order; only the last may be short."""
    return list(enumerate(min(size, trials - start) for start in range(0, trials, size)))


def _map(workers: int, fn, jobs) -> list:
    """fn over jobs, results in job order: inline on the calling thread for
    one worker (no pool thread, so no extra malloc arena), else on a pool of
    `workers` threads."""
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# expected-ISI experiment


def _isi_mc_profile(coder, params: ChannelParams, trials: int, seed) -> np.ndarray:
    """Monte Carlo per-position mean interference (molecules) in a stream."""
    n = coder.block_len
    sums = np.zeros(n, dtype=np.float64)
    for b, nb in _blocks(trials, max(1, DEFAULT_BLOCK_SIZE // max(1, n // 8))):
        rng_msg = np.random.default_rng([seed, 3, b])
        msgs = rng_msg.integers(0, 2, size=(nb, coder.message_len), dtype=np.uint8)
        tx = coder.encode(msgs).reshape(-1)
        rng_ch = np.random.default_rng([seed, 4, b])
        interference = transmit_counts(tx, params, rng_ch, include_own_slot=False)
        sums += interference.reshape(nb, n).sum(axis=0)
    return sums / trials


def run_isi_experiment(config: ExperimentConfig) -> TrialReport:
    """Per-position expected interference, analytic and streamed Monte Carlo.

    The analytic column applies the per-code average densities to a single
    word in isolation; the Monte Carlo column streams words back to back and
    therefore also sees interference crossing word boundaries.  Both are
    reported in molecules (scaled by M).
    """
    t0 = time.monotonic()
    params = config.channel
    profile = slot_probs(params)
    coders = _coders(config)
    for coder in coders:
        if coder.block_len > params.L:
            raise ValueError(
                f"code {coder.label} has n={coder.block_len} slots, more than the"
                f" channel memory L={params.L}; the isi experiment needs n <= L"
            )
    rows = []
    for coder in coders:
        words = coder.transmitted_words()
        mc = _isi_mc_profile(coder, params, config.trials, config.seed)
        for pos in range(1, coder.block_len + 1):
            rows.append(
                {
                    "code": coder.label,
                    "ts_s": params.ts,
                    "L": params.L,
                    "position": pos,
                    "expected_isi_analytic": params.M * expected_isi(words, pos, profile),
                    "expected_isi_mc": float(mc[pos - 1]),
                }
            )
    manifest = {**_config_echo(config, "isi"), "wall_clock_s": f"{time.monotonic() - t0:.3f}"}
    return TrialReport("isi", tuple(rows), manifest)


# ---------------------------------------------------------------------------
# BER experiments


def _ber_block(coder, params, theta, seed, point_idx, block_idx, nb):
    rng_msg = np.random.default_rng([seed, point_idx, 1, block_idx])
    msgs = rng_msg.integers(0, 2, size=(nb, coder.message_len), dtype=np.uint8)
    decisions = simulate_stream(msgs, coder, params, [seed, point_idx, 2, block_idx], theta)
    decoded = coder.decode(decisions.reshape(nb, coder.block_len))
    return int((decoded != msgs).sum())


def ber_point(
    coder,
    params: ChannelParams,
    trials: int,
    seed: int,
    point_idx: int = 0,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    pilot_slots: int = DEFAULT_PILOT_SLOTS,
    threshold: float | None = None,
) -> tuple[int, int, float]:
    """Bit errors, bits sent, and the threshold used for one sweep point.

    Without a threshold, calibrates the point's pilot on (seed, point_idx, 0),
    the same pilot run_ber_experiment shares across codes."""
    if threshold is None:
        threshold = calibrate_threshold(params, pilot_slots, [seed, point_idx, 0])
    errors = _map(
        workers,
        lambda job: _ber_block(coder, params, threshold, seed, point_idx, *job),
        _blocks(trials, block_size),
    )
    return sum(errors), trials * coder.message_len, threshold


# BER experiment kind -> (swept CSV column, the channel at one sweep value)
BER_SWEEPS = {
    "ber-m": ("M", ChannelParams.with_molecules),
    "ber-noise": ("sigma_n2", ChannelParams.with_noise),
}


def run_ber_experiment(config: ExperimentConfig, kind: str) -> TrialReport:
    """BER per code over the sweep of one BER_SWEEPS kind: molecules per
    1-bit with noise held fixed ("ber-m"), or noise variance with M held
    fixed ("ber-noise")."""
    t0 = time.monotonic()
    swept, at_value = BER_SWEEPS[kind]
    if not config.sweep:
        raise ValueError(f"{kind} needs a non-empty sweep")
    coders = _coders(config)
    points = [at_value(config.channel, value) for value in config.sweep]
    # one pilot per sweep point, seeded by the point only, so every code at
    # a given point is detected with the same threshold
    t_pilot = time.monotonic()
    thetas = _map(
        config.workers,
        lambda pi: calibrate_threshold(points[pi], config.pilot_slots, [config.seed, pi, 0]),
        range(len(points)),
    )
    pilot_s = time.monotonic() - t_pilot
    rows = []
    for coder in coders:
        for pi, pt in enumerate(points):
            errors, bits, theta = ber_point(
                coder,
                pt,
                config.trials,
                config.seed,
                point_idx=pi,
                workers=config.workers,
                block_size=config.block_size,
                threshold=thetas[pi],
            )
            rows.append(
                {
                    "code": coder.label,
                    "post_encoding": coder.post_encoding_label,
                    "ts_s": pt.ts,
                    "L": pt.L,
                    "M": pt.M,
                    "sigma_n2": pt.sigma_n2,
                    "bits_sent": bits,
                    "bit_errors": errors,
                    "ber": errors / bits,
                    "threshold": theta,
                }
            )
    manifest = {
        **_config_echo(config, kind),
        # one threshold per sweep point, shared by every code
        **{f"threshold[{swept}={_fmt(getattr(pt, swept))}]": th for pt, th in zip(points, thetas)},
        "wall_clock_s": f"{time.monotonic() - t0:.3f}",
        "pilots": len(thetas),
        "pilot_s": f"{pilot_s:.3f}",
    }
    return TrialReport(kind, tuple(rows), manifest)


# ---------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def report_csv_text(report: TrialReport) -> str:
    columns = list(report.rows[0])  # every row of a report has the same keys
    lines = [",".join(columns)]
    for row in report.rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def manifest_text(report: TrialReport) -> str:
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in report.manifest.items())


def write_report(report: TrialReport, out_csv) -> None:
    """Write the CSV and a plain-text manifest next to it."""
    out_path = Path(out_csv)
    out_path.write_text(report_csv_text(report))
    out_path.with_suffix(".manifest.txt").write_text(manifest_text(report))
