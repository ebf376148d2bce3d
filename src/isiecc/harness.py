"""Experiment drivers reproducing the expected-ISI and BER comparisons.

Two baselines are built in, both repetition codes with majority decoding:
uncoded transmission (one slot per bit) and the rate-1/3 repetition code (the
distance-3 single error corrector of length 3).  Other published comparison
codes live in external references and are intentionally not reimplemented
here.  Every code, baseline or proposed, offers the same members (label,
post_encoding_label, message_len, block_len, encode, decode and
transmitted_words), so the experiments never ask which one they hold.

Every run is reproducible: _blocks, the one block rule, splits trials into
blocks reduced in block order, so CSV bytes do not depend on the worker
count.  Every generator is seeded by (seed, index, role, block): role 1 is a
block's messages and 2 its channel (index = group, always 0), both keyed by
_block_stream, the one block draw of BER and `isi`; role 0 is a sampled
pilot's (index = point, block 0), run only with pilot_slots set.
SeedSequence zero-pads a key shorter than 4 words, so (5, 1, 0) is (5, 1),
but a longer key keeps its trailing zeros.  A seed of 2^32 or more spans
two words, so its keys are one word longer than a smaller seed's and never
equal them.

BER is measured on decoded message bits by run_ber_experiment; its step,
ber_point, runs one code over one group: every sweep point, in ascending M.
A block draws words once and transport once per molecule increment, each
higher M adding the molecules the lower ones did not send, then each
point's noise in sweep order.  Blocks are encoded and decoded here; the
channel only turns bit streams into slot decisions.  Each point's detection
threshold is the exact error-minimizing one of an uncoded slot, from one
slot law per noise-free point, and is shared by all codes at that point
(recorded in the CSV and manifest).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .channel import (
    CONFIG_KEYS,
    ChannelParams,
    calibrate_threshold,
    detection_threshold,
    expected_isi,
    isi_matrix,
    simulate_stream,
    slot_law,
    slot_probs,
    transmit_counts,
)
from .codebook import build_codebook, message_matrix
from .codec import BatchCodec

DEFAULT_BLOCK_SIZE = 25_000


class RepetitionStream:
    """Repetition coder over one message bit per word: the bit is sent
    block_len times and decoded by a majority of the block's slots, so
    block_len 1 is uncoded transmission."""

    message_len = 1
    post_encoding_label = "na"

    def __init__(self, label: str, block_len: int):
        self.label = label
        self.block_len = block_len

    def transmitted_words(self) -> np.ndarray:
        """Both words as they appear on the channel, 1 first."""
        return self.encode(message_matrix(1))

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        return np.repeat(msgs, self.block_len, axis=-1)

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Majority per block; a flat input's length must be a multiple of block_len."""
        n = self.block_len
        return (words.reshape(-1, n).sum(axis=1, keepdims=True) > n // 2).astype(np.uint8)


def make_coder(label: str, post_encoding: bool = True) -> RepetitionStream | BatchCodec:
    """Build a coder from its CLI label: ckm:K,M, uncoded, or rep3."""
    repeats = {"uncoded": 1, "rep3": 3}.get(label)
    if repeats:
        return RepetitionStream(label, repeats)
    if label.startswith("ckm:"):
        try:
            k, m = (int(part) for part in label[4:].split(","))
        except ValueError as exc:
            raise ValueError(f"bad code label {label!r}; expected ckm:K,M") from exc
        return BatchCodec(build_codebook(k, m), post_encoding=post_encoding)
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
    pilot_slots: int = 0  # 0: exact thresholds; else sampled from pilots of this many slots

    def __post_init__(self):
        if not self.codes:
            raise ValueError("select at least one code")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1 or self.block_size < 1:
            raise ValueError("workers and block_size must be positive")
        if len(set(self.sweep)) < len(self.sweep):
            raise ValueError(f"sweep {self.sweep} repeats a value")


@dataclass(frozen=True)
class TrialReport:
    rows: tuple[dict, ...]
    # manifest entries in write order, config echo first; timings are .3f text
    manifest: dict = field(compare=False)


# ExperimentConfig fields only BER sweeps take, sweep first; isi rejects any off its default
BER_KEYS = ("sweep", "workers", "block_size", "pilot_slots")


def _config_echo(config: ExperimentConfig, kind: str) -> dict:
    return {
        "experiment": kind,
        "codes": ",".join(config.codes),
        **dict(zip(CONFIG_KEYS[:-1], astuple(config.channel))),
        "seed": config.seed,
        "trials": config.trials,
        "sweep": ",".join(_fmt(v) for v in config.sweep),
        "post_encoding": config.post_encoding,
        **{key: getattr(config, key) for key in BER_KEYS[1:] if kind != "isi"},
        "version": _version,
    }


def _coders(config: ExperimentConfig) -> list[RepetitionStream | BatchCodec]:
    """The config's coders; a code selected twice (by label) is rejected."""
    coders = [make_coder(label, post_encoding=config.post_encoding) for label in config.codes]
    labels = [coder.label for coder in coders]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"code {label} is selected more than once")
    return coders


def _blocks(trials: int, size: int, n: int) -> list[tuple[int, int]]:
    """(block index, words) in order, only the last short: `size` up to n = 15, fewer above."""
    words = max(1, size // max(1, n // 8))
    return list(enumerate(min(words, trials - start) for start in range(0, trials, words)))


def _block_stream(coder, seed, group, job):
    """(messages, transmitted slot stream, channel seed key) of one _blocks
    job: the only home of seed roles 1 (messages) and 2 (channel)."""
    block_idx, words = job
    rng_msg = np.random.default_rng([seed, group, 1, block_idx])
    msgs = rng_msg.integers(0, 2, size=(words, coder.message_len), dtype=np.uint8)
    return msgs, coder.encode(msgs).reshape(-1), [seed, group, 2, block_idx]


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
    """Monte Carlo per-position mean interference (molecules) in a stream.

    Only per-position totals are kept, so they are drawn from their exact
    law.  In a block's words whose every lag lands inside the block, the 1s
    at position i send Multinomial(M * ones_i, share_i) molecules to the
    positions, share_i being row i of the streamed isi_matrix plus the rest
    (own slot, never absorbed): n draws per block.  The last ceil((L-1)/n)
    words go through transport, which drops what lands past the block."""
    n = coder.block_len
    share = isi_matrix(slot_probs(params), n, True)
    share = np.column_stack([share, 1.0 - share.sum(axis=1)])
    tail = -(-(params.L - 1) // n)  # words whose lags may leave the block
    sums = np.zeros(n, dtype=np.float64)
    for job in _blocks(trials, DEFAULT_BLOCK_SIZE, n):
        _, tx, key = _block_stream(coder, seed, 0, job)
        rng = np.random.default_rng(key)
        cut = max(0, job[1] - tail) * n
        ones = tx[:cut].reshape(-1, n).sum(axis=0, dtype=np.int64)
        sums += rng.multinomial(params.M * ones, share)[:, :n].sum(axis=0)
        counts = transmit_counts(tx[cut:], params, rng, include_own_slot=False)
        sums += counts.reshape(-1, n).sum(axis=0)
    return sums / trials


def run_isi_experiment(config: ExperimentConfig) -> TrialReport:
    """Per-position expected interference, analytic and streamed Monte Carlo.

    The analytic column applies the per-code average densities to a single
    word in isolation; the Monte Carlo column streams words back to back and
    therefore also sees interference crossing word boundaries.  Both are
    reported in molecules (scaled by M).
    """
    t0 = time.monotonic()
    for key in BER_KEYS:  # a dataclass keeps each field's default on the class
        if getattr(config, key) != getattr(ExperimentConfig, key):
            raise ValueError(f"isi takes no {key}, got {getattr(config, key)}")
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
        dens = coder.transmitted_words().mean(axis=0)
        mc = _isi_mc_profile(coder, params, config.trials, config.seed)
        for pos in range(1, coder.block_len + 1):
            rows.append(
                {
                    "code": coder.label,
                    "ts_s": params.ts,
                    "L": params.L,
                    "position": pos,
                    "expected_isi_analytic": params.M * expected_isi(dens, pos, profile),
                    "expected_isi_mc": float(mc[pos - 1]),
                }
            )
    manifest = {**_config_echo(config, "isi"), "wall_clock_s": f"{time.monotonic() - t0:.3f}"}
    return TrialReport(tuple(rows), manifest)


# ---------------------------------------------------------------------------
# BER experiments


def ber_point(coder, points, group_idx, thresholds, config) -> list[int]:
    """Bit errors of one code at each of `points` (ascending M), which share
    each block's words and transport, over config.trials words."""

    def block(job):
        msgs, tx, key = _block_stream(coder, config.seed, group_idx, job)
        decisions = simulate_stream(tx, points, key, thresholds)
        return [int((coder.decode(d.reshape(len(msgs), -1)) != msgs).sum()) for d in decisions]

    jobs = _blocks(config.trials, config.block_size, coder.block_len)
    return [sum(errors) for errors in zip(*_map(config.workers, block, jobs))]


def _thresholds(group, pis, config) -> list[float]:
    """Detection thresholds of a group's points, indexed pis in the sweep:
    each from the uncoded slot law of its noise-free point, computed once, or
    with config.pilot_slots set, from a sampled pilot seeded by its point."""
    if config.pilot_slots:
        keys = [[config.seed, pi, 0, 0] for pi in pis]
        return [calibrate_threshold(pt, config.pilot_slots, k) for pt, k in zip(group, keys)]
    keys = [replace(pt, sigma_n2=0.0) for pt in group]
    laws = {key: slot_law(key, [0.5] * (key.L - 1)) for key in dict.fromkeys(keys)}
    return [detection_threshold(pt, laws[key]) for pt, key in zip(group, keys)]


# BER experiment kind -> the swept ChannelParams field, CSV column and threshold key
BER_SWEEPS = {"ber-m": "M", "ber-noise": "sigma_n2"}


def run_ber_experiment(config: ExperimentConfig, kind: str) -> TrialReport:
    """BER per code over the sweep of one BER_SWEEPS kind: molecules per
    1-bit with noise held fixed ("ber-m"), or noise variance with M held
    fixed ("ber-noise")."""
    t0 = time.monotonic()
    if kind not in BER_SWEEPS:
        raise ValueError(f"unknown BER kind {kind!r}; expected one of {', '.join(BER_SWEEPS)}")
    swept = BER_SWEEPS[kind]
    if not config.sweep:
        raise ValueError(f"{kind} needs a non-empty sweep")
    coders = _coders(config)
    points = [replace(config.channel, **{swept: value}) for value in config.sweep]
    # one group in ascending M (a stable sort: ber-noise keeps its order)
    pis = sorted(range(len(points)), key=lambda pi: points[pi].M)
    group = [points[pi] for pi in pis]
    thetas = dict(zip(pis, _thresholds(group, pis, config)))
    errors = {}
    for ci, coder in enumerate(coders):
        errs = ber_point(coder, group, 0, [thetas[pi] for pi in pis], config)
        errors.update(zip([(ci, pi) for pi in pis], errs))
    rows = []
    for (ci, pi), errs in sorted(errors.items()):
        pt, bits = points[pi], config.trials * coders[ci].message_len
        rows.append(
            {
                "code": coders[ci].label,
                "post_encoding": coders[ci].post_encoding_label,
                "ts_s": pt.ts,
                "L": pt.L,
                "M": pt.M,
                "sigma_n2": pt.sigma_n2,
                "bits_sent": bits,
                "bit_errors": errs,
                "ber": errs / bits,
                "threshold": thetas[pi],
            }
        )
    manifest = {
        **_config_echo(config, kind),
        # one threshold per sweep point, shared by every code
        **{f"threshold[{swept}={_fmt(config.sweep[i])}]": th for i, th in sorted(thetas.items())},
        "wall_clock_s": f"{time.monotonic() - t0:.3f}",
    }
    return TrialReport(tuple(rows), manifest)


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
