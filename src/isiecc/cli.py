"""Command line interface.

Codec commands print bit strings, leftmost bit first:

    isi-ecc encode --k 3 --m 4 --msg 011
    isi-ecc decode --k 3 --m 4 --word 01010010
    isi-ecc export-codebook --k 3 --m 4 --out book.csv

Experiment commands read channel physics from a key-value config file and
write a CSV plus a manifest:

    isi-ecc isi --config configs/channel_ts0.3.cfg --code ckm:4,5 --code rep3 \
        --out isi.csv
    isi-ecc ber-m --config configs/channel_ts0.3.cfg --code ckm:4,5 \
        --sweep 100:300:25 --out ber.csv --trials 1000000
    isi-ecc ber-noise --config configs/channel_ts0.3.cfg --code ckm:4,5 \
        --code uncoded --sweep 0:120:30 --out noise.csv
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bits import bits_to_str
from .channel import load_channel_config
from .codebook import CodeSpec, build_codebook, export_codebook_csv
from .codec import decode, encode
from .harness import (
    BER_KEYS,
    ExperimentConfig,
    run_ber_experiment,
    run_isi_experiment,
    write_report,
)


def _parse_sweep(text: str) -> tuple[float, ...]:
    """Parse lo:hi:step into the values lo + i * step, rounded to 9 decimals,
    for i = 0 .. floor((hi - lo) / step + 1e-9); they must strictly increase."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise argparse.ArgumentTypeError(f"sweep bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("need step > 0 and hi >= lo")
    span = (hi - lo) / step + 1e-9
    if not math.isfinite(span):
        raise argparse.ArgumentTypeError(f"sweep point count must be finite, got {text!r}")
    values = []
    for i in range(math.floor(span) + 1):  # checked as made: a repeat stops at once
        value = round(lo + i * step, 9)
        if values and value <= values[-1]:
            raise argparse.ArgumentTypeError(f"sweep step {step:g} repeats values at 9 decimals")
        values.append(value)
    return tuple(values)


def _add_code_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, required=True, help="message length in bits")
    sub.add_argument("--m", type=int, required=True, help="parity body length in bits")


def _add_experiment_args(sub: argparse.ArgumentParser, default_trials: int) -> None:
    sub.add_argument("--config", required=True, help="channel config file")
    sub.add_argument(
        "--code",
        action="append",
        required=True,
        metavar="{ckm:K,M | uncoded | rep3}",
        help="code to run; repeat for comparisons",
    )
    sub.add_argument("--no-post-encode", action="store_true", help="skip the transmit swaps")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--trials", type=int, default=default_trials, help="codewords per point")


def _add_ber_args(sub: argparse.ArgumentParser, default_sweep: str) -> None:
    _add_experiment_args(sub, default_trials=1_000_000)
    sub.add_argument("--sweep", type=_parse_sweep, default=_parse_sweep(default_sweep))
    unset = argparse.SUPPRESS
    new_draws = "words per block; blocks seed their draws, so a new size changes them, not the law"
    sub.add_argument("--workers", type=int, default=unset, help="worker threads; keeps the CSV")
    sub.add_argument("--block-size", type=int, default=unset, help=new_draws)
    sub.add_argument(
        "--pilot-slots",
        type=int,
        default=unset,
        help="take each point's threshold from the transport counts of an uncoded pilot of"
        " this many slots, its noise added exactly, instead of the exact slot law",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isi-ecc", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help="encode a message word")
    _add_code_args(enc)
    enc.add_argument("--msg", required=True, help="message bits, e.g. 011")
    enc.add_argument("--no-post-encode", action="store_true", help="print the raw codeword")

    dec = subs.add_parser("decode", help="decode a received word")
    _add_code_args(dec)
    dec.add_argument("--word", required=True, help="received bits of length k+m+1")

    exp = subs.add_parser("export-codebook", help="write the codebook as CSV")
    _add_code_args(exp)
    exp.add_argument("--out", default=None, help="output path (stdout when omitted)")

    isi = subs.add_parser("isi", help="expected ISI per position, analytic and Monte Carlo")
    _add_experiment_args(isi, default_trials=100_000)

    berm = subs.add_parser("ber-m", help="BER over a molecules-per-bit sweep")
    _add_ber_args(berm, default_sweep="100:300:25")

    bern = subs.add_parser("ber-noise", help="BER over a noise-variance sweep")
    _add_ber_args(bern, default_sweep="0:120:30")

    return parser


def _experiment_config(args) -> ExperimentConfig:
    params, file_seed = load_channel_config(args.config)
    # BER flags exist on ber-m/ber-noise only; unset ones other than --sweep not at all
    ber_run = {key: getattr(args, key) for key in BER_KEYS if hasattr(args, key)}
    return ExperimentConfig(
        codes=tuple(args.code),
        channel=params,
        seed=args.seed if args.seed is not None else file_seed,
        trials=args.trials,
        post_encoding=not args.no_post_encode,
        **ber_run,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    out = getattr(args, "out", None)  # checked before any work; encode/decode have none
    if out is not None and Path(out).is_dir():
        raise IsADirectoryError(f"cannot write {out}: it is a directory")
    if out is not None and not Path(out).parent.is_dir():
        raise FileNotFoundError(f"cannot write {out}: no directory {Path(out).parent}")
    if args.command == "encode":
        spec = CodeSpec(args.k, args.m)
        print(bits_to_str(encode(args.msg, spec, post_encoding=not args.no_post_encode)))
        return 0

    if args.command == "decode":
        spec = CodeSpec(args.k, args.m)
        print(bits_to_str(decode(args.word, spec)))
        return 0

    if args.command == "export-codebook":
        book = build_codebook(args.k, args.m)
        if args.out is None:
            export_codebook_csv(book, sys.stdout)
        else:
            with open(args.out, "w") as handle:
                export_codebook_csv(book, handle)
        return 0

    if args.command == "isi":
        report = run_isi_experiment(_experiment_config(args))
    else:
        report = run_ber_experiment(_experiment_config(args), args.command)
    write_report(report, args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows, {report.manifest['wall_clock_s']}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
