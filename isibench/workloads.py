"""Workload definitions, the program loader, and the work each run does.

The benchmark drives the program only through `isiecc.cli.main`, loaded from
the `src/` directory of the checkout this file sits in.  Slot and emission
counts are worked out here from the code labels, independently of the
program, so that a change to the program cannot change its own yardstick.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # isi-ecc subcommand
    config: str  # channel config, relative to the checkout root
    codes: tuple[str, ...]
    trials: int
    sweep: str | None = None  # lo:hi:step, as the CLI takes it
    workers: int = 1

    def argv(self, prog_seed: int, out_csv: Path) -> list[str]:
        argv = [self.command, "--config", str(ROOT / self.config)]
        for code in self.codes:
            argv += ["--code", code]
        if self.sweep is not None:
            argv += ["--sweep", self.sweep, "--workers", str(self.workers)]
        argv += ["--trials", str(self.trials), "--seed", str(prog_seed), "--out", str(out_csv)]
        return argv

    def sweep_values(self) -> list[float]:
        lo, hi, step = (float(x) for x in self.sweep.split(":"))
        count = int(round((hi - lo) / step)) + 1
        return [lo + i * step for i in range(count)]

    def points(self) -> int:
        """Operations per CLI run: sweep points for BER, codes for ISI."""
        return len(self.sweep_values()) if self.sweep is not None else len(self.codes)

    def _per_run(self, per_word) -> float:
        per_point = self.trials * sum(per_word(c) for c in self.codes)
        return per_point * (len(self.sweep_values()) if self.sweep is not None else 1)

    def slots(self) -> int:
        """Coded-stream slots one CLI run simulates, pilots and warm-up excluded."""
        return self._per_run(code_length)

    def emissions(self) -> float:
        """Expected transmitted 1-bits of one CLI run (uniform messages)."""
        return self._per_run(mean_weight)

    def threads(self) -> int:
        """Worker threads the program uses; `isi` ignores --workers."""
        return self.workers if self.sweep is not None else 1


# Why each workload exists is in README.md; the sizes give ~5-7 s per CLI run
# on a 2-core Xeon, so a 40 s run repeats each command five to seven times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ber-m-compare",
            command="ber-m",
            config="configs/channel_ts0.3.cfg",
            codes=("ckm:4,5", "rep3", "uncoded"),
            sweep="150:300:75",
            workers=2,
            trials=100_000,
        ),
        Workload(
            name="ber-noise-bigcode",
            command="ber-noise",
            config="configs/channel_ts0.4.cfg",
            codes=("ckm:16,30",),
            sweep="30:120:45",
            workers=1,
            trials=30_000,
        ),
        Workload(
            name="isi-profile",
            command="isi",
            config="configs/channel_ts0.3.cfg",
            codes=("ckm:6,23", "ckm:10,16", "rep3"),
            trials=100_000,
        ),
    )
}


def _ckm_params(label: str) -> tuple[int, int]:
    k, m = label[4:].split(",")
    return int(k), int(m)


def message_length(label: str) -> int:
    return _ckm_params(label)[0] if label.startswith("ckm:") else 1


def code_length(label: str) -> int:
    if label == "uncoded":
        return 1
    if label == "rep3":
        return 3
    k, m = _ckm_params(label)
    return k + m + 1


def mean_weight(label: str) -> float:
    """Mean number of 1s per word when messages are uniform.

    ckm:K,M: K/2 message 1s, plus the parity bodies (the first 2^K words of
    the weight-stacked list: all M-bit words of weight 0, then 1, ...), plus
    the extra bit, which is 1 when the body weight is even.  The transmit
    swap permutes positions and leaves the weight alone.
    """
    if label == "uncoded":
        return 0.5
    if label == "rep3":
        return 1.5
    k, m = _ckm_params(label)
    need, ones, weight = 1 << k, 0, 0
    while need:
        rows = min(comb(m, weight), need)
        ones += rows * (weight + (weight % 2 == 0))
        need -= rows
        weight += 1
    return k / 2 + ones / (1 << k)


def program_seed(workload: str, seed: int) -> int:
    """The program's --seed for a benchmark seed: a fixed 32-bit hash."""
    digest = hashlib.sha256(f"isibench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class MissingProgram(RuntimeError):
    """The checkout holds no isiecc sources or channel configs."""


def check_checkout() -> None:
    needed = [SRC / "isiecc" / "__init__.py", SRC / "isiecc" / "cli.py"]
    needed += [ROOT / w.config for w in WORKLOADS.values()]
    missing = [str(path.relative_to(ROOT)) for path in dict.fromkeys(needed) if not path.is_file()]
    if missing:
        raise MissingProgram(f"not an isiecc checkout; missing {', '.join(missing)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_setup(workload: Workload) -> tuple[float, dict]:
    """Import isiecc from scratch, parse the config and build every code.

    Returns the elapsed seconds and the freshly imported modules.  NumPy stays
    imported: its own import time is not the program's set-up.
    """
    for name in [n for n in sys.modules if n == "isiecc" or n.startswith("isiecc.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("isiecc.cli")
    harness = sys.modules["isiecc.harness"]
    cli.load_channel_config(ROOT / workload.config)
    for code in workload.codes:
        harness.make_coder(code)
    elapsed = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"isiecc imported from {cli.__file__}, not from {SRC}")
    modules = {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("isiecc.")
    }
    return elapsed, modules
