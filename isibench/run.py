"""isiecc benchmark: time `isi-ecc` end to end, or trace it layer by layer.

    python3 isibench/run.py --workload ber-m-compare --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is loaded from the `src/` directory of the
checkout holding this file.  One run sets the program up several times, then
repeats the workload's CLI command on inputs made from --seed until
--seconds are used.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced CLI runs and reports per-layer
metrics and the tracing overhead.  Every CLI run's CSV passes through the
correctness gate in checks.py.  The last line of standard output is one JSON
object; the line before it holds the details (machine facts, every sample,
check results), also written to .isibench_out/ with the traced spans.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy  # imported before set-up is timed; its import time is not the program's

from checks import check_csv, load_reference
from tracing import Tracer, layer_metrics, self_times, spans_json
from workloads import (
    ROOT,
    WORKLOADS,
    MissingProgram,
    Workload,
    check_checkout,
    fresh_setup,
    program_seed,
)

OUT = ROOT / ".isibench_out"
# Set-up samples per run, setup_s being their median: at least MIN_SETUPS,
# more while they take under SETUP_SECONDS in all, up to MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 7, 41, 2.0
MIN_REPS = 3  # untraced CLI runs per --trace 0 run, whatever --seconds says


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": platform.processor() or "unknown",
        "cache": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            facts["cache"][f"L{level}{suffix}"] = size
    except OSError:
        pass  # facts stay as platform reports them
    return facts


def run_cli(modules: dict, workload: Workload, prog_seed: int, out_csv: Path, tracer=None):
    """One CLI run: (wall seconds, exit code or None if it raised, CSV bytes)."""
    out_csv.unlink(missing_ok=True)
    main = modules["cli"].main
    if tracer is not None:
        tracer.install(modules)
    argv = workload.argv(prog_seed, out_csv)
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            rc = main(argv)
    except Exception:  # the program crashed: its points fail, the run goes on
        traceback.print_exc(file=sys.stderr)
        rc = None
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    data = out_csv.read_bytes() if rc == 0 and out_csv.is_file() else None
    return wall, rc, data


class Gate:
    """Counts points attempted and failed over every CLI run of one benchmark run."""

    def __init__(self, workload: Workload, reference: dict, seed: int):
        self.workload, self.reference, self.seed = workload, reference, seed
        self.attempted = self.failed = 0
        self.first_csv = None
        self.csv_mismatches = 0
        self.reasons: list[str] = []
        self.first_csv_checks: dict = {}

    def check(self, label: str, rc, data: bytes | None) -> None:
        result = check_csv(self.workload, data, self.reference, self.seed)
        failed = len(result["failed_points"])
        reasons = [f"{label}: {r}" for r in result["reasons"]]
        if rc != 0:
            reasons.append(f"{label}: CLI exit {rc}")
        if self.first_csv is None:
            self.first_csv = data
            self.first_csv_checks = {
                k: v for k, v in result.items() if k not in ("failed_points", "reasons")
            }
        elif data != self.first_csv:
            # same inputs, different bytes: nondeterminism, or tracing changed results
            failed = self.workload.points()
            self.csv_mismatches += 1
            reasons.append(f"{label}: CSV differs from this run's first CSV")
        self.attempted += self.workload.points()
        self.failed += failed
        self.reasons += reasons


def measure(
    workload: Workload, modules: dict, prog_seed: int, seconds: float, gate: Gate, trace: bool
):
    """Repeat the CLI command until `seconds` are used.

    Untraced: returns the wall times.  Traced: alternates an untraced and a
    traced CLI run and returns both wall-time lists and the tracers.
    """
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        # the traced run goes first in every other round, so warm-up favours neither side
        order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for tracing in order if trace else (False,):
            if tracing:
                tracers.append(Tracer())
                out_csv = OUT / f"{workload.name}-traced.csv"
                wall, rc, data = run_cli(modules, workload, prog_seed, out_csv, tracers[-1])
                traced.append(wall)
                gate.check(f"traced run {len(traced)}", rc, data)
            else:
                wall, rc, data = run_cli(modules, workload, prog_seed, OUT / f"{workload.name}.csv")
                untraced.append(wall)
                gate.check(f"run {len(untraced)}", rc, data)
        done = len(untraced) >= (1 if trace else MIN_REPS)
        per_round = statistics.median(untraced) + (statistics.median(traced) if trace else 0.0)
        if done and time.perf_counter() - start + per_round > seconds:
            return untraced, traced, tracers


def set_up(workload: Workload) -> tuple[list[float], dict]:
    """Set the program up afresh several times: the samples, and the modules
    of the last set-up."""
    samples = []
    while len(samples) < MIN_SETUPS or (
        len(samples) < MAX_SETUPS and sum(samples) < SETUP_SECONDS
    ):
        elapsed, modules = fresh_setup(workload)
        samples.append(elapsed)
    return samples, modules


def end_to_end(workload: Workload, walls: list[float], setups: list[float]) -> dict:
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "slots_per_s": workload.slots() / wall,
        "emissions_per_s": workload.emissions() / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(
    workload: Workload, untraced: list[float], traced: list[float], tracers: list
) -> dict:
    samples = [layer_metrics(t.spans, workload.threads()) for t in tracers]
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(untraced)
    return metrics


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them (`end_to_end` or
    `per_layer`)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        check_checkout()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gate = Gate(workload, load_reference(workload), args.seed)
    setup_samples, modules = set_up(workload)
    prog_seed = program_seed(workload.name, args.seed)
    OUT.mkdir(exist_ok=True)
    untraced, traced, tracers = measure(
        workload, modules, prog_seed, args.seconds, gate, bool(args.trace)
    )
    if args.trace:
        metrics = per_layer(workload, untraced, traced, tracers)
    else:
        metrics = end_to_end(workload, untraced, setup_samples)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if metrics.keys() != units.keys():
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "program_seed": prog_seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "wall_s_samples": untraced,
        "traced_wall_s_samples": traced,
        "setup_s_samples": setup_samples,
        "slots_per_run": workload.slots(),
        "expected_emissions_per_run": workload.emissions(),
        "csv": gate.first_csv_checks,
        "csv_mismatches": gate.csv_mismatches,
        "check_failures": gate.reasons[:20],
    }
    if args.trace:
        details["self_s"] = self_times(tracers[-1].spans)
        details["missing_trace_targets"] = tracers[-1].missing
        spans = json.dumps(spans_json(tracers[-1].spans))
        (OUT / f"spans-{workload.name}-seed{args.seed}.json").write_text(spans)
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1)
    )
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
