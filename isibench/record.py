"""Record isibench/reference.json: run every workload's CLI command once per
benchmark seed and store each row's interval and each seed's CSV sha256.

    python3 isibench/record.py

Re-record only with a stated reason (CHANGES.md): the reference is what the
correctness gate compares every later run against.
"""

from __future__ import annotations

import json

from checks import REFERENCE, SEEDS, Z, record_reference
from run import OUT, run_cli
from workloads import WORKLOADS, check_checkout, fresh_setup, program_seed


def main() -> int:
    check_checkout()
    OUT.mkdir(exist_ok=True)
    reference = {
        "about": (
            f"Recorded by isibench/record.py over benchmark seeds 0..{SEEDS - 1}. "
            f"Intervals: mean over seeds +- {Z:g} x seed-to-seed sd x sqrt(1 + 1/seeds). "
            "BER rows: the range of bit_errors inside both such intervals, on the count "
            "and on ln(count + 1), each sd at least its Poisson sd (checks._count_range)."
        ),
        "workloads": {},
    }
    for workload in WORKLOADS.values():
        _, modules = fresh_setup(workload)
        csvs = {}
        for seed in range(SEEDS):
            out_csv = OUT / f"record-{workload.name}.csv"
            wall, rc, data = run_cli(modules, workload, program_seed(workload.name, seed), out_csv)
            if rc != 0 or data is None:
                raise SystemExit(f"{workload.name} seed {seed}: CLI exit {rc}")
            csvs[seed] = data
            print(f"{workload.name} seed {seed}: {wall:.2f} s", flush=True)
        reference["workloads"][workload.name] = record_reference(workload, csvs)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
