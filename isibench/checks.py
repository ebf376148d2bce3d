"""Correctness gate: every CLI run's CSV is checked against the workload's
definition and against reference values recorded by `record.py`.

A point is one sweep value (all codes at that value) for the BER workloads
and one code for `isi-profile`.  A point fails when any of its rows is
missing or fails a check; failed points count against points attempted.

Checks per BER row: `bits_sent` equals trials x k; `ber` equals
`bit_errors / bits_sent`; every code at a sweep point carries the same
threshold; the error count lies inside the row's recorded range.  Checks per
ISI row: the analytic column equals the recorded value (it is
deterministic); the Monte Carlo column lies inside its recorded interval.
The CSV's sha256 and, for BER, the per-row error counts are compared with
the values recorded for the same seed where that seed was recorded; a
mismatch there is reported, not failed, because a change that keeps the
model but draws different random numbers is allowed to change them
(ROADMAP: byte-identical CSVs, or a stated reason).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

from workloads import Workload, code_length, message_length

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Benchmark seeds 0 .. SEEDS-1 are recorded in reference.json.
SEEDS = 20
# Interval half-width in recorded seed-to-seed standard deviations.  The sd is
# itself estimated from SEEDS = 20 seeds, so a correct row falls outside with
# the Student-t tail at 19 degrees of freedom: ~5e-9 at 10 sd, against ~1e-5
# at 6.
Z = 10.0


def parse_csv(data: bytes) -> list[dict]:
    """Rows of an isi-ecc CSV.

    The program writes code labels such as `ckm:4,5` unquoted, so a standard
    CSV reader splits them; every other column is comma-free, so each line is
    split from the right instead.
    """
    header, *lines = data.decode().splitlines()
    columns = header.split(",")
    return [dict(zip(columns, line.rsplit(",", len(columns) - 1))) for line in lines]


def row_key(workload: Workload, row: dict) -> str:
    if workload.sweep is None:
        return f"{row['code']}#{int(row['position'])}"
    column = "M" if workload.command == "ber-m" else "sigma_n2"
    return f"{row['code']}@{float(row[column]):g}"


def point_of(workload: Workload, key: str) -> str:
    return key.split("#")[0] if workload.sweep is None else key.split("@")[1]


def expected_keys(workload: Workload) -> list[str]:
    if workload.sweep is None:
        return [f"{c}#{p}" for c in workload.codes for p in range(1, code_length(c) + 1)]
    return [f"{c}@{v:g}" for c in workload.codes for v in workload.sweep_values()]


def load_reference(workload: Workload) -> dict:
    return json.loads(REFERENCE.read_text())["workloads"][workload.name]


def _row_failures(workload: Workload, row: dict, ref: dict) -> list[str]:
    failures = []
    if workload.sweep is not None:
        k = message_length(row["code"])
        if int(row["bits_sent"]) != workload.trials * k:
            failures.append(f"bits_sent {row['bits_sent']} != {workload.trials}x{k}")
        errors, bits = int(row["bit_errors"]), int(row["bits_sent"])
        if not math.isclose(float(row["ber"]), errors / bits, rel_tol=1e-9):
            failures.append(f"ber {row['ber']} != {errors}/{bits}")
        low, high = ref["errors"]
        if not low <= errors <= high:
            failures.append(f"bit_errors {errors} outside [{low:.1f}, {high:.1f}]")
    else:
        analytic = float(row["expected_isi_analytic"])
        if not math.isclose(analytic, ref["analytic"], rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"analytic {analytic!r} != {ref['analytic']!r}")
        mc = float(row["expected_isi_mc"])
        if not abs(mc - ref["centre"]) <= ref["half_width"]:
            failures.append(f"mc {mc:.6g} outside {ref['centre']:.6g}+-{ref['half_width']:.2g}")
    return failures


def check_csv(workload: Workload, data: bytes | None, reference: dict, seed: int) -> dict:
    """Failed points and their reasons, plus the recorded-seed comparisons."""
    points = sorted({point_of(workload, k) for k in expected_keys(workload)})
    if data is None:
        return {"failed_points": points, "reasons": ["no CSV written"], "sha256_match": None}
    try:
        return _check_rows(workload, data, reference, seed, points)
    except (KeyError, ValueError) as exc:
        reasons = [f"malformed CSV: {exc!r}"]
        return {"failed_points": points, "reasons": reasons, "sha256_match": None}


def _check_rows(
    workload: Workload, data: bytes, reference: dict, seed: int, points: list[str]
) -> dict:
    rows = {}
    reasons = []
    for row in parse_csv(data):
        rows.setdefault(row_key(workload, row), row)
    failed = set()
    for key in expected_keys(workload):
        row = rows.get(key)
        if row is None:
            problems = ["missing row"]
        else:
            problems = _row_failures(workload, row, reference["rows"][key])
        if problems:
            failed.add(point_of(workload, key))
            reasons += [f"{key}: {p}" for p in problems]
    if len(rows) != len(expected_keys(workload)):
        failed.update(points)
        reasons.append(f"{len(rows)} distinct rows, expected {len(expected_keys(workload))}")
    if workload.sweep is not None:
        for point in points:
            thresholds = {r["threshold"] for k, r in rows.items() if point_of(workload, k) == point}
            if len(thresholds) > 1:
                failed.add(point)
                reasons.append(f"point {point}: codes use thresholds {sorted(thresholds)}")
    recorded = reference["seeds"].get(str(seed))
    sha256 = hashlib.sha256(data).hexdigest()
    result = {
        "failed_points": sorted(failed),
        "reasons": reasons,
        "sha256": sha256,
        "sha256_match": None if recorded is None else sha256 == recorded["csv_sha256"],
    }
    if recorded is not None and workload.sweep is not None:
        result["counts_match"] = all(
            key in rows and int(rows[key]["bit_errors"]) == errors
            for key, errors in recorded["bit_errors"].items()
        )
    return result


def _count_range(counts: list[int]) -> list[float]:
    """Allowed bit-error counts of one BER row, from its count on each seed.

    Two intervals, each Z x sd x sqrt(1 + 1/seeds) about the mean over seeds
    (the last factor allows for the mean's own error), and a count must lie in
    both.  On counts, sd is at least the Poisson sd of an upper bound on the
    mean count, (errors over all seeds + 1 + Z sqrt(that + 1)) / seeds, and
    one more error is allowed, so rows whose recorded seeds saw no errors
    still admit a few.  On ln(count + 1), sd is at least 1 / sqrt(that bound
    + 1), the Poisson sd there.  The count interval is the tighter above; the
    log interval is the tighter below, and excludes zero wherever the recorded
    counts keep well clear of it, so a run that loses its errors fails even on
    rows whose counts spread widely from seed to seed.
    """
    n = len(counts)
    total = sum(counts)
    mean_bound = (total + 1 + Z * math.sqrt(total + 1)) / n
    widen = Z * math.sqrt(1 + 1 / n)
    half = widen * max(statistics.stdev(counts), math.sqrt(mean_bound)) + 1
    logs = [math.log1p(c) for c in counts]
    log_half = widen * max(statistics.stdev(logs), 1 / math.sqrt(mean_bound + 1))
    centre, log_centre = total / n, statistics.fmean(logs)
    return [
        max(centre - half, math.expm1(log_centre - log_half)),
        min(centre + half, math.expm1(log_centre + log_half)),
    ]


def record_reference(workload: Workload, csvs: dict[int, bytes]) -> dict:
    """Reference entry for one workload from one CSV per recorded seed.

    BER rows get the allowed range of their error count (`_count_range`).
    ISI rows get an interval for the Monte Carlo column centred on its mean
    over seeds, with half-width Z x sd x sqrt(1 + 1/seeds), where sd is the
    seed-to-seed standard deviation, and the analytic value.
    """
    per_seed = {
        seed: {row_key(workload, r): r for r in parse_csv(data)} for seed, data in csvs.items()
    }
    n = len(csvs)
    rows = {}
    for key in expected_keys(workload):
        if workload.sweep is not None:
            counts = [int(per_seed[s][key]["bit_errors"]) for s in csvs]
            bits = workload.trials * message_length(key.split("@")[0])
            rows[key] = {"centre": sum(counts) / n / bits, "errors": _count_range(counts)}
        else:
            values = [float(per_seed[s][key]["expected_isi_mc"]) for s in csvs]
            rows[key] = {
                "centre": statistics.fmean(values),
                "half_width": Z * statistics.stdev(values) * math.sqrt(1 + 1 / n),
                "analytic": float(per_seed[min(csvs)][key]["expected_isi_analytic"]),
            }
    seeds = {}
    for seed, data in csvs.items():
        seeds[str(seed)] = {"csv_sha256": hashlib.sha256(data).hexdigest()}
        if workload.sweep is not None:
            errors = {k: int(r["bit_errors"]) for k, r in per_seed[seed].items()}
            seeds[str(seed)]["bit_errors"] = errors
    return {"rows": rows, "seeds": seeds}
