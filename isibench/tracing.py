"""Spans around the program's public calls, and the per-layer metrics
computed from them.

The tracer wraps names where the program looks them up (module globals such
as `harness.calibrate_threshold`, and `BatchCodec` methods), so `src/` is not
edited.  A span records its name, start, end, parent span and thread; spans
are held in memory and written out when the benchmark ends.  Counts (slots,
emissions, words) are taken at the same boundaries, before the span's clock
starts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from dataclasses import asdict, dataclass

POINT_SPANS = ("harness.ber_point", "harness.isi_mc_profile")
PILOT = "channel.calibrate_threshold"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start_ns: int
    end_ns: int
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _transport_attrs(args: dict) -> dict:
    tx, params = args["tx_bits"], args["params"]
    ones = int((tx != 0).sum())
    return {
        "slots": int(tx.size),
        "emissions": ones,
        # the (emissions, L+1) int64 multinomial draws, computed, not measured
        "draws_bytes": ones * (params.L + 1) * 8 if params.M > 0 else 0,
    }


def _pilot_attrs(args: dict) -> dict:
    seed = args["rng_seed"]
    seed = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    return {"input": repr((args["params"], args["pilot_length"], seed))}


def _words_attrs(args: dict) -> dict:
    batch = args.get("msgs", args.get("words"))
    return {"words": int(batch.shape[0])}


# (module key, attribute, span name, attrs from the bound call arguments)
TARGETS = (
    ("harness", "ber_point", "harness.ber_point", None),
    ("harness", "_isi_mc_profile", "harness.isi_mc_profile", None),
    ("harness", "calibrate_threshold", PILOT, _pilot_attrs),
    ("harness", "simulate_stream", "channel.simulate_stream", None),
    ("harness", "transmit_counts", "channel.transmit_counts", _transport_attrs),
    ("harness", "build_codebook", "codebook.build_codebook", None),
    ("harness", "expected_isi", "channel.expected_isi", None),
    ("channel", "transmit_counts", "channel.transmit_counts", _transport_attrs),
    ("channel", "detect", "channel.detect", None),
    ("codec.BatchCodec", "encode", "codec.encode", _words_attrs),
    ("codec.BatchCodec", "decode", "codec.decode", _words_attrs),
    ("cli", "write_report", "harness.write_report", None),
)


class Tracer:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs_of=None):
        signature = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if attrs_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attrs_of(bound.arguments)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                thread = threading.get_ident()
                self.spans.append(Span(span_id, parent, name, thread, start, end, attrs))

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target the program still has; note the ones it lacks."""
        for module_key, attr, name, attrs_of in TARGETS:
            module_name, _, class_name = module_key.partition(".")
            owner = modules.get(module_name)
            if owner is not None and class_name:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_key}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, attrs_of))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered_s(intervals) -> float:
    """Length of the union of (start_ns, end_ns) intervals, in seconds."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is not None and end <= reach:
            continue
        total += end - (start if reach is None else max(start, reach))
        reach = end
    return total / 1e9


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        kids = [(c.start_ns, c.end_ns) for c in children.get(span.id, ())]
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds - covered_s(kids)
    return totals


def _worker_spans(point: Span, spans: list[Span]) -> list[Span]:
    """Block work inside one point: the point's non-pilot children on its own
    thread, and top-level spans on other threads within its interval."""
    return [
        s
        for s in spans
        if point.start_ns <= s.start_ns
        and s.end_ns <= point.end_ns
        and (
            (s.thread == point.thread and s.parent == point.id and s.name != PILOT)
            or (s.thread != point.thread and s.parent is None)
        )
    ]


def layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run (`threads`: worker threads)."""

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.seconds for s in named(name))

    def total(name, attr):
        return sum(s.attrs[attr] for s in named(name))

    transport = named("channel.transmit_counts")
    emissions = total("channel.transmit_counts", "emissions")
    words_decoded = total("codec.decode", "words")
    pilots = named(PILOT)
    pilot_inputs = {s.attrs["input"] for s in pilots}
    points = [s for s in spans if s.name in POINT_SPANS]
    serial = work = span_room = 0.0
    for point in points:
        workers = _worker_spans(point, spans)
        serial += point.seconds - covered_s([(s.start_ns, s.end_ns) for s in workers])
        if workers:
            work += sum(s.seconds for s in workers)
            interval = max(s.end_ns for s in workers) - min(s.start_ns for s in workers)
            span_room += threads * interval / 1e9
    point_s = [p.seconds for p in points] or [0.0]
    return {
        "codebook.build_s": busy("codebook.build_codebook"),
        "codebook.builds": len(named("codebook.build_codebook")),
        "codec.encode_s": busy("codec.encode"),
        "codec.decode_s": busy("codec.decode"),
        "codec.words_decoded": words_decoded,
        "codec.decode_ns_per_word": (
            busy("codec.decode") * 1e9 / words_decoded if words_decoded else 0.0
        ),
        "channel.transport_s": busy("channel.transmit_counts"),
        "channel.transport_calls": len(transport),
        "channel.emissions": emissions,
        "channel.slots": total("channel.transmit_counts", "slots"),
        "channel.transport_ns_per_emission": (
            busy("channel.transmit_counts") * 1e9 / emissions if emissions else 0.0
        ),
        "channel.draws_bytes_computed": total("channel.transmit_counts", "draws_bytes"),
        "channel.draws_bytes_max_call_computed": max(
            (s.attrs["draws_bytes"] for s in transport), default=0
        ),
        "channel.pilot_s": busy(PILOT),
        "channel.pilot_calls": len(pilots),
        # no pilot calls means no pilot work wasted
        "channel.pilot_useful_ratio": len(pilot_inputs) / len(pilots) if pilots else 1.0,
        "channel.stream_self_s": self_times(spans).get("channel.simulate_stream", 0.0),
        "channel.detect_s": busy("channel.detect"),
        "channel.expected_isi_s": busy("channel.expected_isi"),
        "harness.points": len(points),
        "harness.point_s_median": statistics.median(point_s),
        "harness.point_s_max": max(point_s),
        "harness.serial_s": serial,
        "harness.parallel_efficiency": work / span_room if span_room else 0.0,
        "cli.write_s": busy("harness.write_report"),
    }


def spans_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
