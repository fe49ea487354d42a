"""Per-layer metrics from the spans of a traced run.

Only spans that start inside a journey's measured window count. A
span's self time is its duration minus the durations of its children,
and a client round trip's children are the domain calls its server
thread made, so a round trip's self time is the wire's own overhead.

``calls``, ``bytes`` and ``self_ms`` metrics are per operation of the
journey whose end-to-end metric the layer moves (see BENCHMARK.json):
a count that repeats exactly for a given seed and world size. ``p50``
metrics are medians over every call in the measured windows.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

from tracing import ENDPOINTS

# metric -> (span name, journey, statistic)
PER_OP = {
    "envelope.verify.calls": ("envelope.verify", "discover", "calls"),
    "envelope.verify.self_ms": ("envelope.verify", "discover", "self_ms"),
    "envelope.sign.calls": ("envelope.sign", "ingest", "calls"),
    "envelope.canonicalize.calls": ("envelope.canonicalize", "discover", "calls"),
    "envelope.canonicalize.self_ms": ("envelope.canonicalize", "discover", "self_ms"),
    "envelope.content_hash.bytes": ("envelope.content_hash", "ingest", "bytes"),
    "envelope.content_hash.self_ms": ("envelope.content_hash", "ingest", "self_ms"),
    "model.from_dict.self_ms": ("model.from_dict", "discover", "self_ms"),
    "model.canonical_hash.calls": ("model.canonical_hash", "acquire", "calls"),
    "connector.fetch_catalog.self_ms": ("connector.fetch_catalog", "discover", "self_ms"),
    "connector.provider.catalog.self_ms": ("connector.provider.catalog", "discover", "self_ms"),
    "policy_engine.decide.calls": ("policy_engine.decide", "discover", "calls"),
    "assurance.audit.calls": ("assurance.audit", "ingest", "calls"),
}

# metric -> (span name, scale from seconds)
MEDIAN = {
    "envelope.sign.p50_us": ("envelope.sign", 1e6),
    "policy_engine.decide.p50_us": ("policy_engine.decide", 1e6),
    "connector.provider.handle_negotiation_request.p50_ms": ("connector.provider.handle_negotiation_request", 1e3),
    "connector.provider.finalize.p50_ms": ("connector.provider.finalize", 1e3),
    "connector.store.save_ms": ("connector.store.save", 1e3),
    "connector.store.load_ms": ("connector.store.load", 1e3),
    "assurance.handle_audit.p50_ms": ("assurance.handle_audit", 1e3),
    "wire.server.start_ms": ("wire.server.start", 1e3),
    "wire.server.stop_ms": ("wire.server.stop", 1e3),
}
MEDIAN.update(
    {f"wire.rtt.{e}.p50_ms": (f"wire.rtt.{e}", 1e3) for e in ENDPOINTS.values()}
)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), (".pct", "%"), (".bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count" if metric.endswith("calls") else "ratio"


def per_layer(spans, windows: list, journeys: dict) -> dict:
    windows = sorted(windows, key=lambda w: w[1])
    begins = [w[1] for w in windows]

    def phase_of(start: float):
        at = bisect.bisect_right(begins, start) - 1
        if at >= 0 and start <= windows[at][2]:
            return windows[at][0]
        return None

    kept = [s for s in spans if phase_of(s[3]) is not None]
    child_time = defaultdict(float)
    children = defaultdict(list)
    for span in kept:
        if span[1] is not None:
            child_time[span[1]] += span[4] - span[3]
            children[span[1]].append(span)
    by_name = defaultdict(list)
    for span in kept:
        by_name[span[2]].append(span)

    def self_s(span) -> float:
        return span[4] - span[3] - child_time[span[0]]

    ops = {name: journey.attempted for name, journey in journeys.items()}
    metrics = {}
    for metric, (span_name, journey, stat) in PER_OP.items():
        chosen = [s for s in by_name[span_name] if phase_of(s[3]) == journey]
        if stat == "calls":
            total = len(chosen)
        elif stat == "bytes":
            total = sum(s[6] for s in chosen)
        else:
            total = sum(self_s(s) for s in chosen) * 1e3
        metrics[metric] = total / ops[journey]

    for metric, (span_name, scale) in MEDIAN.items():
        metrics[metric] = statistics.median(s[4] - s[3] for s in by_name[span_name]) * scale
    for endpoint in ENDPOINTS.values():
        metrics[f"wire.overhead.{endpoint}.p50_ms"] = (
            statistics.median(self_s(s) for s in by_name[f"wire.rtt.{endpoint}"]) * 1e3
        )

    parents = {s[0]: s for s in kept}

    def under_load(span) -> bool:
        while span[1] in parents:
            span = parents[span[1]]
            if span[2] == "connector.store.load":
                return True
        return False

    loads = len(by_name["connector.store.load"])
    metrics["connector.store.load.verify_calls"] = sum(map(under_load, by_name["envelope.verify"])) / loads
    saves = by_name["connector.store.save"]
    metrics["connector.store.write_amp"] = sum(s[6] for s in saves) / journeys["ingest"].saved_new_bytes

    setup, steps, teardown = [], [], []
    for run in by_name["scenario.run"]:
        kids = children[run[0]]
        stops = [k[4] - k[3] for k in kids if k[2] == "wire.server.stop"]
        if not stops:
            continue  # in-process replay
        set_up = sum(k[4] - k[3] for k in kids if k[2] == "scenario.setup")
        setup.append(set_up)
        teardown.append(sum(stops))
        steps.append(run[4] - run[3] - set_up - sum(stops))
    metrics["scenario.setup_ms"] = statistics.median(setup) * 1e3
    metrics["scenario.steps_ms"] = statistics.median(steps) * 1e3
    metrics["scenario.teardown_ms"] = statistics.median(teardown) * 1e3
    return metrics
