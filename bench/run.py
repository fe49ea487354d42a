"""dataloa benchmark: seeded consumer journeys against the real modules.

Usage:
    python3 bench/run.py --workload discover --seed 1 --seconds 48 --trace 0

Every run drives all four journeys in journeys.py. The workload names
the primary journey: it runs at full size for the largest share of the
run, and the other three run as small companions, so every end-to-end
metric exists on every workload. All load comes from this one process
over loopback, with at most two client threads, each waiting for its
reply. See README.md in this directory for the metrics and workloads.

``--trace 0`` builds the world three times (setup_s is the median),
measures with the library untouched and prints the end-to-end metrics.
``--trace 1`` measures half the time untraced, then installs the
wrappers from tracing.py, measures the other half and prints the
per-layer metrics plus the tracing overhead on the p50 latencies.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A wrong output
makes the command exit with status 1, a missing library with status 2.
Details of each run, and the spans of a traced run, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

ORDER = ("discover", "acquire", "ingest", "replay")
# Share of the run each journey spends as the primary journey and as a
# companion. The companion shares favour the journeys whose figures move
# with the host's CPU speed; acquire is paced by the wire and replay's
# HTTP figures by server shutdown, so their minimum counts suffice.
PRIMARY_SHARE = 0.4
COMPANION_SHARE = {"discover": 0.25, "acquire": 0.1, "ingest": 0.25, "replay": 0.0}
# The run is cut into slices and a journey runs in each of its own, so
# every metric samples the whole run rather than one stretch of it.
# Acquire runs in fewer, longer stretches: a connection left idle goes
# back to quick ACKs, which changes how many delayed-ACK stalls the next
# acquisitions hit.
SLICES = 16
SLICES_OF = {"acquire": 4}
SETUPS = 3
# Operations each journey runs at least over a run, as the primary
# journey and as a companion. A replay operation is one scenario over
# HTTP and in-process.
MIN_OPS_PRIMARY = {"discover": 30, "acquire": 100, "ingest": 42, "replay": 12}
MIN_OPS_COMPANION = {"discover": 20, "acquire": 20, "ingest": 20, "replay": 4}
KIB = 1024
# Catalog assets for discover; dataset sizes per store epoch for ingest.
FULL = {"discover": 2000, "ingest": [256 * KIB * 2**k for k in range(7)]}
SMALL = {"discover": 200, "ingest": [512 * KIB] * 4}
SWEEP_SIZES = (10, 100)
SWEEP_FETCHES = 10

UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "catalog_p50_ms": "ms",
    "catalog_tail_ms": "ms",
    "assets_per_s": "1/s",
    "acquire_p50_ms": "ms",
    "acquire_tail_ms": "ms",
    "acquires_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_tail_ms": "ms",
    "transfer_mb_per_s": "MB/s",
    "replay_http_p50_ms": "ms",
    "replay_inproc_p50_ms": "ms",
}
OVERHEAD_OF = ("catalog_p50_ms", "acquire_p50_ms", "ingest_p50_ms", "replay_http_p50_ms", "replay_inproc_p50_ms")


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def min_ops(journey: str, workload: str) -> int:
    return (MIN_OPS_PRIMARY if journey == workload else MIN_OPS_COMPANION)[journey]


def tail_percentile(journey: str, workload: str) -> float:
    """The percentile reported as *_tail_ms: the highest with at least
    ten samples beyond it at the journey's minimum operation count, so
    it stays fixed when a faster program completes more operations."""
    return 100 * (1 - 10 / min_ops(journey, workload))


def build(workload: str, seed: int, work_dir: Path) -> dict:
    from journeys import Acquire, Discover, Ingest, Replay

    size = lambda journey: (FULL if journey == workload else SMALL)[journey]
    return {
        "discover": Discover(seed, size("discover")),
        "acquire": Acquire(seed),
        "ingest": Ingest(seed, work_dir, size("ingest")),
        "replay": Replay(seed),
    }


def set_up(journeys: dict) -> float:
    started = time.perf_counter()
    for journey in journeys.values():
        journey.setup()
    return time.perf_counter() - started


def close_all(journeys: dict) -> None:
    threads = [threading.Thread(target=j.close) for j in journeys.values()]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def measure(journeys: dict, workload: str, seconds: float) -> list:
    """Run each journey for its share of ``seconds``, then stop the
    servers; returns the ``(journey, start, end)`` window of each slice."""
    # The world lives for the whole run; keep the collector from
    # rescanning it on every full collection while measuring.
    gc.collect()
    gc.freeze()
    windows = []
    try:
        for part in range(1, SLICES + 1):
            for name in ORDER:
                slices = SLICES_OF.get(name, SLICES)
                if part % (SLICES // slices):
                    continue
                done = part * slices // SLICES
                share = PRIMARY_SHARE if name == workload else COMPANION_SHARE[name]
                start = time.perf_counter()
                least = -(-min_ops(name, workload) * done // slices)
                journeys[name].run(start + share * seconds / slices, least)
                windows.append((name, start, time.perf_counter()))
        for name in ORDER:
            start = time.perf_counter()
            journeys[name].finish()
            windows.append((name, start, time.perf_counter()))
    finally:
        close_all(journeys)
        gc.unfreeze()
    return windows


def end_to_end(journeys: dict, workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics, and the sample count behind each."""
    d, a, i, r = (journeys[n] for n in ORDER)
    tails = {n: tail_percentile(n, workload) for n in ORDER}
    # Each scenario's median, averaged so that every scenario weighs the same.
    replay = {
        mode: statistics.fmean(statistics.median(v) for v in by_scenario.values())
        for mode, by_scenario in r.ms.items()
    }
    metrics = {
        "catalog_p50_ms": statistics.median(d.catalog_ms),
        "catalog_tail_ms": percentile(d.catalog_ms, tails["discover"]),
        "assets_per_s": d.assets_decided / d.op_s,
        "acquire_p50_ms": statistics.median(a.acquire_ms),
        "acquire_tail_ms": percentile(a.acquire_ms, tails["acquire"]),
        "acquires_per_s": len(a.acquire_ms) / a.wall_s,
        "ingest_p50_ms": statistics.median(i.ingest_ms),
        "ingest_tail_ms": percentile(i.ingest_ms, tails["ingest"]),
        "transfer_mb_per_s": i.transfer_bytes / i.transfer_s / 1e6,
        "replay_http_p50_ms": replay["http"],
        "replay_inproc_p50_ms": replay["in-process"],
    }
    samples = {
        "catalog_ms": d.catalog_ms,
        "acquire_ms": a.acquire_ms,
        "ingest_ms": i.ingest_ms,
        "replay_ms": r.ms,
    }
    return metrics, samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sweep(seed: int) -> tuple[dict, list]:
    """fetch_catalog over HTTP at small catalog sizes."""
    from journeys import Discover

    metrics, run = {}, []
    for n in SWEEP_SIZES:
        probe = Discover(seed, n)
        probe.setup()
        try:
            metrics[f"connector.fetch_catalog.n{n}.p50_ms"] = statistics.median(
                probe.once() for _ in range(SWEEP_FETCHES)
            )
        finally:
            probe.close()
        run.append(probe)
    return metrics, run


def run_plain(args, work_dir: Path) -> tuple[dict, list, dict]:
    setup_times = []
    for attempt in range(SETUPS):
        journeys = build(args.workload, args.seed, work_dir)
        setup_times.append(set_up(journeys))
        if attempt < SETUPS - 1:
            close_all(journeys)
    measure(journeys, args.workload, args.seconds)
    metrics, samples = end_to_end(journeys, args.workload)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mib"] = peak_rss_mib()
    return metrics, list(journeys.values()), {"samples": samples, "setup_s_each": setup_times}


def run_traced(args, work_dir: Path) -> tuple[dict, list, dict]:
    from layers import per_layer
    from tracing import Tracer

    half = args.seconds / 2
    plain = build(args.workload, args.seed, work_dir)
    set_up(plain)
    measure(plain, args.workload, half)
    untraced, _ = end_to_end(plain, args.workload)

    tracer = Tracer()
    tracer.install()
    traced_journeys = build(args.workload, args.seed, work_dir)
    for journey in traced_journeys.values():
        journey.tag = tracer.request
    set_up(traced_journeys)
    tracer.spans.clear()
    windows = measure(traced_journeys, args.workload, half)
    traced, samples = end_to_end(traced_journeys, args.workload)
    swept, probes = sweep(args.seed)
    metrics = per_layer(tracer.spans, windows, traced_journeys)
    metrics.update(swept)
    for name in OVERHEAD_OF:
        metrics[f"trace.overhead.{name}.pct"] = (traced[name] / untraced[name] - 1) * 100
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    detail = {"samples": samples, "untraced": untraced, "traced": traced, "spans": len(tracer.spans)}
    return metrics, list(plain.values()) + list(traced_journeys.values()) + probes, detail


def environment(args) -> dict:
    import cryptography
    from journeys import ACQUIRE_CLIENTS

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "network": "loopback only",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
        "client_threads": {"discover": 1, "acquire": ACQUIRE_CLIENTS, "ingest": 1, "replay": 1},
        "tail_percentiles": {n: tail_percentile(n, args.workload) for n in ORDER[:3]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ORDER)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import dataloa
    except ImportError as exc:
        print(f"bench: cannot import dataloa from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(dataloa.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: dataloa comes from {dataloa.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    from layers import unit_of

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        runner = run_traced if args.trace else run_plain
        metrics, journeys, detail = runner(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(j.attempted for j in journeys)
    failures = [f for j in journeys for f in j.failures]
    env = environment(args)
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print("env " + json.dumps(env, sort_keys=True))
    counts = {k: len(v) for k, v in detail["samples"].items() if k != "replay_ms"}
    counts.update({f"replay_{mode}": sum(map(len, v.values())) for mode, v in detail["samples"]["replay_ms"].items()})
    print("samples " + json.dumps(counts, sort_keys=True))
    print(f"failed_ratio = {len(failures) / max(attempted, 1)} (of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS.get(name) or unit_of(name)}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS.get(name) or unit_of(name)} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, environment=env, detail=detail, failures=failures)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
