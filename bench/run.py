"""Benchmark runner for regcycle.

    python3 bench/run.py --workload {corpus,witness,bounds,cli} --seed N \
        --seconds S --trace {0,1}

One process, one client, closed loop: the next item starts only after the
previous one returned and its output was checked. With ``--trace 0`` the
last stdout line is the end-to-end result; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run, whose spans are written to
``.bench_out/trace-<workload>.jsonl.gz``. The line before it carries the
details: machine, sample counts, the tail percentile used, each stream's
share of the items and of the measured time, and any failures. The per-layer
metrics reported are the ``per_layer`` entries of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracing import Tracer, layer_value, summarize  # noqa: E402

WORKLOAD_NAMES = ("corpus", "witness", "bounds", "cli")
# Set-up is timed once in this process and SETUP_PROBES times in a fresh
# interpreter on each side of the timed phase, so that a short slow spell
# of the machine does not decide the median.
SETUP_PROBES = 1
# Share of --seconds the traced run spends untraced, to price the tracing.
BASELINE_SHARE = 1 / 3
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
MAX_REPORTED_FAILURES = 20


def timed_setup(name: str, seed: int, tracer=None):
    """Import the package and build the workload's inputs, timed together."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, tracer)
    return workload, time.perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so imports count."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import mpmath
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


@dataclass
class Phase:
    attempted: int = 0
    busy_ns: int = 0
    cpu_ns: int = 0
    latencies_ns: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    next_index: int = 0
    # Per stream label: [items, busy ns].
    streams: dict = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return self.attempted / (self.busy_ns / 1e9)

    def shares(self) -> dict:
        """Each stream's share of the items and of the measured time."""
        return {
            label: {"items": n / self.attempted, "time": ns / self.busy_ns}
            for label, (n, ns) in sorted(self.streams.items())
        }


def measure(workload, seconds: float, start_index: int = 0, tracer=None) -> Phase:
    """Closed loop over the workload's items for ``seconds`` of wall time,
    and at least one item.

    Only the call into the package is timed; checking its output is not.
    An exception or a failed check counts as a failure of that item.
    """
    items = workload.items
    phase = Phase()
    i = start_index
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    deadline = clock() + int(seconds * 1e9)
    while phase.attempted == 0 or clock() < deadline:
        item = items[i % len(items)]
        error = result = None
        c0, t0 = cpu_clock(), clock()
        try:
            if tracer is None:
                result = workload.run(item)
            else:
                tracer.item = i
                with tracer.span("bench.item"):
                    result = workload.run_traced(item, tracer)
        except Exception as exc:  # any failure of the package is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = clock(), cpu_clock()
        if error is None:
            try:
                error = workload.check(item, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        phase.attempted += 1
        phase.busy_ns += t1 - t0
        phase.cpu_ns += c1 - c0
        phase.latencies_ns.append(t1 - t0)
        tally = phase.streams.setdefault(workload.stream(item), [0, 0])
        tally[0] += 1
        tally[1] += t1 - t0
        if error is not None:
            phase.failures.append({"index": i, "error": error})
        i += 1
    phase.next_index = i
    return phase


def tail_percentile(samples: int, preferred: float) -> float:
    """The workload's tail percentile, or the highest below it that still has
    MIN_BEYOND samples beyond it when the run was short."""
    for p in TAIL_LADDER:
        if p <= preferred and samples - math.ceil(p * samples / 100) >= MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def percentile_ms(sorted_ns: list, p: float) -> float:
    rank = max(1, math.ceil(p * len(sorted_ns) / 100))
    return sorted_ns[rank - 1] / 1e6


def warm_up(workload) -> None:
    for item in workload.warmup:
        workload.run(item)
    gc.collect()
    gc.freeze()
    workload.child_cpu_ns = 0
    workload.child_peak_kb = 0


def end_to_end(name: str, seed: int, seconds: float):
    workload, first = timed_setup(name, seed)
    setups = [first] + [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    warm_up(workload)
    phase = measure(workload, seconds)
    setups += [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    lat = sorted(phase.latencies_ns)
    tail = tail_percentile(len(lat), workload.tail_percentile)
    cpu_ns = phase.cpu_ns + workload.child_cpu_ns
    if workload.child_peak_kb:
        peak_kb = workload.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (phase.items_per_s, "1/s"),
        "item_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "item_ms_tail": (percentile_ms(lat, tail), "ms"),
        "cpu_ms_per_item": (cpu_ns / 1e6 / phase.attempted, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "samples": phase.attempted,
        "tail_percentile": tail,
        "setup_runs_s": setups,
        "fail_frac": len(phase.failures) / phase.attempted,
        "pool_items": len(workload.items),
        "stream_share": phase.shares(),
    }
    if hasattr(workload, "negatives"):
        detail["negative_verdicts_confirmed"] = workload.negatives
    return metrics, detail, phase.attempted, phase.failures


def traced(name: str, seed: int, seconds: float):
    tracer = Tracer()
    workload, _ = timed_setup(name, seed, tracer)
    warm_up(workload)
    base = measure(workload, seconds * BASELINE_SHARE)
    phase = measure(workload, seconds, base.next_index, tracer)
    stats = summarize(tracer.spans)
    metrics = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["per_layer"]:
        if entry["name"] == "trace.overhead_frac":
            value = base.items_per_s / phase.items_per_s - 1
        else:
            value = layer_value(entry["name"], stats, tracer.counts)
        metrics[entry["name"]] = (value, entry["unit"])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{name}.jsonl.gz"
    tracer.write(trace_path)
    detail = {
        "samples": phase.attempted,
        "baseline_samples": base.attempted,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, detail, base.attempted + phase.attempted, base.failures + phase.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, elapsed = timed_setup(args.workload, args.seed)
        print(repr(elapsed))
        return 0

    run = traced if args.trace else end_to_end
    metrics, detail, attempted, failures = run(args.workload, args.seed, args.seconds)
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED item {failure['index']}: {failure['error']}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine_info(),
        failed=len(failures),
        failures=failures[:MAX_REPORTED_FAILURES],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
