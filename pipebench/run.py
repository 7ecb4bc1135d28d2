#!/usr/bin/env python3
"""Pipeline benchmark runner: text -> verify -> admit -> fleet.

Run from the repository root::

    python3 pipebench/run.py --workload backfill-queue --seed 1 \\
        --seconds 20 --trace 0

Inputs are generated from ``--seed``; passes over them are replayed
until ``--seconds`` have been spent (at least one pass).  ``--trace 0``
reports the end-to-end metrics from uninstrumented passes, then runs a
validation pass with the occupancy invariant checker after every event
and measures set-up time in fresh processes.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics, and writes
the first traced pass's spans as Chrome trace-event JSON (open it in
Perfetto) under ``pipebench/out/``.

Every pass checks its outputs against known answers, and every pass of
a run must produce the same admission digest.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines are a human-readable log.
The runner exits non-zero, printing no result, when the library source
is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "pipebench" / "out"

#: Every end-to-end metric: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("release_p50_ms", "ms"),
    ("release_p90_ms", "ms"),
    ("admitted", "jobs"),
    ("qubits_saved", "qubits"),
    ("obligations_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Fresh processes timed for ``setup_s`` (after one warm-up start).
SETUP_REPEATS = 9
#: Workloads whose validation pass runs the invariant checker.
VALIDATED = ("qbr-ingest", "backfill-queue", "fleet-migrate")
PROBE_TIMEOUT_S = 60


def _load_library() -> None:
    """Put the checkout's source tree first on the path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: library source not found under {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"pipebench: imported repro from {repro.__file__}, not {SRC}"
        )


def _percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _run_passes(workload, inputs, seconds: float, traced: bool = False):
    """Replay passes until ``seconds`` are spent; returns
    ``(untraced passes, traced passes as (result, tracer))``.

    A further pass starts only when the previous one suggests it ends
    within the budget, so runs measure about ``seconds`` of replay.
    With ``traced``, untraced and traced passes alternate.
    """
    from pipebench.tracing import Tracer

    plain, with_spans = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        plain.append(workload.run_pass(inputs))
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                result = workload.run_pass(inputs)
            finally:
                tracer.uninstall()
            with_spans.append((result, tracer))
        took = time.perf_counter() - started
        if time.perf_counter() + took > deadline:
            return plain, with_spans


def _measure_setup(name: str) -> List[float]:
    """Process start to system built, in fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name]
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            took = time.perf_counter() - started
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}")
        if attempt:  # the first start warms the bytecode cache
            samples.append(took)
    return samples


def _probe_setup(name: str) -> int:
    """Child side of :func:`_measure_setup`."""
    _load_library()
    from pipebench.workloads import WORKLOADS

    WORKLOADS[name].build()
    print("ready", flush=True)
    return 0


def _timed_shape(result) -> tuple:
    return len(result.segments), len(result.submit_ms), len(result.release_ms)


def _consistency(passes) -> List[str]:
    """Failures from comparing passes that must agree exactly: every
    pass, the validation pass too, makes the same admissions and times
    the same operations."""
    first = passes[0]
    problems = []
    for index, other in enumerate(passes[1:], start=2):
        if other.digest != first.digest:
            problems.append(f"pass {index}: admission digest differs")
        if _timed_shape(other) != _timed_shape(first):
            problems.append(f"pass {index}: timed operations differ")
        if (other.admitted, other.qubits_saved) != (
            first.admitted,
            first.qubits_saved,
        ):
            problems.append(f"pass {index}: admitted/qubits_saved differ")
    return problems


def _per_operation(series: List[List[float]]) -> List[float]:
    """Each operation's median over the passes.

    Passes replay the same operations in the same order, so sample
    ``i`` of every pass times the same call; the median across passes
    drops a pass-long slowdown of the machine.  Passes that disagree
    in length have failed (see :func:`_consistency`).
    """
    return [statistics.median(samples) for samples in zip(*series)]


def _robust_wall(passes) -> float:
    """Wall time of one replay: the sum over segments of each segment's
    median over the passes (see :func:`_per_operation`)."""
    return sum(_per_operation([p.segments for p in passes]))


def _end_to_end(passes, setup: List[float], peak_mb: float) -> Dict:
    wall = _robust_wall(passes)
    submits = _per_operation([p.submit_ms for p in passes])
    releases = _per_operation([p.release_ms for p in passes])
    print(
        f"samples: passes={len(passes)} segments={len(passes[0].segments)} "
        f"submits={len(submits)} releases={len(releases)} "
        f"setup={len(setup)} replay_wall={wall:.3f}s"
    )
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": passes[0].jobs / wall,
        "submit_p50_ms": _percentile(submits, 50),
        "submit_p90_ms": _percentile(submits, 90),
        "release_p50_ms": _percentile(releases, 50),
        "release_p90_ms": _percentile(releases, 90),
        "admitted": passes[0].admitted,
        "qubits_saved": passes[0].qubits_saved,
        "obligations_per_s": passes[0].obligations / wall,
        "peak_rss_mb": peak_mb,
    }


def _layer_metrics(plain, with_spans, trace_path: Path) -> Dict:
    from pipebench.tracing import median_metrics

    runs = [tracer.layer_metrics(r, r.wall_s) for r, tracer in with_spans]
    merged = median_metrics(runs)
    traced_wall = _robust_wall([r for r, _ in with_spans])
    merged["trace.overhead_ratio"] = traced_wall / _robust_wall(plain)
    print(f"traced replay wall={traced_wall:.3f}s over {len(runs)} passes")
    written = with_spans[0][1].write_chrome_trace(trace_path)
    print(f"trace: {written} spans of the first traced pass -> {trace_path}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the per-pass input size, at most 1 (tests use "
             "small values)",
    )
    parser.add_argument("--out", type=Path, default=OUT,
                        help="directory for Chrome trace files")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    if args.setup_probe:
        return _probe_setup(args.workload)
    _load_library()
    from pipebench.tracing import PER_LAYER
    from pipebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.scale)
    plain, with_spans = _run_passes(
        workload, inputs, args.seconds, traced=bool(args.trace)
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = plain + [result for result, _ in with_spans]
    validation = None
    if not args.trace and args.workload in VALIDATED:
        validation = workload.run_pass(inputs, validate=True)
    checked = passes + ([validation] if validation else [])
    failures = [f for p in checked for f in p.failures]
    failures += _consistency(checked)
    for index, p in enumerate(checked, start=1):
        label = "validation" if p is validation else f"pass {index}"
        print(f"{label}: wall={p.wall_s:.3f}s jobs={p.jobs} "
              f"admitted={p.admitted} failures={len(p.failures)} "
              f"digest={p.digest}")
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)

    if args.trace:
        path = args.out / f"trace-{args.workload}-seed{args.seed}.json"
        values = _layer_metrics(plain, with_spans, path)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setup = _measure_setup(args.workload)
        values = _end_to_end(plain, setup, peak_mb)
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in checked),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
