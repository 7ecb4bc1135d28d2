"""Traced run: in-memory spans around each layer's public entry points.

:class:`Tracer` wraps the library from outside — module-level functions
are replaced wherever a ``repro`` module imported them, methods are
replaced on their class — and :meth:`Tracer.uninstall` puts every
original back, so untraced passes run the library untouched.  A span
records ``[name, start, end, parent, job, error]``; ``parent`` is the
index of the enclosing span (``-1`` at top level) and ``job`` the job
name taken from the call's arguments or inherited from the parent.
Counters are taken at the same boundaries (cache hits from the
verifier's reports, gates from the elaborated programs).

Layers are the library's modules: ``lang`` (``lang.surface``,
``lang.borrowck``), ``circuits``, ``verify`` (``verify.batch``,
``verify.tracking``, ``verify.backends``, ``sat``, ``bdd``), ``alloc``,
``scheduler`` (``multiprog.scheduler``) and ``fleet``
(``multiprog.fleet``).  The fleet's private ``_migrate``,
``_redistribute`` and ``_sync_shard_queues`` are wrapped too: they are
the steps whose cost the fleet-overhead baseline has to separate.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("lang", "circuits", "verify", "alloc", "scheduler", "fleet")

#: Every per-layer metric: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("lang.elaborate_s", "s", "lower"),
    ("lang.gates_per_s", "1/s", "higher"),
    ("lang.proven_wires", "count", "higher"),
    ("circuits.qasm_s", "s", "lower"),
    ("circuits.fingerprint_calls", "count", "lower"),
    ("circuits.fingerprint_s", "s", "lower"),
    ("circuits.fingerprints_per_job", "ratio", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.s", "s", "lower"),
    ("verify.cache_hits", "count", "higher"),
    ("verify.cache_misses", "count", "lower"),
    ("verify.hit_ratio", "ratio", "higher"),
    ("verify.track_s", "s", "lower"),
    ("verify.checker_builds", "count", "lower"),
    ("verify.checker_build_s", "s", "lower"),
    ("verify.solver_s", "s", "lower"),
    ("alloc.allocate_calls", "count", "lower"),
    ("alloc.allocate_s", "s", "lower"),
    ("alloc.materialise_s", "s", "lower"),
    ("alloc.build_model_s", "s", "lower"),
    ("alloc.stream_gates", "count", "higher"),
    ("alloc.stream_rollbacks", "count", "lower"),
    ("scheduler.admit_calls", "count", "lower"),
    ("scheduler.admit_failed", "count", "lower"),
    ("scheduler.admit_useful_ratio", "ratio", "higher"),
    ("scheduler.admit_s", "s", "lower"),
    ("scheduler.failed_admit_s", "s", "lower"),
    ("scheduler.failed_admit_share", "ratio", "lower"),
    ("scheduler.model_cache_hits", "count", "higher"),
    ("scheduler.model_cache_misses", "count", "lower"),
    ("scheduler.leases_granted", "count", "higher"),
    ("scheduler.expired", "count", "lower"),
    ("scheduler.queue_wait_events_mean", "events", "lower"),
    ("scheduler.stream_refinements", "count", "lower"),
    ("scheduler.stream_revocations", "count", "lower"),
    ("fleet.migrations", "count", "higher"),
    ("fleet.migrate_admit_calls", "count", "lower"),
    ("fleet.migrate_useful_ratio", "ratio", "higher"),
    ("fleet.migrate_s", "s", "lower"),
    ("fleet.queue_sync_s", "s", "lower"),
    ("fleet.release_self_s", "s", "lower"),
    ("lang.self_share", "ratio", "lower"),
    ("circuits.self_share", "ratio", "lower"),
    ("verify.self_share", "ratio", "lower"),
    ("alloc.self_share", "ratio", "lower"),
    ("scheduler.self_share", "ratio", "lower"),
    ("fleet.self_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

#: Chrome trace files keep at most this many spans (the first ones).
MAX_EXPORTED_SPANS = 200_000

_NAME, _START, _END, _PARENT, _JOB, _ERROR = range(6)


def _job_arg(args) -> Optional[str]:
    """Job name from ``(self, job_or_name, ...)`` call arguments."""
    if len(args) < 2:
        return None
    first = args[1]
    if isinstance(first, str):
        return first
    return getattr(first, "name", None)


def _stream_job(args) -> Optional[str]:
    return args[0].job.name


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def _wrap(
        self,
        name: str,
        fn: Callable,
        job_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            job = job_of(args) if job_of is not None else None
            if job is None and parent >= 0:
                job = spans[parent][_JOB]
            record = [name, clock(), 0.0, parent, job, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except StopIteration:
                raise
            except BaseException as exc:
                record[_ERROR] = type(exc).__name__
                raise
            finally:
                record[_END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch_function(self, name: str, fn: Callable, **hooks) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it."""
        wrapper = self._wrap(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(self, name: str, cls, attr: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **hooks))

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per tracer)."""
        if self._restore:
            return
        from repro.alloc import api as alloc_api
        from repro.alloc import model as alloc_model
        from repro.alloc.streaming import StreamingAllocator
        from repro.circuits import qasm
        from repro.circuits.circuit import Circuit
        lang = importlib.import_module("repro.lang.surface.elaborate")
        from repro.multiprog.fleet import FleetRouter
        from repro.multiprog.scheduler import (
            MultiProgrammer,
            StreamAdmission,
        )
        from repro.verify import batch
        from repro.verify.backends import available_backends, backend_class

        counts = self.counts

        def on_program(program):
            counts["lang.gates"] += len(program.circuit.gates)
            counts["lang.proven_wires"] += len(program.proven_wires)

        def on_reports(reports):
            for report in reports:
                counts["verify.cache_hits"] += report.cache_hits
                counts["verify.cache_misses"] += report.cache_misses

        self._patch_function("lang.iter_program", lang.iter_program)
        self._patch_method(
            "lang.result", lang.ProgramStream, "result", on_result=on_program
        )
        self._patch_function("lang.job_from_qbr", lang.job_from_qbr)
        self._patch_function("circuits.iter_qasm", qasm.iter_qasm_gates)
        self._patch_method("circuits.qasm_next", qasm.QasmStream, "__next__")
        self._patch_method("circuits.fingerprint", Circuit, "fingerprint")
        self._patch_function("verify.verify_qbr", lang.verify_qbr)
        self._patch_method(
            "verify.batch",
            batch.BatchVerifier,
            "verify_circuits",
            on_result=on_reports,
        )
        self._patch_function("verify.track", batch.track_circuit)
        self._patch_function("verify.checker_build", batch.make_checker)
        seen = set()
        for backend in available_backends():
            for cls in backend_class(backend).__mro__:
                if "check_qubit" in cls.__dict__ and cls not in seen:
                    seen.add(cls)
                    self._patch_method("verify.solve", cls, "check_qubit")
        self._patch_function("alloc.allocate", alloc_api.allocate)
        self._patch_function("alloc.materialise", alloc_api.materialise)
        self._patch_function("alloc.build_model", alloc_model.build_model)
        self._patch_method("alloc.stream_feed", StreamingAllocator, "feed")
        self._patch_method("alloc.stream_close", StreamingAllocator, "close")
        for attr in ("submit", "admit", "release", "admit_stream"):
            self._patch_method(
                f"scheduler.{attr}", MultiProgrammer, attr, job_of=_job_arg
            )
        self._patch_method("scheduler.drain", MultiProgrammer, "drain")
        for attr in ("feed", "close"):
            self._patch_method(
                f"scheduler.stream_{attr}",
                StreamAdmission,
                attr,
                job_of=_stream_job,
            )
        for attr in ("submit", "release"):
            self._patch_method(
                f"fleet.{attr}", FleetRouter, attr, job_of=_job_arg
            )
        self._patch_method(
            "fleet.migrate", FleetRouter, "_migrate", job_of=_job_arg
        )
        self._patch_method("fleet.redistribute", FleetRouter, "_redistribute")
        self._patch_method(
            "fleet.queue_sync", FleetRouter, "_sync_shard_queues"
        )

    def uninstall(self) -> None:
        """Put every wrapped attribute back, last patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def layer_metrics(self, result, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced pass (see :data:`PER_LAYER`).

        ``result`` is the pass's :class:`~pipebench.workloads.PassResult`
        (its end-of-pass system counters fill the scheduler metrics);
        ``wall_s`` is the traced pass's wall time.  ``trace.*`` metrics
        need the untraced wall time too and are added by the runner.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]

        def layer(span) -> str:
            return span[_NAME].split(".", 1)[0]

        count: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        top_total: Dict[str, float] = defaultdict(float)
        top_count: Dict[str, int] = defaultdict(int)
        self_time: Dict[str, float] = defaultdict(float)
        failed_admits = 0
        failed_admit_s = 0.0
        migrate_admits = 0
        verify_s = 0.0
        release_self_s = 0.0
        covered = 0.0
        # Parents precede children, so one forward sweep can carry each
        # span's set of ancestor names and whether a chain of fleet
        # spans links it to a fleet.release.
        empty: frozenset = frozenset()
        ancestors: List[frozenset] = []
        in_release: List[bool] = []
        for index, span in enumerate(spans):
            name = span[_NAME]
            parent = span[_PARENT]
            if parent >= 0:
                above = ancestors[parent] | {spans[parent][_NAME]}
            else:
                above = empty
            ancestors.append(above)
            is_fleet = name.startswith("fleet.")
            in_release.append(
                is_fleet
                and (
                    name == "fleet.release"
                    or (parent >= 0 and in_release[parent])
                )
            )
            duration = span[_END] - span[_START]
            own = duration - child_time[index]
            count[name] += 1
            total[name] += duration
            self_time[layer(span)] += own
            if parent < 0:
                covered += duration
            if name not in above:
                top_count[name] += 1
                top_total[name] += duration
            if name.startswith("verify.") and not any(
                a.startswith("verify.") for a in above
            ):
                verify_s += duration
            if name == "scheduler.admit":
                if span[_ERROR] == "CapacityError":
                    failed_admits += 1
                    failed_admit_s += duration
                if parent >= 0 and spans[parent][_NAME] == "fleet.migrate":
                    migrate_admits += 1
            if in_release[index]:
                release_self_s += own

        machines = result.machine_stats
        fleet = result.fleet_stats or {}

        def machine_sum(key: str) -> float:
            return sum(m[key] for m in machines)

        streams = [
            job for m in machines for job in m["streaming"]["jobs"].values()
        ]
        waited = sum(m["admitted_from_queue"] + m["expired"] for m in machines)
        hits = self.counts["verify.cache_hits"]
        misses = self.counts["verify.cache_misses"]
        admits = count["scheduler.admit"]
        migrations = fleet.get("migrations", 0)
        lang_s = self_time["lang"]
        metrics = {
            "lang.elaborate_s": lang_s,
            "lang.gates_per_s": _ratio(self.counts["lang.gates"], lang_s),
            "lang.proven_wires": self.counts["lang.proven_wires"],
            "circuits.qasm_s": total["circuits.qasm_next"]
            + total["circuits.iter_qasm"],
            "circuits.fingerprint_calls": count["circuits.fingerprint"],
            "circuits.fingerprint_s": top_total["circuits.fingerprint"],
            "circuits.fingerprints_per_job": _ratio(
                count["circuits.fingerprint"], result.jobs
            ),
            "verify.calls": count["verify.batch"],
            "verify.s": verify_s,
            "verify.cache_hits": hits,
            "verify.cache_misses": misses,
            "verify.hit_ratio": _ratio(hits, hits + misses),
            "verify.track_s": top_total["verify.track"],
            "verify.checker_builds": top_count["verify.checker_build"],
            "verify.checker_build_s": top_total["verify.checker_build"],
            "verify.solver_s": top_total["verify.solve"],
            "alloc.allocate_calls": count["alloc.allocate"],
            "alloc.allocate_s": top_total["alloc.allocate"],
            "alloc.materialise_s": top_total["alloc.materialise"],
            "alloc.build_model_s": top_total["alloc.build_model"],
            "alloc.stream_gates": sum(job["gates"] for job in streams),
            "alloc.stream_rollbacks": sum(job["rollbacks"] for job in streams),
            "scheduler.admit_calls": admits,
            "scheduler.admit_failed": failed_admits,
            "scheduler.admit_useful_ratio": _ratio(
                admits - failed_admits, admits
            ),
            "scheduler.admit_s": top_total["scheduler.admit"],
            "scheduler.failed_admit_s": failed_admit_s,
            "scheduler.failed_admit_share": _ratio(failed_admit_s, wall_s),
            "scheduler.model_cache_hits": machine_sum("model_cache_hits"),
            "scheduler.model_cache_misses": machine_sum("model_cache_misses"),
            "scheduler.leases_granted": machine_sum("leases_granted"),
            "scheduler.expired": machine_sum("expired"),
            "scheduler.queue_wait_events_mean": _ratio(
                machine_sum("total_wait_events"), waited
            ),
            "scheduler.stream_refinements": sum(
                m["streaming"]["refinements"] for m in machines
            ),
            "scheduler.stream_revocations": sum(
                m["streaming"]["lease_revocations"]
                + m["streaming"]["revoked_to_queue"]
                for m in machines
            ),
            "fleet.migrations": migrations,
            "fleet.migrate_admit_calls": migrate_admits,
            "fleet.migrate_useful_ratio": _ratio(migrations, migrate_admits),
            "fleet.migrate_s": top_total["fleet.migrate"],
            "fleet.queue_sync_s": top_total["fleet.queue_sync"],
            "fleet.release_self_s": release_self_s,
            "trace.unattributed_share": _ratio(wall_s - covered, wall_s),
        }
        for name in LAYERS:
            metrics[f"{name}.self_share"] = _ratio(self_time[name], wall_s)
        return metrics

    def write_chrome_trace(self, path: Path) -> int:
        """Write spans as Chrome trace-event JSON (opens in Perfetto).

        Returns the number of spans written (at most
        :data:`MAX_EXPORTED_SPANS`).
        """
        spans = self.spans[:MAX_EXPORTED_SPANS]
        origin = spans[0][_START] if spans else 0.0
        events = []
        for index, span in enumerate(spans):
            args = {"span": index, "parent": span[_PARENT]}
            if span[_JOB] is not None:
                args["job"] = span[_JOB]
            if span[_ERROR] is not None:
                args["error"] = span[_ERROR]
            events.append(
                {
                    "name": span[_NAME],
                    "cat": span[_NAME].split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span[_START] - origin) * 1e6, 3),
                    "dur": round((span[_END] - span[_START]) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Metric-wise median over several traced passes."""
    return {
        name: statistics.median(run[name] for run in runs)
        for name in runs[0]
    }
