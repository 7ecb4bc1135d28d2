"""Workload inputs, closed-loop replay passes and known-answer checks.

Every workload is a closed loop with one client: each ``submit`` /
``release`` / ``feed`` call returns before the next one is made, and
the scheduler decides on its logical clock (no ``deadline_s``), so
every count depends on the seed alone.  Inputs are generated from the
seed before any timing starts.  A *pass* replays all of a workload's
inputs once against freshly built systems and returns a
:class:`PassResult`; the runner repeats passes to fill its time budget.

Library calls go through module attributes (``surface.iter_program``,
``qasm.iter_qasm_gates``) so the traced run's wrappers, installed on
those attributes, see the same calls the untraced run makes.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.circuits import qasm
from repro.errors import CapacityError
from repro.lang import surface
from repro.lang.surface.sources import adder_qbr_source, mcx_qbr_source
from repro.multiprog import (
    BorrowRequest,
    FleetRouter,
    MultiProgrammer,
    QuantumJob,
    ShardSpec,
)
from repro.testing.generators import (
    lender_job,
    random_arrival_trace,
    random_fleet_trace,
    random_reversible_circuit,
)
from repro.testing.invariants import (
    FleetInvariantChecker,
    OccupancyInvariantChecker,
)

#: Widest circuit the exhaustive oracle simulates (2**n-bit integers).
ORACLE_MAX_WIRES = 20

# Per-pass sizes at scale 1.0.  One pass takes roughly 4-7 s on a
# 2-CPU x86 box; see NOTES.md for the measured figures.
INGEST_ITEMS_PER_KIND = 60
INGEST_CHUNK = 12
INGEST_MACHINE = 800
INGEST_LENDER_WIDTH = 96
INGEST_RESIDENTS = 2
# A release on the ingest machine takes ~40 us, too short to time one
# by one; releases are timed in batches and each sample is the mean.
INGEST_RELEASE_BATCH = 6
INGEST_QASM_PREFIX = 24
BACKFILL_TRACES = 16
BACKFILL_TRACE_JOBS = 80
FLEET_TRACES = 30
FLEET_TRACE_JOBS = 40
# Release probabilities below the generators' defaults keep the queue
# busy.  With the defaults a fifth of all releases find an empty queue
# and cost ~10 us.  The median release then falls in the gap between
# those and the draining releases, and moves 25% between seeds.
BACKFILL_RELEASE_PROBABILITY = 0.3
FLEET_RELEASE_PROBABILITY = 0.25
PAPER_MACHINE = 720
PAPER_LENDER_WIDTH = 130

#: (kind, size, backend) of the paper-verify programs, one pass.
#: ``spoiled-adder`` is the Figure 6.2 adder with a trailing ``X`` on
#: one carry ancilla, chosen by the seed.
PAPER_PROGRAMS: Tuple[Tuple[str, int, str], ...] = (
    ("adder", 20, "cdcl"),
    ("adder", 12, "cdcl"),
    ("spoiled-adder", 14, "cdcl"),
    ("mcx", 250, "cdcl"),
    ("mcx", 100, "cdcl"),
    ("mcx", 150, "bdd"),
    ("adder", 120, "bdd"),
    ("adder", 80, "bdd"),
)


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #


@dataclass
class PassResult:
    """What one replay of a workload's inputs did and how long it took."""

    #: Wall time of the replay, first event to last (seconds).
    wall_s: float = 0.0
    #: Wall time of each segment of the replay (a sub-trace, a chunk
    #: of ingest items, one paper program), in replay order.
    segments: List[float] = field(default_factory=list)
    #: Jobs or programs submitted.
    jobs: int = 0
    submit_ms: List[float] = field(default_factory=list)
    release_ms: List[float] = field(default_factory=list)
    admitted: int = 0
    qubits_saved: int = 0
    #: Dirty-qubit obligations of the submitted jobs: the wires each
    #: job asks to borrow, counted once per submit whatever the
    #: scheduler does with them, like ``verify_qbr``'s verdicts.
    obligations: int = 0
    #: Operations attempted (submits, releases, verifications).
    attempted: int = 0
    #: One line per failed operation or failed check.
    failures: List[str] = field(default_factory=list)
    #: Admission log: one line per admission, in admission order.
    log: List[str] = field(default_factory=list)
    #: System counters at the end of the pass (``stats()`` per machine).
    machine_stats: List[dict] = field(default_factory=list)
    #: ``fleet_stats()`` routing counters, fleet workloads only.
    fleet_stats: Optional[dict] = None

    @property
    def digest(self) -> str:
        """Hash of the admission log: names in order plus plans."""
        h = hashlib.blake2b(digest_size=16)
        for line in self.log:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()


def _plan_line(tag: str, adm) -> str:
    plan = adm.plan
    return (
        f"{tag}|wires={list(adm.wires)}"
        f"|cross={sorted(adm.cross_hosts.items())}"
        f"|assign={sorted(plan.assignment.items())}"
        f"|unplaced={list(plan.unplaced)}|width={plan.final_width}"
    )


def _check_admission(
    name: str, adm, expected: Dict[int, bool], failures: List[str]
) -> None:
    """Known-answer check of one admission against ``expected``.

    Every verdict the scheduler holds must equal the known answer, and
    no ancilla whose known answer is unsafe may be placed on a host or
    leased across programs.
    """
    for wire, safe in sorted(adm.safety.items()):
        if wire not in expected:
            failures.append(f"{name}: verdict for unrequested wire {wire}")
        elif bool(safe) != expected[wire]:
            failures.append(
                f"{name}: wire {wire} verified "
                f"{'safe' if safe else 'unsafe'}, known answer "
                f"{'safe' if expected[wire] else 'unsafe'}"
            )
    for wire in sorted({*adm.cross_hosts, *adm.plan.assignment}):
        if not expected.get(wire, False):
            failures.append(f"{name}: unsafe wire {wire} was borrowed")


def _unexpected(name: str, failures: List[str]) -> None:
    """Record an unexpected exception at an operation boundary."""
    last = traceback.format_exc().strip().splitlines()[-1]
    failures.append(f"{name}: unexpected exception: {last}")


# ---------------------------------------------------------------------- #
# Known answers
# ---------------------------------------------------------------------- #


def oracle_safety(circuit, wires: Sequence[int]) -> Dict[int, bool]:
    """Decide Definition 3.1 for each wire by exhaustive simulation.

    Bit-sliced: wire ``q`` holds a ``2**n``-bit integer whose bit ``i``
    is the wire's value on input assignment ``i``, so each classical
    gate is one integer operation over every input at once.  A wire is
    safe iff it ends equal to its initial value on every input and no
    other wire's final value depends on its initial value.  Shares no
    code with the verification backends.
    """
    n = circuit.num_qubits
    if n > ORACLE_MAX_WIRES:
        raise ValueError(f"oracle limited to {ORACLE_MAX_WIRES} wires")
    size = 1 << n
    ones = (1 << size) - 1
    init = []
    for q in range(n):
        half = 1 << q
        period = 2 * half
        unit = ((1 << half) - 1) << half
        init.append(unit * (ones // ((1 << period) - 1)))
    state = list(init)
    for gate in circuit.gates:
        if not gate.is_classical:
            raise ValueError(f"oracle needs classical gates, got {gate}")
        *controls, target = gate.qubits
        fire = ones
        for c in controls:
            fire &= state[c]
        state[target] ^= fire
    verdicts = {}
    for a in wires:
        shift = 1 << a
        low = ones ^ init[a]
        safe = state[a] == init[a] and all(
            ((state[q] >> shift) ^ state[q]) & low == 0
            for q in range(n)
            if q != a
        )
        verdicts[a] = safe
    return verdicts


def scoped_borrow_source(rng: random.Random) -> str:
    """A ``.qbr`` program of scoped ``borrow { within / apply }`` blocks.

    Each block computes into its borrowed wire from input controls and
    reads it once per apply gate against clean controls, the shape the
    borrow checker proves safe, so every dirty wire's known answer is
    safe.
    """
    inputs = rng.randint(4, 8)
    targets = rng.randint(2, 4)
    lines = [f"borrow@ q[{inputs}];", f"alloc t[{targets}];"]
    for b in range(1, rng.randint(3, 8) + 1):
        within = []
        touched = set()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                c1, c2 = rng.sample(range(1, inputs + 1), 2)
                within.append(f"CCNOT[q[{c1}], q[{c2}], b{b}];")
                touched.update((c1, c2))
            else:
                c = rng.randint(1, inputs)
                within.append(f"CNOT[q[{c}], b{b}];")
                touched.add(c)
        # An apply-section control must be a wire the within-section
        # leaves alone (BQ010), so it is the same in both phases.
        stable = [c for c in range(1, inputs + 1) if c not in touched]
        apply = []
        for _ in range(rng.randint(1, 2)):
            t = rng.randint(1, targets)
            if stable and rng.random() < 0.5:
                c = rng.choice(stable)
                apply.append(f"CCNOT[b{b}, q[{c}], t[{t}]];")
            else:
                apply.append(f"CNOT[b{b}, t[{t}]];")
        lines.append(
            f"borrow b{b} {{ within {{ {' '.join(within)} }} "
            f"apply {{ {' '.join(apply)} }} }}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Workload base
# ---------------------------------------------------------------------- #


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


class Workload:
    """One benchmark workload: inputs from a seed, systems, passes."""

    name = "?"

    def generate(self, seed: int, scale: float = 1.0):
        """The workload's inputs for ``seed`` (deterministic)."""
        raise NotImplementedError

    def build(self):
        """Build the system a pass drives (scheduler, fleet, verifier)."""
        raise NotImplementedError

    def run_pass(self, inputs, validate: bool = False) -> PassResult:
        """Replay ``inputs`` once; ``validate`` checks invariants after
        every event (slow: used outside the timed passes)."""
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# qbr-ingest
# ---------------------------------------------------------------------- #


@dataclass
class IngestItem:
    kind: str
    name: str
    text: str
    #: Known answer by requested ancilla for QASM items; ``None`` =
    #: every dirty wire of the elaborated program is safe.
    expected: Optional[Dict[int, bool]] = None


class QbrIngest(Workload):
    """Source text through the front ends onto a wide machine."""

    name = "qbr-ingest"

    def generate(self, seed: int, scale: float = 1.0) -> List[IngestItem]:
        rng = random.Random(seed)
        per_kind = _count(INGEST_ITEMS_PER_KIND, scale)
        items: List[IngestItem] = []
        # Paper-program sizes are spread evenly over their ranges rather
        # than drawn: every seed then holds the same sizes, so the same
        # verifier memo hits, and the seed changes the order and the
        # generated programs but not how much work a pass holds.  Drawn
        # sizes moved a pass's gate count by 0.08-0.1 (IQR/median)
        # between seeds.
        last = max(1, per_kind - 1)
        for i in range(per_kind):
            items.append(
                IngestItem("adder", f"adder{i}",
                           adder_qbr_source(6 + 18 * i // last))
            )
            items.append(
                IngestItem("mcx", f"mcx{i}",
                           mcx_qbr_source(4 + 36 * i // last))
            )
            items.append(
                IngestItem("scoped", f"scoped{i}", scoped_borrow_source(rng))
            )
            num_data = rng.randint(2, 4)
            num_ancillas = rng.randint(1, 4)
            ancillas = tuple(range(num_data, num_data + num_ancillas))
            spoiled = tuple(a for a in ancillas if rng.random() < 0.3)
            circuit, _ = random_reversible_circuit(
                rng.getrandbits(32),
                num_data=num_data,
                num_ancillas=num_ancillas,
                segment_gates=rng.randint(2, 5),
                middle_gates=rng.randint(16, 48),
                spoiled=spoiled,
            )
            items.append(
                IngestItem(
                    "qasm",
                    f"qasm{i}",
                    qasm.to_qasm(circuit),
                    expected={a: a not in spoiled for a in ancillas},
                )
            )
        rng.shuffle(items)
        return items

    def build(self) -> MultiProgrammer:
        mp = MultiProgrammer(INGEST_MACHINE, backend="bdd", max_workers=1)
        mp.admit(lender_job("lender", INGEST_LENDER_WIDTH, 2))
        return mp

    def run_pass(self, inputs, validate: bool = False) -> PassResult:
        mp = self.build()
        check = OccupancyInvariantChecker(mp) if validate else None
        res = PassResult()
        done: List[Tuple[IngestItem, object, object]] = []
        live: Deque[str] = deque()
        clock = time.perf_counter
        start = mark = clock()
        for position, item in enumerate(inputs, start=1):
            res.jobs += 1
            res.attempted += 1
            t0 = clock()
            try:
                program, adm = self._submit(mp, item)
            except Exception:
                _unexpected(item.name, res.failures)
                continue
            res.submit_ms.append((clock() - t0) * 1e3)
            res.obligations += len(
                item.expected if program is None else program.dirty_wires
            )
            done.append((item, program, adm))
            live.append(item.name)
            if len(live) == INGEST_RESIDENTS + INGEST_RELEASE_BATCH:
                self._release(mp, live, res)
            if check is not None:
                check()
            if position % INGEST_CHUNK == 0 and position < len(inputs):
                now = clock()
                res.segments.append(now - mark)
                mark = now
        while live:
            self._release(mp, live, res)
        end = clock()
        res.segments.append(end - mark)
        res.wall_s = end - start
        mp.release("lender")
        if mp.residents or mp.pending():
            res.failures.append("machine or queue not empty at the end")
        for item, program, adm in done:
            self._check(item, program, adm, res)
        res.machine_stats = [mp.stats()]
        return res

    @staticmethod
    def _submit(mp: MultiProgrammer, item: IngestItem):
        if item.kind == "qasm":
            stream = qasm.iter_qasm_gates(item.text)
            prefix = []
            for gate in stream:
                prefix.append(gate)
                if len(prefix) == INGEST_QASM_PREFIX:
                    break
            handle = mp.admit_stream(
                item.name, stream.num_qubits, tuple(item.expected),
                prefix=prefix,
            )
            for gate in stream:
                handle.feed(gate)
            adm = handle.close()
            if adm is None:
                raise RuntimeError(f"{item.name} was revoked to the queue")
            return None, adm
        program = surface.iter_program(item.text).result()
        job = surface.job_from_qbr(item.name, program)
        outcome = mp.submit(job)
        if not outcome.admitted:
            raise RuntimeError(f"{item.name} was queued on a wide machine")
        return program, outcome.admission

    @staticmethod
    def _release(mp: MultiProgrammer, live: Deque[str], res: PassResult):
        """Release up to ``INGEST_RELEASE_BATCH`` of the oldest
        residents; one sample, the mean time per release."""
        batch = min(INGEST_RELEASE_BATCH, len(live))
        names = [live.popleft() for _ in range(batch)]
        res.attempted += len(names)
        t0 = time.perf_counter()
        for name in names:
            try:
                mp.release(name)
            except Exception:
                _unexpected(name, res.failures)
                return
        took = time.perf_counter() - t0
        res.release_ms.append(took * 1e3 / len(names))

    @staticmethod
    def _check(item: IngestItem, program, adm, res: PassResult) -> None:
        res.admitted += 1
        res.qubits_saved += adm.qubits_saved
        res.log.append(_plan_line(item.name, adm))
        if item.expected is not None:
            expected = item.expected
        else:
            expected = {w: True for w in program.dirty_wires}
            if item.kind == "scoped" and sorted(
                program.proven_wires
            ) != sorted(program.dirty_wires):
                res.failures.append(
                    f"{item.name}: borrow checker proved "
                    f"{program.proven_wires} of {program.dirty_wires}"
                )
        if item.kind == "qasm" and set(adm.safety) != set(expected):
            res.failures.append(
                f"{item.name}: closed stream verified {sorted(adm.safety)}"
                f" of {sorted(expected)}"
            )
        _check_admission(item.name, adm, expected, res.failures)


# ---------------------------------------------------------------------- #
# backfill-queue and fleet-migrate: seeded arrival traces
# ---------------------------------------------------------------------- #


@dataclass
class TraceInputs:
    traces: List[list]
    #: (trace index, job name) -> known answer by requested wire.
    expected: Dict[Tuple[int, str], Dict[int, bool]]


def _trace_inputs(traces: List[list]) -> TraceInputs:
    expected: Dict[Tuple[int, str], Dict[int, bool]] = {}
    by_circuit: Dict[int, Dict[int, bool]] = {}
    for index, trace in enumerate(traces):
        for event in trace:
            if event.kind != "submit":
                continue
            job = event.job
            key = id(job.circuit)
            if key not in by_circuit:
                by_circuit[key] = oracle_safety(job.circuit, job.request_wires)
            expected[(index, job.name)] = by_circuit[key]
    return TraceInputs(traces, expected)


class _TraceWorkload(Workload):
    """Replays arrival traces through ``submit``/``release``."""

    def checker(self, system):
        raise NotImplementedError

    def run_pass(self, inputs: TraceInputs, validate: bool = False):
        system = self.build()
        check = self.checker(system) if validate else None
        res = PassResult()
        admitted: List[Tuple[int, str, object]] = []
        clock = time.perf_counter
        start = mark = clock()
        for index, trace in enumerate(inputs.traces):
            for event in trace:
                backfilled: Sequence[str] = ()
                if event.kind == "submit":
                    job = event.job
                    res.jobs += 1
                    res.attempted += 1
                    t0 = clock()
                    try:
                        outcome = system.submit(job, timeout=event.timeout)
                    except CapacityError:
                        outcome = None  # rejected outright: an outcome
                    except Exception:
                        _unexpected(job.name, res.failures)
                        continue
                    res.submit_ms.append((clock() - t0) * 1e3)
                    res.obligations += len(job.request_wires)
                    if outcome is not None and outcome.admitted:
                        admitted.append((index, job.name, outcome.admission))
                        backfilled = outcome.backfilled
                else:
                    residents = system.residents
                    if not residents:
                        continue
                    name = residents[event.pick % len(residents)]
                    res.attempted += 1
                    t0 = clock()
                    try:
                        system.release(name)
                    except Exception:
                        _unexpected(name, res.failures)
                        continue
                    res.release_ms.append((clock() - t0) * 1e3)
                    backfilled = system.last_backfilled
                for name in backfilled:
                    admitted.append((index, name, system.admission(name)))
                if check is not None:
                    check()
            if system.residents or system.pending():
                res.failures.append(
                    f"trace {index}: machine or queue not empty after the "
                    f"drain tail"
                )
            now = clock()
            res.segments.append(now - mark)
            mark = now
        res.wall_s = clock() - start
        for index, name, adm in admitted:
            res.admitted += 1
            res.qubits_saved += adm.qubits_saved
            res.log.append(_plan_line(f"{index}:{name}", adm))
            _check_admission(
                name, adm, inputs.expected[(index, name)], res.failures
            )
        self.collect_stats(system, res)
        return res

    def collect_stats(self, system, res: PassResult) -> None:
        res.machine_stats = [system.stats()]


class BackfillQueue(_TraceWorkload):
    """A 12-qubit machine with a backfill queue and segmented lending."""

    name = "backfill-queue"

    def generate(self, seed: int, scale: float = 1.0) -> TraceInputs:
        rng = random.Random(seed)
        traces = [
            random_arrival_trace(
                rng.getrandbits(32),
                num_jobs=BACKFILL_TRACE_JOBS,
                max_data=7,
                release_probability=BACKFILL_RELEASE_PROBABILITY,
            )
            for _ in range(_count(BACKFILL_TRACES, scale))
        ]
        return _trace_inputs(traces)

    def build(self) -> MultiProgrammer:
        return MultiProgrammer(
            12,
            backend="bdd",
            strategy="greedy",
            max_workers=1,
            queue_policy="backfill",
            lending="segmented",
        )

    def checker(self, system):
        return OccupancyInvariantChecker(system)


#: Per-shard settings of fleet-migrate: those of backfill-queue.
FLEET_SHARD = ShardSpec(
    11, strategy="greedy", queue_policy="backfill", lending="segmented"
)


class FleetMigrate(_TraceWorkload):
    """Two 11-qubit shards behind a least-loaded ``FleetRouter``."""

    name = "fleet-migrate"

    def generate(self, seed: int, scale: float = 1.0) -> TraceInputs:
        rng = random.Random(seed)
        traces = [
            random_fleet_trace(
                rng.getrandbits(32),
                num_jobs=FLEET_TRACE_JOBS,
                release_probability=FLEET_RELEASE_PROBABILITY,
            )
            for _ in range(_count(FLEET_TRACES, scale))
        ]
        return _trace_inputs(traces)

    def build(self) -> FleetRouter:
        return FleetRouter(
            [FLEET_SHARD, FLEET_SHARD],
            placement="least-loaded",
            backend="bdd",
            max_workers=1,
        )

    def checker(self, system):
        return FleetInvariantChecker(system)

    def collect_stats(self, system, res: PassResult) -> None:
        res.fleet_stats = system.fleet_stats()
        res.machine_stats = list(res.fleet_stats["shards"].values())


# ---------------------------------------------------------------------- #
# paper-verify
# ---------------------------------------------------------------------- #


@dataclass
class PaperItem:
    name: str
    text: str
    backend: str
    #: Label of the spoiled carry ancilla, or ``None`` (all safe).
    spoiled: Optional[str] = None


class PaperVerify(Workload):
    """``verify_qbr`` on the paper's programs, then admission of the
    verified borrows onto a co-tenant's idle wires."""

    name = "paper-verify"

    def generate(self, seed: int, scale: float = 1.0) -> List[PaperItem]:
        rng = random.Random(seed)
        items = []
        # Below scale 1 the programs shrink (tests).
        for i, (kind, size, backend) in enumerate(PAPER_PROGRAMS):
            size = max(4, round(size * scale))
            name = f"{kind}{size}-{backend}-{i}"
            if kind == "mcx":
                items.append(PaperItem(name, mcx_qbr_source(size), backend))
            elif kind == "adder":
                items.append(PaperItem(name, adder_qbr_source(size), backend))
            else:
                k = rng.randint(1, size - 1)
                text = adder_qbr_source(size) + f"X[a[{k}]];\n"
                items.append(PaperItem(name, text, backend, f"a[{k}]"))
        rng.shuffle(items)
        return items

    def build(self) -> MultiProgrammer:
        mp = MultiProgrammer(PAPER_MACHINE, backend="bdd", max_workers=1)
        mp.admit(lender_job("lender", PAPER_LENDER_WIDTH, 2))
        return mp

    def run_pass(self, inputs, validate: bool = False) -> PassResult:
        mp = self.build()
        check = OccupancyInvariantChecker(mp) if validate else None
        res = PassResult()
        done = []
        clock = time.perf_counter
        start = clock()
        for item in inputs:
            res.jobs += 1
            res.attempted += 2
            t0 = mark = clock()
            try:
                program = surface.iter_program(item.text).result()
                report = surface.verify_qbr(program, backend=item.backend)
                safe = [v.qubit for v in report.verdicts if v.safe]
                job = QuantumJob(
                    item.name,
                    program.circuit,
                    [BorrowRequest(w, certified=True) for w in safe],
                )
                outcome = mp.submit(job)
            except Exception:
                _unexpected(item.name, res.failures)
                continue
            res.submit_ms.append((clock() - t0) * 1e3)
            res.obligations += len(report.verdicts)
            if not outcome.admitted:
                res.failures.append(f"{item.name}: not admitted")
                continue
            done.append((item, program, report, outcome.admission))
            res.attempted += 1
            t0 = clock()
            try:
                mp.release(item.name)
            except Exception:
                _unexpected(item.name, res.failures)
                continue
            now = clock()
            res.release_ms.append((now - t0) * 1e3)
            res.segments.append(now - mark)
            if check is not None:
                check()
        res.wall_s = clock() - start
        mp.release("lender")
        if mp.residents or mp.pending():
            res.failures.append("machine or queue not empty at the end")
        for item, program, report, adm in done:
            labels = program.circuit.labels
            expected = {
                w: labels[w] != item.spoiled for w in program.dirty_wires
            }
            verdicts = {v.qubit: v.safe for v in report.verdicts}
            if set(verdicts) != set(expected):
                res.failures.append(
                    f"{item.name}: verified {sorted(verdicts)} of "
                    f"{sorted(expected)}"
                )
            for wire, safe in sorted(verdicts.items()):
                if safe != expected.get(wire):
                    res.failures.append(
                        f"{item.name}: {labels[wire]} verified "
                        f"{'safe' if safe else 'unsafe'} against its "
                        f"known answer"
                    )
            res.admitted += 1
            res.qubits_saved += adm.qubits_saved
            res.log.append(_plan_line(item.name, adm))
            _check_admission(item.name, adm, expected, res.failures)
        res.machine_stats = [mp.stats()]
        return res


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (QbrIngest(), BackfillQueue(), FleetMigrate(), PaperVerify())
}
