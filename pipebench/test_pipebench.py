"""Tests of the pipeline benchmark itself, at a tiny size.

Run from the repository root: ``python -m pytest pipebench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pipebench.tracing import PER_LAYER, Tracer
from pipebench.workloads import WORKLOADS, oracle_safety

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "pipebench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05


def _run_stdout(workload, seed, trace, tmp_path, env=None) -> str:
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", str(TINY), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run(workload: str, seed: int, trace: int, tmp_path: Path) -> dict:
    stdout = _run_stdout(workload, seed, trace, tmp_path)
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = _run(workload, 1, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    result = _run(workload, 1, 1, tmp_path)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    trace = json.loads(
        (tmp_path / f"trace-{workload}-seed1.json").read_text()
    )
    assert trace["traceEvents"]
    assert all(e["ph"] == "X" for e in trace["traceEvents"])


def test_per_layer_table_matches_the_spec():
    assert [(n, u, b) for n, u, b in PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]


def _describe(inputs) -> str:
    """A stable text form of a workload's inputs."""
    if isinstance(inputs, list):
        return repr(inputs)
    return repr([
        (e.kind, e.job and e.job.name, e.job and e.job.circuit.fingerprint(),
         e.timeout, e.pick)
        for trace in inputs.traces for e in trace
    ])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs_not_metric_names(workload, tmp_path):
    w = WORKLOADS[workload]
    first = _describe(w.generate(1, TINY))
    assert first == _describe(w.generate(1, TINY))
    assert first != _describe(w.generate(2, TINY))
    names = [
        set(_run(workload, seed, 0, tmp_path)["metrics"]) for seed in (1, 2)
    ]
    assert names[0] == names[1]


def test_runs_of_one_seed_share_the_admission_digest(tmp_path):
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        stdout = _run_stdout("backfill-queue", 7, 0, tmp_path, env=env)
        digests.append(re.findall(r"digest=(\w+)", stdout))
    assert digests[0] and digests[0] == digests[1]


def test_passes_are_deterministic():
    w = WORKLOADS["fleet-migrate"]
    inputs = w.generate(3, TINY)
    first, second = w.run_pass(inputs), w.run_pass(inputs, validate=True)
    assert first.digest == second.digest
    assert not first.failures and not second.failures


def _flip_trace_answer(inputs):
    """Flip the known answer of the first admitted verdict."""
    first = WORKLOADS["backfill-queue"].run_pass(inputs)
    line = first.log[0]
    index, name = line.split("|", 1)[0].split(":")
    expected = inputs.expected[(int(index), name)]
    wire = sorted(expected)[0]
    expected[wire] = not expected[wire]


def test_known_answer_check_is_live_for_traces():
    w = WORKLOADS["backfill-queue"]
    inputs = w.generate(4, TINY)
    assert not w.run_pass(inputs).failures
    _flip_trace_answer(inputs)
    assert w.run_pass(inputs).failures


def test_known_answer_check_is_live_for_streams():
    w = WORKLOADS["qbr-ingest"]
    items = w.generate(5, TINY)
    assert not w.run_pass(items).failures
    qasm_item = next(item for item in items if item.kind == "qasm")
    wire = sorted(qasm_item.expected)[0]
    qasm_item.expected[wire] = not qasm_item.expected[wire]
    assert w.run_pass(items).failures


def test_known_answer_check_is_live_for_the_spoiled_adder():
    w = WORKLOADS["paper-verify"]
    items = w.generate(6, TINY)
    assert not w.run_pass(items).failures
    spoiled = next(item for item in items if item.spoiled)
    spoiled.spoiled = None  # now claims every carry ancilla is safe
    failures = w.run_pass(items).failures
    assert any("against its known answer" in f for f in failures)


def test_oracle_matches_generator_ground_truth():
    from repro.testing.generators import random_reversible_circuit

    for seed in range(20):
        circuit, ancillas = random_reversible_circuit(
            seed, num_data=5, num_ancillas=3, spoiled=(6,)
        )
        assert oracle_safety(circuit, ancillas) == {5: True, 6: False, 7: True}


def test_tracer_uninstall_restores_the_library():
    from repro.lang.surface import elaborate as elaborate_fn
    from repro.multiprog.scheduler import MultiProgrammer

    admit, iter_program = MultiProgrammer.admit, sys.modules[
        "repro.lang.surface.elaborate"
    ].iter_program
    tracer = Tracer()
    tracer.install()
    try:
        assert MultiProgrammer.admit is not admit
    finally:
        tracer.uninstall()
    assert MultiProgrammer.admit is admit
    assert sys.modules["repro.lang.surface.elaborate"].iter_program is (
        iter_program
    )
    assert elaborate_fn("borrow@ q; X[q];").circuit.gates


def test_runner_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "pipebench", tmp_path / "pipebench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "qbr-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_obligations_count_the_inputs_not_the_retries():
    w = WORKLOADS["backfill-queue"]
    inputs = w.generate(8, TINY)
    requested = sum(
        len(e.job.request_wires)
        for trace in inputs.traces for e in trace if e.kind == "submit"
    )
    assert w.run_pass(inputs).obligations == requested
