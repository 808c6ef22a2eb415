"""Every workload runs end to end; the run leaves nothing behind."""

import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run as run_module
from spans import Tracer
from system import SMOKE
from workloads import END_TO_END, WORKLOADS, run, run_traced

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_end_to_end(workload):
    outcome = run(workload, seed=1, seconds=0.4, scale=SMOKE)
    assert list(outcome.metrics) == list(END_TO_END)
    for name, value in outcome.metrics.items():
        assert math.isfinite(value) and value > 0, name
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert outcome.details["mismatches"] == 0 and outcome.details["replayed"] > 0


@pytest.mark.parametrize("workload", ["cluster_tail", "evolve_rw"])
def test_traced_run_reports_every_layer_metric(workload):
    outcome = run_traced(workload, seed=1, seconds=0.4, scale=SMOKE, tracer=Tracer())
    assert list(outcome.metrics) == list(layers.LAYER_METRICS)
    assert outcome.failed == 0
    metrics = outcome.metrics
    assert 0.5 < metrics["trace.layer_sum_share"] <= 1.0
    assert metrics["kg.serialize.load_ms"] > 0 and metrics["kg.serialize.save_ms"] > 0
    if workload == "cluster_tail":
        assert metrics["serving.cluster.shard_calls_per_request"] > 0
        assert metrics["serving.cluster.self_us"] > 0
    else:
        assert metrics["kg.generations.compact_ms"] > 0
        assert metrics["pipeline.evolve.match_ms"] > 0


def test_leak_tripwire_counts_children_and_leftover_files(tmp_path):
    (tmp_path / "shard-0.snap").write_text("left behind")
    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    try:
        assert run_module._leaks(tmp_path) == 2
    finally:
        child.kill()
        child.join(timeout=10)
    assert not child.is_alive()
    (tmp_path / "shard-0.snap").unlink()
    assert run_module._leaks(tmp_path) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:]]
        + ["--workload", "cluster_tail", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_command_prints_the_result_line_and_writes_spans(monkeypatch, tmp_path, capsys):
    import system

    monkeypatch.setattr(system, "FULL", SMOKE)
    spans = tmp_path / "spans.jsonl"
    argv = ["--workload", "cluster_tail", "--seed", "2", "--seconds", "0.4"]
    handler = signal.getsignal(signal.SIGTERM)
    try:
        assert run_module.main(argv + ["--trace", "1", "--spans-out", str(spans)]) == 0
    finally:
        signal.signal(signal.SIGTERM, handler)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    assert list(result["metrics"]) == list(layers.LAYER_METRICS)
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "start", "end", "request"}
    assert not (ROOT / ".perfbench_tmp" / str(os.getpid())).exists()
