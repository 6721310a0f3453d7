"""Tests of the benchmark itself: its checks catch a broken runtime, its
counts are deterministic, and its output follows BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from framevault.runtime import VaultState  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class _NoClear:
    """Process memory whose clear_region does nothing."""

    def __init__(self, memory):
        self._memory = memory

    def clear_region(self, addr, length):
        pass

    def __getattr__(self, name):
        return getattr(self._memory, name)


class SkipClearVault(VaultState):
    """A runtime that saves and restores windows but skips the clear pass,
    so every hidden byte stays readable by the untrusted callee."""

    def _open_window(self, memory, start, end):
        super()._open_window(_NoClear(memory), start, end)


def _one_pass(name, seed, vault_factory=VaultState):
    workload = workloads.WORKLOADS[name](seed, vault_factory)
    workload.setup()
    loop = run.Loop()
    loop.run_pass(workload, 0)
    return loop


@pytest.mark.parametrize("name", ["bigframe", "deepnest"])
def test_skipped_clear_fails_every_operation(name):
    loop = _one_pass(name, 5, SkipClearVault)
    assert loop.attempted > 0
    assert loop.failed / loop.attempted == 1.0
    assert any("secret bytes" in p for p in loop.problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_real_runtime_passes_every_check(name):
    loop = _one_pass(name, 5)
    assert loop.failed == 0, loop.problems[:3]


def _is_count(metric: str) -> bool:
    return metric.endswith((".calls", ".bytes")) or metric in (
        "runtime.bytes_saved", "runtime.bytes_cleared", "runtime.bytes_restored",
        "runtime.rejected_calls", "runtime.save_buffer.peak_bytes",
        "executor.probe_read_bytes")


def _traced_counts(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.Loop()
        for pass_no in range(workload.traced_passes):
            loop.run_pass(workload, pass_no, tracer)
    finally:
        tracer.uninstall()
    assert loop.failed == 0, loop.problems[:3]
    metrics = tracing.layer_metrics(tracer, tracer.summary())
    return {k: v for k, v in metrics.items() if _is_count(k)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_a_seed_and_change_with_it(name):
    first = _traced_counts(name, 11)
    assert first == _traced_counts(name, 11)
    assert first != _traced_counts(name, 12)
    listed = {m["name"] for m in SPEC["per_layer"] if _is_count(m["name"])}
    assert listed <= set(first)


def test_uninstall_restores_the_package():
    import framevault
    before = (framevault.parse, framevault.ProcessMemory.read_bytes,
              framevault.VaultState.start_protect, framevault.Executor.run)
    tracer = tracing.Tracer()
    tracer.install()
    assert framevault.parse is not before[0]
    tracer.uninstall()
    assert (framevault.parse, framevault.ProcessMemory.read_bytes,
            framevault.VaultState.start_protect, framevault.Executor.run) == before


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_follows_the_spec(trace, section):
    out = _bench(["--workload", "deepnest", "--seed", "3", "--seconds", "0.2",
                  "--trace", trace])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "1":
        assert abs(result["metrics"]["trace.accounted_frac"]["value"] - 1) <= 0.01


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _bench(["--workload", "deepnest", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
