"""The traced benchmark harness binds package entry points by name. Every
(module, attribute path) it wraps must resolve, and every name a workload
expects to run must record a call, so a rename or a dropped call that would
fail `perfbench/run.py --trace 1` fails here first."""

import importlib
import os
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(filename):
    # executed from source, so no bytecode cache is written next to it;
    # registered while it runs, as dataclasses look their module up
    path = PERFBENCH / filename
    name = "perfbench_" + path.stem
    module = sys.modules[name] = types.ModuleType(name)
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    finally:
        del sys.modules[name]
    return module


tracing = _load("tracing.py")


@pytest.mark.parametrize(
    "modname, path",
    [(entry[1], entry[2]) for entry in tracing.SPANS + tracing.COUNTS],
)
def test_traced_entry_point_resolves(modname, path):
    # the same lookup as Tracer._install_one: attributes down the path, the
    # last one from the owner's own namespace
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])


def test_workload_expected_calls_all_record_a_call(tmp_path, monkeypatch):
    """One synth_stream pair's set-up and round, then one batch round, traced.
    This catches an expected entry point renamed or no longer called; it
    says nothing of the run's coverage. The sweep runs on two workers on
    any host, so the names must be recorded by the caller's own rows: the
    tracer does not see a forked helper's calls."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    workloads = _load("workloads.py")
    synth = workloads.SynthStream(1, str(tmp_path))
    synth.pairs = 1
    batch = workloads.Batch(1, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        synth.setup(lambda: None)
        ops = synth.setup_ops + synth.run_round(0, lambda: None)
        batch.setup(lambda: None)
        ops += batch.setup_ops + batch.run_round(0, lambda: None)
    finally:
        tracer.uninstall()
        batch.close()
    assert tracer.leftovers() == []
    assert [op.error for op in ops if op.error] == []
    sweep = workloads.CompareSweep
    (n_lo, n_hi), (s_lo, s_hi) = sweep.n_range, sweep.seed_range
    rows = (n_hi - n_lo + 1) * (s_hi - s_lo + 1)
    assert tracer.calls["cli._sweep_one"] == (rows + 1) // 2  # the caller's stripe only
    expected = set(workloads.SynthStream.expected_calls + workloads.Batch.expected_calls)
    assert sorted(name for name in expected if not tracer.calls.get(name)) == []
