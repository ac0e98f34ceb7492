"""Tests of the benchmark itself, at smoke-test sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Kept out of the default test collection (the file name does not match
``test_*.py``), so the repository's own test run does not pay for the
benchmark's subprocess runs.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports locce first)
import run as bench  # noqa: E402
import tracing  # noqa: E402

import locce  # noqa: E402

ROOT = HERE.parent


def _locce_bindings() -> dict:
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "locce" or name.startswith("locce.")):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    out[("locce.fidelity.Povm", "__post_init__")] = locce.fidelity.Povm.__dict__["__post_init__"]
    return out


def _small_pass(workload: str, trace: bool, seed: int = 7) -> dict:
    prepare = workloads.WORKLOADS[workload][0]
    return workloads.run_pass(workload, prepare(seed, True), trace=trace)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_trace_restores_bindings_and_keeps_values_bit_identical(workload):
    plain = _small_pass(workload, trace=False)  # fills lazy module caches first
    before = _locce_bindings()
    traced = _small_pass(workload, trace=True)
    after = _locce_bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved, f"bindings not restored: {moved}"
    assert traced["values"] == plain["values"]
    assert plain["failed"] == traced["failed"] == 0


def test_copied_bindings_are_traced():
    """``from .tensor import apply_to_batch`` copies in zoo and protocols are seen."""
    inputs = workloads.prepare_enumerate(0, True)
    with tracing.Tracer() as tracer:
        wrapper = locce.tensor.apply_to_batch
        assert hasattr(wrapper, "__wrapped__")
        assert locce.zoo.apply_to_batch is wrapper
        assert locce.protocols.apply_to_batch is wrapper
        assert hasattr(locce.fidelity.Povm.__post_init__, "__wrapped__")
        assert hasattr(locce.oneway.minimize, "__wrapped__")
        workloads.run_enumerate(inputs, workloads.Checks())
    assert locce.zoo.apply_to_batch is wrapper.__wrapped__
    names = {s.id: s.name for s in tracer.spans}
    parents = {names.get(s.parent) for s in tracer.spans if s.name == "tensor.apply_to_batch"}
    assert {"zoo.build_tree", "protocols.run_protocol"} <= parents


def test_self_time_excludes_children():
    spans = [
        tracing.Span(0, None, "outer", start=0.0, end=10.0, outer_start=0.0, outer_end=10.0),
        tracing.Span(1, 0, "inner", start=2.0, end=5.0, outer_start=1.5, outer_end=5.5),
        tracing.Span(2, 1, "leaf", start=3.0, end=4.0, outer_start=3.0, outer_end=4.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0}


def test_wrong_expected_value_is_counted_not_raised():
    inputs = workloads.prepare_enumerate(0, True)
    good = workloads.run_pass("enumerate", inputs)
    inputs["fidelity"] = 0.5
    bad = workloads.run_pass("enumerate", inputs)
    assert good["failed"] == 0
    assert bad["attempted"] == good["attempted"]
    assert bad["failed"] == 4  # one fidelity check per case
    assert all("fidelity" in name for name in bad["failed_checks"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_counts_repeat_between_traced_runs(workload):
    first = _small_pass(workload, trace=True)["layers"]
    second = _small_pass(workload, trace=True)["layers"]
    differ = {name: (first[name], second[name]) for name in tracing.COUNT_METRICS
              if first[name] != second[name]}
    assert not differ, f"counts that do not repeat: {differ}"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload):
    for trace, names in ((0, set(bench.END_TO_END_UNITS)),
                         (1, set(tracing.LAYER_METRICS) | {"trace.overhead_frac"})):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0.1", "--trace", str(trace), "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    layer_units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    layer_units["trace.overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneway", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
