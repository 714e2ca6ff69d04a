"""Checks on the benchmark itself: tracing changes no answer, checks catch errors.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import surfcoh.cli  # noqa: E402,F401
import workloads  # noqa: E402
from hostclock import REFERENCE_S, HostClock  # noqa: E402
from tracer import LayerTrace  # noqa: E402
from worker import _build_surfaces  # noqa: E402


def small_inputs(workload: str):
    if workload == "toric-scan":
        return (-1, 1)
    items = workloads.make_inputs(workload, _build_surfaces(workload), seed=7)[0]
    return items[:60]


def patched_attributes():
    m = sys.modules
    return {
        (name, attr): getattr(m[name], attr)
        for name in ("surfcoh.transform", "surfcoh.cohomology", "surfcoh.cli", "surfcoh.catalog")
        for attr in dir(m[name])
        if not attr.startswith("__")
    } | {("IntersectionForm", "pairing"): m["surfcoh.lattice"].IntersectionForm.pairing}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_trace_changes_no_result_and_restores_originals(workload):
    inputs = small_inputs(workload)
    before = patched_attributes()
    plain = workloads.run_passes(workload, workloads.plain_api(), inputs, HostClock())
    clock = HostClock()
    trace = LayerTrace(clock)
    api = trace.install()
    try:
        traced = workloads.run_passes(workload, api, inputs, clock)
    finally:
        trace.uninstall()
    assert patched_attributes() == before
    for p, t in zip(plain, traced):
        assert t["results"] == p["results"]
        assert len(t["results"]) == workloads.classes_of(workload, inputs)
    n_passes = 1 + workloads.REPEAT_PASSES[workload]
    summary = trace.summary()
    assert summary["cones.decisions"] > 0 and summary["lattice.pairings"] > 0
    assert summary["cohomology.calls"] == n_passes * workloads.classes_of(workload, inputs)
    assert workloads.count_failures(workload, inputs, plain) == 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_a_wrong_h0_is_counted(workload):
    inputs = small_inputs(workload)
    passes = workloads.run_passes(workload, workloads.plain_api(), inputs, HostClock())
    first = passes[0]
    if workload == "toric-scan":
        # scan compares h0 with the oracle itself; its mismatch report is the check.
        lo = inputs[0]
        first["code"] = 1
        first["payload"]["mismatches"] = 1
        first["payload"]["mismatch_details"] = [{"class": [lo, lo, lo + 1, lo + 2]}]
    else:
        for one_pass in passes:
            h0, h1, h2, chi = one_pass["results"][5]
            one_pass["results"][5] = (h0 + 1, h1, h2, chi + 1)
    assert workloads.count_failures(workload, inputs, passes) == 1


def test_host_clock_stops_while_calibrating_and_interpolates():
    clock = HostClock()
    start = clock.now()
    clock.calibrate()
    assert clock.now() - start < clock.calibrations[0] / 2
    clock.times, clock.calibrations = [0.0, 1.0], [REFERENCE_S, 2 * REFERENCE_S]
    assert clock.scale(-1.0) == 1.0 and clock.scale(2.0) == 0.5
    assert clock.scale(0.5) == pytest.approx(1 / 1.5)
    assert clock.scaled(0.25, 0.75) == pytest.approx(0.5 / 1.5)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
