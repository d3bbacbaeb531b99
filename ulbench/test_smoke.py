"""Smoke tests of the benchmark's own checks.

    python3 -m pytest ulbench/test_smoke.py -q

Each test runs one unit of a workload part at the default seed, clean and
then with one program output corrupted, and requires the clean unit to
pass and the corrupted one to fail, so that error_rate rises above 0.
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest

import harness


PART_OF = {"tracking": "cli", "stabmap": "cli", "xval": "library", "replay": "library"}


@pytest.fixture
def first_unit(request):
    part = request.param
    workload = PART_OF[part]
    package, inputs, _ = harness.set_up(workload, harness.DEFAULT_SEED, seconds=0)
    inputs.units = [u for u in inputs.units if u.key.startswith(part + "/")][:1]
    yield package, inputs, harness.recorded_digests(workload)
    shutil.rmtree(harness.work_dir(workload), ignore_errors=True)


def _error_rate(inputs, digests) -> float:
    result, _ = harness.run_pass(inputs, digests)
    return result.failed / len(result.unit_times)


def _rewrite_field(path, row, column, transform):
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = transform(fields[column])
    lines[row] = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _corrupt_trace_writer(monkeypatch, package, column):
    trace_class = package.sim.SimulationTrace
    write = trace_class.to_csv

    def to_csv(self, path):
        write(self, path)
        _rewrite_field(path, 10, column, lambda v: repr(float(v) + 1e-3))

    monkeypatch.setattr(trace_class, "to_csv", to_csv)


@pytest.mark.parametrize("first_unit", ["tracking"], indirect=True)
def test_tracking_invariants_catch_a_corrupted_error_column(first_unit, monkeypatch):
    package, inputs, digests = first_unit
    assert _error_rate(inputs, digests) == 0.0
    _corrupt_trace_writer(monkeypatch, package, package.sim.TRACE_COLUMNS.index("e"))
    assert _error_rate(inputs, None) > 0.0


@pytest.mark.parametrize("first_unit", ["tracking"], indirect=True)
def test_tracking_digest_catches_a_corrupted_input_column(first_unit, monkeypatch):
    package, inputs, digests = first_unit
    _corrupt_trace_writer(monkeypatch, package, package.sim.TRACE_COLUMNS.index("u"))
    assert _error_rate(inputs, None) == 0.0       # no invariant ties u to the rest
    assert _error_rate(inputs, digests) > 0.0


@pytest.mark.parametrize("first_unit", ["stabmap"], indirect=True)
def test_stabmap_catches_a_flipped_verdict(first_unit, monkeypatch):
    package, inputs, digests = first_unit
    assert _error_rate(inputs, digests) == 0.0
    export = package.cli.export_grid

    def export_grid(grid, path):
        export(grid, path)
        _rewrite_field(path, 1, 2, lambda v: "stable" if v != "stable" else "unstable")

    monkeypatch.setattr(package.cli, "export_grid", export_grid)
    assert _error_rate(inputs, None) > 0.0


@pytest.mark.parametrize("first_unit", ["xval"], indirect=True)
def test_xval_catches_a_flipped_simulation_outcome(first_unit, monkeypatch):
    package, inputs, digests = first_unit
    assert _error_rate(inputs, digests) == 0.0
    cross_validate = package.stabmap.cross_validate

    def corrupted(*args, **kwargs):
        report = cross_validate(*args, **kwargs)
        first = report.checks[0]
        report.checks[0] = dataclasses.replace(first, diverged=not first.diverged)
        return report

    monkeypatch.setattr(package.stabmap, "cross_validate", corrupted)
    assert _error_rate(inputs, None) > 0.0


@pytest.mark.parametrize("first_unit", ["replay"], indirect=True)
def test_replay_catches_a_trace_that_does_not_load_back(first_unit, monkeypatch):
    package, inputs, digests = first_unit
    assert _error_rate(inputs, digests) == 0.0
    load = package.sim.load_trace_csv

    def corrupted(path):
        cols = load(path)
        cols["y_measured"][10] += 1e-12
        return cols

    monkeypatch.setattr(package.sim, "load_trace_csv", corrupted)
    assert _error_rate(inputs, None) > 0.0
