"""Span recording around the package's public functions, from outside.

`install` replaces each traced function with a wrapper on its defining
module and on every other package module (and the package namespace)
that imported the same object, so `cli.run_closed_loop`,
`stabmap.routh_hurwitz` and `SimulationTrace.to_csv` are all seen.
`uninstall` puts the originals back. Spans are kept in memory, written
to a `.npz` file when the run ends, and every per-layer metric is derived
from that file. Span times are stored as measured, with each unit's
factor to the reference speed (see speed.py); the metrics apply it.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("poly", "control", "sim", "stabmap", "cli")

# The functions whose spans layer_metrics reads. Left out on purpose:
# functions called once per sample (estimate_f, the control laws,
# DerivatorFilter.step, ReferenceTrajectory.eval) and per-cell helpers
# other than routh_hurwitz (ip_charpoly, cell_verdict). Wrapping those
# would multiply the span count by the step or cell count and swamp the
# numbers being measured.
TRACED = {
    "poly": ("routh_hurwitz", "max_real_part_of_roots"),
    "control": ("replay_estimator",),
    "sim": ("run_closed_loop", "compute_metrics", "load_trace_csv",
            "SimulationTrace.to_csv"),
    "stabmap": ("sweep", "export_grid", "cross_validate"),
    "cli": ("parse_config", "run_scenario"),
}

UNIT_SPAN = "bench.unit"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work recorded with a span, as (size, flag), computed after the span
# has closed so that it never counts toward the span's own duration.
def _steps_and_divergence(args, kwargs, result):
    return len(result), int(result.diverged)


def _file_size(index, name):
    def size(args, kwargs, result):
        return os.path.getsize(_arg(args, kwargs, index, name)), 0
    return size


def _grid_cells(args, kwargs, result):
    spec = result.spec
    return int(spec.kp_axis[2]) * int(spec.alpha_axis[2]), 0


def _samples(args, kwargs, result):
    return len(result), 0


SIZES = {
    "sim.run_closed_loop": _steps_and_divergence,
    "sim.to_csv": _file_size(1, "path"),            # args[0] is the trace
    "sim.load_trace_csv": _file_size(0, "path"),
    "stabmap.export_grid": _file_size(1, "path"),
    "stabmap.sweep": _grid_cells,
    "control.replay_estimator": _samples,
}


class Recorder:
    """Spans of one traced run: name, start, end, parent, unit, size, flag."""

    def __init__(self):
        self.names = [UNIT_SPAN]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self.size = array("d")
        self.flag = array("b")
        self.unit_scale = {}       # unit id -> factor to the reference speed
        self._stack = [-1]
        self._unit = -1
        self._installed = []

    def _open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.unit.append(self._unit)
        self.size.append(0.0)
        self.flag.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def begin_unit(self, unit_id: int) -> None:
        self._unit = unit_id
        self._open(0)

    def end_unit(self) -> None:
        self._close(self._stack[-1])
        self._unit = -1

    def scale_unit(self, unit_id: int, factor: float) -> None:
        self.unit_scale[unit_id] = factor

    def _wrap(self, fn, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        size_of = SIZES.get(span_name)

        def traced(*args, **kwargs):
            if self._unit < 0:  # the benchmark's own checks are not traced
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if size_of is not None:
                size, flag = size_of(args, kwargs, result)
                self.size[sid] = size
                self.flag[sid] = flag
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function wherever the package exposes it."""
        holders = [package] + [getattr(package, m) for m in MODULES]
        for module_name, functions in TRACED.items():
            module = getattr(package, module_name)
            for qualname in functions:
                owner_name, _, fn_name = qualname.rpartition(".")
                span_name = "%s.%s" % (module_name, fn_name)
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[fn_name]
                    self._patch(owner, fn_name, self._wrap(original, span_name))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(original, span_name)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)

    def _patch(self, holder, attr, wrapper) -> None:
        self._installed.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    def write(self, path) -> None:
        """Write all spans to an .npz file (times in ns from an arbitrary
        origin, as measured), with each unit's factor to the reference speed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        units = sorted(self.unit_scale)
        np.savez(path, names=np.array(self.names),
                 scaled_unit=np.array(units, dtype=np.int32),
                 unit_scale=np.array([self.unit_scale[u] for u in units], dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 unit=np.frombuffer(self.unit, dtype=np.int32),
                 size=np.frombuffer(self.size, dtype=np.float64),
                 flag=np.frombuffer(self.flag, dtype=np.int8))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(path, passes: int) -> dict:
    """Per-layer metrics, per traced pass, derived from a span file.

    Durations are scaled by their unit's factor to the reference speed.
    A span's self time is its duration minus the durations of its child
    spans; the run is single-threaded, so children never overlap.
    """
    with np.load(path, allow_pickle=False) as data:
        names = [str(n) for n in data["names"]]
        name = data["name"]
        scale = dict(zip(data["scaled_unit"].tolist(), data["unit_scale"].tolist()))
        factor = np.array([scale[u] for u in data["unit"].tolist()])
        duration = factor * (data["end"] - data["start"]) / 1e9
        parent = data["parent"]
        size = data["size"]
        flag = data["flag"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(name))
    self_time = duration - child_time

    def select(span):
        return name == names.index(span) if span in names else np.zeros(len(name), bool)

    def calls(span):
        return int(np.count_nonzero(select(span))) / passes

    def total(span, values):
        return float(np.sum(values[select(span)])) / passes

    def busy(span):
        return total(span, duration)

    out = {}
    routh = select("poly.routh_hurwitz")
    out["poly.routh_hurwitz.calls"] = calls("poly.routh_hurwitz")
    out["poly.routh_hurwitz.busy_s"] = busy("poly.routh_hurwitz")
    out["poly.routh_hurwitz.us_per_call"] = 1e6 * _ratio(
        out["poly.routh_hurwitz.busy_s"], out["poly.routh_hurwitz.calls"])
    out["poly.max_real_part_of_roots.calls"] = calls("poly.max_real_part_of_roots")
    out["poly.max_real_part_of_roots.busy_s"] = busy("poly.max_real_part_of_roots")

    replay_samples = total("control.replay_estimator", size)
    out["control.replay_estimator.calls"] = calls("control.replay_estimator")
    out["control.replay_estimator.busy_s"] = busy("control.replay_estimator")
    out["control.replay_estimator.us_per_sample"] = 1e6 * _ratio(
        out["control.replay_estimator.busy_s"], replay_samples)

    steps = total("sim.run_closed_loop", size)
    out["sim.run_closed_loop.calls"] = calls("sim.run_closed_loop")
    out["sim.run_closed_loop.busy_s"] = busy("sim.run_closed_loop")
    out["sim.run_closed_loop.us_per_step"] = 1e6 * _ratio(
        out["sim.run_closed_loop.busy_s"], steps)
    out["sim.steps"] = steps
    out["sim.diverged_runs"] = total("sim.run_closed_loop", flag)
    for io_span in ("sim.to_csv", "sim.load_trace_csv"):
        out[io_span + ".busy_s"] = busy(io_span)
        out[io_span + ".bytes"] = total(io_span, size)
        out[io_span + ".mb_per_s"] = _ratio(out[io_span + ".bytes"] / 1e6,
                                           out[io_span + ".busy_s"])
    out["sim.compute_metrics.busy_s"] = busy("sim.compute_metrics")

    cells = total("stabmap.sweep", size)
    sweep_ids = np.flatnonzero(select("stabmap.sweep"))
    routh_in_sweep = np.count_nonzero(routh & np.isin(parent, sweep_ids)) / passes
    out["stabmap.sweep.calls"] = calls("stabmap.sweep")
    out["stabmap.sweep.busy_s"] = busy("stabmap.sweep")
    out["stabmap.sweep.self_s"] = total("stabmap.sweep", self_time)
    out["stabmap.sweep.cells"] = cells
    out["stabmap.sweep.cells_per_s"] = _ratio(cells, out["stabmap.sweep.busy_s"])
    out["stabmap.routh_calls_per_cell"] = _ratio(routh_in_sweep, cells)
    out["stabmap.export_grid.busy_s"] = busy("stabmap.export_grid")
    out["stabmap.export_grid.bytes"] = total("stabmap.export_grid", size)
    out["stabmap.cross_validate.busy_s"] = busy("stabmap.cross_validate")
    out["stabmap.cross_validate.self_s"] = total("stabmap.cross_validate", self_time)

    out["cli.parse_config.busy_s"] = busy("cli.parse_config")
    out["cli.run_scenario.busy_s"] = busy("cli.run_scenario")
    out["cli.run_scenario.self_s"] = total("cli.run_scenario", self_time)
    return out
