"""Spans recorded from outside the program, by wrapping public functions at
the names their callers use.  Nothing in ``src/`` is changed.

``engine`` imports the layer entry points, the forecast error synthesis and
the network functions by name, so those names are patched in
``gridops.engine``; ``dispatch`` and ``milp`` each hold their own
``solve_lp``; ``solve_lp`` calls ``verify_certificates`` through
``gridops.lp``; ``LinearProgram.dense`` is a method, patched on the class.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

import gridops.cli
import gridops.dispatch
import gridops.engine
import gridops.lp
import gridops.milp

LAYERS = ("scuc", "rtuc", "sced")

# (module, attribute, span name).  Several attributes may share a span name
# when the same function is reached through more than one caller.
TRACED = (
    (gridops.cli, "load_scenario", "scenario.load"),
    (gridops.cli, "validate_scenario", "scenario.validate"),
    (gridops.cli, "simulate", "engine.simulate"),
    (gridops.cli, "write_trace", "engine.write_trace"),
    (gridops.engine, "write_trace", "engine.write_trace"),
    (gridops.cli, "read_trace", "engine.read_trace"),
    (gridops.cli, "write_all", "metrics.write_all"),
    (gridops.engine, "run_scuc", "scuc"),
    (gridops.engine, "run_rtuc", "rtuc"),
    (gridops.engine, "run_sced", "sced"),
    (gridops.engine, "synthesize_error", "profiles.synthesize_error"),
    (gridops.engine, "dc_flow", "grid.dc_flow"),
    (gridops.engine, "regulation_step", "grid.regulation_step"),
    (gridops.dispatch, "build_program", "dispatch.build_program"),
    (gridops.dispatch, "extract_schedule", "dispatch.extract_schedule"),
    (gridops.dispatch, "solve_milp", "milp.solve_milp"),
    (gridops.dispatch, "solve_lp", "lp.solve_lp"),
    (gridops.milp, "solve_lp", "lp.solve_lp"),
    (gridops.lp, "verify_certificates", "lp.verify_certificates"),
    (gridops.lp.LinearProgram, "dense", "lp.dense"),
)

# The untraced run wraps only these: the simulate and write stopwatches and
# the layer entry points whose schedule statuses are audited.
TOP_LEVEL = frozenset({"engine.simulate", "engine.write_trace", *LAYERS})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Recorder.spans, -1 at the top
    run: int             # pipeline iteration the span belongs to


@dataclass
class Program:
    """First program each layer built, with the solution it got."""
    lp: object
    rows: int
    cols: int
    nnz: int
    binaries: int
    solution: object = None


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    run: int = 0
    solve_status: dict[str, int] = field(default_factory=dict)
    schedule_status: dict[str, int] = field(default_factory=dict)
    milp_nodes: int = 0
    milp_branches: int = 0
    programs: dict[str, Program] = field(default_factory=dict)
    written: object = None           # last SimulationTrace written
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1, self.run)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, out)
            return out
        return traced

    def _observe(self, name, args, out):
        if name in LAYERS:
            self.schedule_status[out.status] = \
                self.schedule_status.get(out.status, 0) + 1
        elif name == "lp.solve_lp":
            self.solve_status[out.status] = \
                self.solve_status.get(out.status, 0) + 1
        elif name == "milp.solve_milp":
            self.milp_nodes += out.nodes
            self.milp_branches += out.branches
        elif name == "engine.write_trace":
            self.written = args[1]
        elif name == "dispatch.build_program":
            layer = args[3].layer
            if layer not in self.programs:
                lp = out[0]
                self.programs[layer] = Program(
                    lp, len(lp.constraints), len(lp.variables), _nnz(lp),
                    len(lp.binary_indices))
        if name in ("milp.solve_milp", "lp.solve_lp"):
            # A program with binaries goes to solve_milp, whose node LPs
            # reach solve_lp with the same program; keep the MILP result.
            for prog in self.programs.values():
                if prog.lp is args[0] and \
                        (prog.binaries > 0) == (name == "milp.solve_milp"):
                    prog.solution = out


@contextlib.contextmanager
def patched(recorder: Recorder, names=None):
    """Wrap the traced names (or only ``names``) for the block's duration."""
    chosen = [t for t in TRACED if names is None or t[2] in names]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in chosen]
    try:
        for (owner, attr, name), (_, _, fn) in zip(chosen, saved):
            setattr(owner, attr, recorder.wrap(name, fn))
        yield recorder
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to the call it wraps."""
    rec = Recorder()

    def nothing():
        return None

    wrapped = rec.wrap("calibration", nothing)
    t0 = time.perf_counter()
    for _ in range(calls):
        nothing()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _nnz(lp) -> int:
    """Nonzeros of the constraint matrix, duplicates summed as ``dense``
    sums them (computed here so no ``lp.dense`` span is recorded)."""
    count = 0
    for con in lp.constraints:
        row: dict[int, float] = {}
        for j, a in con.coeffs:
            row[j] = row.get(j, 0.0) + a
        count += sum(1 for a in row.values() if a != 0.0)
    return count


def layer_metrics(rec: Recorder, run: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the spans of one pipeline iteration."""
    by_name: dict[str, list[float]] = {}
    child_time: dict[int, float] = {}
    simulate_spans = []
    for i, s in enumerate(rec.spans):
        if s.run != run:
            continue
        by_name.setdefault(s.name, []).append(s.end - s.start)
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + \
                (s.end - s.start)
        if s.name == "engine.simulate":
            simulate_spans.append(i)

    def total(name):
        return float(sum(by_name.get(name, [])))

    def calls(name):
        return len(by_name.get(name, []))

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        durs = by_name.get(layer, [])
        out[f"{layer}.calls"] = (len(durs), "count")
        out[f"{layer}_s"] = (total(layer), "s")
        out[f"{layer}.ms_per_call"] = (
            1e3 * total(layer) / len(durs) if durs else 0.0, "ms")
        if layer != "scuc":
            out[f"{layer}.p50_ms"] = (
                1e3 * statistics.median(durs) if durs else 0.0, "ms")
            out[f"{layer}.max_ms"] = (1e3 * max(durs, default=0.0), "ms")
    for name in ("lp.solve_lp", "lp.dense", "lp.verify_certificates",
                 "milp.solve_milp", "profiles.synthesize_error",
                 "grid.dc_flow", "grid.regulation_step"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}_s"] = (total(name), "s")
    for name in ("dispatch.build_program", "dispatch.extract_schedule",
                 "scenario.load", "scenario.validate", "engine.write_trace",
                 "engine.read_trace", "metrics.write_all"):
        out[f"{name}_s"] = (total(name), "s")
    out["engine.simulate_s"] = (total("engine.simulate"), "s")
    out["engine.simulate_self_s"] = (
        float(sum(rec.spans[i].end - rec.spans[i].start - child_time.get(i, 0.0)
            for i in simulate_spans)), "s")
    for layer in LAYERS:
        prog = rec.programs.get(layer)
        for attr in ("rows", "cols", "nnz", "binaries"):
            out[f"dispatch.{layer}.{attr}"] = (
                getattr(prog, attr) if prog else 0, "count")
    return out
