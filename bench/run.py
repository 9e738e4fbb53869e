"""gridops benchmark: host time per simulated minute, end to end and per layer.

Run from the repository root, one workload per invocation:

    python3 bench/run.py --workload mini3-cadence --seed 1 --seconds 45 --trace 0

The program is imported from ``src/`` and driven in-process through its
public command line, ``gridops.cli.main``, as a closed loop: one pipeline
at a time, each starting when the previous one ended, no ``--jobs``.

``BENCHMARK.json`` lists ``mini3-cadence`` and ``trace-io``.  ``mini3-day``
(the ROADMAP's reference day, about 55 s for one pipeline) runs the same way
by hand; it is left out of the list because its single long pipeline would
take the time the other two need for runs long enough to be steady.

- ``--trace 0`` prints the end-to-end metrics.  Pipelines run until
  ``--seconds`` have passed (at least one); on ``trace-io`` one untimed
  pipeline warms up first.  Only the simulate and write calls are timed
  inside a pipeline, and the layer entry points are wrapped to audit
  schedule statuses.
- ``--trace 1`` runs the same loop with every layer wrapped and prints the
  per-layer metrics (medians over the traced pipelines), the program sizes,
  the traced ``wall_s``, the tracing overhead (spans recorded times the
  measured cost of one span) and the HiGHS reference times.

End-to-end metrics (``--trace 0``):

- ``setup_s``: a fresh interpreter importing the package, loading and
  validating the scenario and building the initial state; median of
  SETUP_REPEATS child processes.
- ``sim_min_per_s``: simulated minutes per wall-second of ``simulate``,
  over all the run's pipelines.  On ``trace-io``, which simulates nothing,
  trace minutes per wall-second of its write-then-report pipelines.
- ``wall_s``: one whole pipeline: simulate (with its write), then metrics;
  on ``trace-io``, write then metrics.  The mean over the run's pipelines.
- ``write_s``, ``metrics_s``: CPU seconds (user + system) of
  ``write_trace`` and of the ``metrics`` command.  CPU time leaves out time
  the host gives to other guests; the output lands in the page cache, so
  on a quiet host CPU and wall time agree.  On ``trace-io`` the mean over
  the run's pipelines.  On the simulation workloads they are sampled in a
  child process after every pipeline, IO_SECONDS each, and the fastest of
  those few hundred samples of about 30 ms is reported.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

The host this was tuned on (2 vCPUs shared with other guests) runs Python
in two speed modes, the slow one up to 1.6 times slower, each lasting from
seconds to over a minute.  A median of samples then reads whichever mode
held most of the run; a mean moves with the share of each, which spreads
less from run to run.  Samples of 30 ms are shorter than the modes, so
some always fall in the fast one: their fastest spread 0.04-0.13 of itself
over ten seeds where their mean spread 0.14-0.25.

Correctness, counted against ``attempted``: every command exits 0, every
schedule is ``optimal``, the outputs parse, ``trace.csv``, ``flows.csv`` and
``units.csv`` hash the same in every pipeline of the invocation, and with
``--trace 1`` every optimal ``solve_lp`` had its certificates checked and
the first SCUC, RTUC and SCED objectives match HiGHS to 1e-6 relative.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("mini3-day", "mini3-cadence", "trace-io")
DAY = 1440          # minutes simulated by one pipeline
SETUP_REPEATS = 7
# On the simulation workloads write and metrics are too short to time once
# inside the pipeline.  So after every pipeline the simulated trace is
# written and reported on again for IO_SECONDS in a fresh process
# (bench/io_child.py), which spreads the samples over the whole run.
IO_SECONDS = 2.0
HASHED = ("trace.csv", "flows.csv", "units.csv")

# Child process for setup_s: a fresh interpreter imports the package, loads
# and validates the scenario and builds the initial state, which is all the
# work done before the first simulated minute.
SETUP_CODE = """
import sys
from gridops.cli import main
from gridops.dispatch import initial_from_scenario
from gridops.scenario import load_scenario, validate_scenario
scn = load_scenario(sys.argv[1])
if any(sev == "error" for sev, _, _ in validate_scenario(scn)):
    sys.exit(2)
initial_from_scenario(scn)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Bench:
    """One invocation: inputs, the pipeline loop and the checks."""

    def __init__(self, args, root: str, work: str):
        from gridops import cli, engine
        from gridops.scenario import load_scenario
        import inputs
        import spans

        self.args = args
        self.cli, self.engine, self.spans = cli, engine, spans
        self.root = root
        self.work = work
        self.ops = 0
        self.problems: list[str] = []
        self.failed_ops: set[int] = set()
        self.hashes: dict[str, str] | None = None
        self.trace_bytes = 0

        if args.workload == "mini3-cadence":
            self.scn_path = inputs.write_cadence_fixture(
                os.path.join(self.work, "mini3c.scn"))
        else:
            self.scn_path = inputs.write_day_fixture(
                os.path.join(self.work, "mini3.scn"))
        self.scn = load_scenario(self.scn_path)
        self.trace_in = None
        if args.workload == "trace-io":
            self.trace_in = inputs.synthetic_trace(self.scn, args.seed)

    # -- checks ---------------------------------------------------------

    def fail(self, op: int, msg: str) -> None:
        self.problems.append(f"op {op}: {msg}")
        self.failed_ops.add(op)

    def check_outputs(self, op: int, outdir: str, minutes: int) -> None:
        """Exact-output checks shared by every pipeline and write."""
        got = {name: sha256(os.path.join(outdir, name)) for name in HASHED}
        self.trace_bytes = sum(
            os.path.getsize(os.path.join(outdir, name))
            for name in HASHED + ("regulation.csv",))
        for name, digest in got.items():
            print(f"sha256 {self.args.workload} op{op} {name} {digest}")
        if self.hashes is None:
            self.hashes = got
        elif got != self.hashes:
            self.fail(op, "output hashes differ from the first pipeline")
        with open(os.path.join(outdir, "manifest.json"),
                  encoding="utf-8") as fh:
            if json.load(fh)["minutes"] != minutes:
                self.fail(op, "manifest minutes differ from the run length")
        with open(os.path.join(outdir, "trace.csv"), encoding="utf-8") as fh:
            if sum(1 for _ in fh) != minutes + 1:
                self.fail(op, "trace.csv row count is not the run length")
        report = self.read_report(outdir)
        if not report or not all(math.isfinite(v) for v in report.values()):
            self.fail(op, "report.csv is empty or holds non-finite values")
        elif self.trace_in is not None:
            peak = float(self.trace_in.load.max())
            if abs(report[("load", "peak")] - peak) > 1e-5:
                self.fail(op, "report load peak differs from the trace")

    @staticmethod
    def read_report(outdir: str) -> dict:
        out = {}
        with open(os.path.join(outdir, "report.csv"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                family, _, metric, value, _ = line.rstrip("\n").split(",")
                out[(family, metric)] = float(value)
        return out

    def check_round_trip(self, outdir: str) -> None:
        """``read_trace`` returns the synthetic trace to write precision."""
        import numpy as np

        back = self.engine.read_trace(outdir)
        src = self.trace_in
        for name in ("imbalance_raw", "imbalance", "load", "generation",
                     "ver_available", "ver_delivered", "shed", "supergen",
                     "flows", "interface_flow", "interface_limit",
                     "regulation"):
            if not np.allclose(getattr(back, name), getattr(src, name),
                               rtol=0.0, atol=1e-6):
                self.problems.append(f"read_trace differs on {name}")
        for gid, arr in src.unit_output.items():
            if not np.allclose(back.unit_output[gid], arr, rtol=0.0,
                               atol=1e-6):
                self.problems.append(f"read_trace differs on unit {gid}")

    def command(self, op: int, argv: list[str]) -> None:
        """Run one gridops command; its diagnostics are shown on failure."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        if rc != 0:
            sys.stderr.write(err.getvalue())
            self.fail(op, f"gridops {argv[0]} exited {rc}")

    # -- one pipeline -----------------------------------------------------

    def metrics_cmd(self, op: int, outdir: str) -> float:
        t0 = time.perf_counter()
        self.command(op, ["metrics", outdir, "--scenario", self.scn_path])
        return time.perf_counter() - t0

    def next_op(self) -> tuple[int, str]:
        op = self.ops
        self.ops += 1
        return op, os.path.join(self.work, f"op{op}")

    def io_round(self, trace, seed: int) -> dict:
        """Write a trace, then report on it: the trace-io pipeline.  Wall
        time of the whole, CPU time of each step."""
        op, outdir = self.next_op()
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        self.engine.write_trace(outdir, trace, self.scn, seed, self.scn_path)
        c1 = time.process_time()
        self.command(op, ["metrics", outdir, "--scenario", self.scn_path])
        t2, c2 = time.perf_counter(), time.process_time()
        self.check_outputs(op, outdir, trace.minutes)
        if self.trace_in is not None and op == 0:
            self.check_round_trip(outdir)
        shutil.rmtree(outdir)
        return {"write_s": c1 - c0, "metrics_s": c2 - c1, "wall_s": t2 - t0}

    def sim_round(self, rec) -> dict:
        """simulate (which writes the trace), then metrics."""
        op, outdir = self.next_op()
        minutes = DAY
        t0 = time.perf_counter()
        self.command(op, ["simulate", self.scn_path, "--minutes",
                          str(minutes), "--seed", str(self.args.seed),
                          "--out", outdir])
        sim_wall = time.perf_counter() - t0
        metrics_s = self.metrics_cmd(op, outdir)
        bad = {k: v for k, v in rec.schedule_status.items() if k != "optimal"}
        if bad:
            self.fail(op, f"schedules not optimal: {bad}")
        if op not in self.failed_ops:
            self.check_outputs(op, outdir, minutes)
        shutil.rmtree(outdir, ignore_errors=True)
        simulate_s = sum(s.end - s.start for s in rec.spans
                         if s.run == op and s.name == "engine.simulate")
        return {"simulate_s": simulate_s, "wall_s": sim_wall + metrics_s,
                "minutes": minutes}

    def round(self, rec) -> dict:
        rec.run = self.ops
        if self.trace_in is not None:
            return self.io_round(self.trace_in, self.args.seed)
        return self.sim_round(rec)

    # -- runs -------------------------------------------------------------

    def validate(self) -> None:
        self.command(-1, ["validate", self.scn_path])
        if self.problems:
            raise RuntimeError("gridops validate rejected the workload")

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        """Run a fresh interpreter that imports the package from src/."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return subprocess.run([sys.executable, *argv], env=env, cwd=self.root,
                              capture_output=True, text=True)

    def setup_times(self) -> list[float]:
        """setup_s samples, one fresh interpreter each."""
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            done = self.child(["-c", SETUP_CODE, self.scn_path])
            setup.append(time.perf_counter() - t0)
            if done.returncode != 0:
                raise RuntimeError(f"setup child failed: {done.stderr}")
        return setup

    def io_samples(self, trace) -> list[dict]:
        """write/metrics samples of ``trace`` from a child process."""
        pickled = os.path.join(self.work, "trace.pkl")
        with open(pickled, "wb") as fh:
            pickle.dump(trace, fh)
        op, outdir = self.next_op()
        done = self.child([
            os.path.join(os.path.dirname(__file__), "io_child.py"),
            pickled, self.scn_path, outdir, str(self.args.seed),
            str(IO_SECONDS)])
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            self.fail(op, f"write/metrics child exited {done.returncode}")
            return []
        self.check_outputs(op, outdir, trace.minutes)
        shutil.rmtree(outdir)
        return [{"write_s": w, "metrics_s": m}
                for w, m in json.loads(done.stdout)]

    def loop(self, rec, io_rows: list[dict] | None = None) -> list[dict]:
        """Pipelines, one after another, until ``--seconds`` have passed;
        on a simulation workload each followed by write/metrics samples
        into ``io_rows`` when it is given."""
        rows = []
        start = time.perf_counter()
        while not rows or time.perf_counter() - start < self.args.seconds:
            rows.append(self.round(rec))
            if io_rows is not None and self.trace_in is None:
                io_rows += self.io_samples(rec.written)
        return rows

    def untraced(self) -> dict:
        rec = self.spans.Recorder()
        extra: list[dict] = []
        with self.spans.patched(rec, self.spans.TOP_LEVEL):
            if self.trace_in is not None:
                self.round(rec)         # warm-up, untimed
            rows = self.loop(rec, extra)
        setup = self.setup_times()
        avg = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
        if self.trace_in is None:
            for k in ("write_s", "metrics_s"):
                # 0 only when every write/metrics child failed, which counts
                avg[k] = min((r[k] for r in extra), default=0.0)
        else:
            avg["simulate_s"] = avg["wall_s"]
            avg["minutes"] = self.trace_in.minutes
        return {
            "setup_s": (statistics.median(setup), "s"),
            "sim_min_per_s": (avg["minutes"] / avg["simulate_s"], "min/s"),
            "wall_s": (avg["wall_s"], "s"),
            "write_s": (avg["write_s"], "s"),
            "metrics_s": (avg["metrics_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }

    def traced(self) -> dict:
        import oracle

        spans = self.spans
        rec = spans.Recorder()
        with spans.patched(rec):
            first = self.ops
            rows = self.loop(rec)
        runs = range(first, self.ops)
        per_run = [spans.layer_metrics(rec, r) for r in runs]
        out = {}
        for k, (_, unit) in per_run[0].items():
            median = statistics.median_low if unit == "count" \
                else statistics.median
            out[k] = (median(m[k][0] for m in per_run), unit)
        # Solve tallies are kept over all traced pipelines; report per run.
        out["milp.nodes"] = (rec.milp_nodes // len(runs), "count")
        out["milp.branches"] = (rec.milp_branches // len(runs), "count")
        n_spans = len(rec.spans) // len(runs)
        out["trace.wall_s"] = (statistics.median(r["wall_s"] for r in rows),
                               "s")
        out["trace.spans"] = (n_spans, "count")
        out["trace.overhead_s"] = (n_spans * spans.span_cost(), "s")
        out["engine.trace_bytes"] = (self.trace_bytes, "B")

        optimal = rec.solve_status.get("optimal", 0)
        verified = sum(1 for s in rec.spans
                       if s.name == "lp.verify_certificates")
        if verified != optimal:
            self.problems.append(
                f"{verified} certificate checks for {optimal} optimal solves")
        for layer in spans.LAYERS:
            prog = rec.programs.get(layer)
            ms = 0.0
            if prog is not None:
                ref, secs = oracle.highs_solve(prog.lp)
                ms = 1e3 * secs
                ours = prog.solution.objective
                if not oracle.objectives_match(ours, ref):
                    self.problems.append(
                        f"{layer} objective {ours!r} differs from HiGHS "
                        f"{ref!r}")
            out[f"highs.{layer}_ms"] = (ms, "ms")
        return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gridops", "cli.py")):
        print("bench: src/gridops not found; run from the repository root",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads (child processes inherit it).
    # With two vCPUs the second thread only spins: a mini3-cadence day takes
    # the same wall time with one thread at half the CPU time, and the
    # spinning thread competes with everything else on the host.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, src)
    work =os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args, root, work)
        bench.validate()
        metrics = bench.traced() if args.trace else bench.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # another invocation is still using it
    for msg in bench.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.ops,
        "failed": len(bench.failed_ops),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
