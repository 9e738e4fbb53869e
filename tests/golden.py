"""Golden outputs: digests of what a few fixed runs write.

``golden.json`` holds, for each run, the sha256 of each output file and a
one-byte digest of each of its lines, so a check can name the first file
and line that moved, not only that something did.  The runs:

- ``mini3-base``: the ``gen-mini`` base fleet over 2 days at seed 7, as the
  acceptance suite's ``base_2day`` simulates it (its 3-day profiles give
  the bytes of ``gen-mini --days 2`` and ``simulate --days 2 --seed 7``);
- ``congestion``, ``congestion-wide`` and ``high-solar``: the acceptance
  suite's variant days (1 day at the scenario seed), ``trace.csv`` only;
- ``mini3-cadence``: the benchmark's 5-minute-market fixture
  (``bench/inputs.py``) over 1 day at seed 7.

``report.csv`` is written as ``gridops metrics`` writes it: from the trace
read back from its CSVs.  The cadence run also digests the duration curves
and the per-minute plot data that ``metrics`` writes beside it.

The manifest's ``programs`` holds, for the base and cadence runs, the count
and one sha256 of every program the run hands to the solver, in solve
order: each program's arrays (``PROGRAM_ARRAYS``, with dtype and shape),
names, senses and ``repr`` text.  Its ``all-families`` entry digests the
same way the programs of ``test_dispatch.family_windows``, each layer's two
windows built fresh: they hold the storage, demand-response, tie-line
contingency and reserve families, which no run's day builds.  So a change
to how programs are built that alters any bit of any program fails, even
where the outputs happen to agree.

When outputs change on purpose, rewrite the manifest from the current code
with ``PYTHONPATH=src python tests/golden.py`` and let its diff show which
outputs moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import sys
import tempfile
import zlib

import numpy as np

import gridops.dispatch
from gridops.engine import read_trace, simulate, write_trace
from gridops.grid import make_regulation
from gridops.metrics import write_all
from gridops.mini import write_mini3
from gridops.scenario import load_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden.json")
ALL = ("trace.csv", "flows.csv", "units.csv", "regulation.csv", "report.csv")
METRICS = ("duration_imbalance.csv", "duration_net_load.csv",
           "plotdata/imbalance.csv", "plotdata/net_load.csv",
           "plotdata/curtailment.csv", "plotdata/regulation.csv")

# run -> (gen-mini variant, days of profile written, minutes, seed or None
# for the scenario's, files digested)
RUNS = {
    "mini3-base": ("base", 3, 2880, 7, ALL),
    "congestion": ("congestion", 2, 1440, None, ("trace.csv",)),
    "congestion-wide": ("congestion-wide", 2, 1440, None, ("trace.csv",)),
    "high-solar": ("high-solar", 2, 1440, None, ("trace.csv",)),
    "mini3-cadence": ("cadence", 4, 1440, 7, ALL + METRICS),
}
# Runs whose solved programs are digested, and each program's arrays digested.
PROGRAM_RUNS = ("mini3-base", "mini3-cadence")
PROGRAM_ARRAYS = ("lb", "ub", "obj", "binary", "rhs", "indptr", "entry_row",
                  "entry_col", "entry_val", "A")


def write_scenario(run: str, directory: str) -> str:
    """Write the run's scenario file into ``directory``; returns its path."""
    variant, days = RUNS[run][:2]
    if variant == "cadence":
        spec = importlib.util.spec_from_file_location(
            "bench_inputs",
            os.path.join(os.path.dirname(HERE), "bench", "inputs.py"))
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        return inputs.write_cadence_fixture(
            os.path.join(directory, "cadence.scn"))
    return write_mini3(os.path.join(directory, "mini3.scn"), variant=variant,
                       days=days)


def simulate_run(run: str, scn):
    """The run's trace, simulated afresh."""
    minutes, seed = RUNS[run][2:4]
    return simulate(scn, minutes, seed=scn.seed if seed is None else seed)


def write_outputs(run: str, trace, scn, scenario_path: str,
                  outdir: str) -> str:
    """Write the run's trace and, if the run digests it, the metrics
    report, as ``simulate`` and then ``metrics`` would."""
    seed = RUNS[run][3]
    write_trace(outdir, trace, scn, scn.seed if seed is None else seed,
                scenario_path)
    if "report.csv" in RUNS[run][4]:
        back = read_trace(outdir)
        back.reg_saturation = make_regulation(scn.generators).total_saturation
        name = os.path.splitext(os.path.basename(scenario_path))[0]
        write_all(outdir, back, scn, name)
    return outdir


def _update(h, lp) -> None:
    """Add one program to the digest ``h``: its arrays, names, senses and
    ``repr`` text."""
    for name in PROGRAM_ARRAYS:
        a = np.ascontiguousarray(getattr(lp, name))
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    for names in (lp.col_names, lp.row_names, lp.senses):
        h.update("\n".join(names).encode() + b"\0")
    h.update(repr(lp).encode())


def program_digest(run: str, directory: str) -> dict:
    """The count and sha256 of the programs the run's simulation solves,
    each digested as the layers hand it to the solver."""
    h = hashlib.sha256()
    count = 0

    def digesting(solve):
        def wrapped(lp, **kwargs):
            nonlocal count
            count += 1
            _update(h, lp)
            return solve(lp, **kwargs)
        return wrapped

    solvers = {name: getattr(gridops.dispatch, name)
               for name in ("solve_lp", "solve_milp")}
    scn = load_scenario(write_scenario(run, directory))
    try:
        for name, solve in solvers.items():
            setattr(gridops.dispatch, name, digesting(solve))
        simulate_run(run, scn)
    finally:
        for name, solve in solvers.items():
            setattr(gridops.dispatch, name, solve)
    return {"count": count, "sha256": h.hexdigest()}


def family_digest() -> dict:
    """The count and sha256 of the all-families programs: each layer's two
    windows of ``test_dispatch.family_windows``, each built fresh."""
    from test_dispatch import family_windows
    h = hashlib.sha256()
    count = 0
    for layer in ("scuc", "rtuc", "sced"):
        scn, windows = family_windows(layer)
        for window in windows:
            _update(h, gridops.dispatch.build_program(scn, *window)[0])
            count += 1
    return {"count": count, "sha256": h.hexdigest()}


def digest(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    lines = "".join(f"{zlib.crc32(ln) & 0xFF:02x}"
                    for ln in data.splitlines(keepends=True))
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": lines}


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def first_difference(run: str, outdir: str, manifest: dict) -> str | None:
    """None when every digested file of the run matches the manifest, else
    the first file and line that differ."""
    for name in RUNS[run][4]:
        want = manifest["runs"][run][name]
        path = os.path.join(outdir, name)
        got = digest(path)
        if got["sha256"] == want["sha256"]:
            continue
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        a, b = want["lines"], got["lines"]
        n = min(len(a), len(b)) // 2
        at = next((i for i in range(n)
                   if a[2 * i:2 * i + 2] != b[2 * i:2 * i + 2]), n)
        if at == n and len(a) == len(b):
            where = "a line whose digest byte happens to agree"
        elif at < len(lines):
            where = f"line {at + 1}: {lines[at].decode()!r}"
        else:
            where = f"line {at + 1}: the file ends at line {len(lines)}"
        return (f"{run}: {name} differs from the golden output at {where} "
                f"(manifest made with numpy {manifest['numpy']}, this is "
                f"numpy {np.__version__})")
    return None


def main() -> int:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            directory = os.path.join(tmp, run)
            os.makedirs(directory)
            path = write_scenario(run, directory)
            scn = load_scenario(path)
            out = write_outputs(run, simulate_run(run, scn), scn, path,
                                os.path.join(directory, "out"))
            runs[run] = {name: digest(os.path.join(out, name))
                         for name in RUNS[run][4]}
        programs = {}
        for run in PROGRAM_RUNS:
            directory = os.path.join(tmp, f"{run}-programs")
            os.makedirs(directory)
            programs[run] = program_digest(run, directory)
        programs["all-families"] = family_digest()
    manifest = {"numpy": np.__version__, "programs": programs,
                "python": platform.python_version(), "runs": runs}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
