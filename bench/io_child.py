"""Write and metrics samples in a fresh interpreter.

    python3 bench/io_child.py TRACE_PICKLE SCENARIO OUTDIR SEED SECONDS

Writes the pickled trace with ``engine.write_trace`` and runs the
``metrics`` command on it, once untimed to warm up and then again and again
for SECONDS (at least once), and prints the ``[write_s, metrics_s]`` pairs
as JSON.  Each time is the CPU time (user + system) of this process, which
leaves out the time the host gives to other guests; the output lands in the
page cache, so on a quiet host it is the wall time too.  The last output
stays in OUTDIR for the caller to check.  Timed inside the process that has
just simulated, these short steps vary widely from one run to the next, so
the caller takes its samples in several of these fresh processes instead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import pickle
import shutil
import sys
import time

from gridops.cli import main
from gridops.engine import write_trace
from gridops.scenario import load_scenario


def run(trace_path: str, scn_path: str, outdir: str, seed: int,
        seconds: float) -> int:
    with open(trace_path, "rb") as fh:
        trace = pickle.load(fh)         # written by bench/run.py
    scn = load_scenario(scn_path)
    samples = []
    start = None
    while start is None or not samples or \
            time.perf_counter() - start < seconds:
        shutil.rmtree(outdir, ignore_errors=True)
        gc.collect()
        t0 = time.process_time()
        write_trace(outdir, trace, scn, seed, scn_path)
        t1 = time.process_time()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["metrics", outdir, "--scenario", scn_path])
        t2 = time.process_time()
        if rc != 0:
            sys.stderr.write(err.getvalue())
            return rc
        if start is None:
            start = time.perf_counter()     # the first pass was the warm-up
        else:
            samples.append([t1 - t0, t2 - t1])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    path, scenario, out, seed_arg, secs = sys.argv[1:6]
    sys.exit(run(path, scenario, out, int(seed_arg), float(secs)))
