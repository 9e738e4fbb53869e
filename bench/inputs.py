"""Workload inputs, made only from the benchmark seed.

- ``mini3-day``: the base fixture exactly as ``gridops gen-mini`` writes it
  (all forecast errors zero).  The seed is the simulation seed.
- ``mini3-cadence``: the same fleet, rewritten from ``write_mini3`` output
  onto a 5-minute market with the default forecast errors and two forced
  outages.  The seed is the simulation seed, so it draws the errors.
- ``trace-io``: a multi-week trace of mini3 shape whose values are drawn
  from the seed; it feeds the writer and the metrics report with no solves.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

from gridops.cli import main
from gridops.engine import SimulationTrace
from gridops.grid import make_regulation
from gridops.mini import (DAY, SOLAR_BASE, load_curve, solar_curve,
                          write_mini3)

# [timing] for mini3-cadence: SCUC horizon 2 h, RTUC step 5 min, RTUC
# horizon 30 min, RTUC period 30 min, SCED step 5 min; then its outages.
CADENCE_TIMING = """[timing]
scuc-horizon = 2
rtuc-step = 5
rtuc-horizon = 30
rtuc-period = 30
sced-step = 5
regulation-step = 1

[outage gas2-trip]
resource = gas2
start = 605
duration = 90

[outage sun1-trip]
resource = sun1
start = 800
duration = 30

"""

TRACE_IO_DAYS = 30


def write_day_fixture(path: str) -> str:
    """The bundled base fixture, through the public ``gen-mini`` command."""
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["gen-mini", path])
    if rc != 0:
        raise RuntimeError("gridops gen-mini failed")
    return path


def cadence_text(base_text: str) -> str:
    """Rewrite base-fixture text into the mini3-cadence scenario."""
    kept = [ln for ln in base_text.splitlines(keepends=True)
            if not ln.startswith("eps_")]
    text = "".join(kept)
    head, sep, rest = text.partition("[timing]\n")
    _, sep2, seeds = rest.partition("[seeds]\n")
    if not sep or not sep2:
        raise RuntimeError("fixture text lacks [timing] or [seeds]")
    return head + CADENCE_TIMING + sep2 + seeds


def write_cadence_fixture(path: str) -> str:
    write_mini3(path)
    with open(path, encoding="utf-8") as fh:
        text = cadence_text(fh.read())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def synthetic_trace(scn, seed: int) -> SimulationTrace:
    """A trace of the scenario's shape: mini3 load and solar curves with
    seeded noise, unit outputs, regulation and branch flows."""
    rng = np.random.default_rng(seed)
    n = TRACE_IO_DAYS * DAY
    net = scn.network
    reg = make_regulation(scn.generators)
    tr = SimulationTrace(
        minutes=n,
        branch_names=[f"{b.from_bubble}-{b.to_bubble}" for b in net.branches],
        interface_names=[i.name for i in net.interfaces],
        reg_units=list(reg.unit_ids))
    tr.reg_saturation = reg.total_saturation
    load = load_curve(n) + rng.normal(0.0, 3.0, n)
    solar = solar_curve(n, SOLAR_BASE) * rng.uniform(0.7, 1.0, n)
    tr.load = load
    tr.ver_available = solar
    tr.ver_delivered = solar * np.where(rng.random(n) < 0.05, 0.8, 1.0)
    tr.imbalance_raw = rng.normal(0.0, 4.0, n)
    tr.regulation = np.clip(-tr.imbalance_raw[:, None], -50.0, 50.0) * \
        np.ones((1, len(tr.reg_units)))
    tr.imbalance = tr.imbalance_raw + tr.regulation.sum(axis=1)
    tr.generation = load - tr.ver_delivered + tr.imbalance_raw
    tr.shed = np.where(rng.random(n) < 0.01, rng.uniform(0.0, 5.0, n), 0.0)
    tr.supergen = np.where(rng.random(n) < 0.01, rng.normal(0.0, 2.0, n), 0.0)
    tr.flows = rng.normal(0.0, 40.0, (n, len(tr.branch_names)))
    tr.interface_flow = tr.flows[:, -len(tr.interface_names):] \
        if tr.interface_names else np.zeros((n, 0))
    tr.interface_limit = np.tile([i.limit for i in net.interfaces], (n, 1))
    share = rng.dirichlet(np.ones(len(scn.generators)), n)
    for k, g in enumerate(scn.generators):
        tr.unit_output[g.id] = share[:, k] * tr.generation
    return tr
