"""Post-run statistics: imbalance, regulation, curtailment, congestion.

All minute-classification thresholds are explicit module constants so the
report is reproducible from the trace alone.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .engine import SimulationTrace
from .profiles import write_rows
from .scenario import Scenario

CURTAIL_TOL_MW = 1e-3
CONGEST_TOL_MW = 1e-3
EXHAUST_TOL_MW = 1e-3
# A histogram needing more bins than this is refused rather than allocated.
MAX_HIST_BINS = 100_000
# The trace series write_all reads; read_trace need convert no other.
REPORTED = ("imbalance", "load", "ver_available", "ver_delivered", "shed",
            "supergen", "interface_flow", "interface_limit", "regulation")


def percentile_rank(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct of
    the sample at or below it."""
    vals = np.sort(np.asarray(values, dtype=float))
    if len(vals) == 0:
        return 0.0
    k = max(int(math.ceil(pct / 100.0 * len(vals))), 1)
    return float(vals[k - 1])


def duration_curve(values: np.ndarray) -> np.ndarray:
    """Values sorted descending: fraction-of-time-exceeded view."""
    return np.sort(np.asarray(values, dtype=float))[::-1]


def histogram(values: np.ndarray, width: float, name: str = "values"):
    """Counts over bins whose edges are aligned to multiples of width.

    Raises ValueError naming the series ``name`` when the values are not
    finite or span more than MAX_HIST_BINS bins.
    """
    vals = np.asarray(values, dtype=float)
    if len(vals) == 0 or width <= 0:
        return np.zeros(1), np.zeros(0, dtype=int)
    vmin, vmax = float(vals.min()), float(vals.max())
    span = f"{name}: values over [{vmin:g}, {vmax:g}] at bin width {width:g}"
    if not (math.isfinite(vmin) and math.isfinite(vmax)):
        raise ValueError(f"{span} are not finite")
    lo = math.floor(vmin / width) * width
    hi = math.ceil(vmax / width) * width
    if hi <= lo:
        hi = lo + width
    n = int(round((hi - lo) / width))
    if n > MAX_HIST_BINS:
        raise ValueError(f"{span} need {n} histogram bins, more than "
                         f"{MAX_HIST_BINS}")
    edges = lo + width * np.arange(n + 1)
    counts, _ = np.histogram(vals, bins=edges)
    return edges, counts


def mileage_gwh(regulation: np.ndarray) -> float:
    """Total absolute regulation movement, MW*min summed over units,
    expressed in GWh."""
    if regulation.size == 0:
        return 0.0
    # The deltas of np.diff with ``prepend=regulation[:1] * 0``, built in
    # one array: the first row is reg[0] - reg[0] * 0 as that diff has it.
    deltas = np.empty_like(regulation, order="C")
    deltas[0] = regulation[0] - regulation[0] * 0
    np.subtract(regulation[1:], regulation[:-1], out=deltas[1:])
    np.abs(deltas, out=deltas)
    return float(deltas.sum()) / 60_000.0


def exhausted_minutes(trace: SimulationTrace, reg_total: np.ndarray) -> int:
    """Minutes where ``reg_total``, the regulation summed over units,
    reaches the saturation."""
    if trace.reg_saturation <= 0:
        return 0
    tot = np.abs(reg_total)
    return int(np.sum(tot >= trace.reg_saturation - EXHAUST_TOL_MW))


def congested_minutes(trace: SimulationTrace) -> dict[str, int]:
    out = {}
    for i, name in enumerate(trace.interface_names):
        flow = np.abs(trace.interface_flow[:, i])
        limit = trace.interface_limit[:, i]
        out[name] = int(np.sum(flow >= limit - CONGEST_TOL_MW))
    return out


def excess_generation_minutes(scn: Scenario, net: np.ndarray) -> int:
    """Minutes where the net load ``net`` sits below the inflexible
    generation floor."""
    floor = sum(g.p_min for g in scn.generators if g.kind == "must-run")
    return int(np.sum(net < floor))


def evening_ramp_mw(trace: SimulationTrace, net: np.ndarray,
                    window_min: int = 60) -> float:
    """Steepest upward climb of the net load ``net`` over ``window_min``
    after the renewable output peaks."""
    if len(net) <= window_min:
        return 0.0
    peak_at = int(np.argmax(trace.ver_delivered))
    ramps = net[window_min:] - net[:-window_min]
    ramps = ramps[peak_at:] if peak_at < len(ramps) else ramps[-1:]
    return float(ramps.max()) if len(ramps) else 0.0


def summarize(trace: SimulationTrace, scn: Scenario, scenario_name: str,
              net: np.ndarray, reg_total: np.ndarray, absim: np.ndarray,
              curt: np.ndarray) -> list[tuple[str, str, str, float, str]]:
    """The report rows, given the trace's net load ``net``, its regulation
    summed over units ``reg_total``, its absolute imbalance ``absim`` and
    its curtailment ``curt``."""
    rows = []

    def add(family, metric, value, unit):
        rows.append((family, scenario_name, metric, float(value), unit))

    add("imbalance", "max_abs", absim.max(initial=0.0), "MW")
    add("imbalance", "p95_abs", percentile_rank(absim, 95.0), "MW")
    add("imbalance", "minutes_above_1mw", int(np.sum(absim > 1.0)), "min")
    add("imbalance", "share_within_1mw",
        float(np.mean(absim <= 1.0)) if len(absim) else 1.0, "fraction")

    add("regulation", "mileage", mileage_gwh(trace.regulation), "GWh")
    add("regulation", "exhausted_minutes",
        exhausted_minutes(trace, reg_total), "min")
    add("regulation", "saturation", trace.reg_saturation, "MW")

    add("curtailment", "curtailed_minutes",
        int(np.sum(curt > CURTAIL_TOL_MW)), "min")
    add("curtailment", "curtailed_energy", curt.sum() / 60.0, "MWh")

    for name, mins in congested_minutes(trace).items():
        add("congestion", f"congested_minutes:{name}", mins, "min")

    add("load", "peak", trace.load.max(initial=0.0), "MW")
    add("load", "energy", trace.load.sum() / 60.0 / 1000.0, "GWh")
    add("load", "shed_energy", trace.shed.sum() / 60.0, "MWh")
    add("load", "max_evening_net_ramp", evening_ramp_mw(trace, net), "MW/h")

    add("reliability", "supergen_energy",
        np.abs(trace.supergen).sum() / 60.0, "MWh")
    add("reliability", "excess_generation_minutes",
        excess_generation_minutes(scn, net), "min")
    return rows


def write_report(outdir: str, rows) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("family,scenario,metric,value,unit\n")
        for family, scenario, metric, value, unit in rows:
            fh.write(f"{family},{scenario},{metric},{value:.6f},{unit}\n")


def write_duration(outdir: str, name: str, values: np.ndarray) -> None:
    os.makedirs(outdir, exist_ok=True)
    curve = duration_curve(values)
    write_rows(os.path.join(outdir, f"duration_{name}.csv"),
               ["rank", "value"], len(curve), [curve])


def write_hist(outdir: str, name: str, values: np.ndarray,
               width: float) -> None:
    os.makedirs(outdir, exist_ok=True)
    edges, counts = histogram(values, width, name)
    with open(os.path.join(outdir, f"hist_{name}.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]:.6f},{edges[i + 1]:.6f},{c}\n")


def write_all(outdir: str, trace: SimulationTrace, scn: Scenario,
              scenario_name: str) -> None:
    """Full metrics bundle: report, curves, histograms, plot data.  Values
    are printed as computed, with no clamping of -0.000000."""
    net = trace.net_load()
    reg_total = trace.regulation.sum(axis=1)
    absim = np.abs(trace.imbalance)
    curt = trace.curtailment()
    write_report(outdir, summarize(trace, scn, scenario_name, net, reg_total,
                                   absim, curt))
    write_duration(outdir, "imbalance", absim)
    del absim
    write_duration(outdir, "net_load", net)
    write_hist(outdir, "imbalance", trace.imbalance, 1.0)
    write_hist(outdir, "net_load", net, 10.0)
    plotdir = os.path.join(outdir, "plotdata")
    os.makedirs(plotdir, exist_ok=True)
    for name, series in (("imbalance", trace.imbalance),
                         ("net_load", net),
                         ("curtailment", curt),
                         ("regulation", reg_total)):
        write_rows(os.path.join(plotdir, f"{name}.csv"), ["minute", "value"],
                   trace.minutes, [series])
