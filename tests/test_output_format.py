"""The chunked CSV writers print exactly the bytes of the row-at-a-time
f-string writers they replaced, which are kept below as the reference."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridops import __version__
from gridops.engine import SERIES, SimulationTrace, read_trace, write_trace
from gridops.metrics import (REPORTED, duration_curve, summarize, write_all,
                             write_duration, write_hist, write_report)
from gridops.profiles import Profile, chunk_rows, write_profile, write_rows
from gridops.scenario import Scenario, ZonalNetwork, scenario_hash

SPECIALS = (-0.0, 5e-7, -5e-7, 5.000001e-7, -5.000001e-7, 0.0000005,
            1e9, -1e9)
# Around the chunk boundaries of trace.csv (10 fields), then past those of
# 5-field files and of the 2-field profile, duration and plot-data files.
MINUTES = (1, chunk_rows(10) - 1, chunk_rows(10), chunk_rows(10) + 1,
           3 * chunk_rows(10) + 17, chunk_rows(5) + 1, chunk_rows(2) + 1)

# Values whose sixth decimal rint(|x| * 1e6) cannot be trusted to round:
# products near a half, an exact binary tie (2**-7 = 0.0078125), and the
# neighbourhood of 2**52 / 1e6, where |x| * 1e6 stops holding halves.
# Then the largest integer parts the arithmetic prints, near 2**31 and up
# to where a half's guard covers the whole float spacing (about 2.17e9).
_K = np.array([0, 1, 2, 7, 12, 499, 12344, 999999, 10 ** 6 + 3, 123456789,
               10 ** 9 + 7, 4503599626])
_HALVES = (_K + 0.5) / 1e6
_EDGE = 2.0 ** 52 / 1e6
NEAR_HALF = np.concatenate([
    _HALVES, np.nextafter(_HALVES, 0.0), np.nextafter(_HALVES, np.inf),
    [2.0 ** -7, 999999.9999995, _EDGE],
    _EDGE + np.arange(-4, 5) * np.spacing(_EDGE),
    _EDGE * (1.0 + np.linspace(-1e-6, 1e-6, 11)),
    2.0 ** 31 + np.array([-1.25, -0.3, 0.0, 0.3, 1.7, 2.6e7]),
    0.5 / 2.3e-16 / 1e6 * (1.0 + np.linspace(-1e-9, 1e-9, 9))])


# -- reference writers, row at a time --------------------------------------

def ref_unsigned(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[(out <= 0.0) & (out >= -5e-7)] = 0.0
    return out


def ref_write_trace(outdir, trace, scn, seed, scenario_path=None):
    os.makedirs(outdir, exist_ok=True)
    (imb_raw, imb, reg_total, load, gen, ver_av, ver_del, shed, sg) = (
        ref_unsigned(a) for a in (
            trace.imbalance_raw, trace.imbalance,
            trace.regulation.sum(axis=1), trace.load, trace.generation,
            trace.ver_available, trace.ver_delivered, trace.shed,
            trace.supergen))
    with open(os.path.join(outdir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("minute,imbalance_raw_mw,imbalance_mw,regulation_mw,"
                 "load_mw,generation_mw,ver_available_mw,ver_delivered_mw,"
                 "shed_mw,supergen_mw\n")
        for m in range(trace.minutes):
            fh.write(f"{m},{imb_raw[m]:.6f},{imb[m]:.6f},{reg_total[m]:.6f},"
                     f"{load[m]:.6f},{gen[m]:.6f},{ver_av[m]:.6f},"
                     f"{ver_del[m]:.6f},{shed[m]:.6f},{sg[m]:.6f}\n")
    flows = ref_unsigned(trace.flows)
    iface = ref_unsigned(trace.interface_flow)
    limit = ref_unsigned(trace.interface_limit)
    with open(os.path.join(outdir, "flows.csv"), "w", encoding="utf-8") as fh:
        head = ["minute"] + [f"flow:{b}" for b in trace.branch_names] + \
            [f"iface:{n}" for n in trace.interface_names] + \
            [f"limit:{n}" for n in trace.interface_names]
        fh.write(",".join(head) + "\n")
        for m in range(trace.minutes):
            row = [str(m)] + [f"{x:.6f}" for x in flows[m]] + \
                [f"{x:.6f}" for x in iface[m]] + \
                [f"{x:.6f}" for x in limit[m]]
            fh.write(",".join(row) + "\n")
    regulation = ref_unsigned(trace.regulation)
    with open(os.path.join(outdir, "regulation.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(",".join(["minute"] + trace.reg_units) + "\n")
        for m in range(trace.minutes):
            row = [str(m)] + [f"{x:.6f}" for x in regulation[m]]
            fh.write(",".join(row) + "\n")
    with open(os.path.join(outdir, "units.csv"), "w", encoding="utf-8") as fh:
        ids = sorted(trace.unit_output)
        outputs = [ref_unsigned(trace.unit_output[g]) for g in ids]
        fh.write(",".join(["minute"] + ids) + "\n")
        for m in range(trace.minutes):
            row = [str(m)] + [f"{out[m]:.6f}" for out in outputs]
            fh.write(",".join(row) + "\n")
    manifest = {
        "scenario_hash": scenario_hash(scenario_path) if scenario_path
        else None,
        "seed": int(seed),
        "version": __version__,
        "minutes": trace.minutes,
    }
    with open(os.path.join(outdir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ref_write_duration(outdir, name, values):
    os.makedirs(outdir, exist_ok=True)
    curve = duration_curve(values)
    with open(os.path.join(outdir, f"duration_{name}.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("rank,value\n")
        for i, v in enumerate(curve):
            fh.write(f"{i},{v:.6f}\n")


def ref_write_all(outdir, trace, scn, scenario_name):
    write_report(outdir, summarize(trace, scn, scenario_name,
                                   trace.net_load(),
                                   trace.regulation.sum(axis=1),
                                   np.abs(trace.imbalance),
                                   trace.curtailment()))
    ref_write_duration(outdir, "imbalance", np.abs(trace.imbalance))
    ref_write_duration(outdir, "net_load", trace.net_load())
    write_hist(outdir, "imbalance", trace.imbalance, 1.0)
    write_hist(outdir, "net_load", trace.net_load(), 10.0)
    plotdir = os.path.join(outdir, "plotdata")
    os.makedirs(plotdir, exist_ok=True)
    minutes = np.arange(trace.minutes)
    for name, series in (("imbalance", trace.imbalance),
                         ("net_load", trace.net_load()),
                         ("curtailment", trace.curtailment()),
                         ("regulation", trace.regulation.sum(axis=1))):
        with open(os.path.join(plotdir, f"{name}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("minute,value\n")
            for m, v in zip(minutes, series):
                fh.write(f"{m},{v:.6f}\n")


def ref_write_rows(path, header, n, columns, first=0):
    """write_rows, one ``%`` per field."""
    flat = [np.reshape(c, (n, -1)) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write("%d" % (first + i) + "".join(
                ",%.6f" % v for c in flat for v in c[i].tolist()) + "\n")


def ref_write_profile(path, p):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("minute,value_mw\n")
        for i, v in enumerate(p.values):
            fh.write(f"{p.start + i},{v:.6f}\n")


# -- inputs ----------------------------------------------------------------

def _values(rng, shape, scale):
    """Seeded values with every special value near the top and more of
    them scattered through."""
    out = scale * rng.standard_normal(shape)
    flat = out.reshape(-1)
    mask = rng.random(flat.shape) < 0.25
    flat[mask] = rng.choice(SPECIALS, int(mask.sum()))
    k = min(len(SPECIALS), flat.size)
    flat[:k] = SPECIALS[:k]
    return out


def make_trace(minutes, branches, interfaces, reg_units, units, seed,
               scale):
    rng = np.random.default_rng(seed)
    tr = SimulationTrace(
        minutes=minutes, branch_names=[f"b{i}" for i in range(branches)],
        interface_names=[f"if{i}" for i in range(interfaces)],
        reg_units=[f"r{i}" for i in range(reg_units)], reg_saturation=50.0)
    for name in ("imbalance_raw", "generation", "ver_available", "shed",
                 "supergen"):
        setattr(tr, name, _values(rng, minutes, scale))
    # The metrics histogram these feed has one bin per MW (imbalance) or
    # ten MW (net load) of their range, so they stay within +-1e3 MW.
    for name in ("imbalance", "load", "ver_delivered"):
        setattr(tr, name, np.clip(_values(rng, minutes, min(scale, 1e2)),
                                  -1e3, 1e3))
    tr.regulation = _values(rng, (minutes, reg_units), scale)
    tr.flows = _values(rng, (minutes, branches), scale)
    tr.interface_flow = _values(rng, (minutes, interfaces), scale)
    tr.interface_limit = _values(rng, (minutes, interfaces), scale)
    tr.unit_output = {f"u{i}": _values(rng, minutes, scale)
                      for i in reversed(range(units))}
    return tr


def read_dir(path) -> dict[str, bytes]:
    out = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def printed(values) -> np.ndarray:
    """What write_trace prints for ``values``, parsed back."""
    vals = ref_unsigned(values)
    return np.array([float(f"{x:.6f}") for x in vals.reshape(-1)]
                    ).reshape(vals.shape)


SCENARIO = Scenario(network=ZonalNetwork(bubbles=["a"]))


# -- properties ------------------------------------------------------------

@pytest.mark.parametrize("minutes", MINUTES)
@settings(max_examples=5)
@given(branches=st.integers(0, 3), interfaces=st.integers(0, 2),
       reg_units=st.integers(0, 2), units=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3, 1e7]))
def test_writers_match_row_at_a_time_bytes(minutes, branches, interfaces,
                                           reg_units, units, seed, scale):
    tr = make_trace(minutes, branches, interfaces, reg_units, units, seed,
                    scale)
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = os.path.join(tmp, "new"), os.path.join(tmp, "ref")
        write_trace(new, tr, SCENARIO, seed)
        ref_write_trace(ref, tr, SCENARIO, seed)
        write_all(new, tr, SCENARIO, "demo")
        ref_write_all(ref, tr, SCENARIO, "demo")
        write_duration(new, "wide", tr.imbalance_raw)
        ref_write_duration(ref, "wide", tr.imbalance_raw)
        got, want = read_dir(new), read_dir(ref)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name

        back = read_trace(new)
        assert back.minutes == minutes
        assert back.branch_names == tr.branch_names
        assert back.interface_names == tr.interface_names
        assert back.reg_units == tr.reg_units
        for name in ("imbalance_raw", "imbalance", "load", "generation",
                     "ver_available", "ver_delivered", "shed", "supergen",
                     "regulation", "flows", "interface_flow",
                     "interface_limit"):
            want_vals = printed(getattr(tr, name))
            assert getattr(back, name).shape == want_vals.shape, name
            assert np.array_equal(getattr(back, name), want_vals), name
        assert sorted(back.unit_output) == sorted(tr.unit_output)
        for gid, arr in tr.unit_output.items():
            assert np.array_equal(back.unit_output[gid], printed(arr)), gid

        # metrics reads only the series it reports, to the same bytes.
        part = read_trace(new, REPORTED)
        for name in set(SERIES) - set(REPORTED):
            assert getattr(part, name) is None, name
        full_out, part_out = (os.path.join(tmp, d) for d in ("full", "part"))
        write_all(full_out, back, SCENARIO, "demo")
        write_all(part_out, part, SCENARIO, "demo")
        assert read_dir(part_out) == read_dir(full_out)


def rows_match(n, columns, first=0) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
        header = ["i"] + [f"c{k}" for k in range(len(columns))]
        write_rows(new, header, n, columns, first)
        ref_write_rows(ref, header, n, columns, first)
        with open(new, "rb") as a, open(ref, "rb") as b:
            got, want = a.read().splitlines(), b.read().splitlines()
    assert len(got) == len(want)
    for at, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {at + 1}"


@settings(max_examples=40)
@given(pool=st.lists(st.floats(), min_size=1, max_size=30),
       groups=st.lists(st.none() | st.integers(0, 3), max_size=4),
       rows=st.sampled_from((1, 2, (1, -1), (1, 0), (1, 1), (2, 3))),
       first=st.integers(-10 ** 6, 10 ** 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_rows_prints_percent_bytes(pool, groups, rows, first, seed):
    """Any floats (NaN, infinities, subnormals, signed zeros, huge ones),
    1-D and 2-D groups with or without columns, a negative index: the
    bytes of ``%d`` and ``%.6f``.  ``rows`` is a row count or, as
    ``(k, d)``, k chunks of these fields plus d rows.  The rows draw from a
    small pool of values so that hypothesis can shrink them."""
    fields = 1 + sum(1 if g is None else g for g in groups)
    n = rows if isinstance(rows, int) \
        else rows[0] * chunk_rows(fields) + rows[1]
    rng = np.random.default_rng(seed)
    vals = np.array(pool)
    columns = [vals[rng.integers(0, len(vals),
                                 n if g is None else (n, g))]
               for g in groups]
    rows_match(n, columns, first)


def test_write_rows_prints_near_halves_as_percent_does():
    vals = np.concatenate([NEAR_HALF, -NEAR_HALF])
    rows_match(len(vals), [vals, vals[::-1, None] * [1.0, 1e-3, 10.0]],
               first=-len(vals) // 2)


@pytest.mark.parametrize("minutes", MINUTES)
@settings(max_examples=5)
@given(start=st.integers(-10 ** 6, 10 ** 6),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e3, 1e7]))
def test_profile_matches_row_at_a_time_bytes(minutes, start, seed, scale):
    p = Profile(_values(np.random.default_rng(seed), minutes, scale),
                start=start)
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
        write_profile(new, p)
        ref_write_profile(ref, p)
        with open(new, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()


def test_groups_without_columns_still_write_every_minute(tmp_path):
    """No branches, interfaces, regulation units or units: each row of
    those files is the minute alone, one per minute."""
    minutes = chunk_rows(1) + 1
    tr = make_trace(minutes, 0, 0, 0, 0, seed=3, scale=1.0)
    write_trace(str(tmp_path), tr, SCENARIO, 3)
    want = "minute\n" + "".join(f"{m}\n" for m in range(minutes))
    for name in ("flows.csv", "regulation.csv", "units.csv"):
        assert (tmp_path / name).read_text() == want, name
