"""Scenario parsing, validation and round-trip serialization."""

from __future__ import annotations

import numpy as np
import pytest

from gridops.mini import write_mini3
from gridops.scenario import (ScenarioError, load_scenario, render_report,
                              scenario_hash, serialize, validate_scenario)


@pytest.fixture
def mini(tmp_path):
    path = tmp_path / "mini3.scn"
    write_mini3(str(path), days=2)
    return str(path)


def test_mini_fixture_shape(mini):
    scn = load_scenario(mini)
    assert scn.network.bubbles == ["n1", "n2", "n3"]
    assert len(scn.generators) == 4
    assert scn.network.swing == "ext"
    assert [g.kind for g in scn.generators].count("fast-start") == 1
    assert scn.semis[0].profile is not None
    assert scn.peak_load == pytest.approx(310.0, abs=0.5)


def test_mini_fixture_validates_clean(mini):
    scn = load_scenario(mini)
    assert validate_scenario(scn) == []


def test_empty_file(tmp_path):
    p = tmp_path / "empty.scn"
    p.write_text("")
    with pytest.raises(ScenarioError, match=r"missing \[network\] section"):
        load_scenario(str(p))


def test_undefined_bubble_named(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("[network]\nswing = ext\n[bubble a]\n"
                 "[generator g1]\nbubble = X\n")
    with pytest.raises(ScenarioError, match="'X'"):
        load_scenario(str(p))


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("[network]\nswing = ext\n[bubble a]\nnot a pair\n")
    with pytest.raises(ScenarioError, match=r":4:"):
        load_scenario(str(p))


def test_duplicate_id_rejected(tmp_path):
    p = tmp_path / "dup.scn"
    p.write_text("[network]\nswing = s\n[bubble a]\n"
                 "[generator g1]\nbubble = a\n[generator g1]\nbubble = a\n")
    with pytest.raises(ScenarioError, match="duplicate id"):
        load_scenario(str(p))


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("[network]\nswing = s\n[bubble a]\nnonsense = 3\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario(str(p))


def test_validation_flags_bad_generator(mini):
    scn = load_scenario(mini)
    g = scn.generators[1]
    g.p_min, g.p_max = 200.0, 100.0
    report = validate_scenario(scn)
    assert any(ent == g.id and "P^min" in msg for _, ent, msg in report)


def test_validation_flags_bad_storage_energy(mini):
    scn = load_scenario(mini)
    from gridops.scenario import Storage
    scn.storages.append(Storage(id="st1", bubble="n1", e_min=0, e_max=100,
                                initial_energy=150.0))
    report = validate_scenario(scn)
    assert any(ent == "st1" for _, ent, msg in report)


@pytest.mark.parametrize("resource,start,duration,message", [
    ("pond", 10, 30, "only to generators"),
    ("flex", 10, 30, "only to generators"),
    ("gas2", 10, -5, "duration -5 is negative"),
    ("sun1", -1, 30, "start -1"),
], ids=["storage", "dr", "negative-duration", "negative-start"])
def test_validation_flags_bad_outage(mini, resource, start, duration,
                                     message):
    from gridops.scenario import DemandResponse, Outage, Storage
    scn = load_scenario(mini)
    scn.storages.append(Storage(id="pond", bubble="n1", e_max=100.0))
    scn.drs.append(DemandResponse(id="flex", bubble="n2", p_max=10.0))
    assert validate_scenario(scn) == []
    scn.outages.append(Outage(resource=resource, start=start,
                              duration=duration))
    report = validate_scenario(scn)
    assert len(report) == 1
    sev, ent, msg = report[0]
    assert (sev, ent) == ("error", resource) and message in msg


def test_validation_flags_duplicate_load(mini):
    from gridops.scenario import LoadSpec
    scn = load_scenario(mini)
    scn.loads.append(LoadSpec(bubble=scn.loads[0].bubble))
    report = validate_scenario(scn)
    assert report == [("error", scn.loads[0].bubble,
                       "second [load] section for this bubble")]


def test_validation_is_pure(mini):
    scn = load_scenario(mini)
    assert validate_scenario(scn) == validate_scenario(scn)


def test_report_rendering():
    txt = render_report([("error", "g1", "broken")])
    assert txt == "error\tg1\tbroken\n"


def test_roundtrip_serialization(mini, tmp_path):
    scn = load_scenario(mini)
    text = serialize(scn)
    p2 = tmp_path / "copy.scn"
    p2.write_text(text)
    scn2 = load_scenario(str(p2))
    assert serialize(scn2) == text
    assert scn2.network.bubbles == scn.network.bubbles
    assert [g.id for g in scn2.generators] == [g.id for g in scn.generators]
    assert scn2.gamma_loss == scn.gamma_loss
    for a, b in zip(scn.loads, scn2.loads):
        assert np.array_equal(a.profile.values, b.profile.values)


def test_ver_spec_resolution(tmp_path):
    shape = tmp_path / "shape.csv"
    lines = ["minute,value_mw"] + [f"{i},1.0" for i in range(120)]
    shape.write_text("\n".join(lines) + "\n")
    load = tmp_path / "load.csv"
    load.write_text("\n".join(["minute,value_mw"] +
                              [f"{i},{1000.0}" for i in range(120)]) + "\n")
    p = tmp_path / "v.scn"
    p.write_text(
        "[network]\nswing = s\nswing-attach = a\n[bubble a]\n"
        "[load a]\nprofile = load.csv\n"
        "[semi w1]\nbubble = a\nkind = wind\nshape = shape.csv\n"
        "pi = 0.4\ngamma_cf = 0.3\n")
    scn = load_scenario(str(p))
    # Constant unit shape at pi=0.4, cf=0.3 on a 1,000 MW peak.
    assert scn.semis[0].profile.values == pytest.approx(np.full(120, 120.0))
    assert scn.semis[0].eps(0) == 0.12  # wind day-ahead default


def test_forecast_error_defaults(mini):
    scn = load_scenario(mini)
    sun = scn.semis[0]
    assert sun.eps(0) == 0.0  # fixture pins them to zero
    assert scn.loads[0].eps(0) == 0.0
    sun.eps_da = None
    assert sun.eps(0) == 0.07  # solar day-ahead default


def test_scenario_hash_tracks_profiles(mini, tmp_path):
    h1 = scenario_hash(mini)
    assert h1 == scenario_hash(mini)
    import os
    lp = os.path.join(os.path.dirname(mini), "load_n1.csv")
    with open(lp, "a") as fh:
        fh.write("# tweak\n")
    assert scenario_hash(mini) != h1
