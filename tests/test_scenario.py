"""Scenario parsing, validation and round-trip serialization."""

from __future__ import annotations

import dataclasses

import golden
import numpy as np
import pytest

from gridops.mini import write_mini3
from gridops.scenario import (Branch, DemandResponse, Generator, Interface,
                              LoadSpec, Outage, ReserveParams, Scenario,
                              ScenarioError, SemiDispatchable, Storage,
                              ZonalNetwork, load_scenario, render_report,
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
    ("gas2", 10, -5, "duration -5 outside [0,inf)"),
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


def _same_fields(a, b, where="scenario"):
    """Field-for-field equality of parsed objects, arrays by value and
    dtype; a failure names the first field that differs."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _same_fields(getattr(a, f.name), getattr(b, f.name),
                         f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _same_fields(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            _same_fields(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


@pytest.mark.parametrize("run", sorted(golden.RUNS))
def test_serialized_fixture_parses_to_the_same_fields(run, tmp_path):
    # The four gen-mini variants and the cadence fixture; the copy sits
    # beside the original so that its profile paths resolve the same.
    scn = load_scenario(golden.write_scenario(run, str(tmp_path)))
    copy = tmp_path / "copy.scn"
    copy.write_text(serialize(scn))
    _same_fields(load_scenario(str(copy)), scn)


def test_network_section_alone_parses_to_the_defaults(tmp_path):
    p = tmp_path / "bare.scn"
    p.write_text("[network]\n[bubble a]\n")
    expect = Scenario(network=ZonalNetwork(bubbles=["a"]),
                      reserves=ReserveParams(alpha_tmsr={"a": 0.0},
                                             alpha_tmor={"a": 0.0}),
                      base_dir=str(tmp_path))
    _same_fields(load_scenario(str(p)), expect)


@pytest.mark.parametrize("section, expect", [
    ("[generator g]\nbubble = a", Generator("g", "a")),
    ("[storage s]\nbubble = a", Storage("s", "a")),
    ("[semi w]\nbubble = a", SemiDispatchable("w", "a")),
    ("[dr f]\nbubble = a", DemandResponse("f", "a")),
    ("[load a]", LoadSpec("a")),
    ("[branch a b]", Branch("a", "b")),
    ("[interface i]", Interface("i", [])),
    ("[outage 1]", Outage()),
], ids=["generator", "storage", "semi", "dr", "load", "branch", "interface",
        "outage"])
def test_required_keys_alone_parse_to_the_dataclass_defaults(tmp_path,
                                                             section, expect):
    p = tmp_path / "bare.scn"
    p.write_text(f"[network]\n[bubble a]\n[bubble b]\n{section}\n")
    scn = load_scenario(str(p), resolve_profiles=False)
    parsed = [*scn.generators, *scn.storages, *scn.semis, *scn.drs,
              *scn.loads, *scn.network.branches, *scn.network.interfaces,
              *scn.outages]
    assert len(parsed) == 1
    _same_fields(parsed[0], expect, type(expect).__name__)


def test_bad_fuel_price_names_its_own_line(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("[network]\nswing = s\n[bubble a]\n[generator g]\n"
                 "bubble = a\nP^max = 10\nkind = dispatchable\nC_F = 1,x\n")
    with pytest.raises(ScenarioError, match=r"bad\.scn:8: not a number: 'x'"):
        load_scenario(str(p))


def test_first_bad_value_in_field_order_is_reported(tmp_path):
    # C_F comes after P^min among Generator's fields; both bad values are
    # reported before the unknown key on the line above them.
    p = tmp_path / "bad.scn"
    p.write_text("[network]\nswing = s\n[bubble a]\n[generator g]\n"
                 "zzz = 1\nC_F = x\nP^min = y\nbubble = a\n")
    with pytest.raises(ScenarioError, match=r"bad\.scn:7: not a number: 'y'"):
        load_scenario(str(p))


def test_validation_flags_unattached_swing(mini):
    _rewrite(mini, "swing-attach = n1\n", "")
    assert validate_scenario(load_scenario(mini)) == [
        ("error", "network",
         "swing 'ext' has no swing-attach and no branch ends at it")]
    # A branch to the swing attaches it as well.
    _rewrite(mini, "[branch n1 n2]", "[branch n1 ext]\n\n[branch n1 n2]")
    assert validate_scenario(load_scenario(mini)) == []


def test_validation_flags_disconnected_network(mini):
    _rewrite(mini, "[bubble n3]", "[bubble n3]\n[bubble n4]")
    assert validate_scenario(load_scenario(mini)) == [
        ("error", "network", "network graph is not connected")]


def test_validation_flags_unused_regulation_step(mini):
    _rewrite(mini, "regulation-step = 1", "regulation-step = 5")
    assert validate_scenario(load_scenario(mini)) == [
        ("error", "timing",
         "regulation step 5 is not 1: regulation runs every minute")]


def _rewrite(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
