"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

import gridops.cli as cli
import gridops.dispatch as dispatch
from gridops.cli import main
from gridops.engine import read_trace, simulate, write_trace
from gridops.lp import Solution
from gridops.mini import write_mini3
from gridops.scenario import (Branch, DemandResponse, Generator, Interface,
                              LoadSpec, Outage, ReserveParams, Scenario,
                              SemiDispatchable, Storage, Timing, VerSpec,
                              ZonalNetwork, load_scenario, scenario_hash)


@pytest.fixture
def mini(tmp_path):
    path = str(tmp_path / "mini3.scn")
    assert main(["gen-mini", path, "--days", "1"]) == 0
    return path


def test_main_builds_one_parser_and_parses_each_call_afresh(tmp_path,
                                                            monkeypatch):
    made = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    first, second = tmp_path / "first", tmp_path / "second"
    try:
        assert main(["gen-mini", str(first / "m.scn"), "--variant",
                     "congestion", "--days", "1"]) == 0
        built = len(made)
        assert main(["gen-mini", str(second / "m.scn")]) == 0
        assert len(made) == built > 0
    finally:
        cli.build_parser.cache_clear()
    # The second call took none of the first's options: it wrote the
    # base fleet over the default 4 days.
    write_mini3(str(tmp_path / "alone" / "m.scn"))
    assert sorted(os.listdir(second)) == sorted(os.listdir(first)) == \
        sorted(os.listdir(tmp_path / "alone"))
    for name in os.listdir(second):
        assert (second / name).read_bytes() == \
            (tmp_path / "alone" / name).read_bytes()
    assert (first / "m.scn").read_bytes() != (second / "m.scn").read_bytes()


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["simulate"]) == 1
    out = capsys.readouterr()
    assert out.out == ""          # diagnostics stay on stderr


@pytest.mark.parametrize("span", [["--minutes", "0"], ["--minutes", "-3"],
                                  ["--days", "0"]],
                         ids=["no-minutes", "negative-minutes", "no-days"])
def test_simulate_of_no_span_exits_1(mini, tmp_path, span, capsys):
    # An explicit --minutes 0 is a span of zero, not "use --days".
    out = str(tmp_path / "run")
    assert main(["simulate", mini, *span, "--out", out]) == 1
    assert capsys.readouterr().err == "nothing to simulate: span is zero\n"
    assert not os.path.exists(out)


def test_validate_clean(mini, capsys):
    assert main(["validate", mini]) == 0
    out = capsys.readouterr()
    assert out.out == ""          # empty report: nothing wrong


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[network]\nswing = s\n")
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr()
    assert "no bubbles defined" in out.out
    assert out.out.count("\t") >= 2


@pytest.mark.parametrize("section,row", [
    ("[storage pond]\nbubble = n1\nE^max = 100\n\n"
     "[outage 1]\nresource = pond\nstart = 10\nduration = 30\n",
     "pond\toutage applies only to generators and semi-dispatchable "
     "resources"),
    ("[outage 1]\nresource = gas2\nstart = 10\nduration = -5\n",
     "gas2\tduration -5 outside [0,inf)"),
], ids=["storage", "negative-duration"])
def test_validate_rejects_bad_outage(mini, section, row, capsys):
    with open(mini, "a", encoding="utf-8") as fh:
        fh.write("\n" + section)
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().out == f"error\t{row}\n"


def test_validate_rejects_duplicate_load(mini, capsys):
    with open(mini, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("[load ")
    end = text.find("\n[", start + 1)
    section = text[start:] if end < 0 else text[start:end + 1]
    with open(mini, "a", encoding="utf-8") as fh:
        fh.write("\n" + section)
    assert main(["validate", mini]) == 2
    bubble = section[len("[load "):section.index("]")]
    assert capsys.readouterr().out == \
        f"error\t{bubble}\tsecond [load] section for this bubble\n"


@pytest.mark.parametrize("old, new, row", [
    ("swing-attach = n1\n", "",
     "network\tswing 'ext' has no swing-attach and no branch ends at it"),
    ("[bubble n3]", "[bubble n3]\n[bubble n4]",
     "network\tnetwork graph is not connected"),
    ("regulation-step = 1", "regulation-step = 5",
     "timing\tregulation step 5 is not 1: regulation runs every minute"),
    ("sced-step = 10", "sced-step = 0", "timing\tsced-step 0 outside (0,inf)"),
    ("rtuc-step = 15", "rtuc-step = 0", "timing\trtuc-step 0 outside (0,inf)"),
    ("rtuc-period = 60", "rtuc-period = 0",
     "timing\trtuc-period 0 outside (0,inf)"),
    ("scuc-horizon = 24", "scuc-horizon = 0",
     "timing\tscuc-horizon 0 outside (0,inf)"),
    ("rtuc-horizon = 240", "rtuc-horizon = 0",
     "timing\trtuc-horizon 0 outside (0,inf)"),
    ("sced-step = 10", "sced-step = -5",
     "timing\tsced-step -5 outside (0,inf)"),
    ("branch = n3 n2 1", "branch = n3 n1 1",
     "remote\tmember n3 n1 names no branch"),
    ("[load n1]", "[dr d1]\nbubble = n1\nP^min = 5\nP^max = 2\n\n[load n1]",
     "d1\tP^min 5.0 exceeds P^max 2.0"),
    ("[load n1]",
     "[storage pond]\nbubble = n1\nE^max = 100\nS^max = -5\n\n[load n1]",
     "pond\tS^min 0.0 exceeds S^max -5.0"),
    ("[load n1]",
     "[storage pond]\nbubble = n1\nE^max = 100\nP^min = 5\nP^max = 2\n\n"
     "[load n1]", "pond\tP^min 5.0 exceeds P^max 2.0"),
    ("regulation-capacity = 50", "regulation-capacity = -5",
     "gas1\tregulation-capacity -5 outside [0,inf)"),
    ("initial-output = 90", "initial-output = 1000000000",
     "gas1\tinitial-output 1000000000.0 exceeds P^max 150.0"),
], ids=["unattached-swing", "disconnected", "regulation-step", "sced-step-0",
        "rtuc-step-0", "rtuc-period-0", "scuc-horizon-0", "rtuc-horizon-0",
        "sced-step-negative", "interface-member", "dr-bounds",
        "storage-pumping-bounds", "storage-generating-bounds",
        "negative-regulation-capacity", "initial-output-above-pmax"])
def test_validate_rejects_network_and_timing_faults(mini, old, new, row,
                                                    capsys):
    with open(mini, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    with open(mini, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().out == f"error\t{row}\n"


@pytest.mark.parametrize("old,new,message", [
    ("T_u = 1", "T_u = 1.5", "not an integer: '1.5'"),
    ("T_u = 1", "T_u = inf", "not an integer: 'inf'"),
    ("T_u = 1", "T_u = nan", "not an integer: 'nan'"),
    ("[timing]", "[ ]", "empty section header"),
], ids=["fraction", "inf", "nan", "empty-header"])
def test_validate_names_the_line_of_a_malformed_value(mini, old, new,
                                                      message, capsys):
    with open(mini, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    ln = lines.index(old) + 1
    lines[ln - 1] = new
    with open(mini, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["validate", mini]) == 2
    err = capsys.readouterr().err
    assert err == f"error\tscenario\t{mini}:{ln}: {message}\n"


def _key_types() -> dict[str, str]:
    """Each scenario key's field annotation; a key shared by several
    sections has the same annotation in each."""
    return {f.metadata["key"]: f.type
            for cls in (Scenario, ZonalNetwork, Branch, Interface, Generator,
                        Storage, VerSpec, SemiDispatchable, DemandResponse,
                        LoadSpec, ReserveParams, Timing, Outage)
            for f in dataclasses.fields(cls) if "key" in f.metadata}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_every_numeric_key_rejects_a_non_finite_value(mini, tmp_path, value,
                                                      capsys):
    """Each numeric key line of the fixture in turn set to ``value``: a
    real-valued key gets a validate row naming its entity and key, and no
    row names another entity; an integer key is refused by the parser at
    its line.  Either way simulate exits 2."""
    with open(mini, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    types = _key_types()
    out = str(tmp_path / "run")
    wrong, entity, tried = [], "", 0
    for ln, line in enumerate(lines, start=1):
        if line.startswith("["):
            kind, *args = line[1:-1].split()
            entity = "-".join(args) or kind
        key = line.split(" = ")[0]
        if types.get(key) not in ("float", "float | None", "int",
                                  "np.ndarray"):
            continue
        tried += 1
        with open(mini, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:ln - 1] + [f"{key} = {value}"] +
                               lines[ln:]) + "\n")
        code = main(["validate", mini])
        got = capsys.readouterr()
        if types[key] == "int":
            ok = got.err == (f"error\tscenario\t{mini}:{ln}: not an "
                             f"integer: {value!r}\n")
        else:
            rows = got.out.splitlines()
            want = f"error\t{entity}\t{key} {value} outside "
            ok = (any(r.startswith(want) for r in rows) and
                  all(r.split("\t")[1] == entity for r in rows))
        if code != 2 or not ok:
            wrong.append((ln, line, code, got.out, got.err))
        if main(["simulate", mini, "--minutes", "60", "--out", out]) != 2:
            wrong.append((ln, line, "simulate"))
        capsys.readouterr()
    assert tried > 50 and wrong == []
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, row", [
    ("H_L = 8", "H_L = nan", "gas1\tH_L nan outside (-inf,inf)"),
    ("P^max = 80", "P^max = nan", "fast1\tP^max nan outside (-inf,inf)"),
    ("gamma_loss = 0", "gamma_loss = nan",
     "network\tgamma_loss nan outside (-inf,inf)"),
    ("limit = 200", "limit = inf", "remote\tlimit inf outside (0,inf)"),
    ("[branch n1 n2]\nweight = 1", "[branch n1 n2]\nweight = 0",
     "n1-n2\tweight 0 outside (0,inf)"),
    ("load_n1.csv\neps_da = 0", "load_n1.csv\neps_da = -0.1",
     "n1\teps_da -0.1 outside [0,inf)"),
    ("regulation-capacity = 50", "regulation-capacity = nan",
     "gas1\tregulation-capacity nan outside [0,inf)"),
    ("C_F = 2", "C_F = 2,nan", "base1\tC_F 2,nan outside (-inf,inf)"),
    ("branch = n3 n2 1", "branch = n3 n2 nan",
     "remote\tbranch n3 n2 nan outside (-inf,inf)"),
    ("[bubble n2]", "[bubble n2]\nalpha_TMSR = nan",
     "n2\talpha_TMSR nan outside [0,inf)"),
    ("[bubble n2]", "[bubble n2]\nalpha_TMOR = -2",
     "n2\talpha_TMOR -2 outside [0,inf)"),
], ids=["H_L-nan", "P^max-nan", "gamma_loss-nan", "limit-inf", "weight-0",
        "eps_da-negative", "regulation-capacity-nan", "C_F-element-nan",
        "member-sign-nan", "alpha_TMSR-nan", "alpha_TMOR-negative"])
def test_value_outside_its_domain_exits_2(mini, tmp_path, old, new, row,
                                          capsys):
    with open(mini, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    with open(mini, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().out == f"error\t{row}\n"
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "60", "--out", out]) == 2
    assert capsys.readouterr().err == f"error\t{row}\n"


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.scn")]) == 2


PROFILES = pytest.mark.parametrize("name,entity", [
    ("load_n1.csv", "load at n1"), ("solar_n3.csv", "sun1")],
    ids=["load", "semi"])


@PROFILES
def test_missing_profile_file_exits_2(mini, tmp_path, name, entity, capsys):
    path = os.path.join(os.path.dirname(mini), name)
    os.remove(path)
    want = f"{entity}: cannot read profile {path}: No such file or directory"
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().err == f"error\tscenario\t{want}\n"
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "10", "--out", out]) == 2
    assert capsys.readouterr().err == f"scenario error: {want}\n"


@PROFILES
def test_bad_profile_row_exits_2_naming_its_line(mini, tmp_path, name,
                                                 entity, capsys):
    path = os.path.join(os.path.dirname(mini), name)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[4] = "4,x"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    want = f"{entity}: {path}:5: bad row '4,x'"
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().err == f"error\tscenario\t{want}\n"
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "10", "--out", out]) == 2
    assert capsys.readouterr().err == f"scenario error: {want}\n"


@PROFILES
def test_profile_not_utf8_exits_2_naming_it(mini, tmp_path, name, entity,
                                            capsys):
    path = os.path.join(os.path.dirname(mini), name)
    with open(path, "rb") as fh:
        data = fh.read()
    at = data.index(b"\n5,") + 3
    with open(path, "wb") as fh:
        fh.write(data[:at] + b"\xff" + data[at + 1:])
    want = f"{entity}: {path}: not UTF-8 text at byte {at}"
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().err == f"error\tscenario\t{want}\n"
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "10", "--out", out]) == 2
    assert capsys.readouterr().err == f"scenario error: {want}\n"


def test_constant_shape_with_variability_exits_2_naming_it(mini, tmp_path,
                                                          capsys):
    # A flat shape has no variability to scale to A > 0.
    path = os.path.join(os.path.dirname(mini), "flat.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("minute,value_mw\n" +
                 "".join(f"{m},1.0\n" for m in range(1440)))
    with open(mini, encoding="utf-8") as fh:
        text = fh.read()
    with open(mini, "w", encoding="utf-8") as fh:
        fh.write(text.replace("profile = solar_n3.csv",
                              "shape = flat.csv\nA = 5"))
    want = (f"sun1: shape {path}: cannot scale the variability of a "
            "constant shape")
    assert main(["validate", mini]) == 2
    assert capsys.readouterr().err == f"error\tscenario\t{want}\n"
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "10", "--out", out]) == 2
    assert capsys.readouterr().err == f"scenario error: {want}\n"


def test_simulate_writes_trace(mini, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["simulate", mini, "--minutes", "30", "--out", out,
                 "--seed", "5"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "trace.csv"))
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert man["seed"] == 5
    captured = capsys.readouterr()
    assert captured.out == ""


def test_simulate_refuses_two_scenarios_with_one_output(mini, tmp_path,
                                                      capsys):
    other = str(tmp_path / "other" / "mini3.scn")
    assert main(["gen-mini", other, "--days", "1"]) == 0
    out = str(tmp_path / "run")
    assert main(["simulate", mini, other, "--minutes", "10",
                 "--out", out]) == 1
    want = f"{mini} and {other} both write {os.path.join(out, 'mini3')}\n"
    assert capsys.readouterr().err.endswith(want)
    assert not os.path.exists(out)


def test_seed_env_fallback(mini, tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    monkeypatch.setenv("EPECS_SEED", "42")
    assert main(["simulate", mini, "--minutes", "10", "--out", out]) == 0
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert man["seed"] == 42


def test_non_optimal_solve_exits_3(mini, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dispatch, "solve_milp",
                        lambda lp, basis=None: Solution(status="node_limit",
                                                        nodes=1))
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "10", "--out", out]) == 3
    assert "scuc solve ended with status node_limit" in capsys.readouterr().err


def test_scenario_without_loads_simulates(mini, tmp_path):
    # With no [load] section there are no load forecasts: a window has
    # only its semi series, so the horizon is read from those.
    with open(mini, encoding="utf-8") as fh:
        text = fh.read()
    while (start := text.find("[load ")) >= 0:
        end = text.find("\n[", start)
        text = text[:start] + text[end + 1:]
    with open(mini, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main(["validate", mini]) == 0
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--days", "1", "--out", out]) == 0
    assert main(["metrics", out, "--scenario", mini]) == 0


def test_metrics_from_trace(mini, tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "30", "--out", out,
                 "--seed", "5"]) == 0
    assert main(["metrics", out, "--scenario", mini]) == 0
    report = os.path.join(out, "report.csv")
    with open(report) as fh:
        head = fh.readline().strip()
    assert head == "family,scenario,metric,value,unit"


def test_metrics_needs_no_units_csv(mini, tmp_path):
    """metrics reads only the series it reports: without units.csv it
    writes the same bytes."""
    full, bare = str(tmp_path / "full"), str(tmp_path / "bare")
    assert main(["simulate", mini, "--minutes", "30", "--out", full,
                 "--seed", "5"]) == 0
    shutil.copytree(full, bare)
    os.remove(os.path.join(bare, "units.csv"))
    for out in (full, bare):
        assert main(["metrics", out, "--scenario", mini]) == 0
    made = sorted(set(os.listdir(full)) - {"trace.csv", "flows.csv",
                                           "regulation.csv", "units.csv",
                                           "manifest.json", "plotdata"})
    made += [os.path.join("plotdata", f)
             for f in sorted(os.listdir(os.path.join(full, "plotdata")))]
    assert "report.csv" in made and len(made) == 9
    for name in made:
        with open(os.path.join(full, name), "rb") as a, \
                open(os.path.join(bare, name), "rb") as b:
            assert a.read() == b.read(), name


def test_metrics_needs_no_profile_files(mini, tmp_path):
    """metrics reads no profile file: beside a copy of the scenario alone
    it writes the bytes it writes beside the profiles."""
    run = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "30", "--out", run,
                 "--seed", "5"]) == 0
    alone = tmp_path / "alone"
    alone.mkdir()
    bare = str(alone / os.path.basename(mini))
    shutil.copy(mini, bare)
    assert os.listdir(alone) == [os.path.basename(mini)]
    outs = {}
    for scn in (mini, bare):
        outs[scn] = str(tmp_path / f"metrics-{len(outs)}")
        assert main(["metrics", run, "--scenario", scn,
                     "--out", outs[scn]]) == 0
    for root, _, files in os.walk(outs[mini]):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), outs[mini])
            with open(os.path.join(outs[mini], rel), "rb") as a, \
                    open(os.path.join(outs[bare], rel), "rb") as b:
                assert a.read() == b.read(), rel
    assert sorted(os.listdir(outs[bare])) == sorted(os.listdir(outs[mini]))


def test_manifest_hashes_the_profiles_as_they_were_loaded(mini, tmp_path):
    """write_trace records the hash of the bytes load_scenario read, not
    of the files as they are when the trace is written."""
    scn = load_scenario(mini)
    loaded = scenario_hash(mini)
    trace = simulate(scn, 10, seed=7)
    with open(os.path.join(os.path.dirname(mini), "load_n1.csv"), "a") as fh:
        fh.write("\n")
    assert scenario_hash(mini) != loaded
    out = tmp_path / "run"
    write_trace(str(out), trace, scn, 7, mini)
    man = json.loads((out / "manifest.json").read_text())
    assert man["scenario_hash"] == loaded


def test_metrics_names_a_series_with_too_many_bins(mini, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", mini, "--minutes", "30", "--out", out]) == 0
    trace = read_trace(out)
    trace.imbalance[:2] = (1e9, -1e9)
    write_trace(out, trace, load_scenario(mini), 7)
    capsys.readouterr()
    assert main(["metrics", out, "--scenario", mini]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: imbalance: values over "
                          "[-1e+09, 1e+09] at bin width 1 need ")


def test_gen_mini_variants(tmp_path):
    for variant in ("base", "congestion", "high-solar"):
        path = str(tmp_path / f"{variant}.scn")
        assert main(["gen-mini", path, "--variant", variant,
                     "--days", "1"]) == 0
        assert main(["validate", path]) == 0
