"""Scenario data model: network, fleet, profiles, reserve and timing data.

Scenario files are sectioned key=value text; profile and shape files are
1-minute CSVs resolved relative to the scenario file.  Validation returns a
report rather than raising so callers can show all problems at once.
"""

from __future__ import annotations

import hashlib
import operator
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .profiles import Profile, ProfileError, read_profile, scale_ver

GEN_KINDS = ("dispatchable", "must-run", "fast-start")
SEMI_KINDS = ("wind", "solar", "run-of-river-hydro", "tie-line")

# Default forecast-error standard deviations by resource type, as fractions
# of installed capacity (peak load for the load itself): day-ahead hourly,
# short-term 15-min, and real-time 10-min markets.
DEFAULT_EPS = {
    "load": (0.0165, 0.015, 0.0015),
    "wind": (0.12, 0.03, 0.03),
    "solar": (0.07, 0.03, 0.03),
    "run-of-river-hydro": (0.0, 0.0, 0.0),
    "tie-line": (0.0, 0.0, 0.0),
}


class ScenarioError(Exception):
    """Parse or reference failure; message carries file and line context."""


def _interval(text: str):
    """The membership test of interval text such as ``"(0,1]"``, parsed
    once.  NaN lies in no interval."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    left = operator.lt if text[0] == "(" else operator.le
    right = operator.lt if text[-1] == ")" else operator.le
    return lambda x: left(lo, x) and right(x, hi)


def _key(key: str, default=MISSING, *, factory=MISSING, section: str = "",
         domain: str = "(-inf,inf)"):
    """A field that scenario key ``key`` sets, with the one default an
    absent key gives.  ``section`` names the section for the [network] and
    [seeds] keys, which set fields of the whole Scenario; every other key
    sits in the section of its own dataclass.  A numeric value lies in the
    interval ``domain``; the default admits every finite number."""
    return field(default=default, default_factory=factory,
                 metadata={"key": key, "section": section, "domain": domain,
                           "inside": _interval(domain)})


@dataclass
class Branch:
    from_bubble: str
    to_bubble: str
    weight: float = _key("weight", 1.0, domain="(0,inf)")


@dataclass
class Interface:
    name: str
    members: list[tuple[str, str, float]]   # (from, to, sign)
    limit: float = _key("limit", 0.0, domain="(0,inf)")


@dataclass
class ZonalNetwork:
    bubbles: list[str] = field(default_factory=list)
    branches: list[Branch] = field(default_factory=list)
    interfaces: list[Interface] = field(default_factory=list)
    swing: str = _key("swing", "", section="network")
    swing_attach: list[str] = _key("swing-attach", factory=list,
                                   section="network")

    def branch_index(self, frm: str, to: str) -> int:
        for i, br in enumerate(self.branches):
            if (br.from_bubble, br.to_bubble) == (frm, to):
                return i
            if (br.from_bubble, br.to_bubble) == (to, frm):
                return ~i  # reversed orientation
        raise ScenarioError(f"no branch between {frm} and {to}")

    def interface_terms(self, itf: Interface) -> list[tuple[int, float]]:
        """The members of ``itf`` as (branch index, coefficient) in each
        branch's own direction: a member named against its branch has its
        sign flipped."""
        terms = []
        for frm, to, sign in itf.members:
            bi = self.branch_index(frm, to)
            terms.append((bi, sign) if bi >= 0 else (~bi, -sign))
        return terms


@dataclass
class Generator:
    id: str
    bubble: str = _key("bubble", "")
    kind: str = _key("kind", "dispatchable")
    p_min: float = _key("P^min", 0.0)
    p_max: float = _key("P^max", 0.0)
    r_min: float = _key("R^min", -1e9, domain="(-inf,0]")     # MW/min
    r_max: float = _key("R^max", 1e9, domain="[0,inf)")       # MW/min
    h_f: float = _key("H_F", 0.0)               # MBtu/h while online
    h_l: float = _key("H_L", 0.0)               # MBtu/MWh
    h_q: float = _key("H_Q", 0.0)               # MBtu/MW^2 h
    h_u: float = _key("H_U", 0.0)               # MBtu per start
    h_d: float = _key("H_D", 0.0)               # MBtu per stop
    c_f: np.ndarray = _key("C_F", factory=lambda: np.ones(24))  # $/MBtu by hour
    t_u: int = _key("T_u", 1, domain="[1,inf)")     # min up, hours
    t_d: int = _key("T_d", 1, domain="[1,inf)")     # min down, hours
    u_max: int = _key("u^max", 24)              # starts per day
    # MW under automatic control
    reg_capacity: float = _key("regulation-capacity", 0.0, domain="[0,inf)")
    online: bool = _key("online", False)
    initial_output: float = _key("initial-output", 0.0)
    # signed history: +h online, -h offline
    online_hours: int = _key("online-hours", 0)

    def fuel_price(self, hour: int) -> float:
        return float(self.c_f[hour % len(self.c_f)])

    def marginal_at_pmax(self) -> float:
        cf = float(self.c_f.max())
        return cf * (self.h_l + 2.0 * self.h_q * self.p_max)


@dataclass
class Storage:
    id: str
    bubble: str = _key("bubble", "")
    p_min: float = _key("P^min", 0.0)
    p_max: float = _key("P^max", 0.0)           # generating MW
    s_min: float = _key("S^min", 0.0)
    s_max: float = _key("S^max", 0.0)           # pumping MW
    e_min: float = _key("E^min", 0.0)
    e_max: float = _key("E^max", 0.0)           # MWh
    eta: float = _key("eta", 1.0, domain="(0,1]")
    initial_energy: float = _key("initial-energy", 0.0)
    mode_gen0: bool = _key("mode-generating", False)
    mode_pump0: bool = _key("mode-pumping", False)


@dataclass
class VerSpec:
    pi: float = _key("pi", 0.0, domain="[0,inf)")   # fraction of peak load
    gamma_cf: float = _key("gamma_cf", 0.3, domain="(0,1]")
    A: float = _key("A", 0.0)   # target variability, 1/h; 0 keeps base timing
    shape: str = _key("shape", "")              # unit-mean base shape CSV
    seed: int = _key("noise-seed", 0)


@dataclass
class SemiDispatchable:
    id: str
    bubble: str = _key("bubble", "")
    kind: str = _key("kind", "wind")
    d: float = _key("d", 1.0, domain="[0,1]")   # curtailable fraction
    price: float = _key("C", -5.0)              # threshold price, $/MWh
    profile_path: str = _key("profile", "")  # fixed profile alternative to ver
    ver: VerSpec | None = None
    eps_da: float | None = _key("eps_da", None, domain="[0,inf)")
    eps_st: float | None = _key("eps_st", None, domain="[0,inf)")
    eps_rt: float | None = _key("eps_rt", None, domain="[0,inf)")
    profile: Profile | None = None

    @property
    def capacity(self) -> float:
        if self.profile is None:
            return 0.0
        return float(self.profile.values.max())

    def eps(self, which: int) -> float:
        val = (self.eps_da, self.eps_st, self.eps_rt)[which]
        return DEFAULT_EPS[self.kind][which] if val is None else val


@dataclass
class DemandResponse:
    id: str
    bubble: str = _key("bubble", "")
    p_min: float = _key("P^min", 0.0)
    p_max: float = _key("P^max", 0.0)
    cost: float = _key("C", 0.0)                # $/MWh


@dataclass
class LoadSpec:
    bubble: str
    profile_path: str = _key("profile", "")
    d: float = _key("d", 0.0, domain="[0,1]")   # sheddable fraction
    price: float = _key("C", 0.0)               # shedding threshold price
    eps_da: float | None = _key("eps_da", None, domain="[0,inf)")
    eps_st: float | None = _key("eps_st", None, domain="[0,inf)")
    eps_rt: float | None = _key("eps_rt", None, domain="[0,inf)")
    profile: Profile | None = None

    def eps(self, which: int) -> float:
        val = (self.eps_da, self.eps_st, self.eps_rt)[which]
        return DEFAULT_EPS["load"][which] if val is None else val


@dataclass
class ReserveParams:
    alpha_tmsr: dict[str, float] = field(default_factory=dict)   # per bubble
    alpha_tmor: dict[str, float] = field(default_factory=dict)
    alpha_sys_tmsr: float = _key("alpha_sys_TMSR", 0.0, domain="[0,inf)")
    alpha_sys_tmr: float = _key("alpha_sys_TMR", 1.0, domain="[0,inf)")
    alpha_sys_tmor: float = _key("alpha_sys_TMOR", 0.0, domain="[0,inf)")
    t_10: float = _key("T_10", 10.0)
    t_30: float = _key("T_30", 30.0)
    p_reg_req: float = _key("P_REG^REQ", 0.0)
    lfr_requirement: float | None = _key("LFR-requirement", None)


@dataclass
class Timing:
    scuc_horizon_h: int = _key("scuc-horizon", 24, domain="(0,inf)")
    rtuc_step_min: int = _key("rtuc-step", 15, domain="(0,inf)")
    rtuc_horizon_min: int = _key("rtuc-horizon", 240, domain="(0,inf)")
    rtuc_period_min: int = _key("rtuc-period", 60, domain="(0,inf)")
    sced_step_min: int = _key("sced-step", 10, domain="(0,inf)")
    reg_step_min: int = _key("regulation-step", 1)


@dataclass
class Outage:
    resource: str = _key("resource", "")
    start: int = _key("start", 0, domain="[0,inf)")         # minute
    duration: int = _key("duration", 0, domain="[0,inf)")   # minutes


@dataclass
class Scenario:
    network: ZonalNetwork
    generators: list[Generator] = field(default_factory=list)
    storages: list[Storage] = field(default_factory=list)
    semis: list[SemiDispatchable] = field(default_factory=list)
    drs: list[DemandResponse] = field(default_factory=list)
    loads: list[LoadSpec] = field(default_factory=list)
    gamma_loss: float = _key("gamma_loss", 0.03, section="network")
    supergen_price: float | None = _key(       # $/MWh; None -> derived default
        "supergen-price", None, section="network")
    reserves: ReserveParams = field(default_factory=ReserveParams)
    timing: Timing = field(default_factory=Timing)
    outages: list[Outage] = field(default_factory=list)
    seed: int = _key("master", 0, section="seeds")
    base_dir: str = "."

    @property
    def peak_load(self) -> float:
        n = min((len(ld.profile) for ld in self.loads if ld.profile), default=0)
        if n == 0:
            return 0.0
        total = np.zeros(n)
        for ld in self.loads:
            total += ld.profile.values[:n]
        return float(total.max())

    def penalty_price(self) -> float:
        if self.supergen_price is not None:
            return self.supergen_price
        worst = max((g.marginal_at_pmax() for g in self.generators), default=100.0)
        return 10.0 * max(worst, 1.0)

    def resource(self, rid: str):
        for group in (self.generators, self.storages, self.semis, self.drs):
            for r in group:
                if r.id == rid:
                    return r
        return None


# ---------------------------------------------------------------------------
# Parsing

def _parse_sections(text: str, path: str):
    """Split sectioned key=value text into (header, line, [(key, val, line)])."""
    sections = []
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"{path}:{ln}: unterminated section header")
            current = (line[1:-1].strip(), ln, [])
            if not current[0]:
                raise ScenarioError(f"{path}:{ln}: empty section header")
            sections.append(current)
        else:
            if current is None:
                raise ScenarioError(f"{path}:{ln}: key before any section")
            if "=" not in line:
                raise ScenarioError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            current[2].append((key.strip(), val.strip(), ln))
    return sections


def _num(val: str, path: str, ln: int) -> float:
    try:
        return float(val)
    except ValueError:
        raise ScenarioError(f"{path}:{ln}: not a number: {val!r}") from None


def _int(val: str, path: str, ln: int) -> int:
    try:
        return int(val)
    except ValueError:
        raise ScenarioError(f"{path}:{ln}: not an integer: {val!r}") from None


def _flag(val: str, path: str, ln: int) -> bool:
    low = val.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ScenarioError(f"{path}:{ln}: not a flag: {val!r}")


def _fmt(x: float) -> str:
    if abs(x) < 1e15 and x == int(x):     # inf and nan fall through to repr
        return str(int(x))
    return repr(float(x))


# How a keyed field's value is read from its text and written back, by the
# field's annotation.
_TYPES = {
    "str": (lambda val, path, ln: val, str),
    "float": (_num, _fmt),
    "float | None": (_num, _fmt),
    "int": (_int, str),
    "bool": (_flag, lambda on: "1" if on else "0"),
    "list[str]": (lambda val, path, ln: val.split(), " ".join),
    "np.ndarray": (lambda val, path, ln: np.array(
                       [_num(x, path, ln) for x in val.split(",")]),
                   lambda arr: ",".join(_fmt(x) for x in arr)),
}
# The annotations of keyed fields that hold numbers, each in its domain.
_NUMBERS = ("float", "float | None", "int", "np.ndarray")

# Sections that each build one dataclass: the class, how many of its
# leading fields the header names, what the header must name (unchecked
# when empty) and the scenario's objects of that section, in the order
# serialize writes them.
_SECTIONS = {
    "branch": (Branch, 2, "two bubbles", lambda scn: scn.network.branches),
    "interface": (Interface, 1, "a name", lambda scn: scn.network.interfaces),
    "generator": (Generator, 1, "an id", lambda scn: scn.generators),
    "storage": (Storage, 1, "an id", lambda scn: scn.storages),
    "semi": (SemiDispatchable, 1, "an id", lambda scn: scn.semis),
    "dr": (DemandResponse, 1, "an id", lambda scn: scn.drs),
    "load": (LoadSpec, 1, "a bubble", lambda scn: scn.loads),
    "reserves": (ReserveParams, 0, "", lambda scn: [scn.reserves]),
    "timing": (Timing, 0, "", lambda scn: [scn.timing]),
    "outage": (Outage, 0, "", lambda scn: scn.outages),
}

# [bubble] keys, each a bubble's entry in a ReserveParams dict, one domain.
_ALPHAS = (("alpha_TMSR", "alpha_tmsr"), ("alpha_TMOR", "alpha_tmor"))
_ALPHA_DOMAIN = "[0,inf)"
_ALPHA_INSIDE = _interval(_ALPHA_DOMAIN)
# [interface] member lines: <from> <to> [sign], any number of them.
_MEMBER = "branch"


def _keyed(cls, section: str = "") -> list:
    """The fields of ``cls`` that keys of ``section`` set, in field order."""
    return [f for f in fields(cls) if f.metadata.get("section") == section]


def _take(cls, given: dict, path: str, section: str = "") -> dict:
    """Each keyed field of ``cls`` by name: the value on its key's line in
    ``given`` (key -> (value, line)), or the field's default.  The keys it
    reads are taken out of ``given``."""
    out = {}
    for f in _keyed(cls, section):
        hit = given.pop(f.metadata["key"], None)
        if hit is not None:
            out[f.name] = _TYPES[f.type][0](hit[0], path, hit[1])
        elif f.default_factory is not MISSING:
            out[f.name] = f.default_factory()
        else:
            out[f.name] = f.default
    return out


def _member(val: str, path: str, ln: int) -> tuple[str, str, float]:
    bits = val.split()
    if len(bits) not in (2, 3):
        raise ScenarioError(
            f"{path}:{ln}: interface branch wants '<from> <to> [sign]'")
    sign = _num(bits[2], path, ln) if len(bits) == 3 else 1.0
    return bits[0], bits[1], sign


def load_scenario(path: str, resolve_profiles: bool = True) -> Scenario:
    """Parse a scenario file and resolve all profile references.

    Within a section the last line of a key wins; a bad value is reported
    in field order (a [semi]'s own keys before its VerSpec's), and before
    any unknown key."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    base_dir = os.path.dirname(os.path.abspath(path))
    sections = _parse_sections(text, path)
    if not any(h == "network" for h, _, _ in sections):
        raise ScenarioError(f"{path}: missing [network] section")

    net = ZonalNetwork()
    scn = Scenario(network=net, base_dir=base_dir)
    alphas: dict[str, dict[str, float]] = {attr: {} for _, attr in _ALPHAS}
    seen_ids: set[str] = set()

    for header, hln, items in sections:
        parts = header.split()
        kind, args = parts[0], parts[1:]
        given = {key: (val, ln) for key, val, ln in items}

        if kind in ("network", "seeds"):
            for obj in (net, scn):
                for name, val in _take(type(obj), given, path, kind).items():
                    setattr(obj, name, val)
        elif kind == "bubble":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [bubble] needs a name")
            name = args[0]
            if name in net.bubbles:
                raise ScenarioError(f"{path}:{hln}: duplicate bubble {name!r}")
            net.bubbles.append(name)
            for key, attr in _ALPHAS:
                hit = given.pop(key, None)
                alphas[attr][name] = (0.0 if hit is None
                                      else _num(hit[0], path, hit[1]))
        elif kind in _SECTIONS:
            cls, n_head, what, objects = _SECTIONS[kind]
            if what and len(args) != n_head:
                raise ScenarioError(f"{path}:{hln}: [{kind}] needs {what}")
            if n_head and fields(cls)[0].name == "id":
                if args[0] in seen_ids:
                    raise ScenarioError(f"{path}:{hln}: duplicate id {args[0]!r}")
                seen_ids.add(args[0])
            vals = {}
            if cls is Interface:
                given.pop(_MEMBER, None)
                vals["members"] = [_member(val, path, ln)
                                   for key, val, ln in items if key == _MEMBER]
            vals.update(_take(cls, given, path))
            # A VerSpec is read only when its shape is set.
            if cls is SemiDispatchable and "shape" in given:
                vals["ver"] = VerSpec(**_take(VerSpec, given, path))
            obj = cls(*args[:n_head], **vals)
            if kind in ("reserves", "timing"):
                setattr(scn, kind, obj)
            else:
                objects(scn).append(obj)
        else:
            raise ScenarioError(f"{path}:{hln}: unknown section [{header}]")

        for key, _, ln in items:
            if key in given:            # no field took it
                raise ScenarioError(
                    f"{path}:{ln}: unknown key {key!r} in [{header}]")

    _check_references(scn, path)
    if resolve_profiles:
        _resolve_profiles(scn)
    for attr, per_bubble in alphas.items():
        setattr(scn.reserves, attr, per_bubble)
    return scn


def _check_references(scn: Scenario, path: str) -> None:
    net = scn.network
    known = set(net.bubbles)
    # (who, bubble, whether that bubble may be the swing)
    refs = [("branch", b, True) for br in net.branches
            for b in (br.from_bubble, br.to_bubble)]
    refs += [(f"interface {itf.name}", b, True) for itf in net.interfaces
             for frm, to, _ in itf.members for b in (frm, to)]
    refs += [(r.id, r.bubble, False) for group in (
        scn.generators, scn.storages, scn.semis, scn.drs) for r in group]
    refs += [("load", ld.bubble, False) for ld in scn.loads]
    for who, b, swing_ok in refs:
        if b not in known and not (swing_ok and b == net.swing):
            raise ScenarioError(
                f"{path}: {who} references undefined bubble {b!r}")
    for b in net.swing_attach:
        if b not in known:
            raise ScenarioError(
                f"{path}: swing attaches to undefined bubble {b!r}")


def _read_profile(scn: Scenario, entity: str, name: str) -> Profile:
    """The profile file ``name`` of ``entity``; a file that cannot be read
    or parsed is a scenario error naming both."""
    path = os.path.join(scn.base_dir, name)
    try:
        return read_profile(path)
    except OSError as exc:
        raise ScenarioError(f"{entity}: cannot read profile {path}: "
                            f"{exc.strerror}") from exc
    except ProfileError as exc:
        raise ScenarioError(f"{entity}: {exc}") from exc


def _resolve_profiles(scn: Scenario) -> None:
    for ld in scn.loads:
        if not ld.profile_path:
            raise ScenarioError(f"load at {ld.bubble} has no profile")
        ld.profile = _read_profile(scn, f"load at {ld.bubble}",
                                   ld.profile_path)
    peak = scn.peak_load
    for sm in scn.semis:
        if sm.profile_path:
            sm.profile = _read_profile(scn, sm.id, sm.profile_path)
        elif sm.ver is not None:
            base = _read_profile(scn, sm.id, sm.ver.shape)
            mean = float(base.values.mean())
            if mean <= 0:
                raise ScenarioError(f"{sm.id}: shape has nonpositive mean")
            base = Profile(base.values / mean, start=base.start)
            try:
                sm.profile = scale_ver(base, sm.ver, peak)
            except ProfileError as exc:
                path = os.path.join(scn.base_dir, sm.ver.shape)
                raise ScenarioError(f"{sm.id}: shape {path}: {exc}") from exc
        else:
            raise ScenarioError(f"{sm.id} has neither profile nor shape")


# ---------------------------------------------------------------------------
# Validation

def validate_scenario(scn: Scenario) -> list[tuple[str, str, str]]:
    """Invariant check; returns (severity, entity, message) rows."""
    out: list[tuple[str, str, str]] = []
    net = scn.network

    def err(entity: str, msg: str):
        out.append(("error", entity, msg))

    def check(entity: str, obj) -> bool:
        """A row for each keyed number of ``obj`` outside its domain."""
        rows = len(out)
        for f in fields(obj):
            val = getattr(obj, f.name)
            if f.type in _NUMBERS and val is not None and not all(map(
                    f.metadata["inside"],
                    val.tolist() if f.type == "np.ndarray" else (val,))):
                err(entity, f"{f.metadata['key']} {_TYPES[f.type][1](val)} "
                            f"outside {f.metadata['domain']}")
        return len(out) == rows

    check("network", scn)
    if not net.bubbles:
        err("network", "no bubbles defined")
    if not net.swing:
        err("network", "no swing bubble designated")
    elif not net.swing_attach and not any(
            net.swing in (br.from_bubble, br.to_bubble) for br in net.branches):
        err("network", f"swing {net.swing!r} has no swing-attach and no "
                       "branch ends at it")
    for key, attr in _ALPHAS:
        for b, val in getattr(scn.reserves, attr).items():
            if not _ALPHA_INSIDE(val):
                err(b, f"{key} {_fmt(val)} outside {_ALPHA_DOMAIN}")
    for br in net.branches:
        check(f"{br.from_bubble}-{br.to_bubble}", br)
    for itf in net.interfaces:
        check(itf.name, itf)
        for frm, to, sign in itf.members:
            try:
                net.branch_index(frm, to)
            except ScenarioError:
                err(itf.name, f"member {frm} {to} names no branch")
            if not -np.inf < sign < np.inf:
                err(itf.name, f"{_MEMBER} {frm} {to} {_fmt(sign)} outside "
                              "(-inf,inf)")
    if net.bubbles and _disconnected(net):
        err("network", "network graph is not connected")

    for g in scn.generators:
        check(g.id, g)
        if g.kind not in GEN_KINDS:
            err(g.id, f"unknown generator kind {g.kind!r}")
        if g.p_min > g.p_max:
            err(g.id, f"P^min {g.p_min} exceeds P^max {g.p_max}")
        if g.reg_capacity > g.p_max - g.p_min + 1e-9:
            err(g.id, "regulation capacity exceeds dispatch range")
        if g.kind == "must-run" and not g.online:
            err(g.id, "must-run unit not initially online")
        # An offline unit's initial output is never read.
        if (g.online or g.kind == "must-run") and \
                g.initial_output > g.p_max:
            err(g.id, f"initial-output {g.initial_output} exceeds P^max "
                      f"{g.p_max}")

    for st in scn.storages:
        check(st.id, st)
        if not st.e_min <= st.initial_energy <= st.e_max:
            err(st.id, f"initial energy {st.initial_energy} outside "
                       f"[{st.e_min},{st.e_max}]")
        if st.mode_gen0 and st.mode_pump0:
            err(st.id, "initial mode flags both set")
        if st.p_min > st.p_max:
            err(st.id, f"P^min {st.p_min} exceeds P^max {st.p_max}")
        if st.s_min > st.s_max:
            err(st.id, f"S^min {st.s_min} exceeds S^max {st.s_max}")

    for dr in scn.drs:
        check(dr.id, dr)
        if dr.p_min > dr.p_max:
            err(dr.id, f"P^min {dr.p_min} exceeds P^max {dr.p_max}")

    for sm in scn.semis:
        check(sm.id, sm)
        if sm.ver is not None:
            check(sm.id, sm.ver)
        if sm.kind not in SEMI_KINDS:
            err(sm.id, f"unknown resource kind {sm.kind!r}")
        if sm.profile is not None and float(sm.profile.values.min()) < 0:
            err(sm.id, "profile has negative values")

    # Forecasts and the balance rows take one load per bubble.
    seen_loads: set[str] = set()
    for ld in scn.loads:
        check(ld.bubble, ld)
        if ld.bubble in seen_loads:
            err(ld.bubble, "second [load] section for this bubble")
        seen_loads.add(ld.bubble)

    t = scn.timing
    # With positive lengths, SCED runs divide RTUC runs divide the SCUC day.
    if check("timing", t):
        if t.rtuc_period_min % t.sced_step_min:
            err("timing", "SCED step does not divide the RTUC period")
        if (t.scuc_horizon_h * 60) % t.rtuc_period_min:
            err("timing", "RTUC period does not divide the SCUC horizon")
        if t.rtuc_horizon_min % t.rtuc_step_min:
            err("timing", "RTUC interval does not divide the RTUC horizon")
    if t.reg_step_min != 1:
        err("timing", f"regulation step {t.reg_step_min} is not 1: regulation "
                      "runs every minute")
    check("reserves", scn.reserves)

    # Only generators and semi resources are masked by outages.
    targets = {r.id for r in scn.generators + scn.semis}
    for ev in scn.outages:
        check(ev.resource, ev)
        if scn.resource(ev.resource) is None:
            err(ev.resource, "outage references unknown resource")
        elif ev.resource not in targets:
            err(ev.resource, "outage applies only to generators and "
                             "semi-dispatchable resources")
    return out


def render_report(report: list[tuple[str, str, str]]) -> str:
    return "".join(f"{sev}\t{ent}\t{msg}\n" for sev, ent, msg in report)


def _disconnected(net: ZonalNetwork) -> bool:
    nodes = set(net.bubbles)
    adj: dict[str, set[str]] = {b: set() for b in nodes}
    for br in net.branches:
        if br.from_bubble in adj and br.to_bubble in adj:
            adj[br.from_bubble].add(br.to_bubble)
            adj[br.to_bubble].add(br.from_bubble)
    stack = [next(iter(nodes))]
    seen = set()
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        stack.extend(adj[b] - seen)
    return seen != nodes


# ---------------------------------------------------------------------------
# Serialization

def _lines(obj, section: str = "") -> list[str]:
    """``key = value`` for each keyed field of ``obj`` that is not None."""
    out = []
    for f in _keyed(type(obj), section):
        val = getattr(obj, f.name)
        if val is not None:
            out.append(f"{f.metadata['key']} = {_TYPES[f.type][1](val)}")
    return out


def serialize(scn: Scenario) -> str:
    """Canonical text form, every keyed field written; load_scenario on the
    output round-trips."""
    net, res = scn.network, scn.reserves
    out = ["[network]", *_lines(net, "network"), *_lines(scn, "network")]
    for b in net.bubbles:
        out.append(f"\n[bubble {b}]")
        out += [f"{key} = {_fmt(getattr(res, attr)[b])}"
                for key, attr in _ALPHAS if b in getattr(res, attr)]
    for kind, (cls, n_head, _, objects) in _SECTIONS.items():
        for i, obj in enumerate(objects(scn), start=1):
            head = [getattr(obj, f.name) for f in fields(cls)[:n_head]]
            if kind == "outage":
                head = [str(i)]
            out.append("\n[" + " ".join([kind, *head]) + "]")
            if cls is Interface:
                out += [f"{_MEMBER} = {frm} {to} {_fmt(sign)}"
                        for frm, to, sign in obj.members]
            out += _lines(obj)
            if cls is SemiDispatchable and obj.ver is not None:
                out += _lines(obj.ver)
    out += ["\n[seeds]", *_lines(scn, "seeds")]
    return "\n".join(out) + "\n"


def scenario_hash(path: str) -> str:
    """Content hash of the scenario file and every profile it references."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    scn = load_scenario(path, resolve_profiles=False)
    refs = sorted({ld.profile_path for ld in scn.loads if ld.profile_path} |
                  {sm.profile_path for sm in scn.semis if sm.profile_path} |
                  {sm.ver.shape for sm in scn.semis if sm.ver is not None})
    for ref in refs:
        full = os.path.join(scn.base_dir, ref)
        h.update(ref.encode())
        with open(full, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
