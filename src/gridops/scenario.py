"""Scenario data model: network, fleet, profiles, reserve and timing data.

Scenario files are sectioned key=value text; profile and shape files are
1-minute CSVs resolved relative to the scenario file.  Validation returns a
report rather than raising so callers can show all problems at once.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .profiles import Profile, read_profile, scale_ver

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


@dataclass
class Branch:
    from_bubble: str
    to_bubble: str
    weight: float = 1.0


@dataclass
class Interface:
    name: str
    members: list[tuple[str, str, float]]   # (from, to, sign)
    limit: float = 0.0


@dataclass
class ZonalNetwork:
    bubbles: list[str] = field(default_factory=list)
    branches: list[Branch] = field(default_factory=list)
    interfaces: list[Interface] = field(default_factory=list)
    swing: str = ""
    swing_attach: list[str] = field(default_factory=list)

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
    bubble: str
    kind: str = "dispatchable"
    p_min: float = 0.0
    p_max: float = 0.0
    r_min: float = -1e9          # MW/min, <= 0
    r_max: float = 1e9           # MW/min, >= 0
    h_f: float = 0.0             # MBtu/h while online
    h_l: float = 0.0             # MBtu/MWh
    h_q: float = 0.0             # MBtu/MW^2 h
    h_u: float = 0.0             # MBtu per start
    h_d: float = 0.0             # MBtu per stop
    c_f: np.ndarray = field(default_factory=lambda: np.ones(24))  # $/MBtu by hour
    t_u: int = 1                 # min up, hours
    t_d: int = 1                 # min down, hours
    u_max: int = 24              # starts per day
    reg_capacity: float = 0.0    # MW under automatic control
    online: bool = False
    initial_output: float = 0.0
    online_hours: int = 0        # signed history: +h online, -h offline

    def fuel_price(self, hour: int) -> float:
        return float(self.c_f[hour % len(self.c_f)])

    def marginal_at_pmax(self) -> float:
        cf = float(self.c_f.max())
        return cf * (self.h_l + 2.0 * self.h_q * self.p_max)


@dataclass
class Storage:
    id: str
    bubble: str
    p_min: float = 0.0
    p_max: float = 0.0           # generating MW
    s_min: float = 0.0
    s_max: float = 0.0           # pumping MW
    e_min: float = 0.0
    e_max: float = 0.0           # MWh
    eta: float = 1.0
    initial_energy: float = 0.0
    mode_gen0: bool = False
    mode_pump0: bool = False


@dataclass
class VerSpec:
    pi: float = 0.0              # fraction of peak load
    gamma_cf: float = 0.3
    A: float = 0.0               # target variability, 1/h; 0 keeps base timing
    shape: str = ""              # unit-mean base shape CSV
    seed: int = 0


@dataclass
class SemiDispatchable:
    id: str
    bubble: str
    kind: str = "wind"
    d: float = 1.0               # curtailable fraction
    price: float = -5.0          # threshold price, $/MWh
    profile_path: str = ""       # fixed profile alternative to ver
    ver: VerSpec | None = None
    eps_da: float | None = None
    eps_st: float | None = None
    eps_rt: float | None = None
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
    bubble: str
    p_min: float = 0.0
    p_max: float = 0.0
    cost: float = 0.0            # $/MWh


@dataclass
class LoadSpec:
    bubble: str
    profile_path: str = ""
    d: float = 0.0               # sheddable fraction
    price: float = 0.0           # shedding threshold price
    eps_da: float | None = None
    eps_st: float | None = None
    eps_rt: float | None = None
    profile: Profile | None = None

    def eps(self, which: int) -> float:
        val = (self.eps_da, self.eps_st, self.eps_rt)[which]
        return DEFAULT_EPS["load"][which] if val is None else val


@dataclass
class ReserveParams:
    alpha_tmsr: dict[str, float] = field(default_factory=dict)   # per bubble
    alpha_tmor: dict[str, float] = field(default_factory=dict)
    alpha_sys_tmsr: float = 0.0
    alpha_sys_tmr: float = 1.0
    alpha_sys_tmor: float = 0.0
    t_10: float = 10.0
    t_30: float = 30.0
    p_reg_req: float = 0.0
    lfr_requirement: float | None = None


@dataclass
class Timing:
    scuc_horizon_h: int = 24
    rtuc_step_min: int = 15
    rtuc_horizon_min: int = 240
    rtuc_period_min: int = 60
    sced_step_min: int = 10
    reg_step_min: int = 1


@dataclass
class Outage:
    resource: str
    start: int                   # minute
    duration: int                # minutes


@dataclass
class Scenario:
    network: ZonalNetwork
    generators: list[Generator] = field(default_factory=list)
    storages: list[Storage] = field(default_factory=list)
    semis: list[SemiDispatchable] = field(default_factory=list)
    drs: list[DemandResponse] = field(default_factory=list)
    loads: list[LoadSpec] = field(default_factory=list)
    gamma_loss: float = 0.03
    supergen_price: float | None = None    # $/MWh; None -> derived default
    reserves: ReserveParams = field(default_factory=ReserveParams)
    timing: Timing = field(default_factory=Timing)
    outages: list[Outage] = field(default_factory=list)
    seed: int = 0
    base_dir: str = "."

    @property
    def peak_load(self) -> float:
        peak = 0.0
        n = min((len(ld.profile) for ld in self.loads if ld.profile), default=0)
        if n == 0:
            return 0.0
        total = np.zeros(n)
        for ld in self.loads:
            total += ld.profile.values[:n]
        peak = float(total.max())
        return peak

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


def _flag(val: str, path: str, ln: int) -> bool:
    low = val.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ScenarioError(f"{path}:{ln}: not a flag: {val!r}")


class _Keys:
    """One section's key/value pairs with line tracking and typo detection."""

    def __init__(self, path: str, header: str, items):
        self.path = path
        self.header = header
        self.items = items
        self.seen: set[str] = set()

    def get(self, key: str, default=None):
        hits = [(v, ln) for k, v, ln in self.items if k == key]
        self.seen.add(key)
        if not hits:
            return (default, -1)
        return hits[-1]

    def num(self, key: str, default: float | None = None) -> float | None:
        v, ln = self.get(key)
        if v is None:
            return default
        return _num(v, self.path, ln)

    def text(self, key: str, default: str | None = None) -> str | None:
        v, _ = self.get(key)
        return default if v is None else v

    def flag(self, key: str, default: bool = False) -> bool:
        v, ln = self.get(key)
        return default if v is None else _flag(v, self.path, ln)

    def all(self, key: str):
        self.seen.add(key)
        return [(v, ln) for k, v, ln in self.items if k == key]

    def reject_unknown(self):
        for k, _, ln in self.items:
            if k not in self.seen:
                raise ScenarioError(
                    f"{self.path}:{ln}: unknown key {k!r} in [{self.header}]")


def load_scenario(path: str, resolve_profiles: bool = True) -> Scenario:
    """Parse a scenario file and resolve all profile references."""
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
    bubble_alphas: dict[str, tuple[float, float]] = {}
    seen_ids: set[str] = set()

    def claim(rid: str, ln: int):
        if rid in seen_ids:
            raise ScenarioError(f"{path}:{ln}: duplicate id {rid!r}")
        seen_ids.add(rid)

    for header, hln, items in sections:
        parts = header.split()
        kind, args = parts[0], parts[1:]
        ks = _Keys(path, header, items)

        if kind == "network":
            net.swing = ks.text("swing", "")
            attach = ks.text("swing-attach", "")
            net.swing_attach = attach.split() if attach else []
            scn.gamma_loss = ks.num("gamma_loss", 0.03)
            scn.supergen_price = ks.num("supergen-price", None)
        elif kind == "bubble":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [bubble] needs a name")
            name = args[0]
            if name in net.bubbles:
                raise ScenarioError(f"{path}:{hln}: duplicate bubble {name!r}")
            net.bubbles.append(name)
            bubble_alphas[name] = (ks.num("alpha_TMSR", 0.0),
                                   ks.num("alpha_TMOR", 0.0))
        elif kind == "branch":
            if len(args) != 2:
                raise ScenarioError(f"{path}:{hln}: [branch] needs two bubbles")
            net.branches.append(Branch(args[0], args[1], ks.num("weight", 1.0)))
        elif kind == "interface":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [interface] needs a name")
            members = []
            for v, ln in ks.all("branch"):
                bits = v.split()
                if len(bits) not in (2, 3):
                    raise ScenarioError(
                        f"{path}:{ln}: interface branch wants '<from> <to> [sign]'")
                sign = _num(bits[2], path, ln) if len(bits) == 3 else 1.0
                members.append((bits[0], bits[1], sign))
            net.interfaces.append(Interface(args[0], members,
                                            ks.num("limit", 0.0)))
        elif kind == "generator":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [generator] needs an id")
            claim(args[0], hln)
            cf_text = ks.text("C_F", "1")
            cf = np.array([_num(x, path, hln) for x in cf_text.split(",")])
            scn.generators.append(Generator(
                id=args[0],
                bubble=ks.text("bubble", ""),
                kind=ks.text("kind", "dispatchable"),
                p_min=ks.num("P^min", 0.0),
                p_max=ks.num("P^max", 0.0),
                r_min=ks.num("R^min", -1e9),
                r_max=ks.num("R^max", 1e9),
                h_f=ks.num("H_F", 0.0), h_l=ks.num("H_L", 0.0),
                h_q=ks.num("H_Q", 0.0), h_u=ks.num("H_U", 0.0),
                h_d=ks.num("H_D", 0.0), c_f=cf,
                t_u=int(ks.num("T_u", 1)), t_d=int(ks.num("T_d", 1)),
                u_max=int(ks.num("u^max", 24)),
                reg_capacity=ks.num("regulation-capacity", 0.0),
                online=ks.flag("online", False),
                initial_output=ks.num("initial-output", 0.0),
                online_hours=int(ks.num("online-hours", 0)),
            ))
        elif kind == "storage":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [storage] needs an id")
            claim(args[0], hln)
            scn.storages.append(Storage(
                id=args[0], bubble=ks.text("bubble", ""),
                p_min=ks.num("P^min", 0.0), p_max=ks.num("P^max", 0.0),
                s_min=ks.num("S^min", 0.0), s_max=ks.num("S^max", 0.0),
                e_min=ks.num("E^min", 0.0), e_max=ks.num("E^max", 0.0),
                eta=ks.num("eta", 1.0),
                initial_energy=ks.num("initial-energy", 0.0),
                mode_gen0=ks.flag("mode-generating", False),
                mode_pump0=ks.flag("mode-pumping", False),
            ))
        elif kind == "semi":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [semi] needs an id")
            claim(args[0], hln)
            ver = None
            if ks.text("shape") is not None:
                ver = VerSpec(
                    pi=ks.num("pi", 0.0),
                    gamma_cf=ks.num("gamma_cf", 0.3),
                    A=ks.num("A", 0.0),
                    shape=ks.text("shape", ""),
                    seed=int(ks.num("noise-seed", 0)),
                )
            scn.semis.append(SemiDispatchable(
                id=args[0], bubble=ks.text("bubble", ""),
                kind=ks.text("kind", "wind"),
                d=ks.num("d", 1.0), price=ks.num("C", -5.0),
                profile_path=ks.text("profile", ""), ver=ver,
                eps_da=ks.num("eps_da", None),
                eps_st=ks.num("eps_st", None),
                eps_rt=ks.num("eps_rt", None),
            ))
        elif kind == "dr":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [dr] needs an id")
            claim(args[0], hln)
            scn.drs.append(DemandResponse(
                id=args[0], bubble=ks.text("bubble", ""),
                p_min=ks.num("P^min", 0.0), p_max=ks.num("P^max", 0.0),
                cost=ks.num("C", 0.0),
            ))
        elif kind == "load":
            if len(args) != 1:
                raise ScenarioError(f"{path}:{hln}: [load] needs a bubble")
            scn.loads.append(LoadSpec(
                bubble=args[0],
                profile_path=ks.text("profile", ""),
                d=ks.num("d", 0.0), price=ks.num("C", 0.0),
                eps_da=ks.num("eps_da", None),
                eps_st=ks.num("eps_st", None),
                eps_rt=ks.num("eps_rt", None),
            ))
        elif kind == "reserves":
            scn.reserves = ReserveParams(
                alpha_sys_tmsr=ks.num("alpha_sys_TMSR", 0.0),
                alpha_sys_tmr=ks.num("alpha_sys_TMR", 1.0),
                alpha_sys_tmor=ks.num("alpha_sys_TMOR", 0.0),
                t_10=ks.num("T_10", 10.0),
                t_30=ks.num("T_30", 30.0),
                p_reg_req=ks.num("P_REG^REQ", 0.0),
                lfr_requirement=ks.num("LFR-requirement", None),
            )
        elif kind == "timing":
            scn.timing = Timing(
                scuc_horizon_h=int(ks.num("scuc-horizon", 24)),
                rtuc_step_min=int(ks.num("rtuc-step", 15)),
                rtuc_horizon_min=int(ks.num("rtuc-horizon", 240)),
                rtuc_period_min=int(ks.num("rtuc-period", 60)),
                sced_step_min=int(ks.num("sced-step", 10)),
                reg_step_min=int(ks.num("regulation-step", 1)),
            )
        elif kind == "outage":
            scn.outages.append(Outage(
                resource=ks.text("resource", ""),
                start=int(ks.num("start", 0)),
                duration=int(ks.num("duration", 0)),
            ))
        elif kind == "seeds":
            scn.seed = int(ks.num("master", 0))
        else:
            raise ScenarioError(f"{path}:{hln}: unknown section [{header}]")
        ks.reject_unknown()

    _check_references(scn, path)
    if resolve_profiles:
        _resolve_profiles(scn)
    scn.reserves.alpha_tmsr = {b: bubble_alphas.get(b, (0.0, 0.0))[0]
                               for b in net.bubbles}
    scn.reserves.alpha_tmor = {b: bubble_alphas.get(b, (0.0, 0.0))[1]
                               for b in net.bubbles}
    return scn


def _check_references(scn: Scenario, path: str) -> None:
    net = scn.network
    known = set(net.bubbles)
    for br in net.branches:
        for b in (br.from_bubble, br.to_bubble):
            if b not in known and b != net.swing:
                raise ScenarioError(f"{path}: branch references undefined bubble {b!r}")
    for itf in net.interfaces:
        for frm, to, _ in itf.members:
            for b in (frm, to):
                if b not in known and b != net.swing:
                    raise ScenarioError(
                        f"{path}: interface {itf.name} references undefined bubble {b!r}")
    for group in (scn.generators, scn.storages, scn.semis, scn.drs):
        for r in group:
            if r.bubble not in known:
                raise ScenarioError(
                    f"{path}: {r.id} references undefined bubble {r.bubble!r}")
    for ld in scn.loads:
        if ld.bubble not in known:
            raise ScenarioError(
                f"{path}: load references undefined bubble {ld.bubble!r}")
    for b in net.swing_attach:
        if b not in known:
            raise ScenarioError(
                f"{path}: swing attaches to undefined bubble {b!r}")


def _resolve_profiles(scn: Scenario) -> None:
    for ld in scn.loads:
        if not ld.profile_path:
            raise ScenarioError(f"load at {ld.bubble} has no profile")
        ld.profile = read_profile(os.path.join(scn.base_dir, ld.profile_path))
    peak = scn.peak_load
    for sm in scn.semis:
        if sm.profile_path:
            sm.profile = read_profile(os.path.join(scn.base_dir, sm.profile_path))
        elif sm.ver is not None:
            base = read_profile(os.path.join(scn.base_dir, sm.ver.shape))
            mean = float(base.values.mean())
            if mean <= 0:
                raise ScenarioError(f"{sm.id}: shape has nonpositive mean")
            base = Profile(base.values / mean, start=base.start)
            sm.profile = scale_ver(base, sm.ver, peak)
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

    if not net.bubbles:
        err("network", "no bubbles defined")
    if not net.swing:
        err("network", "no swing bubble designated")
    for itf in net.interfaces:
        if itf.limit <= 0:
            err(itf.name, f"interface limit {itf.limit} is not positive")
    if net.bubbles and _disconnected(net):
        err("network", "network graph is not connected")

    for g in scn.generators:
        if g.kind not in GEN_KINDS:
            err(g.id, f"unknown generator kind {g.kind!r}")
        if g.p_min > g.p_max:
            err(g.id, f"P^min {g.p_min} exceeds P^max {g.p_max}")
        if g.t_u < 1 or g.t_d < 1:
            err(g.id, "minimum up/down times must be at least 1 hour")
        if g.reg_capacity > g.p_max - g.p_min + 1e-9:
            err(g.id, "regulation capacity exceeds dispatch range")
        if not (g.r_min <= 0.0 <= g.r_max):
            err(g.id, "ramp rates must satisfy R^min <= 0 <= R^max")
        if g.kind == "must-run" and not g.online:
            err(g.id, "must-run unit not initially online")

    for st in scn.storages:
        if not st.e_min <= st.initial_energy <= st.e_max:
            err(st.id, f"initial energy {st.initial_energy} outside "
                       f"[{st.e_min},{st.e_max}]")
        if st.mode_gen0 and st.mode_pump0:
            err(st.id, "initial mode flags both set")
        if not 0.0 < st.eta <= 1.0:
            err(st.id, f"efficiency {st.eta} outside (0,1]")

    for sm in scn.semis:
        if sm.kind not in SEMI_KINDS:
            err(sm.id, f"unknown resource kind {sm.kind!r}")
        if not 0.0 <= sm.d <= 1.0:
            err(sm.id, f"curtailable fraction {sm.d} outside [0,1]")
        if sm.profile is not None and float(sm.profile.values.min()) < 0:
            err(sm.id, "profile has negative values")
        if sm.ver is not None:
            if sm.ver.pi < 0:
                err(sm.id, "penetration must be nonnegative")
            if not 0.0 < sm.ver.gamma_cf <= 1.0:
                err(sm.id, f"capacity factor {sm.ver.gamma_cf} outside (0,1]")

    # Forecasts and the balance rows take one load per bubble.
    seen_loads: set[str] = set()
    for ld in scn.loads:
        if not 0.0 <= ld.d <= 1.0:
            err(ld.bubble, f"load curtailable fraction {ld.d} outside [0,1]")
        if ld.bubble in seen_loads:
            err(ld.bubble, "second [load] section for this bubble")
        seen_loads.add(ld.bubble)

    t = scn.timing
    # Cadence chain: SCED runs divide RTUC runs divide the SCUC day.
    if t.rtuc_period_min % t.sced_step_min:
        err("timing", "SCED step does not divide the RTUC period")
    if (t.scuc_horizon_h * 60) % t.rtuc_period_min:
        err("timing", "RTUC period does not divide the SCUC horizon")
    if t.rtuc_horizon_min % t.rtuc_step_min:
        err("timing", "RTUC interval does not divide the RTUC horizon")
    for name, val in (("alpha_sys_TMSR", scn.reserves.alpha_sys_tmsr),
                      ("alpha_sys_TMR", scn.reserves.alpha_sys_tmr),
                      ("alpha_sys_TMOR", scn.reserves.alpha_sys_tmor)):
        if val < 0:
            err("reserves", f"{name} is negative")

    # Only generators and semi resources are masked by outages.
    targets = {r.id for r in scn.generators + scn.semis}
    for ev in scn.outages:
        if scn.resource(ev.resource) is None:
            err(ev.resource, "outage references unknown resource")
        elif ev.resource not in targets:
            err(ev.resource, "outage applies only to generators and "
                             "semi-dispatchable resources")
        if ev.start < 0 or ev.duration < 0:
            err(ev.resource, f"outage start {ev.start} or duration "
                             f"{ev.duration} is negative")
    return out


def render_report(report: list[tuple[str, str, str]]) -> str:
    return "".join(f"{sev}\t{ent}\t{msg}\n" for sev, ent, msg in report)


def _disconnected(net: ZonalNetwork) -> bool:
    nodes = set(net.bubbles)
    if not nodes:
        return False
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

def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def serialize(scn: Scenario) -> str:
    """Canonical text form; load_scenario on the output round-trips."""
    out = ["[network]"]
    net = scn.network
    if net.swing:
        out.append(f"swing = {net.swing}")
    if net.swing_attach:
        out.append("swing-attach = " + " ".join(net.swing_attach))
    out.append(f"gamma_loss = {_fmt(scn.gamma_loss)}")
    if scn.supergen_price is not None:
        out.append(f"supergen-price = {_fmt(scn.supergen_price)}")

    for b in net.bubbles:
        out.append(f"\n[bubble {b}]")
        a1 = scn.reserves.alpha_tmsr.get(b, 0.0)
        a2 = scn.reserves.alpha_tmor.get(b, 0.0)
        if a1:
            out.append(f"alpha_TMSR = {_fmt(a1)}")
        if a2:
            out.append(f"alpha_TMOR = {_fmt(a2)}")
    for br in net.branches:
        out.append(f"\n[branch {br.from_bubble} {br.to_bubble}]")
        out.append(f"weight = {_fmt(br.weight)}")
    for itf in net.interfaces:
        out.append(f"\n[interface {itf.name}]")
        for frm, to, sign in itf.members:
            out.append(f"branch = {frm} {to} {_fmt(sign)}")
        out.append(f"limit = {_fmt(itf.limit)}")

    for g in scn.generators:
        out.append(f"\n[generator {g.id}]")
        out.append(f"bubble = {g.bubble}")
        out.append(f"kind = {g.kind}")
        out.append(f"P^min = {_fmt(g.p_min)}")
        out.append(f"P^max = {_fmt(g.p_max)}")
        out.append(f"R^min = {_fmt(g.r_min)}")
        out.append(f"R^max = {_fmt(g.r_max)}")
        for key, val in (("H_F", g.h_f), ("H_L", g.h_l), ("H_Q", g.h_q),
                         ("H_U", g.h_u), ("H_D", g.h_d)):
            if val:
                out.append(f"{key} = {_fmt(val)}")
        out.append("C_F = " + ",".join(_fmt(x) for x in g.c_f))
        out.append(f"T_u = {g.t_u}")
        out.append(f"T_d = {g.t_d}")
        out.append(f"u^max = {g.u_max}")
        if g.reg_capacity:
            out.append(f"regulation-capacity = {_fmt(g.reg_capacity)}")
        out.append(f"online = {1 if g.online else 0}")
        out.append(f"initial-output = {_fmt(g.initial_output)}")
        out.append(f"online-hours = {g.online_hours}")

    for st in scn.storages:
        out.append(f"\n[storage {st.id}]")
        out.append(f"bubble = {st.bubble}")
        for key, val in (("P^min", st.p_min), ("P^max", st.p_max),
                         ("S^min", st.s_min), ("S^max", st.s_max),
                         ("E^min", st.e_min), ("E^max", st.e_max),
                         ("eta", st.eta), ("initial-energy", st.initial_energy)):
            out.append(f"{key} = {_fmt(val)}")
        out.append(f"mode-generating = {1 if st.mode_gen0 else 0}")
        out.append(f"mode-pumping = {1 if st.mode_pump0 else 0}")

    for sm in scn.semis:
        out.append(f"\n[semi {sm.id}]")
        out.append(f"bubble = {sm.bubble}")
        out.append(f"kind = {sm.kind}")
        out.append(f"d = {_fmt(sm.d)}")
        out.append(f"C = {_fmt(sm.price)}")
        if sm.profile_path:
            out.append(f"profile = {sm.profile_path}")
        if sm.ver is not None:
            v = sm.ver
            out.append(f"shape = {v.shape}")
            out.append(f"pi = {_fmt(v.pi)}")
            out.append(f"gamma_cf = {_fmt(v.gamma_cf)}")
            out.append(f"A = {_fmt(v.A)}")
            out.append(f"noise-seed = {v.seed}")
        for key, val in (("eps_da", sm.eps_da), ("eps_st", sm.eps_st),
                         ("eps_rt", sm.eps_rt)):
            if val is not None:
                out.append(f"{key} = {_fmt(val)}")

    for dr in scn.drs:
        out.append(f"\n[dr {dr.id}]")
        out.append(f"bubble = {dr.bubble}")
        out.append(f"P^min = {_fmt(dr.p_min)}")
        out.append(f"P^max = {_fmt(dr.p_max)}")
        out.append(f"C = {_fmt(dr.cost)}")

    for ld in scn.loads:
        out.append(f"\n[load {ld.bubble}]")
        out.append(f"profile = {ld.profile_path}")
        out.append(f"d = {_fmt(ld.d)}")
        out.append(f"C = {_fmt(ld.price)}")
        for key, val in (("eps_da", ld.eps_da), ("eps_st", ld.eps_st),
                         ("eps_rt", ld.eps_rt)):
            if val is not None:
                out.append(f"{key} = {_fmt(val)}")

    r = scn.reserves
    out.append("\n[reserves]")
    out.append(f"alpha_sys_TMSR = {_fmt(r.alpha_sys_tmsr)}")
    out.append(f"alpha_sys_TMR = {_fmt(r.alpha_sys_tmr)}")
    out.append(f"alpha_sys_TMOR = {_fmt(r.alpha_sys_tmor)}")
    out.append(f"T_10 = {_fmt(r.t_10)}")
    out.append(f"T_30 = {_fmt(r.t_30)}")
    out.append(f"P_REG^REQ = {_fmt(r.p_reg_req)}")
    if r.lfr_requirement is not None:
        out.append(f"LFR-requirement = {_fmt(r.lfr_requirement)}")

    t = scn.timing
    out.append("\n[timing]")
    out.append(f"scuc-horizon = {t.scuc_horizon_h}")
    out.append(f"rtuc-step = {t.rtuc_step_min}")
    out.append(f"rtuc-horizon = {t.rtuc_horizon_min}")
    out.append(f"rtuc-period = {t.rtuc_period_min}")
    out.append(f"sced-step = {t.sced_step_min}")
    out.append(f"regulation-step = {t.reg_step_min}")

    for i, ev in enumerate(scn.outages, start=1):
        out.append(f"\n[outage {i}]")
        out.append(f"resource = {ev.resource}")
        out.append(f"start = {ev.start}")
        out.append(f"duration = {ev.duration}")

    out.append("\n[seeds]")
    out.append(f"master = {scn.seed}")
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
