"""Physical layer: zonal DC flow, 1-minute regulation, actual reserves.

The swing bubble is an external node attached through virtual branches; its
exchange is the system imbalance.  Regulation is a rate-limited gain with
saturation acting on that imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import Generator, ZonalNetwork


class GridError(Exception):
    pass


@dataclass
class GridState:
    branch_flows: np.ndarray                    # per scenario branch, from->to positive
    interface_flows: dict[str, tuple[float, float]]   # name -> (flow, limit)
    swing_exchange: float                       # MW absorbed by the swing node


@dataclass
class RegulationState:
    unit_ids: list[str]
    bubbles: list[str]
    saturation: np.ndarray                      # MW, per unit
    g: np.ndarray = field(default=None)
    rate: np.ndarray = field(default=None)      # MW/min
    participation: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.unit_ids)
        self.saturation = np.asarray(self.saturation, dtype=float)
        if self.g is None:
            self.g = np.zeros(n)
        if self.rate is None:
            # Automatic response rate: 10% of the saturation limit per minute.
            self.rate = 0.1 * self.saturation
        if self.participation is None:
            total = self.saturation.sum()
            if total > 0:
                self.participation = self.saturation / total
            else:
                self.participation = np.zeros(n)

    @property
    def total(self) -> float:
        return float(self.g.sum())

    @property
    def total_saturation(self) -> float:
        return float(self.saturation.sum())


@dataclass
class ReserveSnapshot:
    lfr_up: float = 0.0          # MW
    lfr_down: float = 0.0        # MW
    ramp_up: float = 0.0         # MW/min
    ramp_down: float = 0.0       # MW/min


def make_regulation(generators: list[Generator]) -> RegulationState:
    units = [g for g in generators if g.reg_capacity > 0]
    return RegulationState(
        unit_ids=[g.id for g in units],
        bubbles=[g.bubble for g in units],
        saturation=np.array([g.reg_capacity for g in units], dtype=float),
    )


@dataclass
class NetworkFactor:
    """A zonal network prepared once for repeated DC flow solves."""
    index: dict[str, int]                       # node name -> row
    keep: np.ndarray                            # every node but the swing
    reduced: np.ndarray                         # Laplacian over ``keep``
    edge_from: np.ndarray
    edge_to: np.ndarray
    weight: np.ndarray
    interfaces: list[tuple]             # (name, limit, [(branch, sign)])


def factor_network(net: ZonalNetwork) -> NetworkFactor:
    """Index the nodes and build the Laplacian with the swing as reference.

    Raises GridError if the network is disconnected.
    """
    nodes = list(net.bubbles)
    if net.swing:
        nodes.append(net.swing)
    idx = {b: i for i, b in enumerate(nodes)}
    n = len(nodes)

    edges = [(idx[br.from_bubble], idx[br.to_bubble], br.weight)
             for br in net.branches]
    virt = [(idx[b], idx[net.swing], 1.0) for b in net.swing_attach]

    lap = np.zeros((n, n))
    for a, b, w in edges + virt:
        lap[a, a] += w
        lap[b, b] += w
        lap[a, b] -= w
        lap[b, a] -= w

    swing = idx[net.swing] if net.swing else n - 1
    keep = np.array([i for i in range(n) if i != swing], dtype=int)
    reduced = lap[np.ix_(keep, keep)]
    if np.linalg.slogdet(reduced)[0] == 0.0:    # a zero pivot in its LU
        raise GridError("network is disconnected")

    interfaces = [(itf.name, itf.limit, net.interface_terms(itf))
                  for itf in net.interfaces]

    return NetworkFactor(
        index=idx, keep=keep, reduced=reduced,
        edge_from=np.array([a for a, _, _ in edges], dtype=int),
        edge_to=np.array([b for _, b, _ in edges], dtype=int),
        weight=np.array([w for _, _, w in edges], dtype=float),
        interfaces=interfaces)


def dc_flow(factor: NetworkFactor, injections: dict) -> GridState:
    """Solve the susceptance-weighted DC network with the swing as reference.

    ``injections`` are net MW per bubble (generation minus withdrawal),
    each one value for one minute or an array of minutes.  The swing node
    absorbs the total mismatch.  For arrays the branch and interface flows
    and the swing exchange have the minutes as their first axis.
    """
    shape = np.shape(next(iter(injections.values()), 0.0))
    p = np.zeros(shape + (len(factor.index),))
    for b, mw in injections.items():
        p[..., factor.index[b]] += mw
    theta = np.zeros_like(p)
    # One LU solve per minute (a stack of systems, one right-hand side
    # each), not a product with a stored inverse or one solve with every
    # minute as a right-hand side: those round differently, and the
    # printed flows would change in the last digit.
    k = len(factor.keep)
    theta[..., factor.keep] = np.linalg.solve(
        np.broadcast_to(factor.reduced, shape + (k, k)),
        p[..., factor.keep, None])[..., 0]

    a, b = factor.edge_from, factor.edge_to
    flows = factor.weight * (theta[..., a] - theta[..., b])
    iface = {name: (sum(sign * flows[..., bi] for bi, sign in members), limit)
             for name, limit, members in factor.interfaces}
    return GridState(branch_flows=flows, interface_flows=iface,
                     swing_exchange=sum(injections.values()))


def regulation_step(imbalance, reg: RegulationState,
                    outputs: np.ndarray | None = None):
    """Advance regulation one minute per raw (pre-regulation) imbalance;
    returns the residual the swing bus still absorbs.

    ``imbalance`` is one minute's value or an array of minutes, stepped in
    order; the residual has the same shape.  ``reg.g`` holds the units'
    outputs after the last minute, and ``outputs``, if given, receives
    every minute's (minutes x units).

    Each unit tracks a target of -participation*imbalance, limited to its
    response rate per minute and clamped at saturation.  A zero imbalance
    therefore walks the units back to their baseline at the same rate.
    """
    imb = np.asarray(imbalance, dtype=float)
    seq = imb.reshape(-1).tolist()
    if outputs is None:
        outputs = np.empty((len(seq), len(reg.unit_ids)))
    if len(reg.unit_ids):
        psum = float(reg.participation.sum())
        if reg.saturation.sum() > 0 and abs(psum - 1.0) > 1e-9:
            raise GridError(f"participation factors sum to {psum}")
        g, part = reg.g, reg.participation
        rate, sat = reg.rate, reg.saturation
        neg_rate, neg_sat = -rate, -sat
        # np.minimum(np.maximum(...)) is np.clip without its Python
        # wrapper: the same bits, NaN and crossed bounds included.
        lo, hi = np.maximum, np.minimum
        for m, x in enumerate(seq):
            delta = hi(lo(-x * part - g, neg_rate), rate)
            g = hi(lo(g + delta, neg_sat), sat)
            outputs[m] = g
        reg.g = g
    residual = imb + outputs.sum(axis=1).reshape(imb.shape)
    return float(residual) if residual.ndim == 0 else residual


def actual_reserves(units: list[Generator], online: dict[str, float],
                    outputs: dict[str, float], prev_outputs: dict[str, float],
                    dt_min: float = 1.0,
                    outage: dict[str, float] | None = None) -> ReserveSnapshot:
    """Reserve quantities actually present in the current system state.

    Capacity reserves are online headroom/foot-room; ramping reserves are the
    unused ramp-rate capability net of the movement already scheduled over
    ``dt_min`` minutes.
    """
    snap = ReserveSnapshot()
    outage = outage or {}
    for g in units:
        w = online.get(g.id, 0.0)
        if w <= 0:
            continue
        cap = (1.0 - outage.get(g.id, 0.0)) * g.p_max
        p = outputs.get(g.id, 0.0)
        dp = (p - prev_outputs.get(g.id, p)) / dt_min
        snap.lfr_up += max(w * cap - p, 0.0)
        snap.lfr_down += max(p - w * g.p_min, 0.0)
        snap.ramp_up += max(w * g.r_max - dp, 0.0)
        snap.ramp_down += max(w * (-g.r_min) + dp, 0.0)
    return snap
