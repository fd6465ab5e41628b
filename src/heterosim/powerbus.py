"""Per-organism DC energy-sharing bus.

Every organism is a single electrical node. Modules whose sharing switch is
ON export battery current through an ideal diode and a per-module current
limiter; modules with the switch OFF only ever take current in (recharge),
and only while the bus sits above their own open-circuit voltage. Consumer
loads draw constant power from the node.

The bus voltage is the unique stable operating point: the highest voltage
at which limited supply meets demand. Between diode/limiter breakpoints
every source is off, linear or at its limit, so supply minus demand is
exactly A - B*v - P/v there. The solver scans segments from the top of the
voltage range and takes the larger root of B*v**2 - A*v + P = 0 in the
first segment that holds one.

A solve is one pass over the members, then that scan. Every sum is a
``math.fsum``, which rounds once, so the floats are the same on every
Python version (``sum()`` of floats rounds differently from 3.12 on); a
digest in the tests pins them bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import (
    BatteryModel,
    STANDARD_BATTERY,
    World,
    connected_components,
)


class PowerBusError(Exception):
    def __init__(self, message: str, organism: tuple[str, ...] = ()):
        super().__init__(message)
        self.organism = organism


class NoSupplier(PowerBusError):
    """Demand exists but nothing on the bus is willing to export."""


class InsufficientSupply(PowerBusError):
    """Even maximum limited supply cannot meet demand (brown-out)."""


def open_circuit_voltage(soc: float, battery: BatteryModel = STANDARD_BATTERY) -> float:
    """Open-circuit pack voltage for a state of charge in [0, 1]."""
    return battery.voltage(soc)


@dataclass
class BusSolution:
    """Solved electrical state of one organism for one step."""

    organism: tuple[str, ...]
    bus_voltage: float
    supplier_current: dict[str, float] = field(default_factory=dict)  # A, export
    charge_current: dict[str, float] = field(default_factory=dict)    # A, intake
    load_current: dict[str, float] = field(default_factory=dict)      # A, consumption
    limiter_tripped: dict[str, bool] = field(default_factory=dict)

    @property
    def total_supply_a(self) -> float:
        return math.fsum(self.supplier_current.values())

    @property
    def total_demand_a(self) -> float:
        return math.fsum(self.load_current.values()) + math.fsum(self.charge_current.values())


def solve_bus(
    world: World,
    organism: tuple[str, ...] | None = None,
    *,
    min_supplier_stored_wh: float = 0.0,
    charge_headroom_wh: float = 0.0,
) -> BusSolution:
    """Find the organism's bus voltage and all module currents.

    Suppliers are members with the sharing switch on and charge left;
    demand is the members' load draw plus (when recharging is enabled)
    intake of switched-off members sitting below the bus voltage. Raises
    :class:`NoSupplier` or :class:`InsufficientSupply` when no operating
    point exists. ``organism=None`` means the whole world, which must then
    be one organism: modules that are not docked together share no bus, so
    any other world raises ``ValueError``.
    """
    cfg = world.config
    if organism is None:
        components = connected_components(world)
        if len(components) != 1:
            raise ValueError(f"organism=None needs a one-organism world, not {len(components)}")
        organism = components[0]
    members = tuple(sorted(organism))

    # Sources are (module id, open-circuit voltage, internal resistance).
    suppliers: list[tuple[str, float, float]] = []
    chargers: list[tuple[str, float, float]] = []
    loads: dict[str, float] = {}  # the members drawing power, in member order
    v_lo, v_hi = math.inf, -math.inf
    for mid in members:
        st = world.modules[mid]
        battery = st.spec.battery
        full = battery.energy_full_wh
        soc = st.soc
        # A drained pack takes the module down; battery-less blocks stay on the bus.
        watts = st.load_draw_w
        if watts > 0.0 and (full <= 0 or soc > 0.0):
            loads[mid] = watts
        if full <= 0:
            continue
        stored = soc * full
        if st.sharing_on:
            if stored > 0 and stored >= min_supplier_stored_wh:
                v_oc = battery.voltage(soc)
                v_hi = v_oc if v_oc > v_hi else v_hi
                v_lo = battery.v_empty if battery.v_empty < v_lo else v_lo
                suppliers.append((mid, v_oc, battery.internal_resistance))
        elif cfg.recharge_enabled and stored <= full - charge_headroom_wh:
            chargers.append((mid, battery.voltage(soc), battery.internal_resistance))
    total_load_w = math.fsum(loads.values())

    if not suppliers:
        if total_load_w > 0:
            raise NoSupplier(
                f"demand {total_load_w:.3f} W with no exporting module", members)
        return _zero_solution(members, 0.0)
    if total_load_w / v_hi == 0.0 and all(v_oc >= v_hi for _, v_oc, _ in chargers):
        # Open circuit: no charger sits below the strongest source and the
        # load draws no current there (not even rounded), so the node floats.
        return _zero_solution(members, v_hi)

    limit = cfg.current_limit_a
    cap = cfg.recharge_max_a
    v_star = _largest_root(suppliers, chargers, v_lo, v_hi, limit, cap,
                           total_load_w)
    if v_star is None:
        raise InsufficientSupply(
            f"demand {total_load_w:.3f} W exceeds limited supply", members)

    solution = _zero_solution(members, v_star)
    for mid, watts in loads.items():
        solution.load_current[mid] = watts / v_star
    for mid, v_oc, r in suppliers:
        x = (v_oc - v_star) / r
        current = limit if x > limit else 0.0 if x < 0.0 else x
        solution.supplier_current[mid] = current
        solution.limiter_tripped[mid] = current >= limit - 1e-12
    for mid, v_oc, r in chargers:
        x = (v_star - v_oc) / r
        solution.charge_current[mid] = cap if x > cap else 0.0 if x < 0.0 else x
    return solution


def _zero_solution(members: tuple[str, ...], bus_voltage: float) -> BusSolution:
    zeros = dict.fromkeys(members, 0.0)
    return BusSolution(members, bus_voltage, zeros, zeros.copy(), zeros.copy(),
                       dict.fromkeys(members, False))


def _largest_root(suppliers, chargers, v_lo, v_hi, limit, cap,
                  load_w) -> float | None:
    """Highest voltage in [v_lo, v_hi] where supply meets demand, or None.

    Each segment between breakpoints is solved in closed form: classifying
    every source at the segment midpoint gives A (v_oc/R of each linear
    source, plus the limit of each limited supplier, minus the cap of each
    capped charger) and B (1/R of each linear source), and the segment's
    largest root is the larger root of B*v**2 - A*v + P = 0. Rounding can
    put that root a few ulps above the true one, so it is stepped down one
    ulp at a time until balance(v) >= 0: the returned voltage never leaves
    demand short of supply as evaluated here.

    ``v_hi`` itself is never a root at the call in :func:`solve_bus`. It is
    the highest supplier voltage, so every supplier's current there is 0
    and the balance is -P/v_hi minus the chargers' intake. That is >= 0
    only when P/v_hi is 0 and no charger sits below v_hi, and that case has
    already returned as open circuit.
    """
    def balance(v: float) -> float:
        net = math.fsum([limit if (x := (v_oc - v) / r) > limit else 0.0 if x < 0.0 else x
                         for _, v_oc, r in suppliers]) - load_w / v
        if chargers:
            net -= math.fsum([cap if (x := (v - v_oc) / r) > cap else 0.0 if x < 0.0 else x
                              for _, v_oc, r in chargers])
        return net

    # Each source's breakpoints, and its linear terms v_oc/R and 1/R divided
    # out once.
    points = {v_lo, v_hi}
    linear_suppliers, linear_chargers = [], []
    for _, v_oc, r in suppliers:
        points.add(v_oc)
        points.add(v_oc - limit * r)
        linear_suppliers.append((v_oc, r, v_oc / r, 1.0 / r))
    for _, v_oc, r in chargers:
        points.add(v_oc)
        points.add(v_oc + cap * r)
        linear_chargers.append((v_oc, r, v_oc / r, 1.0 / r))
    breakpoints = sorted([p for p in points if v_lo <= p <= v_hi])

    # Scan from the top. The balance is negative at the top of each segment
    # reached, so a segment with B <= 0 (balance rising with v) or without
    # a real root inside it holds no root either.
    for i in range(len(breakpoints) - 1, 0, -1):
        lo, hi = breakpoints[i - 1], breakpoints[i]
        if hi - lo < 1e-15:
            continue
        mid = (lo + hi) / 2.0
        a = b = 0.0
        for v_oc, r, a_r, b_r in linear_suppliers:
            current = (v_oc - mid) / r
            if current >= limit:
                a += limit
            elif current > 0.0:
                a += a_r
                b += b_r
        for v_oc, r, a_r, b_r in linear_chargers:
            current = (mid - v_oc) / r
            if current >= cap:
                a -= cap
            elif current > 0.0:
                a += a_r
                b += b_r
        disc = a * a - 4.0 * b * load_w
        if b <= 0.0 or disc < 0.0:
            continue
        v = (a + math.sqrt(disc)) / (2.0 * b)
        if not lo <= v <= hi:
            continue
        residual = balance(v)
        while residual < 0.0 and v > lo:
            v = math.nextafter(v, lo)
            residual = balance(v)
        if residual >= 0.0:
            return v
    return None


def step_energy(world: World, dt: float) -> World:
    """Advance every organism's batteries by ``dt`` seconds.

    Suppliers are drained by their open-circuit voltage times exported
    current; recharging members gain their open-circuit voltage times
    intake. The difference against what the loads received is booked as
    resistive loss, so stored energy, delivered load energy and loss always
    sum to zero. A battery close enough to a bound that one step could
    cross it sits the step out, which keeps the accounting exact.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0: {dt}")
    cfg = world.config
    hours = dt / 3600.0
    # Solve every organism before touching any battery, so a brown-out on
    # one organism leaves the whole world untouched (the engine may shed
    # loads and retry the step). Rounding is monotone, so the largest v_full
    # gives the largest reserve and headroom of any member.
    solutions = []
    for members in connected_components(world):
        v_full = max([world.modules[mid].spec.battery.v_full for mid in members])
        solutions.append(solve_bus(
            world,
            members,
            min_supplier_stored_wh=v_full * cfg.current_limit_a * hours,
            charge_headroom_wh=v_full * cfg.recharge_max_a * hours,
        ))
    delivered = world.delivered_load_wh
    loss = world.resistive_loss_wh
    for solution in solutions:
        v = solution.bus_voltage
        # The four dicts hold the members in the same order.
        for mid, exported, intake, current in zip(
                solution.organism, solution.supplier_current.values(),
                solution.charge_current.values(), solution.load_current.values()):
            if exported > 0:
                v_oc = world.modules[mid].discharge(exported, hours)
                loss += (v_oc - v) * exported * hours
            elif intake > 0:
                v_oc = world.modules[mid].discharge(-intake, hours)
                loss += (v - v_oc) * intake * hours
            if current > 0:
                delivered += current * v * hours
    world.delivered_load_wh = delivered
    world.resistive_loss_wh = loss
    return world


def total_available_energy(world: World, organism: tuple[str, ...] | None = None) -> float:
    """Stored energy of an organism in Wh (state of charge times capacity)."""
    members = organism if organism is not None else tuple(world.modules)
    return math.fsum(
        world.modules[mid].soc * world.modules[mid].spec.battery.energy_full_wh
        for mid in members
    )


def total_stored_energy(world: World) -> float:
    """Stored energy of every module in the world, in Wh."""
    return total_available_energy(world, tuple(world.modules))
