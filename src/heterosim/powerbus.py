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

A solve is one pass over the members, which also collects the breakpoints,
then that scan, ending in an ulp walk with the balance written inline; it
reads each pack's derived ``span`` and ``conductance``. It returns a
:class:`BusSolution`, the operating point. :func:`step_energy` applies the
solution that each call of this module's global ``solve_bus`` returns, one
per organism, with each organism's reserve and headroom from the largest
``v_full``, cached with the world's organisms; it applies each source's
current where it reads the sources, as :meth:`BusSolution.flows` computes
it. The per-member dicts of a solution are views of it, built when read.
Each sum over the members (the loads, the balance at a voltage) is a
``math.fsum``, which rounds once; the scan's A and B and the energy ledger
add with ``+=`` in member order. Either way the floats are the same on
every Python version (``sum()`` of floats rounds differently from 3.12 on),
and digests in the tests pin them bit for bit.
"""
from __future__ import annotations

import math

from .model import (
    BatteryModel,
    ModuleState,
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


class BusSolution:
    """One organism's operating point for one step: the bus voltage, the
    watts of each member that draws, and the battery sources as (state,
    open-circuit voltage, internal resistance, exports), each in member
    order. Where nothing flows, it holds no loads or sources. The four
    per-member dicts are views of it, built when read, keyed by every member.
    """

    __slots__ = ("organism", "bus_voltage", "loads", "sources", "limit", "cap")

    def __init__(self, organism: tuple[str, ...], bus_voltage: float, loads: dict[str, float],
                 sources: list[tuple[ModuleState, float, float, bool]],
                 limit: float, cap: float) -> None:
        self.organism = organism
        self.bus_voltage = bus_voltage
        self.loads = loads
        self.sources = sources
        self.limit = limit  # A, the export limiter
        self.cap = cap      # A, the recharge cap

    def flows(self) -> list[tuple[ModuleState, float, bool, float]]:
        """A list, in member order, of each source's state, open-circuit
        voltage, whether it exports, and the current out of its pack in A:
        the export of a sharing member, or minus the intake of a recharging
        one, each clamped at 0 and at the limiter or the cap."""
        v, limit, cap = self.bus_voltage, self.limit, self.cap
        return [(st, v_oc, True, limit if (x := (v_oc - v) / r) > limit else 0.0 if x < 0.0 else x)
                if exports else
                (st, v_oc, False, -(cap if (x := (v - v_oc) / r) > cap else 0.0 if x < 0.0 else x))
                for st, v_oc, r, exports in self.sources]

    @property
    def supplier_current(self) -> dict[str, float]:
        """A exported by each member."""
        return dict.fromkeys(self.organism, 0.0) | {
            st.module_id: a for st, _, out, a in self.flows() if out}

    @property
    def charge_current(self) -> dict[str, float]:
        """A taken in by each member."""
        return dict.fromkeys(self.organism, 0.0) | {
            st.module_id: -a for st, _, out, a in self.flows() if not out}

    @property
    def load_current(self) -> dict[str, float]:
        """A drawn by each member's load."""
        return dict.fromkeys(self.organism, 0.0) | {
            mid: watts / self.bus_voltage for mid, watts in self.loads.items()}

    @property
    def limiter_tripped(self) -> dict[str, bool]:
        """Whether each member exports at its limiter."""
        return dict.fromkeys(self.organism, False) | {
            st.module_id: a >= self.limit - 1e-12 for st, _, out, a in self.flows() if out}

    @property
    def total_supply_a(self) -> float:
        return math.fsum(self.supplier_current.values())

    @property
    def total_demand_a(self) -> float:
        return math.fsum(self.load_current.values()) + math.fsum(self.charge_current.values())

    def __repr__(self) -> str:
        """Every view by name; the bus digest in the tests hashes this."""
        return (f"BusSolution(organism={self.organism!r}, bus_voltage={self.bus_voltage!r}, "
                f"supplier_current={self.supplier_current!r}, "
                f"charge_current={self.charge_current!r}, load_current={self.load_current!r}, "
                f"limiter_tripped={self.limiter_tripped!r})")


def solve_bus(
    world: World,
    organism: tuple[str, ...] | None = None,
    min_supplier_stored_wh: float = 0.0,
    charge_headroom_wh: float = 0.0,
) -> BusSolution:
    """Find the organism's operating point: its bus voltage and all currents.

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
    modules, recharge = world.modules, cfg.recharge_enabled
    limit, cap = cfg.current_limit_a, cfg.recharge_max_a

    # One pass over the members finds the loads and sources, and for the
    # root scan each supplier and charger as (v_oc, R, v_oc/R, 1/R) with
    # its breakpoints.
    loads: dict[str, float] = {}
    sources, suppliers, chargers, points = [], [], [], []
    v_lo, v_hi = math.inf, -math.inf
    for mid in members:
        st = modules[mid]
        battery = st.spec.battery
        full = battery.energy_full_wh
        watts = st.load_draw_w
        # 0.0, not 0: a float against an int takes CPython's slower path.
        if full <= 0.0:  # a battery-less block stays on the bus
            if watts > 0.0:
                loads[mid] = watts
            continue
        soc = st.soc
        if watts > 0.0 and soc > 0.0:  # a drained pack takes the module down
            loads[mid] = watts
        stored = soc * full
        # Each source's v_oc is BatteryModel.voltage written inline, check included.
        if st.sharing_on:
            if stored > 0.0 and stored >= min_supplier_stored_wh:
                if not 0.0 <= soc <= 1.0:
                    raise ValueError(f"soc out of range [0, 1]: {soc}")
                v_oc, r = battery.v_empty + soc * battery.span, battery.internal_resistance
                if v_oc > v_hi:
                    v_hi = v_oc
                if battery.v_empty < v_lo:
                    v_lo = battery.v_empty
                sources.append((st, v_oc, r, True))
                suppliers.append((v_oc, r, v_oc / r, battery.conductance))
                points.append(v_oc)
                points.append(v_oc - limit * r)
        elif recharge and stored <= full - charge_headroom_wh:
            if not 0.0 <= soc <= 1.0:
                raise ValueError(f"soc out of range [0, 1]: {soc}")
            v_oc, r = battery.v_empty + soc * battery.span, battery.internal_resistance
            sources.append((st, v_oc, r, False))
            chargers.append((v_oc, r, v_oc / r, battery.conductance))
            points.append(v_oc)
            points.append(v_oc + cap * r)
    total_load_w = math.fsum(loads.values())

    if not suppliers:
        if total_load_w > 0:
            raise NoSupplier(
                f"demand {total_load_w:.3f} W with no exporting module", members)
        return BusSolution(members, 0.0, {}, [], limit, cap)
    if total_load_w / v_hi == 0.0 and (not chargers or all(v_oc >= v_hi for v_oc, *_ in chargers)):
        # Open circuit: no charger sits below the strongest source and the
        # load draws no current there (not even rounded), so the node floats.
        return BusSolution(members, v_hi, {}, [], limit, cap)

    points.append(v_lo)
    v_star = _largest_root(suppliers, chargers, points, v_lo, v_hi, limit, cap,
                           total_load_w)
    if v_star is None:
        raise InsufficientSupply(
            f"demand {total_load_w:.3f} W exceeds limited supply", members)
    return BusSolution(members, v_star, loads, sources, limit, cap)


def _largest_root(suppliers, chargers, points, v_lo, v_hi, limit, cap,
                  load_w) -> float | None:
    """Highest voltage in [v_lo, v_hi] where supply meets demand, or None.

    Each source is (v_oc, R, v_oc/R, 1/R), and ``points`` holds ``v_lo``,
    ``v_hi`` and every source's breakpoints; a repeat adds an empty segment,
    which is skipped. Each segment between them is solved in closed form:
    classifying every source at the segment midpoint gives A (v_oc/R of each
    linear source, plus the limit of each limited supplier, minus the cap of
    each capped charger) and B (1/R of each linear source), and the segment's
    largest root is the larger root of B*v**2 - A*v + P = 0. Rounding can
    put that root a few ulps above the true one, so a walk with the balance
    written inline steps it down one ulp at a time until the balance is >= 0
    (return v), or is not < 0 or v has reached ``lo`` (next segment): the
    returned voltage never leaves demand short of supply as evaluated here.

    ``v_hi`` itself is never a root at the call in :func:`solve_bus`. It is
    the highest supplier voltage, so every supplier's current there is 0
    and the balance is -P/v_hi minus the chargers' intake. That is >= 0
    only when P/v_hi is 0 and no charger sits below v_hi, and that case has
    already returned as open circuit.
    """
    # Scan from v_hi down to v_lo. The balance is negative at the top of
    # each segment reached, so a segment with B <= 0 (balance rising with v)
    # or without a real root inside it holds no root either.
    breakpoints = sorted(points)
    for i in range(len(breakpoints) - 1, 0, -1):
        lo, hi = breakpoints[i - 1], breakpoints[i]
        if hi > v_hi or hi - lo < 1e-15:
            continue
        if lo < v_lo:
            break
        mid = (lo + hi) / 2.0
        a = b = 0.0
        for v_oc, r, a_r, b_r in suppliers:
            current = (v_oc - mid) / r
            if current >= limit:
                a += limit
            elif current > 0.0:
                a += a_r
                b += b_r
        for v_oc, r, a_r, b_r in chargers:
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
        while True:  # the balance at v, then one ulp down, until it holds
            residual = math.fsum([limit if (x := (v_oc - v) / r) > limit else 0.0 if x < 0.0
                                  else x for v_oc, r, _, _ in suppliers]) - load_w / v
            if chargers:
                residual -= math.fsum([cap if (x := (v - v_oc) / r) > cap else 0.0 if x < 0.0
                                       else x for v_oc, r, _, _ in chargers])
            if residual >= 0.0:
                return v
            if not (residual < 0.0 and v > lo):
                break
            v = math.nextafter(v, lo)
    return None


def step_energy(world: World, dt: float, shed=None) -> World:
    """Advance every organism's batteries by ``dt`` seconds.

    Suppliers are drained by their open-circuit voltage times exported
    current; recharging members gain their open-circuit voltage times
    intake. The difference against what the loads received is booked as
    resistive loss, so stored energy, delivered load energy and loss always
    sum to zero. A battery close enough to a bound that one step could
    cross it sits the step out, which keeps the accounting exact. Each
    organism is solved once, in order, and no battery moves until all are:
    a :class:`PowerBusError` propagates with the world untouched. Given
    ``shed``, ``shed(error)`` runs instead (it may switch that organism's
    loads off), and that organism alone is solved once more.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0: {dt}")
    cfg = world.config
    limit, cap = cfg.current_limit_a, cfg.recharge_max_a
    hours = dt / 3600.0
    # Rounding is monotone, so the largest v_full (the world caches it with
    # the organisms) sets the largest reserve and headroom of any member.
    organisms, v_full = connected_components(world), world._index()[2]
    solutions = []
    for members in organisms:
        reserve, headroom = v_full[members] * limit * hours, v_full[members] * cap * hours
        try:
            solutions.append(solve_bus(world, members, reserve, headroom))
        except PowerBusError as exc:
            if shed is None:
                raise
            shed(exc)
            solutions.append(solve_bus(world, members, reserve, headroom))
    delivered = world.delivered_load_wh
    loss = world.resistive_loss_wh
    for solution in solutions:
        v = solution.bus_voltage
        for st, v_oc, r, exports in solution.sources:
            # The current out of the pack, as BusSolution.flows() gives it.
            if exports:
                amps = limit if (x := (v_oc - v) / r) > limit else 0.0 if x < 0.0 else x
            else:
                amps = -(cap if (x := (v - v_oc) / r) > cap else 0.0 if x < 0.0 else x)
            if amps:
                # ModuleState.set_stored_wh, written inline; a source has a pack.
                full = st.spec.battery.energy_full_wh
                soc = (st.soc * full - v_oc * amps * hours) / full
                st.soc = (soc if soc < 1.0 else 1.0) if soc > 0.0 else 0.0
                loss += (v_oc - v) * amps * hours
        for watts in solution.loads.values():
            delivered += watts / v * v * hours  # the load's current times v
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
