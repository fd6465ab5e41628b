"""Bus solver correctness against independent oracles, plus energy accounting."""
import hashlib
import math
import random

import numpy as np
import pytest

from heterosim import powerbus
from heterosim.config import SimConfig
from heterosim.engine import Engine
from heterosim.model import (
    STANDARD_BATTERY,
    BatteryModel,
    DockConnection,
    ModuleKind,
    World,
    connected_components,
    passive_spec,
    spec_for,
)
from heterosim.powerbus import (
    BusSolution,
    InsufficientSupply,
    NoSupplier,
    PowerBusError,
    open_circuit_voltage,
    solve_bus,
    step_energy,
    total_available_energy,
    total_stored_energy,
    _largest_root,
)

V_FULL, V_EMPTY, R_INT = 25.2, 19.8, 0.1
LIMIT, CHARGE_CAP = 8.0, 1.4


class TestOpenCircuitVoltage:
    def test_full(self):
        assert open_circuit_voltage(1.0) == pytest.approx(25.2)

    def test_empty(self):
        assert open_circuit_voltage(0.0) == pytest.approx(19.8)

    def test_nominal_voltage_soc(self):
        # Solve the linear map for the pack's 22.2 V nominal point.
        soc = (22.2 - V_EMPTY) / (V_FULL - V_EMPTY)
        assert soc == pytest.approx(0.4444444444, abs=1e-9)
        assert open_circuit_voltage(soc) == pytest.approx(22.2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            open_circuit_voltage(1.2)
        with pytest.raises(ValueError):
            open_circuit_voltage(-0.1)

    def test_monotone_and_bounded(self):
        values = [open_circuit_voltage(s / 100) for s in range(101)]
        assert values == sorted(values)
        assert all(V_EMPTY <= v <= V_FULL for v in values)


def chain_organism(entries, config=None):
    """Build one docked chain; entries are dicts of module parameters."""
    world = World(config)
    previous = None
    for i, entry in enumerate(entries):
        mid = f"m{i}"
        kind = entry.get("kind", ModuleKind.BACKBONE)
        spec = None
        if kind is ModuleKind.PASSIVE:
            spec = passive_spec(num_ports=2, energy_wh=entry.get("energy_wh", 0.0))
        world.add_module(mid, kind, pos=(0.105 * i, 0.0), spec=spec,
                         soc=entry.get("soc", 1.0),
                         sharing_on=entry.get("sharing", True))
        world.modules[mid].load_draw_w = entry.get("load", 0.0)
        if previous is not None:
            world.add_connection(DockConnection(previous, 1, mid, 0, 0))
        previous = mid
    return world


def quadratic_bus_voltage(v_oc, r, load_w):
    """Closed-form root of (v_oc - V)/r = load/V, the high branch."""
    disc = v_oc * v_oc - 4.0 * r * load_w
    assert disc >= 0
    return (v_oc + math.sqrt(disc)) / 2.0


class TestSolveBusExamples:
    def test_single_supplier_12w(self):
        world = chain_organism([
            {"soc": 1.0, "sharing": True},
            {"kind": ModuleKind.PASSIVE, "load": 12.0},
        ])
        solution = solve_bus(world)
        expected_v = quadratic_bus_voltage(V_FULL, R_INT, 12.0)
        assert expected_v == pytest.approx(25.152290627, abs=1e-6)
        assert solution.bus_voltage == pytest.approx(expected_v, abs=2e-6)
        assert solution.supplier_current["m0"] == pytest.approx(12.0 / expected_v, abs=1e-6)
        assert solution.supplier_current["m0"] == pytest.approx(0.477, abs=1e-3)

    def test_zero_demand_open_circuit(self):
        world = chain_organism([
            {"soc": 0.8, "sharing": True},
            {"soc": 0.5, "sharing": True},
        ])
        solution = solve_bus(world)
        assert solution.bus_voltage == pytest.approx(open_circuit_voltage(0.8))
        assert solution.total_supply_a == 0.0
        assert solution.total_demand_a == 0.0

    def test_250w_trips_the_limiter(self):
        # 250 W needs ~9.9 A near the top of the range: beyond one limiter.
        world = chain_organism([
            {"soc": 1.0, "sharing": True},
            {"kind": ModuleKind.PASSIVE, "load": 250.0},
        ])
        with pytest.raises(InsufficientSupply):
            solve_bus(world)

    def test_load_too_small_to_draw_current_floats_the_bus(self):
        # 1e-323 W draws no representable current at 25 V, so the node sits
        # at the strongest source, exactly as with no load at all.
        world = chain_organism([
            {"soc": 1.0, "sharing": True, "load": 1e-323},
            {"soc": 0.9, "sharing": True},
        ])
        solution = solve_bus(world)
        assert solution.bus_voltage == open_circuit_voltage(1.0)
        assert solution.total_supply_a == 0.0

    def test_no_supplier(self):
        world = chain_organism([
            {"soc": 1.0, "sharing": False},
            {"kind": ModuleKind.PASSIVE, "load": 5.0},
        ])
        with pytest.raises(NoSupplier):
            solve_bus(world)

    def test_heavy_load_shared_by_two_suppliers(self):
        world = chain_organism([
            {"soc": 1.0, "sharing": True},
            {"soc": 1.0, "sharing": True},
            {"kind": ModuleKind.PASSIVE, "load": 250.0},
        ])
        solution = solve_bus(world)
        assert solution.total_supply_a == pytest.approx(
            solution.total_demand_a, abs=1e-9)
        assert all(v <= LIMIT + 1e-12 for v in solution.supplier_current.values())

    def test_limiter_flag_reports_clipped_suppliers(self):
        # The full pack saturates at 8 A; the half-full one covers the rest.
        world = chain_organism([
            {"soc": 1.0, "sharing": True},
            {"soc": 0.5, "sharing": True},
            {"kind": ModuleKind.PASSIVE, "load": 230.0},
        ])
        solution = solve_bus(world)
        assert solution.limiter_tripped["m0"]
        assert not solution.limiter_tripped["m1"]
        assert solution.supplier_current["m0"] == pytest.approx(LIMIT)
        assert solution.supplier_current["m1"] > 0

    def test_whole_world_solve_needs_one_organism(self):
        # A lone switched-off module is not on the docked pair's bus, so a
        # whole-world solve must not let the pair feed its load.
        world = World()
        world.add_module("a", ModuleKind.BACKBONE)
        world.add_module("b", ModuleKind.BACKBONE, pos=(world.config.module_pitch, 0.0))
        world.add_connection(DockConnection("a", 1, "b", 3))
        lone = world.add_module("c", ModuleKind.BACKBONE, pos=(1.0, 0.0), sharing_on=False)
        lone.load_draw_w = 5.0
        with pytest.raises(ValueError, match="one-organism world"):
            solve_bus(world)
        pair = solve_bus(world, ("a", "b"))
        assert pair.load_current == {"a": 0.0, "b": 0.0}
        with pytest.raises(NoSupplier):
            solve_bus(world, ("c",))


def bus_case(rng):
    """Random single-organism world plus its plain-data description."""
    n = rng.randint(1, 6)
    entries = []
    for _ in range(n):
        entries.append({
            "soc": rng.uniform(0.05, 1.0),
            "sharing": rng.random() < 0.7,
            "load": rng.choice([0.0, rng.uniform(0.2, 40.0), rng.uniform(40.0, 150.0)]),
        })
    return chain_organism(entries), entries


def grid_oracle(entries, grid_mv=1e-3):
    """Dense grid search over bus voltage; independent of the solver."""
    suppliers = [(V_EMPTY + e["soc"] * (V_FULL - V_EMPTY))
                 for e in entries if e["sharing"] and e["soc"] > 0]
    chargers = [(V_EMPTY + e["soc"] * (V_FULL - V_EMPTY))
                for e in entries if not e["sharing"]]
    load = sum(e["load"] for e in entries)
    if not suppliers:
        return ("no_supplier" if load > 0 else 0.0)
    v_hi = max(suppliers)
    if load == 0 and all(c >= v_hi for c in chargers):
        return v_hi
    grid = np.arange(V_EMPTY, v_hi + grid_mv / 2, grid_mv)
    supply = np.zeros_like(grid)
    for v_oc in suppliers:
        supply += np.clip((v_oc - grid) / R_INT, 0.0, LIMIT)
    demand = load / grid
    for v_oc in chargers:
        demand += np.clip((grid - v_oc) / R_INT, 0.0, CHARGE_CAP)
    feasible = supply >= demand
    if not feasible.any():
        return "insufficient"
    return float(grid[feasible].max())


class TestSolveBusAgainstGridOracle:
    def test_randomized_agreement(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(200):
            world, entries = bus_case(rng)
            expected = grid_oracle(entries)
            if expected == "no_supplier":
                with pytest.raises(NoSupplier):
                    solve_bus(world)
                continue
            if expected == "insufficient":
                with pytest.raises(InsufficientSupply):
                    solve_bus(world)
                continue
            solution = solve_bus(world)
            assert solution.bus_voltage == pytest.approx(expected, abs=2e-3)
            checked += 1
        assert checked > 100


class TestBusInvariants:
    def test_kirchhoff_balance(self):
        rng = random.Random(77)
        for _ in range(100):
            world, _ = bus_case(rng)
            try:
                solution = solve_bus(world)
            except (NoSupplier, InsufficientSupply):
                continue
            assert abs(solution.total_supply_a - solution.total_demand_a) < 1e-9

    def test_sharing_off_never_exports(self):
        rng = random.Random(78)
        for _ in range(100):
            world, entries = bus_case(rng)
            try:
                solution = solve_bus(world)
            except (NoSupplier, InsufficientSupply):
                continue
            for i, entry in enumerate(entries):
                if not entry["sharing"]:
                    assert solution.supplier_current[f"m{i}"] == 0.0

    def test_limiter_never_exceeded(self):
        rng = random.Random(79)
        for _ in range(100):
            world, _ = bus_case(rng)
            try:
                solution = solve_bus(world)
            except (NoSupplier, InsufficientSupply):
                continue
            for current in solution.supplier_current.values():
                assert current <= LIMIT + 1e-12

    def test_adding_a_supplier_never_lowers_voltage(self):
        rng = random.Random(80)
        for _ in range(60):
            world, entries = bus_case(rng)
            try:
                before = solve_bus(world).bus_voltage
            except (NoSupplier, InsufficientSupply):
                before = None
            n = len(entries)
            world.add_module(f"m{n}", ModuleKind.BACKBONE,
                             pos=(0.105 * n, 0.0),
                             soc=rng.uniform(0.3, 1.0), sharing_on=True)
            world.add_connection(DockConnection(f"m{n-1}", 1, f"m{n}", 0, 0))
            try:
                after = solve_bus(world).bus_voltage
            except InsufficientSupply:
                continue
            if before is not None:
                assert after >= before - 1e-9


class TestSolutionViews:
    """Each per-member dict of a solution lists every member in sorted
    order, whichever way the solve returned and however the organism was
    passed; a member that is not a source reads 0.0 and False."""

    @staticmethod
    def views(solution):
        return (solution.supplier_current, solution.charge_current,
                solution.load_current, solution.limiter_tripped)

    def test_no_supplier(self):
        # A switched-off pack and a drained one: nothing flows, at 0 V.
        world = chain_organism([{"soc": 0.3, "sharing": False}, {"soc": 0.0, "load": 5.0}])
        solution = solve_bus(world, ("m1", "m0"))
        assert (solution.organism, solution.bus_voltage) == (("m0", "m1"), 0.0)
        zeros = {"m0": 0.0, "m1": 0.0}
        assert self.views(solution) == (zeros, zeros, zeros, {"m0": False, "m1": False})
        assert all(list(view) == ["m0", "m1"] for view in self.views(solution))

    def test_open_circuit(self):
        world = chain_organism([{"soc": 0.8}, {"soc": 0.5},
                                {"kind": ModuleKind.PASSIVE}])
        solution = solve_bus(world, ("m2", "m0", "m1"))
        assert solution.bus_voltage == open_circuit_voltage(0.8)
        zeros = dict.fromkeys(("m0", "m1", "m2"), 0.0)
        assert self.views(solution) == (zeros, zeros, zeros, dict.fromkeys(zeros, False))
        assert all(list(view) == ["m0", "m1", "m2"] for view in self.views(solution))

    def test_solved(self):
        # m0 exports at its limiter, m1 below it, m2 recharges and the
        # battery-less m3 carries the load.
        world = chain_organism([{"soc": 1.0}, {"soc": 0.5}, {"soc": 0.1, "sharing": False},
                                {"kind": ModuleKind.PASSIVE, "load": 230.0}])
        solution = solve_bus(world, ("m3", "m1", "m2", "m0"))
        v = solution.bus_voltage
        members = ["m0", "m1", "m2", "m3"]
        assert all(list(view) == members for view in self.views(solution))
        supplied, charged, drawn, tripped = self.views(solution)
        assert supplied["m0"] == LIMIT and 0.0 < supplied["m1"] < LIMIT
        assert supplied["m2"] == supplied["m3"] == 0.0
        assert charged == {"m0": 0.0, "m1": 0.0, "m2": CHARGE_CAP, "m3": 0.0}
        assert drawn == {"m0": 0.0, "m1": 0.0, "m2": 0.0, "m3": 230.0 / v}
        assert tripped == {"m0": True, "m1": False, "m2": False, "m3": False}
        assert solution.total_supply_a == pytest.approx(solution.total_demand_a, abs=1e-9)

    def test_views_are_read_only(self):
        solution = solve_bus(chain_organism([{"soc": 1.0, "load": 5.0}]))
        for name in ("supplier_current", "charge_current", "load_current", "limiter_tripped"):
            with pytest.raises(AttributeError):
                setattr(solution, name, {})


def source_balance(suppliers, chargers, load_w, v):
    """Supply and demand at bus voltage v, straight from the source laws."""
    supply = math.fsum(min(max((v_oc - v) / R_INT, 0.0), LIMIT) for v_oc in suppliers)
    demand = load_w / v + math.fsum(min(max((v - v_oc) / R_INT, 0.0), CHARGE_CAP)
                                    for v_oc in chargers)
    return supply, demand


def largest_root(suppliers, chargers, load_w):
    points = {V_EMPTY} | {p for v_oc in suppliers for p in (v_oc, v_oc - LIMIT * R_INT)}
    points |= {p for v_oc in chargers for p in (v_oc, v_oc + CHARGE_CAP * R_INT)}
    return _largest_root(
        [(v_oc, R_INT, v_oc / R_INT, 1.0 / R_INT) for v_oc in suppliers],
        [(v_oc, R_INT, v_oc / R_INT, 1.0 / R_INT) for v_oc in chargers],
        points, V_EMPTY, max(suppliers), LIMIT, CHARGE_CAP, load_w)


class TestClosedFormRoot:
    """The segment quadratic lands a few ulps off the root; stepping down
    to balance >= 0 must always finish inside the segment that holds it."""

    @pytest.mark.parametrize("suppliers, chargers, load_w, expected_v", [
        # bus_ensemble organisms (seed 1) whose closed-form roots take 4
        # and 5 one-ulp steps down to balance >= 0.
        ([25.01399706879262, 25.061461446908282],
         [21.176054755854548, 21.9028993812, 21.463876587436364,
          21.354255889854546, 21.312675625254546, 20.625251250763636,
          21.92773953927273, 20.27964905149091, 21.277035398454547,
          20.567470883072726],
         6.0, 24.3253964681),
        ([24.97249662915354, 25.016954629894148],
         [21.18360245249824, 21.90875419260472, 21.471526871266256,
          21.359692193193, 21.320272017129213, 20.63260262671329,
          21.935555155922405, 20.286877245828617, 21.28461908722548,
          20.574778933418624],
         6.0, 24.2823709875),
    ])
    def test_bus_ensemble_organisms(self, suppliers, chargers, load_w, expected_v):
        v = largest_root(suppliers, chargers, load_w)
        assert v == pytest.approx(expected_v, abs=1e-9)
        supply, demand = source_balance(suppliers, chargers, load_w, v)
        assert supply >= demand
        assert abs(supply - demand) < 1e-9

    def test_exporters_near_their_limit_with_many_chargers(self):
        # Shaped like bus_ensemble: one or two exporters, nine to eleven
        # low-charge members recharging. Every draw is solvable, since an
        # exporter's 8 A covers the load once the bus falls to the chargers.
        rng = random.Random(2026)
        for _ in range(3000):
            suppliers = [open_circuit_voltage(rng.uniform(0.7, 1.0))
                         for _ in range(rng.choice((1, 1, 2)))]
            chargers = [open_circuit_voltage(rng.uniform(0.05, 0.4))
                        for _ in range(rng.randint(9, 11))]
            load_w = rng.uniform(0.0, 12.0)
            v = largest_root(suppliers, chargers, load_w)
            assert v is not None
            supply, demand = source_balance(suppliers, chargers, load_w, v)
            assert supply >= demand
            assert abs(supply - demand) < 1e-9

    def test_walk_stops_at_the_floor_of_its_segment(self):
        # Reaches the walk's exit to the next segment. One linear supplier:
        # its quadratic's root lands above the true one, with demand short.
        # With the search floor v_lo put at that rounded root, the walk may
        # not step below it, so there is no root in [v_lo, v_hi]; with the
        # floor lower, the walk steps down into balance.
        source, load_w = (25.0, R_INT, 25.0 / R_INT, 1.0 / R_INT), 2.11
        a, b = source[2], source[3]
        rounded = (a + math.sqrt(a * a - 4.0 * b * load_w)) / (2.0 * b)
        supply, demand = source_balance([25.0], [], load_w, rounded)
        assert supply < demand
        points = [25.0, 25.0 - LIMIT * R_INT]
        assert _largest_root([source], [], points + [rounded], rounded, 25.0,
                             LIMIT, CHARGE_CAP, load_w) is None
        v = _largest_root([source], [], points + [V_EMPTY], V_EMPTY, 25.0,
                          LIMIT, CHARGE_CAP, load_w)
        assert v < rounded
        supply, demand = source_balance([25.0], [], load_w, v)
        assert supply >= demand


class TestStepEnergy:
    def test_supplier_drain_matches_independent_integration(self):
        # One hour at 12 W: drain is the load plus I^2 R loss, ~12.02 Wh.
        world = chain_organism([
            {"soc": 1.0, "sharing": True},
            {"kind": ModuleKind.PASSIVE, "load": 12.0},
        ])
        for _ in range(3600):
            step_energy(world, 1.0)
        drained = 33.0 - world.modules["m0"].stored_wh

        stored = 33.0
        for _ in range(3600):
            v_oc = V_EMPTY + (stored / 33.0) * (V_FULL - V_EMPTY)
            v = quadratic_bus_voltage(v_oc, R_INT, 12.0)
            stored -= v_oc * ((v_oc - v) / R_INT) / 3600.0
        expected = 33.0 - stored
        assert drained == pytest.approx(expected, abs=1e-6)
        assert drained == pytest.approx(12.02, abs=0.01)

    def test_no_loads_no_change(self):
        world = chain_organism([{"soc": 0.7}, {"soc": 0.7}])
        before = total_stored_energy(world)
        for _ in range(100):
            step_energy(world, 0.1)
        assert total_stored_energy(world) == before

    def test_two_backbones_export_66wh(self):
        world = chain_organism([{"soc": 1.0}, {"soc": 1.0}])
        assert total_available_energy(world) == pytest.approx(66.0)

    def test_recharge_respects_the_1c_cap(self):
        world = chain_organism([
            {"soc": 1.0, "sharing": True},
            {"soc": 0.2, "sharing": False},
        ])
        solution = solve_bus(world)
        assert solution.charge_current["m1"] == pytest.approx(CHARGE_CAP)
        before = world.modules["m1"].stored_wh
        step_energy(world, 1.0)
        gained = world.modules["m1"].stored_wh - before
        v_oc = open_circuit_voltage(0.2)
        assert gained == pytest.approx(v_oc * CHARGE_CAP / 3600.0, rel=1e-6)

    def test_recharge_can_be_disabled(self):
        config = SimConfig().with_overrides({"recharge_enabled": False})
        world = World(config)
        world.add_module("a", ModuleKind.BACKBONE, soc=1.0)
        world.add_module("b", ModuleKind.BACKBONE, soc=0.2, sharing_on=False,
                         pos=(0.105, 0.0))
        world.add_connection(DockConnection("a", 1, "b", 0, 0))
        solution = solve_bus(world)
        assert solution.charge_current["b"] == 0.0
        assert solution.bus_voltage == pytest.approx(V_FULL)

    def test_energy_conservation_with_mixed_roles(self):
        world = chain_organism([
            {"soc": 0.9, "sharing": True},
            {"soc": 0.8, "sharing": True, "load": 4.0},
            {"soc": 0.3, "sharing": False, "load": 2.0},
            {"kind": ModuleKind.PASSIVE, "load": 10.0},
        ])
        stored_before = total_stored_energy(world)
        for _ in range(1000):
            step_energy(world, 0.1)
        stored_after = total_stored_energy(world)
        balance = (stored_after - stored_before
                   + world.delivered_load_wh + world.resistive_loss_wh)
        assert abs(balance) < 1e-6

    def test_independent_organisms_step_independently(self):
        world = chain_organism([{"soc": 1.0}, {"kind": ModuleKind.PASSIVE, "load": 5.0}])
        world.add_module("lone", ModuleKind.SCOUT, pos=(5.0, 5.0), soc=0.5)
        lone_before = world.modules["lone"].stored_wh
        step_energy(world, 1.0)
        assert world.modules["lone"].stored_wh == lone_before
        assert world.modules["m0"].stored_wh < 33.0

    def test_a_failing_organism_raises_with_the_world_untouched(self):
        # The organisms before and after "n" would draw; without ``shed`` the
        # step raises n's error, and no battery or ledger moves.
        world = chain_organism([{"soc": 0.9}, {"kind": ModuleKind.PASSIVE, "load": 5.0}])
        world.add_module("n", ModuleKind.BACKBONE, pos=(5.0, 0.0), soc=0.6, sharing_on=False)
        world.add_module("p", ModuleKind.BACKBONE, pos=(-5.0, 0.0), soc=0.8)
        world.modules["n"].load_draw_w = world.modules["p"].load_draw_w = 3.0
        assert connected_components(world) == [("m0", "m1"), ("n",), ("p",)]
        socs = {mid: st.soc for mid, st in world.modules.items()}
        with pytest.raises(NoSupplier) as raised:
            step_energy(world, 1.0)
        assert raised.value.organism == ("n",)
        assert {mid: st.soc for mid, st in world.modules.items()} == socs
        assert (world.delivered_load_wh, world.resistive_loss_wh) == (0.0, 0.0)

    def test_rejects_nonpositive_dt(self):
        world = chain_organism([{"soc": 1.0}])
        with pytest.raises(ValueError):
            step_energy(world, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_nonfinite_dt(self, dt):
        world = chain_organism([{"soc": 1.0}, {"kind": ModuleKind.PASSIVE, "load": 5.0}])
        with pytest.raises(ValueError, match="finite"):
            step_energy(world, dt)
        assert world.modules["m0"].soc == 1.0


class TestSolveBusSeam:
    """``step_energy`` solves each organism once through the module global
    ``powerbus.solve_bus`` and applies the solution that call returns. The
    benchmark's limiter-trip and charging-member counters wrap that global."""

    def test_one_call_per_organism_and_its_solution_applied(self, monkeypatch):
        world = chain_organism([{"soc": 0.9}, {"soc": 0.3, "sharing": False}])
        world.add_module("a", ModuleKind.SCOUT, pos=(2.0, 0.0), soc=0.6)
        world.add_module("b", ModuleKind.BACKBONE, pos=(2.105, 0.0), soc=0.8)
        world.add_connection(DockConnection("a", 1, "b", 3, 0))
        world.add_module("lone", ModuleKind.SCOUT, pos=(-2.0, 0.0), soc=0.5)
        original, returned = powerbus.solve_bus, []

        def counted(*args, **kwargs):
            # 10 mV below the operating point: only the solution returned
            # here can give the floats checked below.
            s = original(*args, **kwargs)
            returned.append(BusSolution(s.organism, s.bus_voltage - 0.01, s.loads, s.sources,
                                        s.limit, s.cap))
            return returned[-1]

        monkeypatch.setattr(powerbus, "solve_bus", counted)
        engine = Engine(world)
        hours = world.config.dt / 3600.0
        for _ in range(5):
            returned.clear()
            expected = {mid: st.soc for mid, st in world.modules.items()}
            delivered = world.delivered_load_wh
            engine.step()
            assert [s.organism for s in returned] == [("a", "b"), ("lone",), ("m0", "m1")]
            for solution in returned:
                v = solution.bus_voltage
                for st, v_oc, _, amps in solution.flows():
                    full = st.spec.battery.energy_full_wh
                    soc = (expected[st.module_id] * full - v_oc * amps * hours) / full
                    expected[st.module_id] = min(1.0, max(0.0, soc))
                for watts in solution.loads.values():
                    delivered += watts / v * v * hours
            assert {mid: st.soc for mid, st in world.modules.items()} == expected
            assert world.delivered_load_wh == delivered
        assert world.modules["m1"].soc > 0.3  # the charger took current in


class TestReserveAndHeadroom:
    """``step_energy`` keeps a supplier out of the step below a reserve of
    ``v_full * current_limit_a * hours`` Wh, and a charger out within a
    headroom of ``v_full * recharge_max_a * hours`` Wh of full, each product
    taken left to right. Each test puts a 1 Wh pack, whose stored Wh is its
    SOC, on a bound at a dt where the other order rounds to another float,
    then one float past it."""

    @staticmethod
    def pack(config, soc, sharing):
        """The pack ``m0`` and a bus partner: a 1 W battery-less load for a
        supplier, a full Backbone to feed a charger."""
        partner = {"kind": ModuleKind.PASSIVE, "load": 1.0} if sharing else {}
        return chain_organism([{"kind": ModuleKind.PASSIVE, "energy_wh": 1.0,
                                "soc": soc, "sharing": sharing}, partner], config)

    def test_a_supplier_holding_exactly_the_reserve_exports(self):
        config = SimConfig().with_overrides({"current_limit_a": 7.0})
        hours = 1.0 / 3600.0
        reserve = V_FULL * 7.0 * hours
        assert reserve != V_FULL * (7.0 * hours)
        world = self.pack(config, reserve, sharing=True)
        step_energy(world, 1.0)
        assert 0.0 < world.modules["m0"].soc < reserve
        world = self.pack(config, math.nextafter(reserve, 0.0), sharing=True)
        with pytest.raises(NoSupplier):
            step_energy(world, 1.0)

    def test_a_charger_exactly_the_headroom_below_full_charges(self):
        config = SimConfig()
        hours = 60.0 / 3600.0
        top = 1.0 - V_FULL * CHARGE_CAP * hours
        assert top != 1.0 - V_FULL * (CHARGE_CAP * hours)
        world = self.pack(config, top, sharing=False)
        step_energy(world, 60.0)
        assert top < world.modules["m0"].soc < 1.0
        soc = math.nextafter(top, 1.0)
        world = self.pack(config, soc, sharing=False)
        step_energy(world, 60.0)
        assert world.modules["m0"].soc == soc


class TestReserveFollowsTopology:
    """The reserve and headroom of each organism come from its largest
    ``v_full``, which changes when a pack of another ``v_full`` docks,
    undocks or is added. The 1 Wh pack ``a`` is the only exporter of its
    organism and holds more than the reserve of a 25.2 V organism but less
    than that of a 27 V one, so the 27 V pack ``h`` takes over while it is
    docked."""

    HOURS = 10.0 / 3600.0

    @staticmethod
    def add(world, mid, v_full, soc, sharing=True, load=0.0, energy_wh=33.0):
        battery = BatteryModel(v_full=v_full, energy_full_wh=energy_wh)
        spec = spec_for(ModuleKind.BACKBONE).replace(battery=battery)
        world.add_module(mid, ModuleKind.BACKBONE, pos=(0.105 * len(world.modules), 0.0),
                         spec=spec, soc=soc, sharing_on=sharing).load_draw_w = load

    def step(self, world, digest):
        """One 10 s step, then every organism's solve with the reserve and
        headroom of its largest v_full, the SOCs and the ledger."""
        step_energy(world, 10.0)
        for members in connected_components(world):
            v_full = max(world.modules[mid].spec.battery.v_full for mid in members)
            try:
                line = repr(solve_bus(world, members,
                                      min_supplier_stored_wh=v_full * LIMIT * self.HOURS,
                                      charge_headroom_wh=v_full * CHARGE_CAP * self.HOURS))
            except PowerBusError as exc:
                line = type(exc).__name__
            digest.update(line.encode() + b"\n")
        line = repr(([st.soc for st in world.modules.values()],
                     world.delivered_load_wh, world.resistive_loss_wh))
        digest.update(line.encode() + b"\n")

    def test_docking_undocking_and_adding_move_the_reserve(self):
        world = World()
        low, high = 25.2 * LIMIT * self.HOURS, 27.0 * LIMIT * self.HOURS
        self.add(world, "a", 25.2, (low + high) / 2, energy_wh=1.0)
        self.add(world, "b", 25.2, 0.9, sharing=False, load=1.0)
        # c, switched off, is within the headroom of a 25.2 V organism only.
        top = 1.0 - (25.2 + 27.0) / 2 * CHARGE_CAP * self.HOURS
        self.add(world, "c", 25.2, top, sharing=False, energy_wh=1.0)
        self.add(world, "h", 27.0, 0.9)
        world.add_connection(DockConnection("a", 1, "b", 0))
        world.add_connection(DockConnection("b", 1, "c", 0))
        a, digest = world.modules["a"], hashlib.sha256()

        soc = a.soc
        self.step(world, digest)
        assert low < a.soc < soc  # a exports above the 25.2 V reserve
        hc = DockConnection("c", 1, "h", 0)
        world.add_connection(hc)
        soc = a.soc
        self.step(world, digest)
        assert a.soc == soc  # below the 27 V reserve, a sits the step out
        world.remove_connection(hc.key)
        self.step(world, digest)
        assert a.soc < soc
        # A lone 30 V pack holding exactly its own reserve still exports.
        self.add(world, "z", 30.0, 30.0 * LIMIT * self.HOURS, load=5.0, energy_wh=1.0)
        soc = world.modules["z"].soc
        self.step(world, digest)
        assert world.modules["z"].soc < soc
        assert digest.hexdigest() == RESERVE_DIGEST


#: sha256 of the solves, SOCs and ledgers of the test above.
RESERVE_DIGEST = "72157e5443969915e8bb8375335d833a838dd509fadb916a4b90487297900cdf"


class TestSolveBusInputs:
    """``solve_bus`` takes the organism as any collection of member ids:
    ``None`` on a one-organism world, a tuple in any order, a list, or a
    strict subset of an organism (solved as a bus of its own). Each solves
    as the sorted tuple does, before and after ``step_energy`` has built
    the world's organisms."""

    def test_every_form_solves_as_the_sorted_tuple(self):
        world = chain_organism([{"soc": 1.0}, {"soc": 0.6, "load": 5.5},
                                {"soc": 0.1, "sharing": False},
                                {"kind": ModuleKind.PASSIVE, "load": 30.0}])
        inputs = [None, ("m3", "m1", "m0", "m2"), ["m2", "m0", "m3", "m1"],
                  ("m0", "m1", "m3"), ["m0", "m1", "m2", "m3"]]
        for _ in range(2):
            for organism in inputs:
                members = tuple(sorted(world.modules if organism is None else organism))
                assert repr(solve_bus(world, organism)) == repr(solve_bus(world, members))
            step_energy(world, 1.0)


class TestSourceRangeCheck:
    """A source's SOC outside [0, 1] raises as ``BatteryModel.voltage``
    does; the pack's constants and voltages read as they always have."""

    @pytest.mark.parametrize("soc, sharing", [(1.2, True), (-0.1, False)])
    def test_a_source_soc_out_of_range_raises(self, soc, sharing):
        world = chain_organism([{"soc": 1.0, "load": 5.0}, {"soc": 0.5, "sharing": sharing}])
        world.modules["m1"].soc = soc
        with pytest.raises(ValueError, match=rf"^soc out of range \[0, 1\]: {soc}$"):
            solve_bus(world)

    def test_the_pack_reads_as_before(self):
        assert repr(STANDARD_BATTERY) == ("BatteryModel(cells=6, energy_full_wh=33.0, "
                                          "v_full=25.2, v_empty=19.8, internal_resistance=0.1)")
        assert BatteryModel._fields == (
            "cells", "energy_full_wh", "v_full", "v_empty", "internal_resistance")
        assert STANDARD_BATTERY == BatteryModel()
        small = STANDARD_BATTERY.replace(energy_full_wh=5.0)
        assert small == BatteryModel(energy_full_wh=5.0) != STANDARD_BATTERY
        assert repr(small) == repr(STANDARD_BATTERY).replace("33.0", "5.0")
        assert hash(small) == hash(BatteryModel(energy_full_wh=5.0))
        volts = [STANDARD_BATTERY.voltage(i / 1000) for i in range(1001)]
        assert volts == [V_EMPTY + i / 1000 * (V_FULL - V_EMPTY) for i in range(1001)]

    @pytest.mark.parametrize("ohms", [0.0, -0.1, math.nan])
    def test_a_pack_needs_a_positive_resistance(self, ohms):
        with pytest.raises(ValueError, match="internal resistance must be > 0 ohm"):
            BatteryModel(internal_resistance=ohms)


def digest_entries(rng):
    """One organism shaped like bus_ensemble, like convoy, or mixed."""
    shape = rng.random()
    if shape < 0.6:
        # One or two exporters near their 8 A limit, nine to eleven
        # switched-off chargers at low charge, some of them drained.
        entries = [{"soc": rng.uniform(0.7, 1.0), "load": rng.choice((0.5, 0.5, 5.5))}
                   for _ in range(rng.choice((1, 1, 2)))]
        entries += [{"soc": rng.choice((0.0, rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4))),
                     "sharing": False, "load": 0.5}
                    for _ in range(rng.randint(9, 11))]
    elif shape < 0.85:
        # Every member shares and one of them drives.
        entries = [{"soc": rng.uniform(0.2, 1.0), "load": 0.5} for _ in range(4)]
        entries[rng.randrange(4)]["load"] = 5.5
    else:
        # Drained packs, heavy loads and battery-less blocks.
        entries = [{"soc": rng.choice((0.0, rng.uniform(0.0, 1.0))),
                    "sharing": rng.random() < 0.6,
                    "load": rng.choice((0.0, rng.uniform(0.2, 40.0), rng.uniform(40.0, 250.0)))}
                   for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            entries.append({"kind": ModuleKind.PASSIVE, "load": rng.uniform(0.0, 20.0)})
    rng.shuffle(entries)
    return entries


#: sha256 of every solution and stepped ledger below, as first computed by
#: the solver with a ``_Source`` dataclass and per-segment divides. A change
#: to the bus arithmetic that moves any float, even by one ulp, moves it.
#: The solver sums with ``math.fsum``, so one digest holds on every Python.
BUS_DIGEST = "4a08f7c3876a202c979d967a4ec179f6669af079f53e1a899ba45b2f83bc0a8a"


class TestBusDigest:
    def test_solutions_and_ledgers_are_bit_identical(self):
        rng = random.Random(9)
        digest = hashlib.sha256()
        for i in range(2000):
            world = chain_organism(digest_entries(rng))
            try:
                line = repr(solve_bus(world))
            except PowerBusError as exc:
                line = type(exc).__name__
            digest.update(line.encode() + b"\n")
            if i % 4:
                continue
            # Every fourth organism also runs 50 steps, with a reserve and
            # headroom that grow with dt.
            dt = rng.choice((0.1, 1.0, 10.0))
            error = ""
            for _ in range(50):
                try:
                    step_energy(world, dt)
                except PowerBusError as exc:
                    error = type(exc).__name__
                    break
            line = repr(([st.soc for st in world.modules.values()],
                         world.delivered_load_wh, world.resistive_loss_wh, error))
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == BUS_DIGEST


class TestAvailableEnergy:
    def test_full_module(self):
        world = chain_organism([{"soc": 1.0}])
        assert total_available_energy(world, ("m0",)) == pytest.approx(33.0)

    def test_half_module(self):
        world = chain_organism([{"soc": 0.5}])
        assert total_available_energy(world, ("m0",)) == pytest.approx(16.5)
