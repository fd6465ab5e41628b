"""Bus solver correctness against independent oracles, plus energy accounting."""
import hashlib
import math
import random

import numpy as np
import pytest

from heterosim.config import SimConfig
from heterosim.model import (
    BatteryModel,
    DockConnection,
    ModuleKind,
    World,
    passive_spec,
)
from heterosim.powerbus import (
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


def chain_organism(entries):
    """Build one docked chain; entries are dicts of module parameters."""
    world = World()
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


def source_balance(suppliers, chargers, load_w, v):
    """Supply and demand at bus voltage v, straight from the source laws."""
    supply = math.fsum(min(max((v_oc - v) / R_INT, 0.0), LIMIT) for v_oc in suppliers)
    demand = load_w / v + math.fsum(min(max((v - v_oc) / R_INT, 0.0), CHARGE_CAP)
                                    for v_oc in chargers)
    return supply, demand


def largest_root(suppliers, chargers, load_w):
    return _largest_root(
        [(f"s{i}", v_oc, R_INT) for i, v_oc in enumerate(suppliers)],
        [(f"c{i}", v_oc, R_INT) for i, v_oc in enumerate(chargers)],
        V_EMPTY, max(suppliers), LIMIT, CHARGE_CAP, load_w)


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
