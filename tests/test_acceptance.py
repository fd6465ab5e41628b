"""Acceptance suite: one test per release criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the console.
"""
import json
import random
import time
from collections import deque

import numpy as np
import pytest

from heterosim.cli import main
from heterosim.config import SimConfig
from heterosim.docking import can_dock, dock, holding_power
from heterosim.experiments import run_assembly_experiment, run_rescue_experiment
from heterosim.mechanics import lift_feasible
from heterosim.model import (
    DockConnection,
    ModuleKind,
    Posture,
    World,
    connected_components,
    passive_spec,
    spec_for,
)
from heterosim.powerbus import (
    InsufficientSupply,
    NoSupplier,
    solve_bus,
    step_energy,
    total_stored_energy,
)
from heterosim.mechanics import set_posture
from heterosim.commnet import wired_hops

V_FULL, V_EMPTY, R_INT = 25.2, 19.8, 0.1
LIMIT, CHARGE_CAP = 8.0, 1.4
G, PITCH = 9.81, 0.105


def report_line(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_assembly_reproduction():
    started = time.perf_counter()
    log, report, success = run_assembly_experiment()
    elapsed = time.perf_counter() - started

    assert success
    organisms = report.organisms
    assert len(organisms) == 1 and len(organisms[0]["members"]) == 4
    assert report.total_mips == 12_400            # exact integer arithmetic
    assert organisms[0]["extra_wh_nondriving"] == 66.0
    assert report.speeds["before_lift"] == 6.0
    assert report.speeds["after_lift"] == 31.0
    assert organisms[0]["cpu_nodes"] == 4
    assert elapsed < 5.0
    report_line(1, f"assembly: 4-module organism, 12400 MIPS, 66.0 Wh extra, "
                   f"6 then 31 cm/s, {elapsed:.2f}s")


RESCUE_STAGES = [
    "HelpBroadcast", "HelpAck", "ApproachStart", "Docked", "LiftStart",
    "RotateStart", "LowerStart", "Undocked", "PostureUpright",
    "ResumedOperation",
]


def test_criterion_2_rescue_reproduction():
    started = time.perf_counter()
    log, report, success = run_rescue_experiment()
    elapsed = time.perf_counter() - started

    assert success
    names = log.names()
    iterator = iter(names)
    assert all(stage in iterator for stage in RESCUE_STAGES), names
    assert report.rescue_success is True
    # Every temporary connection was released again.
    assert len(log.events_named("Docked")) == len(log.events_named("Undocked")) == 1
    assert elapsed < 5.0
    report_line(2, f"rescue: 10-stage sequence in order, module upright, "
                   f"no residual connections, {elapsed:.2f}s")


def _chain_world(lifter_kind, masses):
    world = World()
    world.add_module("lift", lifter_kind, pos=(0.0, 0.0))
    previous, prev_port = "lift", 0
    for i, mass in enumerate(masses):
        mid = f"c{i}"
        world.add_module(mid, ModuleKind.PASSIVE, pos=(PITCH * (i + 1), 0.0),
                         spec=passive_spec(num_ports=2, mass_kg=mass))
        world.add_connection(DockConnection(previous, prev_port, mid, 0, 0))
        previous, prev_port = mid, 1
    return world, tuple(f"c{i}" for i in range(len(masses)))


def test_criterion_3_lift_oracle_agreement():
    rng = random.Random(101)
    lifters = (ModuleKind.SCOUT, ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL)
    for _ in range(1000):
        masses = [rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 6))]
        kind = rng.choice(lifters)
        world, chain = _chain_world(kind, masses)
        result = lift_feasible(world, "lift", chain)
        required = 0.0
        arm = 0.0
        for mass in masses:          # independent per-module moment sum
            arm += PITCH
            required += mass * G * arm
        assert result.required_torque_nm == pytest.approx(required, rel=1e-12)
        assert result.feasible == (required <= spec_for(kind).max_torque_nm)

    world, chain = _chain_world(ModuleKind.SCOUT, [1.0, 1.0])
    assert lift_feasible(world, "lift", chain).feasible
    world, chain = _chain_world(ModuleKind.SCOUT, [1.0, 1.0, 1.0])
    assert not lift_feasible(world, "lift", chain).feasible
    world, chain = _chain_world(ModuleKind.BACKBONE, [1.0, 1.0, 1.0])
    assert lift_feasible(world, "lift", chain).feasible
    report_line(3, "lift feasibility matches the moment-sum oracle on 1000 "
                   "random chains; 2/3-chain cases as published")


def _random_bus_world(rng):
    entries = []
    for _ in range(rng.randint(1, 6)):
        entries.append({
            "soc": rng.uniform(0.02, 1.0),
            "sharing": rng.random() < 0.65,
            "load": rng.choice(
                [0.0, rng.uniform(0.1, 30.0), rng.uniform(30.0, 160.0)]),
        })
    world = World()
    previous = None
    for i, entry in enumerate(entries):
        mid = f"m{i}"
        world.add_module(mid, ModuleKind.BACKBONE, pos=(PITCH * i, 0.0),
                         soc=entry["soc"], sharing_on=entry["sharing"])
        world.modules[mid].load_draw_w = entry["load"]
        if previous:
            world.add_connection(DockConnection(previous, 1, mid, 0, 0))
        previous = mid
    return world, entries


def _grid_oracle(entries):
    suppliers = [V_EMPTY + e["soc"] * (V_FULL - V_EMPTY)
                 for e in entries if e["sharing"] and e["soc"] > 0]
    chargers = [V_EMPTY + e["soc"] * (V_FULL - V_EMPTY)
                for e in entries if not e["sharing"]]
    load = sum(e["load"] for e in entries)
    if not suppliers:
        return "no_supplier" if load > 0 else 0.0
    v_hi = max(suppliers)
    if load == 0 and all(c >= v_hi for c in chargers):
        return v_hi
    grid = np.arange(V_EMPTY, v_hi + 5e-4, 1e-3)
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


def test_criterion_4_power_bus_numerics():
    rng = random.Random(404)
    solved = 0
    for _ in range(500):
        world, entries = _random_bus_world(rng)
        expected = _grid_oracle(entries)
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
        assert abs(solution.total_supply_a - solution.total_demand_a) < 1e-9
        for i, entry in enumerate(entries):
            exported = solution.supplier_current[f"m{i}"]
            assert exported <= LIMIT + 1e-12
            if not entry["sharing"]:
                assert exported == 0.0
        solved += 1
    assert solved >= 250
    report_line(4, f"bus voltage within 2 mV of the 1 mV grid oracle on "
                   f"{solved} solvable of 500 random organisms; Kirchhoff "
                   f"< 1e-9 A; limiter and diode respected")


def test_criterion_5_energy_conservation():
    world = World()
    world.add_module("m0", ModuleKind.BACKBONE, soc=1.0)
    world.add_module("m1", ModuleKind.BACKBONE, pos=(PITCH, 0.0), soc=0.9)
    world.add_module("m2", ModuleKind.BACKBONE, pos=(2 * PITCH, 0.0),
                     soc=0.3, sharing_on=False)
    world.add_module("m3", ModuleKind.PASSIVE, pos=(3 * PITCH, 0.0),
                     spec=passive_spec(num_ports=2))
    world.add_connection(DockConnection("m0", 1, "m1", 0, 0))
    world.add_connection(DockConnection("m1", 1, "m2", 0, 0))
    world.add_connection(DockConnection("m2", 1, "m3", 0, 0))
    world.modules["m1"].load_draw_w = 4.0
    world.modules["m3"].load_draw_w = 11.0

    stored_before = total_stored_energy(world)
    for _ in range(10_000):
        step_energy(world, 0.1)
    stored_after = total_stored_energy(world)
    balance = (stored_after - stored_before
               + world.delivered_load_wh + world.resistive_loss_wh)
    assert abs(balance) < 1e-4
    assert world.delivered_load_wh > 0
    assert world.modules["m2"].soc > 0.3  # the switched-off pack recharged
    report_line(5, f"10,000-step run conserves energy to {abs(balance):.2e} Wh "
                   f"(< 1e-4)")


def _random_dock_world(rng):
    kinds = (ModuleKind.SCOUT, ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL,
             ModuleKind.PASSIVE)
    world = World()
    n = rng.randint(2, 6)
    for i in range(n):
        kind = rng.choice(kinds)
        spec = None
        if kind is ModuleKind.PASSIVE:
            spec = passive_spec(num_ports=rng.randint(1, 4),
                                can_actively_lock=rng.random() < 0.3)
        world.add_module(f"m{i}", kind, pos=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         spec=spec)
    ids = sorted(world.modules)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(ids, 2)
        pa = rng.randrange(world.modules[a].spec.num_ports)
        pb = rng.randrange(world.modules[b].spec.num_ports)
        if can_dock(world, a, pa, b, pb, 0) is None:
            world.add_connection(DockConnection(a, pa, b, pb, 0))
    for mid in ids:
        if rng.random() < 0.25:
            state = world.modules[mid]
            free = [i for i, p in enumerate(state.ports) if p is None]
            if free:
                set_posture(world, mid, Posture(fallen_port=rng.choice(free)))
    return world


def test_criterion_6_docking_symmetry_suite():
    rng = random.Random(606)
    inverse = {0: 0, 90: 270, 180: 180, 270: 90}
    for _ in range(1000):
        world = _random_dock_world(rng)
        ids = sorted(world.modules)
        a, b = rng.sample(ids, 2)
        pa = rng.randrange(world.modules[a].spec.num_ports)
        pb = rng.randrange(world.modules[b].spec.num_ports)
        o = rng.choice((0, 90, 180, 270))
        forward = can_dock(world, a, pa, b, pb, o)
        backward = can_dock(world, b, pb, a, pa, inverse[o])
        assert forward == backward
        if forward is None:
            for k in (90, 180, 270):
                assert can_dock(world, a, pa, b, pb, k) is None
        if (world.modules[a].kind is ModuleKind.ACTIVE_WHEEL
                and world.modules[b].kind is ModuleKind.ACTIVE_WHEEL):
            assert forward is not None

    # Wheels never dock to each other, regardless of everything else.
    world = World()
    world.add_module("w1", ModuleKind.ACTIVE_WHEEL)
    world.add_module("w2", ModuleKind.ACTIVE_WHEEL, pos=(PITCH, 0.0))
    for o in (0, 90, 180, 270):
        assert can_dock(world, "w1", 0, "w2", 0, o) is not None

    # Holding a locked connection costs exactly nothing, indefinitely.
    config = SimConfig().with_overrides({"idle_draw_w": 0.0})
    world = World(config)
    world.add_module("a", ModuleKind.BACKBONE)
    world.add_module("b", ModuleKind.BACKBONE, pos=(PITCH, 0.0))
    dock(world, "a", 0, "b", 2, 0)
    conn = next(iter(world.connections.values()))
    assert holding_power(conn) == 0.0
    stored = total_stored_energy(world)
    for _ in range(2000):
        step_energy(world, 0.1)
    assert total_stored_energy(world) == stored
    report_line(6, "genderless + quarter-turn symmetry on 1000 queries; "
                   "wheel-wheel always rejected; locked links hold for 0 W")


def test_criterion_7_determinism_golden(tmp_path):
    outputs = {}
    for builtin in ("assembly", "rescue"):
        scenario = tmp_path / f"{builtin}.json"
        scenario.write_text(json.dumps({"builtin": builtin}))
        runs = []
        for attempt in (1, 2):
            out = tmp_path / f"{builtin}-{attempt}.jsonl"
            rep = tmp_path / f"{builtin}-{attempt}.json"
            code = main(["run", "--scenario", str(scenario),
                         "--out", str(out), "--report", str(rep)])
            assert code == 0
            runs.append((out.read_bytes(), rep.read_bytes()))
        assert runs[0] == runs[1]
        outputs[builtin] = runs[0]
    assert outputs["assembly"][0] != outputs["rescue"][0]
    report_line(7, "both builtins reproduce byte-identical logs and reports "
                   "across repeated runs")


def _bfs_hops(adjacency, src, dst):
    if src == dst:
        return 0
    seen = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    return seen.get(dst)


def test_criterion_8_wired_partition_property():
    rng = random.Random(808)
    for _ in range(500):
        world = World()
        n = rng.randint(2, 8)
        for i in range(n):
            world.add_module(f"m{i}", ModuleKind.BACKBONE,
                             pos=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        used = set()
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(range(n), 2)
            pa, pb = rng.randrange(4), rng.randrange(4)
            if (a, pa) in used or (b, pb) in used:
                continue
            used.add((a, pa))
            used.add((b, pb))
            world.add_connection(DockConnection(f"m{a}", pa, f"m{b}", pb, 0))
        adjacency = world.adjacency()
        component_of = {}
        for comp in connected_components(world):
            for mid in comp:
                component_of[mid] = comp
        ids = sorted(world.modules)
        for _ in range(6):
            a, b = rng.choice(ids), rng.choice(ids)
            hops = wired_hops(world, a, b)
            assert (hops is not None) == (component_of[a] is component_of[b])
            assert hops == _bfs_hops(adjacency, a, b)
    report_line(8, "wired deliverability equals shared-organism membership on "
                   "500 random worlds (BFS oracle)")
