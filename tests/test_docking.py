"""Docking lifecycle, symmetry guarantees, and the zero-power hold."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from heterosim.config import SimConfig
from heterosim.docking import (
    DockRejected,
    DockRejection,
    NoSuchConnection,
    NotAdjacent,
    can_dock,
    dock,
    holding_power,
    undock,
)
from heterosim.model import (
    DockConnection,
    ModuleKind,
    Posture,
    World,
    connected_components,
    passive_spec,
)
from heterosim.mechanics import set_posture
from heterosim.powerbus import step_energy, total_available_energy
from heterosim.scenario import SensorMemory

KINDS = (ModuleKind.SCOUT, ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL,
         ModuleKind.PASSIVE)


def two_module_world(kind_a=ModuleKind.BACKBONE, kind_b=ModuleKind.BACKBONE,
                     distance=0.105, **kwargs):
    world = World(kwargs.get("config"))
    spec_a = passive_spec() if kind_a is ModuleKind.PASSIVE else None
    spec_b = passive_spec() if kind_b is ModuleKind.PASSIVE else None
    world.add_module("a", kind_a, pos=(0.0, 0.0), spec=spec_a)
    world.add_module("b", kind_b, pos=(distance, 0.0), spec=spec_b)
    return world


class TestCanDock:
    def test_wheel_to_wheel_is_shape_incompatible(self):
        world = two_module_world(ModuleKind.ACTIVE_WHEEL, ModuleKind.ACTIVE_WHEEL)
        assert can_dock(world, "a", 0, "b", 0, 0) is DockRejection.SHAPE_INCOMPATIBLE

    def test_backbone_scout_any_orientation(self):
        world = two_module_world(ModuleKind.BACKBONE, ModuleKind.SCOUT)
        assert can_dock(world, "a", 0, "b", 2, 90) is None

    def test_two_passive_locks_rejected(self):
        world = two_module_world(ModuleKind.PASSIVE, ModuleKind.PASSIVE)
        assert can_dock(world, "a", 0, "b", 0, 0) is DockRejection.NO_ACTIVE_LOCKER

    def test_self_dock(self):
        world = two_module_world()
        assert can_dock(world, "a", 0, "a", 1, 0) is DockRejection.SELF_DOCK

    def test_bad_orientation(self):
        world = two_module_world()
        assert can_dock(world, "a", 0, "b", 0, 45) is DockRejection.BAD_ORIENTATION

    def test_busy_port(self):
        world = two_module_world()
        world.add_connection(DockConnection("a", 0, "b", 0, 0))
        assert can_dock(world, "a", 0, "b", 1, 0) is DockRejection.PORT_BUSY

    def test_invalid_port_raises(self):
        world = two_module_world(ModuleKind.SCOUT, ModuleKind.SCOUT)
        with pytest.raises(IndexError):
            can_dock(world, "a", 7, "b", 0, 0)

    def test_disabled_port_can_be_docked_to(self):
        world = two_module_world(ModuleKind.ACTIVE_WHEEL, ModuleKind.BACKBONE)
        set_posture(world, "b", Posture(fallen_port=1))
        assert can_dock(world, "a", 0, "b", 1, 0) is None

    def test_two_disabled_ports_cannot_meet(self):
        world = two_module_world(ModuleKind.SCOUT, ModuleKind.BACKBONE)
        set_posture(world, "a", Posture(fallen_port=0))
        set_posture(world, "b", Posture(fallen_port=1))
        assert can_dock(world, "a", 0, "b", 1, 0) is DockRejection.PORT_BUSY


def random_world(rng: random.Random) -> World:
    world = World()
    n = rng.randint(2, 6)
    for i in range(n):
        kind = rng.choice(KINDS)
        spec = None
        if kind is ModuleKind.PASSIVE:
            spec = passive_spec(num_ports=rng.randint(1, 4),
                                can_actively_lock=rng.random() < 0.3)
        world.add_module(
            f"m{i}", kind,
            pos=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            spec=spec,
        )
    ids = sorted(world.modules)
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(ids, 2)
        pa = rng.randrange(world.modules[a].spec.num_ports)
        pb = rng.randrange(world.modules[b].spec.num_ports)
        if can_dock(world, a, pa, b, pb, 0) is None:
            world.add_connection(DockConnection(a, pa, b, pb, 0))
    for mid in ids:
        if rng.random() < 0.2:
            free = [i for i in range(world.modules[mid].spec.num_ports)
                    if not world.port_busy(mid, i)]
            if free:
                set_posture(world, mid, Posture(fallen_port=rng.choice(free)))
    return world


class TestSymmetryProperties:
    def test_genderless_symmetry_random_worlds(self):
        rng = random.Random(42)
        inverse = {0: 0, 90: 270, 180: 180, 270: 90}
        for _ in range(300):
            world = random_world(rng)
            ids = sorted(world.modules)
            a, b = rng.sample(ids, 2) if len(ids) > 1 else (ids[0], ids[0])
            pa = rng.randrange(world.modules[a].spec.num_ports)
            pb = rng.randrange(world.modules[b].spec.num_ports)
            o = rng.choice((0, 90, 180, 270))
            assert can_dock(world, a, pa, b, pb, o) == \
                can_dock(world, b, pb, a, pa, inverse[o])

    def test_quarter_turn_symmetry_random_worlds(self):
        rng = random.Random(43)
        for _ in range(300):
            world = random_world(rng)
            ids = sorted(world.modules)
            a, b = rng.sample(ids, 2) if len(ids) > 1 else (ids[0], ids[0])
            pa = rng.randrange(world.modules[a].spec.num_ports)
            pb = rng.randrange(world.modules[b].spec.num_ports)
            if can_dock(world, a, pa, b, pb, 0) is None:
                for k in (90, 180, 270):
                    assert can_dock(world, a, pa, b, pb, k) is None

    @given(st.sampled_from(KINDS), st.sampled_from(KINDS),
           st.sampled_from((0, 90, 180, 270)))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_symmetry_over_kind_pairs(self, kind_a, kind_b, orientation):
        world = two_module_world(kind_a, kind_b)
        inverse = (360 - orientation) % 360
        assert can_dock(world, "a", 0, "b", 0, orientation) == \
            can_dock(world, "b", 0, "a", 0, inverse)


class TestDockUndock:
    def test_dock_adds_connection_and_merges_organisms(self):
        world = two_module_world()
        dock(world, "a", 0, "b", 2, 0)
        assert len(world.connections) == 1
        assert connected_components(world) == [("a", "b")]

    def test_dock_rejects_at_distance(self):
        world = two_module_world(distance=0.2)
        with pytest.raises(NotAdjacent):
            dock(world, "a", 0, "b", 2, 0)

    def test_misalignment_tolerance_boundary(self):
        # 5% of the pitch is forgiven, more is not.
        world = two_module_world(distance=0.105 * 1.04)
        dock(world, "a", 0, "b", 2, 0)
        world2 = two_module_world(distance=0.105 * 1.06)
        with pytest.raises(NotAdjacent):
            dock(world2, "a", 0, "b", 2, 0)

    def test_dock_propagates_rejection(self):
        world = two_module_world(ModuleKind.ACTIVE_WHEEL, ModuleKind.ACTIVE_WHEEL)
        with pytest.raises(DockRejected) as exc:
            dock(world, "a", 0, "b", 0, 0)
        assert exc.value.reason is DockRejection.SHAPE_INCOMPATIBLE

    def test_dock_to_fallen_module(self):
        world = two_module_world(ModuleKind.ACTIVE_WHEEL, ModuleKind.BACKBONE)
        set_posture(world, "b", Posture(fallen_port=3))
        dock(world, "a", 0, "b", 1, 0)
        assert world.connection_at("b", 1) == DockConnection("a", 0, "b", 1, 0)

    def test_ground_port_stays_on_the_ground_after_undock(self):
        # The posture alone says which port faces the ground, so a peer
        # that docks there and leaves again does not free it.
        world = two_module_world(ModuleKind.ACTIVE_WHEEL, ModuleKind.BACKBONE)
        world.add_module("c", ModuleKind.SCOUT, pos=(0.21, 0.0),
                         posture=Posture(fallen_port=0))
        set_posture(world, "b", Posture(fallen_port=3))
        dock(world, "a", 0, "b", 3, 0)
        undock(world, next(iter(world.connections.values())))
        memory = SensorMemory()
        memory.refresh(world, set(), {})
        snap = memory.get("b")
        assert snap.ports[3].state == "disabled"
        assert 3 not in snap.free_ports()
        assert can_dock(world, "b", 3, "c", 0, 0) is DockRejection.PORT_BUSY

    def test_undock_splits_organism(self):
        world = two_module_world()
        dock(world, "a", 0, "b", 2, 0)
        undock(world, next(iter(world.connections.values())))
        assert connected_components(world) == [("a",), ("b",)]
        assert not world.port_busy("a", 0)

    def test_undock_cycle_edge_keeps_organism_connected(self):
        world = World()
        positions = [(0, 0), (0.105, 0), (0.105, 0.105), (0, 0.105)]
        for i, pos in enumerate(positions):
            world.add_module(f"m{i}", ModuleKind.BACKBONE, pos=pos)
        world.add_connection(DockConnection("m0", 0, "m1", 2, 0))
        world.add_connection(DockConnection("m1", 1, "m2", 3, 0))
        world.add_connection(DockConnection("m2", 0, "m3", 2, 0))
        world.add_connection(DockConnection("m3", 1, "m0", 3, 0))
        undock(world, ("m0", 0, "m1", 2))
        assert len(connected_components(world)) == 1

    def test_undock_unknown_connection(self):
        world = two_module_world()
        with pytest.raises(NoSuchConnection):
            undock(world, ("a", 0, "b", 0))

    def test_redock_after_undock_with_other_orientation(self):
        world = two_module_world()
        dock(world, "a", 0, "b", 2, 0)
        undock(world, ("a", 0, "b", 2))
        dock(world, "a", 0, "b", 2, 180)
        conn = next(iter(world.connections.values()))
        assert conn.orientation_deg == 180

    def test_no_port_carries_two_connections(self):
        world = two_module_world()
        dock(world, "a", 0, "b", 2, 0)
        world.add_module("c", ModuleKind.SCOUT, pos=(0.0, 0.105))
        with pytest.raises(ValueError):
            world.add_connection(DockConnection("c", 0, "a", 0, 0))


class TestHoldingPower:
    def test_locked_connection_holds_for_free(self):
        world = two_module_world()
        dock(world, "a", 0, "b", 2, 0)
        conn = next(iter(world.connections.values()))
        assert holding_power(conn) == 0.0

    def test_long_run_drains_nothing_for_holding(self):
        config = SimConfig().with_overrides({"idle_draw_w": 0.0})
        world = two_module_world(config=config)
        dock(world, "a", 0, "b", 2, 0)
        before = total_available_energy(world)
        for _ in range(1000):
            step_energy(world, 0.1)
        assert total_available_energy(world) == pytest.approx(before, abs=1e-12)

    def test_lock_transition_costs_the_configured_quantum(self):
        world = two_module_world()
        before = total_available_energy(world)
        dock(world, "a", 0, "b", 2, 0)
        spent = before - total_available_energy(world)
        assert spent == pytest.approx(0.5 / 3600.0, rel=1e-9)
