"""Platform table, organism graph, compute totals, and record types."""
import dataclasses
import importlib
import pkgutil
import random

import pytest

import heterosim
import heterosim.engine
from heterosim.engine import _Activity
from heterosim.mechanics import LiftAssessment
from heterosim.model import (
    DockConnection,
    ModuleKind,
    Pose,
    Posture,
    World,
    connected_components,
    passive_spec,
    spec_for,
    total_compute,
)
from heterosim.powerbus import BusSolution
from heterosim.scenario import Event, LowerChain, ModuleSnapshot, Move, PortView


class TestSpecTable:
    def test_scout_spec(self):
        spec = spec_for(ModuleKind.SCOUT)
        assert spec.locomotion_speed_cm_s == 12.5
        assert spec.max_torque_nm == 4.0
        assert spec.num_ports == 4
        assert spec.bend_limit_deg == 90.0
        assert spec.rotation_limit_deg == 180.0
        assert spec.actuation_speed_deg_s == 37.2
        assert spec.mass_kg == 1.0

    def test_backbone_spec(self):
        spec = spec_for(ModuleKind.BACKBONE)
        assert spec.locomotion_speed_cm_s == 6.0
        assert spec.max_torque_nm == 7.0
        assert spec.num_ports == 4
        assert spec.bend_limit_deg == 90.0
        assert spec.rotation_limit_deg == 90.0
        assert spec.actuation_speed_deg_s == 90.0

    def test_active_wheel_spec(self):
        spec = spec_for(ModuleKind.ACTIVE_WHEEL)
        assert spec.locomotion_speed_cm_s == 31.0
        assert spec.num_ports == 2
        assert spec.max_torque_nm == 5.0
        assert spec.mass_kg == 1.55
        assert spec.bend_limit_deg == 180.0
        assert spec.rotation_limit_deg == 180.0

    def test_passive_spec_is_inert(self):
        spec = spec_for(ModuleKind.PASSIVE)
        assert spec.locomotion_speed_cm_s == 0.0
        assert spec.max_torque_nm == 0.0
        assert spec.compute_mips == 0

    def test_active_platform_commons(self):
        for kind in (ModuleKind.SCOUT, ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL):
            spec = spec_for(kind)
            assert spec.compute_mips == 3100
            assert spec.battery.energy_full_wh == 33.0
            assert spec.battery.cells == 6
            assert spec.can_actively_lock

    def test_lookup_is_pure(self):
        assert spec_for(ModuleKind.SCOUT) is spec_for(ModuleKind.SCOUT)
        assert spec_for(ModuleKind.BACKBONE) == spec_for(ModuleKind.BACKBONE)

    def test_passive_family_is_parameterized(self):
        spec = passive_spec(num_ports=3, mass_kg=2.5, compute_mips=500,
                            energy_wh=99.0, can_actively_lock=True)
        assert spec.num_ports == 3
        assert spec.mass_kg == 2.5
        assert spec.battery.energy_full_wh == 99.0
        assert spec.can_actively_lock

    def test_passive_energy_must_not_be_negative(self):
        with pytest.raises(ValueError):
            passive_spec(energy_wh=-1.0)

    def test_passive_ports_are_bounded(self):
        # Each port is allocated when the module is added, so a huge count
        # ran out of memory instead of being refused.
        assert passive_spec(num_ports=6).num_ports == 6
        for ports in (0, 7):
            with pytest.raises(ValueError, match="docking port"):
                passive_spec(num_ports=ports)


class TestPose:
    def test_heading_quantized(self):
        Pose(0, 0, 270)
        with pytest.raises(ValueError):
            Pose(0, 0, 45)


class TestConnectionCanonicalization:
    def test_symmetric_equality(self):
        c1 = DockConnection("b", 2, "a", 1, 90)
        c2 = DockConnection("a", 1, "b", 2, 270)
        assert c1 == c2
        assert c1.key == c2.key

    def test_orientation_inverts_on_swap(self):
        conn = DockConnection("z", 0, "a", 0, 90)
        assert conn.module_a == "a"
        assert conn.orientation_deg == 270


class TestAddConnection:
    @pytest.mark.parametrize("named_from", ["a", "b"])
    def test_re_adding_a_live_connection_is_refused(self, named_from):
        world = World()
        world.add_module("a", ModuleKind.BACKBONE, pos=(0.0, 0.0))
        world.add_module("b", ModuleKind.BACKBONE, pos=(0.105, 0.0))
        world.add_connection(DockConnection("a", 1, "b", 3, 0))
        again = (DockConnection("a", 1, "b", 3, 0) if named_from == "a"
                 else DockConnection("b", 3, "a", 1, 0))
        with pytest.raises(ValueError, match="already carries a connection"):
            world.add_connection(again)
        assert list(world.connections) == [("a", 1, "b", 3)]


def chain_world(n, kind=ModuleKind.BACKBONE):
    world = World()
    for i in range(n):
        world.add_module(f"m{i}", kind, pos=(0.105 * i, 0.0))
    for i in range(n - 1):
        world.add_connection(DockConnection(f"m{i}", 1, f"m{i+1}", 3, 0))
    return world


class TestConnectedComponents:
    def test_empty_world(self):
        assert connected_components(World()) == []

    def test_chain_is_one_component(self):
        world = chain_world(4)
        comps = connected_components(world)
        assert len(comps) == 1
        assert len(comps[0]) == 4

    def test_two_pairs_and_a_singleton(self):
        world = World()
        for mid in "abcde":
            world.add_module(mid, ModuleKind.BACKBONE)
        world.add_connection(DockConnection("a", 0, "b", 0, 0))
        world.add_connection(DockConnection("c", 0, "d", 0, 0))
        comps = connected_components(world)
        assert comps == [("a", "b"), ("c", "d"), ("e",)]

    def test_against_union_find_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 12)
            world = World()
            for i in range(n):
                world.add_module(f"m{i}", ModuleKind.BACKBONE)
            port_use = {f"m{i}": 0 for i in range(n)}
            for _ in range(rng.randint(0, n)):
                a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                ma, mb = f"m{a}", f"m{b}"
                if ma == mb or port_use[ma] > 3 or port_use[mb] > 3:
                    continue
                key_exists = any(
                    {c.module_a, c.module_b} == {ma, mb}
                    for c in world.connections.values())
                if key_exists:
                    continue
                world.add_connection(
                    DockConnection(ma, port_use[ma], mb, port_use[mb], 0))
                port_use[ma] += 1
                port_use[mb] += 1
            assert connected_components(world) == _union_find_components(world)

    def test_component_sizes_sum_to_module_count(self):
        world = chain_world(5)
        world.add_module("lone", ModuleKind.SCOUT, pos=(9, 9))
        comps = connected_components(world)
        assert sum(len(c) for c in comps) == len(world.modules)

    def test_adding_connection_never_shrinks_components(self):
        world = chain_world(3)
        world.add_module("x", ModuleKind.SCOUT, pos=(1, 1))
        before = {m: len(_component_of(world, m)) for m in world.modules}
        world.add_connection(DockConnection("m2", 2, "x", 0, 0))
        after = {m: len(_component_of(world, m)) for m in world.modules}
        assert all(after[m] >= before[m] for m in world.modules)

    def test_removing_connection_never_grows_components(self):
        world = chain_world(4)
        before = {m: len(_component_of(world, m)) for m in world.modules}
        world.remove_connection(next(iter(world.connections)))
        after = {m: len(_component_of(world, m)) for m in world.modules}
        assert all(after[m] <= before[m] for m in world.modules)


class TestOrganismCache:
    """Organisms are cached on the world and dropped by every topology mutator."""

    def test_never_stale_under_random_mutations(self):
        rng = random.Random(11)
        for _ in range(30):
            world = World()
            free_ports = {}
            for _ in range(40):
                roll = rng.random()
                if len(world.modules) < 2 or roll < 0.25:
                    mid = f"m{len(world.modules):02d}"
                    world.add_module(mid, ModuleKind.BACKBONE)
                    free_ports[mid] = [0, 1, 2, 3]
                elif roll < 0.7:
                    a, b = rng.sample(sorted(world.modules), 2)
                    if not free_ports[a] or not free_ports[b]:
                        continue
                    port_a = free_ports[a].pop(rng.randrange(len(free_ports[a])))
                    port_b = free_ports[b].pop(rng.randrange(len(free_ports[b])))
                    world.add_connection(DockConnection(a, port_a, b, port_b))
                elif world.connections:
                    conn = world.remove_connection(rng.choice(sorted(world.connections)))
                    for mid, port in conn.endpoints():
                        free_ports[mid].append(port)
                else:
                    continue
                expected = _union_find_components(world)
                assert connected_components(world) == expected
                for members in expected:
                    for mid in members:
                        assert world.organism_of(mid) == members

    def test_returned_list_is_the_callers(self):
        world = chain_world(3)
        world.add_module("x", ModuleKind.SCOUT, pos=(1, 1))
        comps = connected_components(world)
        comps.pop(0)
        comps.append(("zz",))
        assert connected_components(world) == [("m0", "m1", "m2"), ("x",)]

    def test_unknown_module_raises(self):
        with pytest.raises(KeyError):
            chain_world(2).organism_of("nope")


def _component_of(world, mid):
    for comp in connected_components(world):
        if mid in comp:
            return comp
    raise AssertionError


def _union_find_components(world):
    """Independent union-find oracle over the edge list."""
    parent = {mid: mid for mid in world.modules}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for conn in world.connections.values():
        ra, rb = find(conn.module_a), find(conn.module_b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for mid in world.modules:
        groups.setdefault(find(mid), []).append(mid)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda members: members[0])
    return comps


class TestTotalCompute:
    def test_four_module_organism(self):
        world = World()
        world.add_module("aw1", ModuleKind.ACTIVE_WHEEL)
        world.add_module("aw2", ModuleKind.ACTIVE_WHEEL)
        world.add_module("bb1", ModuleKind.BACKBONE)
        world.add_module("bb2", ModuleKind.BACKBONE)
        assert total_compute(world, ("aw1", "aw2", "bb1", "bb2")) == 12_400

    def test_singleton_backbone(self):
        world = World()
        world.add_module("bb", ModuleKind.BACKBONE)
        assert total_compute(world, ("bb",)) == 3_100

    def test_passive_contributes_zero(self):
        world = World()
        world.add_module("p", ModuleKind.PASSIVE)
        assert total_compute(world, ("p",)) == 0

    def test_rejects_empty_organism(self):
        with pytest.raises(ValueError):
            total_compute(World(), ())


class TestRecordTypes:
    """Value records are NamedTuples and engine records slotted classes;
    a dataclass is kept only where its API is used (``fields``,
    ``replace`` or ``asdict``) or where converting would not shorten it.
    Every activity is one ``_Activity``: its directive and what is left."""

    KEPT = {"BatteryModel", "DockConnection", "MetricsReport", "ModuleSpec",
            "ModuleState", "Pose", "ScenarioScript", "SimConfig"}

    def test_dataclasses_are_the_kept_set(self):
        found = set()
        for info in pkgutil.iter_modules(heterosim.__path__):
            module = importlib.import_module(f"heterosim.{info.name}")
            found |= {name for name, obj in vars(module).items()
                      if isinstance(obj, type) and obj.__module__ == module.__name__
                      and dataclasses.is_dataclass(obj)}
        assert found == self.KEPT

    def test_value_records_are_immutable(self):
        port = PortView(0, "free", None)
        snapshot = ModuleSnapshot("m", ModuleKind.SCOUT, 0.0, 0.0, 0, None, 1.0, True,
                                  False, False, 0.0, 0.0, (port,), ())
        for record, name in ((Move(0.5), "distance_m"), (port, "state"),
                             (Event(0, 0.0, "Docked", ("a",), {}), "tick"),
                             (snapshot, "soc")):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_reprs_keep_the_dataclass_format(self):
        assert repr(Move(0.5)) == "Move(distance_m=0.5)"
        assert repr(LowerChain()) == "LowerChain()"
        assert repr(PortView(1, "free", None)) == "PortView(index=1, state='free', peer=None)"
        assert repr(Posture(fallen_port=3)) == "Posture(fallen_port=3)"
        assert repr(LiftAssessment(True, 2.5)) == (
            "LiftAssessment(feasible=True, required_torque_nm=2.5)")

    def test_engine_records_have_no_dict(self):
        records = (_Activity(Move(1.0), 1.0), BusSolution(("a",), 0.0, {}, [], 8.0, 2.0))
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_the_engine_defines_one_activity_record(self):
        engine = heterosim.engine
        classes = {name for name, obj in vars(engine).items()
                   if isinstance(obj, type) and obj.__module__ == engine.__name__}
        assert classes == {"Controller", "Engine", "_Activity"}
