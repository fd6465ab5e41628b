"""Platform table, organism graph, compute totals, and record types."""
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import heterosim
import heterosim.engine
from heterosim.config import ConfigError, SimConfig
from heterosim.engine import _Activity
from heterosim.experiments import MetricsReport
from heterosim.mechanics import LiftAssessment
from heterosim.model import (
    STANDARD_BATTERY,
    BatteryModel,
    DockConnection,
    ModuleKind,
    ModuleSpec,
    ModuleState,
    Pose,
    Posture,
    World,
    connected_components,
    passive_spec,
    spec_for,
    total_compute,
)
from heterosim.powerbus import BusSolution
from heterosim.scenario import (
    Event,
    LowerChain,
    ModuleSnapshot,
    Move,
    PortView,
    ScenarioScript,
    TimelineEntry,
)


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

    def test_orientation_must_be_a_quarter_turn(self):
        # Reaches DockConnection.__post_init__'s orientation check.
        with pytest.raises(ValueError, match="orientation"):
            DockConnection("a", 0, "b", 0, 45)

    def test_other_end_seen_from_a_stranger_raises(self):
        # Reaches DockConnection.other's raise for a module it does not join.
        with pytest.raises(KeyError, match="c is not an endpoint"):
            DockConnection("a", 0, "b", 0).other("c")


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

    def test_two_connections_on_one_port_are_caught(self):
        # Reaches check_port_exclusivity's raise. add_connection refuses a
        # port that carries a link, so only a write straight into
        # ``connections`` gets a second link onto one.
        world = chain_world(3)
        second = DockConnection("m0", 1, "m2", 3, 0)
        world.connections[second.key] = second
        with pytest.raises(AssertionError, match=r"port \('m0', 1\) carries two"):
            world.check_port_exclusivity()


class TestModuleGuards:
    def test_spec_of_another_kind_is_refused(self):
        # Reaches World.add_module's check that the spec is of the module's kind.
        with pytest.raises(ValueError, match="spec kind"):
            World().add_module("s", ModuleKind.SCOUT, spec=spec_for(ModuleKind.BACKBONE))

    @pytest.mark.parametrize("joint", ["joint_bend_deg", "joint_rotation_deg"])
    def test_joint_past_its_limit_is_refused(self, joint):
        # Reaches the two joint-limit checks of ModuleState.__post_init__.
        spec = spec_for(ModuleKind.BACKBONE)
        with pytest.raises(ValueError, match="outside spec limit"):
            ModuleState("b", ModuleKind.BACKBONE, spec, Pose(), **{joint: 120.0})

    def test_a_block_without_a_pack_stores_nothing(self):
        # Reaches ModuleState.set_stored_wh's return for a module with no pack.
        block = World().add_module("p", ModuleKind.PASSIVE)
        block.set_stored_wh(5.0)
        assert (block.soc, block.stored_wh) == (1.0, 0.0)


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
    the eight records with checks, defaults or ``replace`` share one small
    base, ``config.Record``, so importing heterosim needs no ``dataclasses``.
    Every activity is one ``_Activity``: its directive and what is left."""

    def test_importing_the_package_and_cli_loads_no_dataclasses(self):
        # A fresh interpreter, so that no other test has imported them; the
        # modules loaded before the import (a site hook's) do not count.
        code = ("import sys; before = set(sys.modules); import heterosim, heterosim.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

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


def _records():
    """One instance of each of the eight records, keyed by class name."""
    world = World()
    return {
        "SimConfig": SimConfig(dt=0.5),
        "BatteryModel": BatteryModel(energy_full_wh=5.0),
        "ModuleSpec": passive_spec(num_ports=2, mass_kg=0.5),
        "Pose": Pose(0.25, -1.0, 90),
        "DockConnection": DockConnection("b", 2, "a", 1, 90),
        "ModuleState": world.add_module("p", ModuleKind.PASSIVE, pos=(0.5, 0.0)),
        "MetricsReport": MetricsReport(organisms=[{"members": ["a"]}], total_mips=3100,
                                       total_wh=1.5, speeds={"a": 2.0}, rescue_success=True),
        "ScenarioScript": ScenarioScript(modules=[{"id": "a"}],
                                         timeline=[TimelineEntry(0, "a", Move(0.5))], dt=0.1),
    }


_NO_PACK = "BatteryModel(cells=0, energy_full_wh=0.0, v_full=25.2, v_empty=19.8, internal_resistance=0.1)"
_PASSIVE = ("ModuleSpec(kind=<ModuleKind.PASSIVE: 'passive'>, locomotion_speed_cm_s=0.0, "
            "num_ports={ports}, bend_limit_deg=0.0, rotation_limit_deg=0.0, max_torque_nm=0.0, "
            "actuation_speed_deg_s=0.0, mass_kg={mass}, compute_mips=0, "
            f"battery={_NO_PACK}, can_actively_lock=False)")


class TestRecordBehaviour:
    """What the eight records show to callers: their reprs, equality only
    with their own class, hashes and refusals of the frozen ones, fresh
    list defaults, and the config's coercion of ``--set`` strings."""

    REPRS = {
        "SimConfig": (
            "SimConfig(dt=0.5, module_pitch=0.105, misalignment_tolerance=0.05, "
            "wireless_range=2.0, wireless_drop_probability=0.0, random_seed=0, "
            "lock_energy_j=0.5, dock_handshake_s=2.0, current_limit_a=8.0, recharge_max_a=1.4, "
            "recharge_enabled=True, idle_draw_w=0.5, drive_draw_w=5.0, gravity=9.81, "
            "scout_max_torque_nm=4.0)"),
        "BatteryModel": ("BatteryModel(cells=6, energy_full_wh=5.0, v_full=25.2, v_empty=19.8, "
                         "internal_resistance=0.1)"),
        "ModuleSpec": _PASSIVE.format(ports=2, mass=0.5),
        "Pose": "Pose(x=0.25, y=-1.0, heading_deg=90)",
        "DockConnection": ("DockConnection(module_a='a', port_a=1, module_b='b', port_b=2, "
                           "orientation_deg=270)"),
        "ModuleState": (
            "ModuleState(module_id='p', kind=<ModuleKind.PASSIVE: 'passive'>, "
            f"spec={_PASSIVE.format(ports=1, mass=1.0)}, "
            "pose=Pose(x=0.5, y=0.0, heading_deg=0), posture=Posture(fallen_port=None), "
            "joint_bend_deg=0.0, joint_rotation_deg=0.0, soc=1.0, sharing_on=True, "
            "load_draw_w=0.0, ports=[None], lift_turn_deg=0.0, pending_righting=False)"),
        "MetricsReport": ("MetricsReport(organisms=[{'members': ['a']}], total_mips=3100, "
                          "total_wh=1.5, speeds={'a': 2.0}, rescue_success=True)"),
        "ScenarioScript": (
            "ScenarioScript(builtin=None, modules=[{'id': 'a'}], connections=[], "
            "timeline=[TimelineEntry(tick=0, module_id='a', directive=Move(distance_m=0.5))], "
            "dt=0.1, max_ticks=10000, shed_policy='halt', params={})"),
    }
    FROZEN = ("SimConfig", "BatteryModel", "ModuleSpec", "DockConnection")

    @pytest.mark.parametrize("name", sorted(REPRS))
    def test_repr(self, name):
        assert repr(_records()[name]) == self.REPRS[name]

    @pytest.mark.parametrize("name", sorted(REPRS))
    def test_equal_only_to_its_own_class(self, name):
        record, again = _records()[name], _records()[name]
        assert record == again and not record != again
        # The field values in order; BatteryModel's derived span and
        # conductance are attributes but not fields, so not in its repr.
        values = tuple(value for key, value in vars(record).items()
                       if f"{key}=" in self.REPRS[name])
        assert record != values and values != record

    @pytest.mark.parametrize("name", FROZEN)
    def test_frozen_records_refuse_changes_and_hash_by_value(self, name):
        record, again = _records()[name], _records()[name]
        for field, value in vars(record).items():
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert vars(record) == vars(again)
        assert hash(record) == hash(again)
        assert len({record, again}) == 1

    @pytest.mark.parametrize("name", ["Pose", "ModuleState"])
    def test_mutable_records_are_unhashable(self, name):
        with pytest.raises(TypeError, match="unhashable"):
            hash(_records()[name])

    def test_each_script_has_its_own_lists(self):
        first, second = ScenarioScript(), ScenarioScript()
        first.modules.append({"id": "a"})
        first.connections.append({})
        first.timeline.append(TimelineEntry(0, "a", Move(0.5)))
        first.params["n"] = 1
        assert (second.modules, second.connections, second.timeline, second.params) == (
            [], [], [], {})
        assert MetricsReport().organisms is not MetricsReport().organisms

    def test_overrides_coerce_to_each_field_type(self):
        config = SimConfig().with_overrides(
            {"recharge_enabled": "off", "random_seed": "7", "dt": "0.25"})
        assert config == SimConfig(recharge_enabled=False, random_seed=7, dt=0.25)
        assert [type(value) for value in (
            config.recharge_enabled, config.random_seed, config.dt)] == [bool, int, float]
        assert SimConfig().with_overrides({"random_seed": 3, "gravity": 10}).gravity == 10.0
        assert type(SimConfig().with_overrides({"gravity": 10}).gravity) is float
        with pytest.raises(ConfigError, match="unknown config key: 'span'"):
            SimConfig().with_overrides({"span": 1.0})
        with pytest.raises(ConfigError, match="bad value for random_seed: '1.5'"):
            SimConfig().with_overrides({"random_seed": "1.5"})

    def test_arguments_by_position_or_keyword_once_each(self):
        assert BatteryModel(6, 33.0, v_full=25.2) == STANDARD_BATTERY
        for bad in (lambda: BatteryModel(6, 33.0, 25.2, 19.8, 0.1, 7),
                    lambda: BatteryModel(6, cells=6),
                    lambda: BatteryModel(volts=25.2),
                    lambda: STANDARD_BATTERY.replace(volts=25.2)):
            with pytest.raises(TypeError, match="^BatteryModel takes cells, energy_full_wh, "):
                bad()
        with pytest.raises(TypeError, match="^ModuleSpec takes kind, "):
            ModuleSpec()

    def test_replace_checks_the_copy(self):
        assert STANDARD_BATTERY.replace(v_full=30.0).span == 30.0 - 19.8
        with pytest.raises(ValueError, match="internal resistance"):
            STANDARD_BATTERY.replace(internal_resistance=0.0)
        pose = Pose(1.0, 2.0, 90)
        assert pose.replace(y=3.0) == Pose(1.0, 3.0, 90) and pose.y == 2.0
        with pytest.raises(ValueError, match="heading"):
            pose.replace(heading_deg=45)


class TestSimConfigChecks:
    """The range checks run on every ``SimConfig``, built directly or as a
    ``replace`` copy, not only through ``with_overrides``."""

    @pytest.mark.parametrize("build", [
        lambda: SimConfig(idle_draw_w=-5.0),
        lambda: SimConfig(current_limit_a=-1.0),
        lambda: SimConfig(wireless_drop_probability=2.0),
        lambda: SimConfig().replace(dt=0.0),
    ], ids=["idle_draw", "current_limit", "drop_probability", "replace_dt"])
    def test_out_of_range_is_refused(self, build):
        with pytest.raises(ConfigError):
            build()


class TestNaNIsRefused:
    """A range check written ``x < 0`` lets NaN through, since every
    comparison with NaN is False; each check here is written so that NaN
    fails it."""

    @pytest.mark.parametrize("build, message", [
        (lambda: BatteryModel(energy_full_wh=math.nan), "battery energy must be >= 0"),
        (lambda: BatteryModel(v_full=math.nan), "v_full must be >= v_empty"),
        (lambda: BatteryModel(v_empty=math.nan), "v_full must be >= v_empty"),
        (lambda: passive_spec(mass_kg=math.nan), "mass_kg must be non-negative"),
        (lambda: passive_spec(energy_wh=math.nan), "battery energy must be >= 0"),
        (lambda: ModuleState("b", ModuleKind.BACKBONE, spec_for(ModuleKind.BACKBONE), Pose(),
                             joint_bend_deg=math.nan), "joint_bend outside spec limit"),
        (lambda: ModuleState("b", ModuleKind.BACKBONE, spec_for(ModuleKind.BACKBONE), Pose(),
                             joint_rotation_deg=math.nan), "joint_rotation outside spec limit"),
    ], ids=["pack_energy", "v_full", "v_empty", "passive_mass", "passive_energy",
            "joint_bend", "joint_rotation"])
    def test_nan_is_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
