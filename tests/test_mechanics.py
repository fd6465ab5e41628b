"""Lift statics, joint timing, organism speed, and posture transitions."""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from heterosim.mechanics import (
    Joint,
    JointLimitExceeded,
    actuation_duration,
    lift_feasible,
    organism_speed,
    required_lift_torque,
    set_posture,
)
from heterosim.model import (
    DockConnection,
    ModuleKind,
    Posture,
    World,
    passive_spec,
    spec_for,
)
from heterosim.scenario import SensorMemory

G = 9.81
PITCH = 0.105


def lifter_with_chain(lifter_kind, chain_masses):
    """A lifter docked to a straight chain of passive blocks of given masses."""
    world = World()
    world.add_module("lift", lifter_kind, pos=(0.0, 0.0))
    previous = "lift"
    prev_port = 0
    for i, mass in enumerate(chain_masses):
        mid = f"c{i}"
        world.add_module(mid, ModuleKind.PASSIVE, pos=(PITCH * (i + 1), 0.0),
                         spec=passive_spec(num_ports=2, mass_kg=mass))
        world.add_connection(DockConnection(previous, prev_port, mid, 0, 0))
        previous, prev_port = mid, 1
    return world, tuple(f"c{i}" for i in range(len(chain_masses)))


def moment_sum_oracle(masses, pitch=PITCH):
    """Independent per-module moment enumeration."""
    total = 0.0
    arm = 0.0
    for mass in masses:
        arm += pitch
        total += mass * G * arm
    return total


class TestLiftFeasible:
    def test_scout_lifts_two_modules(self):
        world, chain = lifter_with_chain(ModuleKind.SCOUT, [1.0, 1.0])
        result = lift_feasible(world, "lift", chain)
        assert result.required_torque_nm == pytest.approx(3.09015, abs=1e-9)
        assert result.feasible

    def test_scout_cannot_lift_three(self):
        world, chain = lifter_with_chain(ModuleKind.SCOUT, [1.0, 1.0, 1.0])
        result = lift_feasible(world, "lift", chain)
        assert result.required_torque_nm == pytest.approx(6.1803, abs=1e-9)
        assert not result.feasible

    def test_backbone_lifts_three(self):
        world, chain = lifter_with_chain(ModuleKind.BACKBONE, [1.0, 1.0, 1.0])
        result = lift_feasible(world, "lift", chain)
        assert result.feasible

    def test_wheel_lifts_one_backbone(self):
        world = World()
        world.add_module("aw", ModuleKind.ACTIVE_WHEEL, pos=(0.0, 0.0))
        world.add_module("bb", ModuleKind.BACKBONE, pos=(PITCH, 0.0))
        world.add_connection(DockConnection("aw", 0, "bb", 0, 0))
        result = lift_feasible(world, "aw", ("bb",))
        assert result.required_torque_nm == pytest.approx(1.03005, abs=1e-9)
        assert result.feasible

    def test_chain_must_be_a_docked_path(self):
        world, chain = lifter_with_chain(ModuleKind.SCOUT, [1.0, 1.0])
        with pytest.raises(ValueError):
            lift_feasible(world, "lift", (chain[1], chain[0]))

    def test_lifter_needs_a_bend_joint(self):
        world = World()
        world.add_module("p", ModuleKind.PASSIVE, pos=(0.0, 0.0))
        world.add_module("c", ModuleKind.PASSIVE, pos=(PITCH, 0.0))
        world.add_connection(DockConnection("p", 0, "c", 0, 0))
        with pytest.raises(ValueError, match="p has no bend joint"):
            lift_feasible(world, "p", ("c",))

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=6))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_moment_oracle(self, masses):
        world, chain = lifter_with_chain(ModuleKind.BACKBONE, masses)
        result = lift_feasible(world, "lift", chain)
        oracle = moment_sum_oracle(masses)
        assert result.required_torque_nm == pytest.approx(oracle, rel=1e-12)
        assert result.feasible == (oracle <= 7.0)

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=5),
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_longer_chain_never_becomes_feasible(self, masses, extra):
        world, chain = lifter_with_chain(ModuleKind.SCOUT, masses)
        shorter = lift_feasible(world, "lift", chain)
        world2, chain2 = lifter_with_chain(ModuleKind.SCOUT, masses + [extra])
        longer = lift_feasible(world2, "lift", chain2)
        if not shorter.feasible:
            assert not longer.feasible


class TestActuationDuration:
    @pytest.fixture
    def world(self):
        world = World()
        world.add_module("bb", ModuleKind.BACKBONE)
        world.add_module("aw", ModuleKind.ACTIVE_WHEEL, pos=(1.0, 0.0))
        world.add_module("p", ModuleKind.PASSIVE, pos=(2.0, 0.0))
        return world

    def test_backbone_quarter_bend_takes_one_second(self, world):
        assert actuation_duration(world, "bb", Joint.BEND, 90.0) == pytest.approx(1.0)

    def test_wheel_half_turn(self, world):
        assert actuation_duration(world, "aw", Joint.ROTATION, 180.0) == pytest.approx(3.6)

    def test_from_the_current_angle(self, world):
        world.modules["bb"].joint_bend_deg = 45.0
        assert actuation_duration(world, "bb", Joint.BEND, 90.0) == pytest.approx(0.5)

    def test_already_at_target(self, world):
        assert actuation_duration(world, "bb", Joint.BEND, 0.0) == 0.0

    def test_limit_enforced(self, world):
        with pytest.raises(JointLimitExceeded):
            actuation_duration(world, "bb", Joint.BEND, 135.0)

    def test_passive_has_no_joints(self, world):
        with pytest.raises(JointLimitExceeded):
            actuation_duration(world, "p", Joint.BEND, 10.0)

    def test_joint_without_a_rate_cannot_actuate(self, world):
        # Reaches actuation_duration's check of the actuation rate.
        spec = replace(spec_for(ModuleKind.BACKBONE), actuation_speed_deg_s=0.0)
        world.add_module("stiff", ModuleKind.BACKBONE, pos=(3.0, 0.0), spec=spec)
        with pytest.raises(JointLimitExceeded, match="stiff cannot actuate"):
            actuation_duration(world, "stiff", Joint.BEND, 10.0)


def carrying_world():
    world = World()
    world.add_module("aw1", ModuleKind.ACTIVE_WHEEL, pos=(0.0, 0.0))
    world.add_module("bb1", ModuleKind.BACKBONE, pos=(PITCH, 0.0))
    world.add_module("bb2", ModuleKind.BACKBONE, pos=(2 * PITCH, 0.0))
    world.add_module("aw2", ModuleKind.ACTIVE_WHEEL, pos=(3 * PITCH, 0.0))
    world.add_connection(DockConnection("aw1", 0, "bb1", 3, 0))
    world.add_connection(DockConnection("bb1", 1, "bb2", 3, 0))
    world.add_connection(DockConnection("bb2", 1, "aw2", 0, 0))
    return world


class TestOrganismSpeed:
    def test_carrying_configuration_runs_at_31(self):
        world = carrying_world()
        world.lifted.update(bb1="aw1", bb2="aw2")
        assert organism_speed(world, world.modules) == 31.0

    def test_carrying_configuration_runs_at_wheel_spec_speed(self):
        world = carrying_world()
        slow_wheel = replace(spec_for(ModuleKind.ACTIVE_WHEEL), locomotion_speed_cm_s=20.0)
        for mid in ("aw1", "aw2"):
            world.modules[mid].spec = slow_wheel
        world.lifted.update(bb1="aw1", bb2="aw2")
        assert organism_speed(world, world.modules) == 20.0

    def test_ground_mix_runs_at_slowest(self):
        world = carrying_world()
        assert organism_speed(world, world.modules) == 6.0

    def test_scout_backbone_mix(self):
        world = World()
        world.add_module("s", ModuleKind.SCOUT, pos=(0.0, 0.0))
        world.add_module("b", ModuleKind.BACKBONE, pos=(PITCH, 0.0))
        world.add_connection(DockConnection("s", 0, "b", 0, 0))
        assert organism_speed(world, ("s", "b")) == 6.0

    def test_passives_cannot_move(self):
        world = World()
        world.add_module("p1", ModuleKind.PASSIVE, spec=passive_spec(num_ports=2))
        world.add_module("p2", ModuleKind.PASSIVE, pos=(PITCH, 0.0),
                         spec=passive_spec(num_ports=2))
        world.add_connection(DockConnection("p1", 0, "p2", 0, 0))
        assert organism_speed(world, ("p1", "p2")) == 0.0

    def test_never_exceeds_fastest_member(self):
        rng = random.Random(3)
        kinds = [ModuleKind.SCOUT, ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL]
        for _ in range(50):
            world = World()
            n = rng.randint(1, 5)
            for i in range(n):
                world.add_module(f"m{i}", rng.choice(kinds), pos=(PITCH * i, 0.0))
                if i:
                    world.add_connection(DockConnection(f"m{i-1}", 1, f"m{i}", 0, 0))
                if rng.random() < 0.3:
                    world.lifted[f"m{i}"] = "lifter"
            speed = organism_speed(world, world.modules)
            top = max(world.modules[m].spec.locomotion_speed_cm_s for m in world.modules)
            assert 0.0 <= speed <= top

    def test_fallen_module_does_not_drive(self):
        world = World()
        world.add_module("bb", ModuleKind.BACKBONE, posture=Posture(fallen_port=3))
        assert organism_speed(world, ("bb",)) == 0.0

    def test_rejects_empty_organism(self):
        # Reaches organism_speed's check for an empty organism.
        with pytest.raises(ValueError, match="nonempty"):
            organism_speed(World(), ())


class TestSetPosture:
    def test_fall_disables_port_and_drive(self):
        world = World()
        world.add_module("bb", ModuleKind.BACKBONE)
        set_posture(world, "bb", Posture(fallen_port=3))
        memory = SensorMemory()
        memory.refresh(world, set(), {})
        assert memory.get("bb").ports[3].state == "disabled"
        assert organism_speed(world, ("bb",)) == 0.0

    def test_upright_restores(self):
        world = World()
        world.add_module("bb", ModuleKind.BACKBONE)
        set_posture(world, "bb", Posture(fallen_port=3))
        set_posture(world, "bb", Posture())
        memory = SensorMemory()
        memory.refresh(world, set(), {})
        assert memory.get("bb").ports[3].state == "free"
        assert organism_speed(world, ("bb",)) == 6.0

    def test_fallen_wheel_is_also_immobile(self):
        world = World()
        world.add_module("aw", ModuleKind.ACTIVE_WHEEL, posture=Posture(fallen_port=1))
        assert organism_speed(world, ("aw",)) == 0.0

    def test_cannot_fall_onto_docked_port(self):
        world = World()
        world.add_module("a", ModuleKind.BACKBONE)
        world.add_module("b", ModuleKind.BACKBONE, pos=(PITCH, 0.0))
        world.add_connection(DockConnection("a", 1, "b", 3, 0))
        with pytest.raises(ValueError):
            set_posture(world, "a", Posture(fallen_port=1))

    def test_cannot_fall_onto_a_port_it_lacks(self):
        # Reaches set_posture's port range check.
        world = World()
        world.add_module("aw", ModuleKind.ACTIVE_WHEEL)
        with pytest.raises(ValueError, match="port 2 invalid for aw"):
            set_posture(world, "aw", Posture(fallen_port=2))


class TestRequiredTorqueHelper:
    def test_arm_progression(self):
        assert required_lift_torque([1.0], 0.105) == pytest.approx(G * 0.105)
        assert required_lift_torque([1.0, 1.0], 0.105) == pytest.approx(G * 0.315)
