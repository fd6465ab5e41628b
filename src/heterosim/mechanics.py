"""Statics and locomotion arithmetic.

Lift feasibility is quasi-static: a cantilevered chain of docked modules
loads the lifting joint with the sum of per-module gravity moments, one
pitch of lever arm per chain position. That moment does not depend on
the joint angle, so torque is checked once, when a ``LiftChain`` starts;
a lifter's joint moves while it holds its chain are not checked again.
Joint actuation is constant-rate.
Organism speed follows the slowest ground-contact driver; in the carrying
configuration the wheels are the only drivers, so they set the pace.
"""
from __future__ import annotations

from enum import Enum
from typing import Collection, Iterable, NamedTuple, Sequence

from .model import ModuleSpec, Posture, World


class Joint(Enum):
    BEND = "bend"
    ROTATION = "rotation"


class JointLimitExceeded(Exception):
    pass


class LiftAssessment(NamedTuple):
    feasible: bool
    required_torque_nm: float


def required_lift_torque(masses_kg: Sequence[float], pitch_m: float,
                         gravity: float = 9.81) -> float:
    """Moment at the joint for a cantilevered chain; position i hangs at (i+1) pitches."""
    return sum(m * gravity * (i + 1) * pitch_m for i, m in enumerate(masses_kg))


def lift_feasible(world: World, lifter: str, chain: Sequence[str]) -> LiftAssessment:
    """Whether the lifter's bend-joint torque covers the gravity moment of
    ``chain``, the ordered modules hanging past its joint.

    Infeasibility is a value, not an error; a chain that is not a docked
    path from the lifter, or a lifter with no bend joint, raises.
    """
    if not chain:
        raise ValueError("chain must be nonempty")
    if lifter in chain:
        raise ValueError("lifter cannot be part of its own chain")
    if len(set(chain)) != len(chain):
        raise ValueError("chain repeats a module")
    adj = world.adjacency()
    previous = lifter
    for mid in chain:
        if mid not in world.modules:
            raise KeyError(mid)
        if mid not in adj[previous]:
            raise ValueError(f"{mid} is not docked to {previous}; chain is not a path")
        previous = mid
    spec = world.modules[lifter].spec
    if spec.bend_limit_deg <= 0:
        raise ValueError(f"{lifter} has no bend joint")
    masses = [world.modules[mid].spec.mass_kg for mid in chain]
    required = required_lift_torque(masses, world.config.module_pitch, world.config.gravity)
    return LiftAssessment(required <= spec.max_torque_nm, required)


def joint_travel_s(spec: ModuleSpec, from_deg: float, to_deg: float) -> float:
    """Seconds a joint takes from ``from_deg`` to ``to_deg`` at the platform's rate."""
    return abs(to_deg - from_deg) / spec.actuation_speed_deg_s


def actuation_duration(
    world: World,
    module_id: str,
    joint: Joint,
    target_deg: float,
) -> float:
    """Seconds to move a joint to ``target_deg`` at the platform's rate.

    Raises :class:`JointLimitExceeded` outside the spec's range. The engine
    applies the new angle at the completion tick; there is no overshoot
    model.
    """
    state = world.modules[module_id]
    spec = state.spec
    limit = spec.bend_limit_deg if joint is Joint.BEND else spec.rotation_limit_deg
    if limit <= 0:
        raise JointLimitExceeded(f"{module_id} has no {joint.value} joint")
    if abs(target_deg) > limit:
        raise JointLimitExceeded(
            f"target {target_deg} outside +/-{limit} deg for {module_id}")
    current = state.joint_bend_deg if joint is Joint.BEND else state.joint_rotation_deg
    if spec.actuation_speed_deg_s <= 0:
        raise JointLimitExceeded(f"{module_id} cannot actuate")
    return joint_travel_s(spec, current, target_deg)


def ground_drive(world: World, organism: Iterable[str]) -> tuple[float, list[str]]:
    """An organism's ground speed in cm/s and the members that drive it.

    A driver is a member that may drive its own locomotion right now:
    upright, not lifted, alive and fitted with a drive. The slowest driver
    sets the pace, so in the carrying configuration the wheels run at their
    own speed. An organism with no driver does not move.
    """
    modules, lifted = world.modules, world.lifted
    drivers, pace = [], 0.0
    for mid in organism:
        st = modules[mid]
        speed = st.spec.locomotion_speed_cm_s
        # Posture.upright and ModuleState.alive, written inline.
        if speed > 0.0 and st.posture.fallen_port is None and mid not in lifted \
                and (st.soc > 0.0 or st.spec.battery.energy_full_wh <= 0.0):
            if not drivers or speed < pace:
                pace = speed
            drivers.append(mid)
    return pace, drivers


def organism_speed(world: World, organism: Collection[str]) -> float:
    """Ground speed of an organism in cm/s; see :func:`ground_drive`."""
    if not organism:
        raise ValueError("organism must be nonempty")
    return ground_drive(world, organism)[0]


def set_posture(world: World, module_id: str, posture: Posture) -> World:
    """Stand a module up or lay it onto one of its faces.

    Falling disables self-locomotion and the ground-facing port (a peer may
    still dock to it); standing up restores both. The posture alone records
    which port faces the ground.
    """
    state = world.modules[module_id]
    face = posture.fallen_port
    if face is not None:
        if not 0 <= face < state.spec.num_ports:
            raise ValueError(f"port {face} invalid for {module_id}")
        if state.ports[face] is not None:
            raise ValueError(f"{module_id} cannot fall onto docked port {face}")
    state.posture = posture
    return world
