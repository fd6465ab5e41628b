"""Statics and locomotion arithmetic.

Lift feasibility is quasi-static: a cantilevered chain of docked modules
loads the lifting joint with the sum of per-module gravity moments, one
pitch of lever arm per chain position. Joint actuation is constant-rate.
Organism speed follows the slowest ground-contact driver; in the carrying
configuration the wheels are the only drivers, so they set the pace.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Sequence

from .model import ModuleSpec, Posture, World


class Joint(Enum):
    BEND = "bend"
    ROTATION = "rotation"


class JointLimitExceeded(Exception):
    pass


class TorqueExceeded(Exception):
    def __init__(self, required_nm: float, available_nm: float):
        super().__init__(
            f"required torque {required_nm:.3f} N*m exceeds {available_nm:.3f} N*m")
        self.required_nm = required_nm
        self.available_nm = available_nm


@dataclass(frozen=True)
class LiftQuery:
    """A lifter plus the ordered chain of modules hanging past its joint."""

    lifter: str
    joint: Joint
    chain: tuple[str, ...]


@dataclass(frozen=True)
class LiftAssessment:
    feasible: bool
    required_torque_nm: float
    available_torque_nm: float


def required_lift_torque(masses_kg: Sequence[float], pitch_m: float,
                         gravity: float = 9.81) -> float:
    """Moment at the joint for a cantilevered chain; position i hangs at (i+1) pitches."""
    return sum(m * gravity * (i + 1) * pitch_m for i, m in enumerate(masses_kg))


def _validate_chain(world: World, query: LiftQuery) -> None:
    if not query.chain:
        raise ValueError("chain must be nonempty")
    if query.lifter in query.chain:
        raise ValueError("lifter cannot be part of its own chain")
    if len(set(query.chain)) != len(query.chain):
        raise ValueError("chain repeats a module")
    adj = world.adjacency()
    previous = query.lifter
    for mid in query.chain:
        if mid not in world.modules:
            raise KeyError(mid)
        if mid not in adj[previous]:
            raise ValueError(f"{mid} is not docked to {previous}; chain is not a path")
        previous = mid


def lift_feasible(world: World, query: LiftQuery) -> LiftAssessment:
    """Whether the lifter's joint torque covers the chain's gravity moment.

    Infeasibility is a value, not an error.
    """
    _validate_chain(world, query)
    lifter = world.modules[query.lifter]
    if query.joint is Joint.BEND and lifter.spec.bend_limit_deg <= 0:
        raise ValueError(f"{query.lifter} has no bend joint")
    if query.joint is Joint.ROTATION and lifter.spec.rotation_limit_deg <= 0:
        raise ValueError(f"{query.lifter} has no rotation joint")
    masses = [world.modules[mid].spec.mass_kg for mid in query.chain]
    required = required_lift_torque(masses, world.config.module_pitch, world.config.gravity)
    available = lifter.spec.max_torque_nm
    return LiftAssessment(required <= available, required, available)


def joint_travel_s(spec: ModuleSpec, from_deg: float, to_deg: float) -> float:
    """Seconds a joint takes from ``from_deg`` to ``to_deg`` at the platform's rate."""
    return abs(to_deg - from_deg) / spec.actuation_speed_deg_s


def actuation_duration(
    world: World,
    module_id: str,
    joint: Joint,
    target_deg: float,
    chain: tuple[str, ...] = (),
) -> float:
    """Seconds to move a joint to ``target_deg`` at the platform's rate.

    Raises :class:`JointLimitExceeded` outside the spec's range and
    :class:`TorqueExceeded` when a currently attached chain is too heavy.
    The engine applies the new angle at the completion tick; there is no
    overshoot model.
    """
    state = world.modules[module_id]
    spec = state.spec
    limit = spec.bend_limit_deg if joint is Joint.BEND else spec.rotation_limit_deg
    if limit <= 0:
        raise JointLimitExceeded(f"{module_id} has no {joint.value} joint")
    if abs(target_deg) > limit:
        raise JointLimitExceeded(
            f"target {target_deg} outside +/-{limit} deg for {module_id}")
    if chain:
        assessment = lift_feasible(world, LiftQuery(module_id, joint, tuple(chain)))
        if not assessment.feasible:
            raise TorqueExceeded(
                assessment.required_torque_nm, assessment.available_torque_nm)
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
        if speed > 0 and st.posture.fallen_port is None and mid not in lifted \
                and (st.soc > 0.0 or st.spec.battery.energy_full_wh <= 0):
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
