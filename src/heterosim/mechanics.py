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
from typing import Iterable, Optional, Sequence

from .model import PortState, Posture, UPRIGHT, World


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


def required_lift_torque(
    masses_kg: Sequence[float], pitch_m: float, gravity: float = 9.81,
    arms_m: Optional[Sequence[float]] = None,
) -> float:
    """Moment at the joint for a cantilevered chain; position i hangs at
    (i+1) pitches unless explicit arms are given."""
    if arms_m is not None:
        if len(arms_m) != len(masses_kg):
            raise ValueError("arms and masses must have equal length")
        return sum(m * gravity * arm for m, arm in zip(masses_kg, arms_m))
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


def lift_feasible(
    world: World, query: LiftQuery, arms_m: Optional[Sequence[float]] = None,
) -> LiftAssessment:
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
    required = required_lift_torque(
        masses, world.config.module_pitch, world.config.gravity, arms_m)
    available = lifter.spec.max_torque_nm
    return LiftAssessment(required <= available, required, available)


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
    return abs(target_deg - current) / spec.actuation_speed_deg_s


def can_drive(state) -> bool:
    """Whether a single module may drive its own locomotion right now."""
    return (
        state.posture.upright
        and not state.off_ground
        and state.spec.locomotion_speed_cm_s > 0
        and state.alive
    )


def organism_speed(world: World, organism: Iterable[str]) -> float:
    """Ground speed of an organism in cm/s.

    The slowest ground-contact driver sets the pace; lifted members do not
    count, so in the carrying configuration the wheels run at their own
    speed. An organism with no driver does not move.
    """
    states = [world.modules[mid] for mid in organism]
    if not states:
        raise ValueError("organism must be nonempty")
    return min((st.spec.locomotion_speed_cm_s for st in states if can_drive(st)),
               default=0.0)


def set_posture(world: World, module_id: str, posture: Posture) -> World:
    """Stand a module up or lay it onto one of its faces.

    Falling disables self-locomotion and the ground-facing port (a peer may
    still dock to it); standing up restores both.
    """
    state = world.modules[module_id]
    if posture.upright:
        if not state.posture.upright:
            port = state.ports[state.posture.fallen_port]
            if port.state is PortState.DISABLED:
                port.state = PortState.FREE
        state.posture = UPRIGHT
        return world
    face = posture.fallen_port
    if not 0 <= face < state.spec.num_ports:
        raise ValueError(f"port {face} invalid for {module_id}")
    port = state.ports[face]
    if port.state is PortState.LOCKED:
        raise ValueError(f"{module_id} cannot fall onto docked port {face}")
    if not state.posture.upright and state.posture.fallen_port != face:
        old = state.ports[state.posture.fallen_port]
        if old.state is PortState.DISABLED:
            old.state = PortState.FREE
    port.state = PortState.DISABLED
    port.peer = None
    port.connection = None
    state.posture = posture
    return world
