"""Deterministic discrete-time engine.

Every tick runs the same fixed phase order: controller reads, directive
dispatch, motion integration, docking transitions, the energy step, message
delivery, sensor refresh, event emission. All contention is broken by
ascending module id, so identical inputs always produce identical logs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

from . import commnet, docking, mechanics, powerbus
from .mechanics import Joint
from .model import PortState, UPRIGHT, World
from .scenario import (
    ActuateJoint,
    Broadcast,
    Directive,
    DockWith,
    Event,
    EventLog,
    LiftChain,
    LowerChain,
    Move,
    ReceivedMessage,
    SensorMemory,
    SetSharing,
    TimelineEntry,
    Turn,
    Undock,
    UnsupportedDirective,
    Wait,
    dispatch,
)

_EPS = 1e-9


class Controller(Protocol):
    """A scenario behavior. Reads only sensor memory; issues directives and
    scenario-level events through the callbacks it is handed."""

    done: bool

    def on_tick(self, tick: int, memory: SensorMemory,
                issue, emit) -> None: ...


@dataclass
class _Activity:
    kind: str
    remaining_s: float = 0.0
    remaining_m: float = 0.0
    data: dict = field(default_factory=dict)


class Engine:
    """Owns one world and advances it tick by tick."""

    def __init__(
        self,
        world: World,
        *,
        controllers: Optional[list[Controller]] = None,
        timeline: Optional[list[TimelineEntry]] = None,
        max_ticks: int = 10_000,
        shed_policy: str = "halt",
    ):
        self.world = world
        self.config = world.config
        self.controllers = controllers or []
        self.timeline = sorted(timeline or [], key=lambda e: (e.tick, e.module_id))
        self.max_ticks = max_ticks
        self.shed_policy = shed_policy
        self.log = EventLog()
        self.memory = SensorMemory()
        self.activities: dict[str, _Activity] = {}
        self.halted = False
        self._timeline_pos = 0
        self._tick_events: list[Event] = []
        self._pending_broadcasts: list[tuple[str, int, str]] = []  # (src, enqueue seq, payload)
        self._broadcast_seq = 0
        self._inboxes: dict[str, list[ReceivedMessage]] = {}
        self._driving: set[str] = set()
        self.memory.refresh(world, set(), {})

    # -- event helpers -------------------------------------------------------

    def emit(self, name: str, subjects: tuple[str, ...] | list[str], data: dict | None = None) -> None:
        self._tick_events.append(Event(
            tick=self.world.tick,
            t=self.world.tick * self.config.dt,
            event=name,
            subjects=tuple(subjects),
            data=data or {},
        ))

    def _reject(self, module_id: str, directive: Directive, reason: str) -> None:
        self.emit("DirectiveRejected", (module_id,), {
            "directive": type(directive).__name__, "reason": reason})

    # -- main loop -------------------------------------------------------------

    def run(self) -> EventLog:
        while not self.halted and self.world.tick < self.max_ticks and self._work_pending():
            self.step()
        return self.log

    def _work_pending(self) -> bool:
        if self.activities or self._pending_broadcasts:
            return True
        if self._timeline_pos < len(self.timeline):
            return True
        return any(not c.done for c in self.controllers)

    def step(self, extra_directives: Optional[list[tuple[str, Directive]]] = None) -> list[Event]:
        """Advance one tick; returns the events of this tick."""
        world = self.world
        self._tick_events = []
        self._driving = set()
        pending: list[tuple[str, Directive]] = []

        # Phase 1: controllers read last tick's sensor snapshot.
        def issue(module_id: str, directive: Directive) -> None:
            pending.append((module_id, directive))

        def emit(name: str, subjects, data: dict | None = None) -> None:
            self.emit(name, subjects, data)

        for controller in self.controllers:
            if not controller.done:
                controller.on_tick(world.tick, self.memory, issue, emit)

        # Phase 2: dispatch this tick's directives in module id order.
        while (self._timeline_pos < len(self.timeline)
               and self.timeline[self._timeline_pos].tick <= world.tick):
            entry = self.timeline[self._timeline_pos]
            pending.append((entry.module_id, entry.directive))
            self._timeline_pos += 1
        if extra_directives:
            pending.extend(extra_directives)
        pending.sort(key=lambda item: item[0])
        claimed_ports: set[tuple[str, int]] = set()
        for module_id, directive in pending:
            self._dispatch_one(module_id, directive, claimed_ports)

        # Phase 3: motion and actuation integration.
        for module_id in sorted(self.activities):
            self._integrate(module_id)

        # Phase 4: docking transitions.
        for module_id in sorted(self.activities):
            self._dock_transition(module_id)

        # Phase 5: energy step.
        self._energy_phase()

        # Phase 6: message delivery.
        self._inboxes = {}
        self._deliver_messages()

        # Phase 7: sensor memory refresh.
        self.memory.refresh(world, set(self.activities), self._inboxes)

        # Phase 8: event emission.
        for event in self._tick_events:
            self.log.append(event)
        emitted = self._tick_events
        self._tick_events = []
        world.tick += 1
        return emitted

    # -- phase 2 ----------------------------------------------------------------

    def _dispatch_one(self, module_id: str, directive: Directive,
                      claimed_ports: set[tuple[str, int]]) -> None:
        world = self.world
        if module_id not in world.modules:
            self._reject(module_id, directive, "NoSuchModule")
            return
        state = world.modules[module_id]
        if module_id in self.activities:
            self._reject(module_id, directive, "Busy")
            return
        if not state.alive:
            self._reject(module_id, directive, "DeadBattery")
            return
        try:
            action = dispatch(state.spec, directive, self.config,
                              current_angle_deg=self._joint_angle(state, directive))
        except UnsupportedDirective:
            self._reject(module_id, directive, "Unsupported")
            return

        if isinstance(directive, Move):
            if not state.posture.upright or state.off_ground:
                self._reject(module_id, directive, "CannotMove")
                return
            members = world.organism_of(module_id)
            speed_cm = mechanics.organism_speed(world, members)
            if speed_cm <= 0:
                self._reject(module_id, directive, "CannotMove")
                return
            self.activities[module_id] = _Activity(
                "move", remaining_m=directive.distance_m)
            self.emit("MoveStart", (module_id,), {
                "distance_m": directive.distance_m, "speed_cm_s": speed_cm,
                "implementation": action.implementation})
        elif isinstance(directive, Turn):
            if not state.posture.upright or state.off_ground:
                self._reject(module_id, directive, "CannotMove")
                return
            if any(p.state is PortState.LOCKED for p in state.ports):
                self._reject(module_id, directive, "CannotMove")
                return
            self.activities[module_id] = _Activity(
                "turn", remaining_s=action.duration_s,
                data={"target": (state.pose.heading_deg + directive.angle_deg) % 360})
            self.emit("TurnStart", (module_id,), {
                "angle_deg": directive.angle_deg,
                "implementation": action.implementation})
        elif isinstance(directive, DockWith):
            self._dispatch_dock(module_id, directive, claimed_ports)
        elif isinstance(directive, Undock):
            if not 0 <= directive.port < state.spec.num_ports:
                self._reject(module_id, directive, "BadTarget")
                return
            if state.ports[directive.port].state is not PortState.LOCKED:
                self._reject(module_id, directive, "BadTarget")
                return
            self.activities[module_id] = _Activity(
                "unlock", data={"port": directive.port})
        elif isinstance(directive, ActuateJoint):
            self._dispatch_actuation(module_id, directive)
        elif isinstance(directive, SetSharing):
            state.sharing_on = directive.on
            self.emit("SharingSet", (module_id,), {"on": directive.on})
        elif isinstance(directive, LiftChain):
            self._dispatch_lift(module_id, directive)
        elif isinstance(directive, LowerChain):
            if not state.lifted_chain:
                self._reject(module_id, directive, "BadTarget")
                return
            duration = abs(state.joint_bend_deg) / state.spec.actuation_speed_deg_s
            self.activities[module_id] = _Activity("lower", remaining_s=duration)
            self.emit("LowerStart", (module_id,), {"chain": list(state.lifted_chain)})
        elif isinstance(directive, Broadcast):
            self._pending_broadcasts.append(
                (module_id, self._broadcast_seq, directive.payload))
            self._broadcast_seq += 1
        elif isinstance(directive, Wait):
            self.activities[module_id] = _Activity(
                "wait", remaining_s=directive.ticks * self.config.dt)
        else:
            self._reject(module_id, directive, "Unsupported")

    @staticmethod
    def _joint_angle(state, directive: Directive) -> float:
        if isinstance(directive, ActuateJoint):
            return (state.joint_bend_deg if directive.joint is Joint.BEND
                    else state.joint_rotation_deg)
        return 0.0

    def _dispatch_dock(self, module_id: str, directive: DockWith,
                       claimed_ports: set[tuple[str, int]]) -> None:
        world = self.world
        state = world.modules[module_id]
        if not state.posture.upright or state.off_ground:
            self._reject(module_id, directive, "CannotMove")
            return
        if directive.peer not in world.modules:
            self._reject(module_id, directive, "BadTarget")
            return
        try:
            reason = docking.can_dock(
                world, module_id, directive.own_port,
                directive.peer, directive.peer_port, directive.orientation_deg)
        except IndexError:
            self._reject(module_id, directive, "BadTarget")
            return
        if reason is not None:
            self._reject(module_id, directive, reason.value)
            return
        own_key = (module_id, directive.own_port)
        peer_key = (directive.peer, directive.peer_port)
        if own_key in claimed_ports or peer_key in claimed_ports:
            self._reject(module_id, directive, docking.DockRejection.PORT_BUSY.value)
            return
        distance = world.distance(module_id, directive.peer)
        if distance > self.config.module_pitch + _EPS \
                and state.spec.locomotion_speed_cm_s <= 0:
            self._reject(module_id, directive, "CannotMove")
            return
        claimed_ports.add(own_key)
        claimed_ports.add(peer_key)
        port = state.ports[directive.own_port]
        port.state = PortState.APPROACHING
        port.peer = directive.peer
        self.activities[module_id] = _Activity("approach", data={
            "peer": directive.peer,
            "own_port": directive.own_port,
            "peer_port": directive.peer_port,
            "orientation": directive.orientation_deg,
            "aligned": False,
            "handshake_left": None,
        })
        self.emit("ApproachStart", (module_id, directive.peer), {
            "own_port": directive.own_port, "peer_port": directive.peer_port,
            "distance_m": distance})

    def _dispatch_actuation(self, module_id: str, directive: ActuateJoint) -> None:
        world = self.world
        state = world.modules[module_id]
        try:
            duration = mechanics.actuation_duration(
                world, module_id, directive.joint, directive.target_deg,
                chain=state.lifted_chain)
        except mechanics.TorqueExceeded:
            self._reject(module_id, directive, "TorqueExceeded")
            return
        except mechanics.JointLimitExceeded:
            self._reject(module_id, directive, "JointLimit")
            return
        start = self._joint_angle(state, directive)
        self.activities[module_id] = _Activity(
            "actuate", remaining_s=duration,
            data={"joint": directive.joint, "target": directive.target_deg,
                  "start": start})
        name = "RotateStart" if directive.joint is Joint.ROTATION else "BendStart"
        self.emit(name, (module_id,), {
            "from_deg": start, "to_deg": directive.target_deg,
            "duration_s": duration})

    def _dispatch_lift(self, module_id: str, directive: LiftChain) -> None:
        world = self.world
        state = world.modules[module_id]
        if state.lifted_chain:
            self._reject(module_id, directive, "Busy")
            return
        if not state.posture.upright:
            self._reject(module_id, directive, "CannotMove")
            return
        query = mechanics.LiftQuery(module_id, Joint.BEND, tuple(directive.chain))
        try:
            assessment = mechanics.lift_feasible(world, query)
        except (ValueError, KeyError):
            self._reject(module_id, directive, "BadTarget")
            return
        if not assessment.feasible:
            self._reject(module_id, directive, "TorqueExceeded")
            return
        if any(world.modules[mid].off_ground for mid in directive.chain):
            self._reject(module_id, directive, "BadTarget")
            return
        lift_angle = min(90.0, state.spec.bend_limit_deg)
        duration = abs(lift_angle - state.joint_bend_deg) / state.spec.actuation_speed_deg_s
        self.activities[module_id] = _Activity(
            "lift", remaining_s=duration,
            data={"chain": tuple(directive.chain), "angle": lift_angle})
        self.emit("LiftStart", (module_id,), {
            "chain": list(directive.chain),
            "required_torque_nm": assessment.required_torque_nm})

    # -- phase 3 ------------------------------------------------------------------

    def _integrate(self, module_id: str) -> None:
        activity = self.activities.get(module_id)
        if activity is None:
            return
        world = self.world
        state = world.modules[module_id]
        dt = self.config.dt
        if activity.kind == "move":
            members = world.organism_of(module_id)
            speed_cm = mechanics.organism_speed(world, members)
            if speed_cm <= 0:
                del self.activities[module_id]
                self.emit("MoveAborted", (module_id,), {"reason": "CannotMove"})
                return
            step = min(speed_cm / 100.0 * dt, activity.remaining_m)
            heading = math.radians(state.pose.heading_deg)
            dx, dy = step * math.cos(heading), step * math.sin(heading)
            for mid in members:
                other = world.modules[mid]
                other.pose.x += dx
                other.pose.y += dy
                if mechanics.can_drive(other):
                    self._driving.add(mid)
            activity.remaining_m -= step
            if activity.remaining_m <= _EPS:
                del self.activities[module_id]
                self.emit("MoveComplete", (module_id,), {})
        elif activity.kind == "turn":
            self._driving.add(module_id)
            activity.remaining_s -= dt
            if activity.remaining_s <= _EPS:
                state.pose.heading_deg = activity.data["target"]
                del self.activities[module_id]
                self.emit("TurnComplete", (module_id,), {
                    "heading_deg": state.pose.heading_deg})
        elif activity.kind == "approach":
            peer = activity.data["peer"]
            if peer not in world.modules:
                self._abort_approach(module_id, activity, "BadTarget")
                return
            distance = world.distance(module_id, peer)
            to_travel = distance - self.config.module_pitch
            if to_travel > _EPS and not activity.data["aligned"]:
                speed_m = state.spec.locomotion_speed_cm_s / 100.0
                step = min(speed_m * dt, to_travel)
                peer_pose = world.modules[peer].pose
                norm = max(distance, 1e-12)
                ux = (peer_pose.x - state.pose.x) / norm
                uy = (peer_pose.y - state.pose.y) / norm
                for mid in world.organism_of(module_id):
                    other = world.modules[mid]
                    other.pose.x += ux * step
                    other.pose.y += uy * step
                    if mechanics.can_drive(other):
                        self._driving.add(mid)
        elif activity.kind == "actuate":
            self._driving.add(module_id)
            activity.remaining_s -= dt
            if activity.remaining_s <= _EPS:
                joint = activity.data["joint"]
                target = activity.data["target"]
                if joint is Joint.BEND:
                    state.joint_bend_deg = target
                else:
                    delta = target - activity.data["start"]
                    state.joint_rotation_deg = target
                    for mid in state.lifted_chain:
                        world.modules[mid].rotation_while_lifted_deg += delta
                del self.activities[module_id]
                name = "RotateComplete" if joint is Joint.ROTATION else "BendComplete"
                self.emit(name, (module_id,), {"angle_deg": target})
        elif activity.kind == "lift":
            self._driving.add(module_id)
            activity.remaining_s -= dt
            if activity.remaining_s <= _EPS:
                chain = activity.data["chain"]
                state.joint_bend_deg = activity.data["angle"]
                state.lifted_chain = chain
                for mid in chain:
                    world.modules[mid].off_ground = True
                    world.modules[mid].rotation_while_lifted_deg = 0.0
                del self.activities[module_id]
                self.emit("LiftComplete", (module_id,), {"chain": list(chain)})
        elif activity.kind == "lower":
            self._driving.add(module_id)
            activity.remaining_s -= dt
            if activity.remaining_s <= _EPS:
                chain = state.lifted_chain
                state.joint_bend_deg = 0.0
                for mid in chain:
                    member = world.modules[mid]
                    member.off_ground = False
                    rotated = abs(member.rotation_while_lifted_deg) % 360.0
                    if not member.posture.upright and abs(rotated - 180.0) < 1e-6:
                        member.pending_righting = True
                    member.rotation_while_lifted_deg = 0.0
                state.lifted_chain = ()
                del self.activities[module_id]
                self.emit("LowerComplete", (module_id,), {"chain": list(chain)})
        elif activity.kind == "wait":
            activity.remaining_s -= dt
            if activity.remaining_s <= _EPS:
                del self.activities[module_id]

    def _abort_approach(self, module_id: str, activity: _Activity, reason: str) -> None:
        state = self.world.modules[module_id]
        port = state.ports[activity.data["own_port"]]
        if port.state in (PortState.APPROACHING, PortState.ALIGNED):
            port.state = PortState.FREE
            port.peer = None
        peer = activity.data.get("peer")
        if activity.data.get("aligned") and peer in self.world.modules:
            peer_port = self.world.modules[peer].ports[activity.data["peer_port"]]
            if peer_port.state is PortState.ALIGNED:
                peer_port.state = PortState.FREE
                peer_port.peer = None
        del self.activities[module_id]
        self.emit("DockAborted", (module_id,), {"reason": reason})

    # -- phase 4 --------------------------------------------------------------------

    def _dock_transition(self, module_id: str) -> None:
        activity = self.activities.get(module_id)
        if activity is None:
            return
        world = self.world
        if activity.kind == "unlock":
            port_index = activity.data["port"]
            conn = world.connection_at(module_id, port_index)
            del self.activities[module_id]
            if conn is None:
                self._reject(module_id, Undock(port_index), "BadTarget")
                return
            docking.undock(world, conn)
            self.emit("Undocked", (conn.module_a, conn.module_b), {
                "ports": [conn.port_a, conn.port_b]})
            for mid in (conn.module_a, conn.module_b):
                member = world.modules[mid]
                if member.pending_righting and not member.off_ground \
                        and not member.posture.upright:
                    mechanics.set_posture(world, mid, UPRIGHT)
                    member.pending_righting = False
                    self.emit("PostureUpright", (mid,), {})
            return
        if activity.kind != "approach":
            return
        peer = activity.data["peer"]
        if peer not in world.modules:
            self._abort_approach(module_id, activity, "BadTarget")
            return
        distance = world.distance(module_id, peer)
        limit = self.config.module_pitch * (1.0 + self.config.misalignment_tolerance)
        if not activity.data["aligned"]:
            if distance <= limit + _EPS:
                # The initiator's port is reserved by this very approach;
                # lift the reservation for the compatibility re-check.
                own_port = world.modules[module_id].ports[activity.data["own_port"]]
                own_port.state = PortState.FREE
                reason = docking.can_dock(
                    world, module_id, activity.data["own_port"],
                    peer, activity.data["peer_port"], activity.data["orientation"])
                own_port.state = PortState.APPROACHING
                if reason is not None:
                    self._abort_approach(module_id, activity, reason.value)
                    return
                activity.data["aligned"] = True
                activity.data["handshake_left"] = self.config.dock_handshake_s
                own_port = world.modules[module_id].ports[activity.data["own_port"]]
                own_port.state = PortState.ALIGNED
                peer_state = world.modules[peer].ports[activity.data["peer_port"]]
                if peer_state.state is PortState.FREE:
                    peer_state.state = PortState.ALIGNED
                    peer_state.peer = module_id
                self.emit("Aligned", (module_id, peer), {
                    "own_port": activity.data["own_port"],
                    "peer_port": activity.data["peer_port"]})
            return
        activity.data["handshake_left"] -= self.config.dt
        if activity.data["handshake_left"] > _EPS:
            return
        own_port_index = activity.data["own_port"]
        peer_port_index = activity.data["peer_port"]
        own_port = world.modules[module_id].ports[own_port_index]
        peer_port = world.modules[peer].ports[peer_port_index]
        own_port.state = PortState.FREE
        own_port.peer = None
        if peer_port.state is PortState.ALIGNED:
            peer_port.state = PortState.FREE
            peer_port.peer = None
        del self.activities[module_id]
        try:
            docking.dock(world, module_id, own_port_index, peer, peer_port_index,
                         activity.data["orientation"])
        except docking.DockingError as exc:
            self.emit("DockAborted", (module_id,), {"reason": str(exc)})
            return
        self.emit("Docked", (module_id, peer), {
            "own_port": own_port_index, "peer_port": peer_port_index,
            "orientation_deg": activity.data["orientation"]})

    # -- phase 5 ---------------------------------------------------------------------

    def _energy_phase(self) -> None:
        world = self.world
        for mid in sorted(world.modules):
            state = world.modules[mid]
            draw = self.config.idle_draw_w
            if mid in self._driving:
                draw += self.config.drive_draw_w
            state.load_draw_w = draw if state.alive else 0.0
        for attempt in range(3):
            try:
                powerbus.step_energy(world, self.config.dt)
                return
            except powerbus.PowerBusError as exc:
                if self.shed_policy == "shed":
                    self.emit("BrownOut", tuple(exc.organism), {
                        "error": type(exc).__name__})
                    for mid in exc.organism:
                        world.modules[mid].load_draw_w = 0.0
                    continue
                self.emit("FatalEvent", tuple(exc.organism), {
                    "error": type(exc).__name__, "detail": str(exc)})
                self.halted = True
                return
        self.emit("FatalEvent", (), {"error": "PowerBusError",
                                     "detail": "load shedding failed"})
        self.halted = True

    # -- phase 6 ---------------------------------------------------------------------

    def _deliver_messages(self) -> None:
        world = self.world
        for src, _seq, payload in sorted(self._pending_broadcasts):
            try:
                receivers = commnet.wireless_broadcast(world, src, payload)
            except commnet.DeadBattery:
                self.emit("BroadcastFailed", (src,), {"reason": "DeadBattery"})
                continue
            for receiver in receivers:
                self._inboxes.setdefault(receiver, []).append(
                    ReceivedMessage(src, payload))
            self.emit("Broadcast", (src,), {"receivers": receivers,
                                            "payload": payload})
        self._pending_broadcasts = []
