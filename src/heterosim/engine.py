"""Deterministic discrete-time engine.

Every tick runs the same fixed phase order: (1) controller reads, each
snapshot built when asked from the world as the previous tick left it;
(2) directive dispatch; (3) motion integration; (4) docking transitions;
(5) the energy step; (6) message delivery; (7) sensor refresh, which
records the busy modules and this tick's inboxes for the next reads;
(8) event emission. All contention is broken by ascending module id, so
identical inputs always produce identical logs. A dispatch check returns
the reason it refuses a directive, and phase 2 logs it as the one
``DirectiveRejected`` of that directive, from one place.

A module runs at most one activity, one slotted record of the directive
under way and what is left of it, and an organism at most one move or
approach, at its ground speed. An approach claims the initiator's port in
``world.claims`` (approaching -> aligned); the peer's port is only claimed
at alignment, so two approaches to one port are settled there and the later
one aborts with ``PortBusy``. A module held up by a lift, done or under way,
neither lifts, docks nor undocks, no module docks onto it, and no lift takes
a module held up or holding a chain. Once halted, ``step`` does nothing.
"""
from __future__ import annotations

import math
from typing import Optional, Protocol

from . import commnet, docking, mechanics, powerbus
from .mechanics import Joint
from .model import HEADINGS, ModuleKind, ModuleSpec, UPRIGHT, World
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
SHED_POLICIES = ("halt", "shed")  # a failed bus solve ends the run, or sheds loads once
#: Each heading's unit vector: the cosine and sine of its radians.
_UNIT = {h: (math.cos(math.radians(h)), math.sin(math.radians(h))) for h in HEADINGS}


class Controller(Protocol):
    """A scenario behavior: reads only sensor memory, acts through the callbacks
    it is handed. A builtin's parts also carry ``failed``, read by its judge."""

    done: bool

    def on_tick(self, tick: int, memory: SensorMemory,
                issue, emit) -> None: ...


class _Activity:
    """A directive under way and what is left of it: the metres of a ``Move``,
    or the seconds of a ``DockWith`` handshake or of a timed directive (turn,
    actuation, lift, lower, wait); an ``Undock`` leaves ``left`` unused."""

    __slots__ = ("directive", "left")

    def __init__(self, directive: Directive, left: float = 0.0) -> None:
        self.directive = directive
        self.left = left


def _lift_angle(spec: ModuleSpec) -> float:
    """The bend a lift ends at: 90 degrees, or the joint's limit if less."""
    return min(90.0, spec.bend_limit_deg)


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
        if shed_policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be 'halt' or 'shed', got {shed_policy!r}")
        self.shed_policy = shed_policy
        self.log = EventLog()
        self.memory = SensorMemory()
        self.activities: dict[str, _Activity] = {}
        self.halted = False
        self._timeline_pos = 0
        self._tick_events: list[Event] = []
        self._pending_broadcasts: list[tuple[str, str]] = []  # (src, payload), in dispatch order
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
        if self.activities:
            return True
        if self._timeline_pos < len(self.timeline):
            return True
        return any(not c.done for c in self.controllers)

    def step(self, extra_directives: Optional[list[tuple[str, Directive]]] = None) -> list[Event]:
        """Advance one tick; returns the events of this tick."""
        if self.halted:
            return []
        world = self.world
        self._driving = set()
        pending: list[tuple[str, Directive]] = []

        # Phase 1: controllers read the world as last tick left it.
        def issue(module_id: str, directive: Directive) -> None:
            pending.append((module_id, directive))

        for controller in self.controllers:
            if not controller.done:
                controller.on_tick(world.tick, self.memory, issue, self.emit)

        # Phase 2: dispatch this tick's directives in module id order.
        while (self._timeline_pos < len(self.timeline)
               and self.timeline[self._timeline_pos].tick <= world.tick):
            entry = self.timeline[self._timeline_pos]
            pending.append((entry.module_id, entry.directive))
            self._timeline_pos += 1
        if extra_directives:
            pending.extend(extra_directives)
        pending.sort(key=lambda item: item[0])
        idle = [module_id for module_id, _ in pending if module_id not in self.activities]
        claimed_ports: set[tuple[str, int]] = set()
        for module_id, directive in pending:
            reason = self._dispatch_one(module_id, directive, claimed_ports)
            if reason is not None:
                self._reject(module_id, directive, reason)
        started = [module_id for module_id in idle if module_id in self.activities]

        # Phase 3: motion and actuation integration.
        for module_id in sorted(self.activities):
            self._integrate(module_id)

        # Phase 4: docking transitions.
        for module_id in sorted([mid for mid, activity in self.activities.items()
                                 if isinstance(activity.directive, (Undock, DockWith))]):
            self._dock_transition(module_id)

        # Phase 5: energy step.
        self._energy_phase()

        # Phase 6: message delivery.
        self._inboxes = {}
        self._deliver_messages()

        # Phase 7: busy modules, all started this tick included, and inboxes for next tick.
        self.memory.refresh(world, set(self.activities).union(started), self._inboxes)

        # Phase 8: event emission.
        for event in self._tick_events:
            self.log.append(event)
        emitted = self._tick_events
        self._tick_events = []
        world.tick += 1
        return emitted

    # -- phase 2 ----------------------------------------------------------------

    def _dispatch_one(self, module_id: str, directive: Directive,
                      claimed_ports: set[tuple[str, int]]) -> Optional[str]:
        """Start ``directive`` on ``module_id``; the reason it is refused, or None."""
        world = self.world
        if module_id not in world.modules:
            return "NoSuchModule"
        state = world.modules[module_id]
        activities = self.activities
        if module_id in activities:
            return "Busy"
        if not state.alive:
            return "DeadBattery"
        try:
            implementation = dispatch(state.spec, directive)
        except UnsupportedDirective:
            return "Unsupported"
        if isinstance(directive, (Move, Turn, DockWith, LiftChain)) and (
                not state.posture.upright or module_id in world.lifted
                or isinstance(directive, LiftChain) and self._held_up(module_id)):
            return "CannotMove"
        if isinstance(directive, (Move, DockWith)):
            # Motion is the organism's: one member moves or approaches at a time.
            members = world.organism_of(module_id)
            if any(mid in activities and isinstance(activities[mid].directive, (Move, DockWith))
                   for mid in members):
                return "Busy"

        if isinstance(directive, Move):
            speed_cm = mechanics.organism_speed(world, members)
            activities[module_id] = _Activity(directive, directive.distance_m)
            self.emit("MoveStart", (module_id,), {
                "distance_m": directive.distance_m, "speed_cm_s": speed_cm,
                "implementation": implementation})
        elif isinstance(directive, Turn):
            if any(conn is not None for conn in state.ports):
                return "CannotMove"
            duration = (0.0 if state.kind is ModuleKind.ACTIVE_WHEEL  # omni: one tick
                        else mechanics.joint_travel_s(state.spec, 0, directive.angle_deg))
            activities[module_id] = _Activity(directive, duration)
            self.emit("TurnStart", (module_id,), {
                "angle_deg": directive.angle_deg, "implementation": implementation})
        elif isinstance(directive, DockWith):
            return self._dispatch_dock(module_id, directive, claimed_ports)
        elif isinstance(directive, Undock):
            if not 0 <= directive.port < state.spec.num_ports \
                    or state.ports[directive.port] is None:
                return "BadTarget"
            activities[module_id] = _Activity(directive)
        elif isinstance(directive, ActuateJoint):
            return self._dispatch_actuation(module_id, directive)
        elif isinstance(directive, SetSharing):
            state.sharing_on = directive.on
            self.emit("SharingSet", (module_id,), {"on": directive.on})
        elif isinstance(directive, LiftChain):
            return self._dispatch_lift(module_id, directive)
        elif isinstance(directive, LowerChain):
            if module_id not in world.lifted.values():
                return "BadTarget"
            activities[module_id] = _Activity(
                directive, mechanics.joint_travel_s(state.spec, state.joint_bend_deg, 0.0))
            self.emit("LowerStart", (module_id,), {"chain": list(world.lifted_chain(module_id))})
        elif isinstance(directive, Broadcast):
            self._pending_broadcasts.append((module_id, directive.payload))
        elif isinstance(directive, Wait):
            activities[module_id] = _Activity(directive, directive.ticks * self.config.dt)
        return None

    def _dispatch_dock(self, module_id: str, directive: DockWith,
                       claimed_ports: set[tuple[str, int]]) -> Optional[str]:
        world = self.world
        if directive.peer not in world.modules:
            return "BadTarget"
        try:
            reason = docking.can_dock(
                world, module_id, directive.own_port,
                directive.peer, directive.peer_port, directive.orientation_deg)
        except IndexError:
            return "BadTarget"
        if reason is not None:
            return reason.value
        own_key = (module_id, directive.own_port)
        peer_key = (directive.peer, directive.peer_port)
        if own_key in claimed_ports or peer_key in claimed_ports:
            return docking.DockRejection.PORT_BUSY.value
        distance = world.distance(module_id, directive.peer)
        if distance > self.config.module_pitch + _EPS \
                and world.modules[module_id].spec.locomotion_speed_cm_s <= 0:
            return "CannotMove"
        if self._held_up(module_id) or self._held_up(directive.peer):
            return "Busy"
        claimed_ports.add(own_key)
        claimed_ports.add(peer_key)
        world.claims[own_key] = ("approaching", directive.peer)
        self.activities[module_id] = _Activity(directive, self.config.dock_handshake_s)
        self.emit("ApproachStart", (module_id, directive.peer), {
            "own_port": directive.own_port, "peer_port": directive.peer_port,
            "distance_m": distance})
        return None

    def _dispatch_actuation(self, module_id: str, directive: ActuateJoint) -> Optional[str]:
        world = self.world
        state = world.modules[module_id]
        try:
            duration = mechanics.actuation_duration(
                world, module_id, directive.joint, directive.target_deg)
        except mechanics.JointLimitExceeded:
            return "JointLimit"
        start = (state.joint_bend_deg if directive.joint is Joint.BEND
                 else state.joint_rotation_deg)
        self.activities[module_id] = _Activity(directive, duration)
        name = "RotateStart" if directive.joint is Joint.ROTATION else "BendStart"
        self.emit(name, (module_id,), {
            "from_deg": start, "to_deg": directive.target_deg,
            "duration_s": duration})
        return None

    def _dispatch_lift(self, module_id: str, directive: LiftChain) -> Optional[str]:
        world = self.world
        state = world.modules[module_id]
        if module_id in world.lifted.values():
            return "Busy"
        try:
            assessment = mechanics.lift_feasible(world, module_id, directive.chain)
        except (ValueError, KeyError):
            return "BadTarget"
        if not assessment.feasible:
            return "TorqueExceeded"
        activities = self.activities
        if any(self._held_up(mid) or mid in world.lifted.values()
               or mid in activities and isinstance(activities[mid].directive, LiftChain)
               for mid in directive.chain):
            return "BadTarget"
        travel_s = mechanics.joint_travel_s(
            state.spec, state.joint_bend_deg, _lift_angle(state.spec))
        self.activities[module_id] = _Activity(LiftChain(tuple(directive.chain)), travel_s)
        self.emit("LiftStart", (module_id,), {
            "chain": list(directive.chain),
            "required_torque_nm": assessment.required_torque_nm})
        return None

    # -- phase 3 ------------------------------------------------------------------

    def _integrate(self, module_id: str) -> None:
        activity = self.activities[module_id]
        directive = activity.directive
        world = self.world
        state = world.modules[module_id]
        dt = self.config.dt
        if isinstance(directive, Move):
            members = world.organism_of(module_id)
            speed_cm, drivers = mechanics.ground_drive(world, members)
            if speed_cm <= 0.0:
                del self.activities[module_id]
                self.emit("MoveAborted", (module_id,), {"reason": "CannotMove"})
                return
            step, left = speed_cm / 100.0 * dt, activity.left
            if step > left:
                step = left
            ux, uy = _UNIT[state.pose.heading_deg]
            self._translate(members, drivers, step * ux, step * uy)
            activity.left = left = left - step
            if left <= _EPS:
                del self.activities[module_id]
                self.emit("MoveComplete", (module_id,), {})
        elif isinstance(directive, DockWith):
            distance = world.distance(module_id, directive.peer)
            to_travel = distance - self.config.module_pitch
            if to_travel > _EPS \
                    and world.claims[module_id, directive.own_port][0] != "aligned":
                members = world.organism_of(module_id)
                speed_cm, drivers = mechanics.ground_drive(world, members)
                if speed_cm <= 0.0:
                    self._abort_approach(module_id, directive, "CannotMove")
                    return
                step = min(speed_cm / 100.0 * dt, to_travel)
                peer_pose = world.modules[directive.peer].pose
                norm = max(distance, 1e-12)
                self._translate(members, drivers,
                                (peer_pose.x - state.pose.x) / norm * step,
                                (peer_pose.y - state.pose.y) / norm * step)
        elif not isinstance(directive, Undock):  # timed: turn, actuation, lift, lower, wait
            if not isinstance(directive, Wait):  # a wait draws no drive power
                self._driving.add(module_id)
            activity.left -= dt
            if activity.left <= _EPS:
                del self.activities[module_id]
                self._finish(module_id, directive)

    def _translate(self, members: tuple[str, ...], drivers: list[str],
                   dx: float, dy: float) -> None:
        """Carry the whole organism by (dx, dy); its drivers draw drive power."""
        modules = self.world.modules
        for mid in members:
            pose = modules[mid].pose
            pose.x += dx
            pose.y += dy
        self._driving.update(drivers)

    def _finish(self, module_id: str, directive: Directive) -> None:
        """Apply the effect of a timed directive whose time has run out. Only
        a turn changes a heading, so a turn's target is read here."""
        world = self.world
        state = world.modules[module_id]
        if isinstance(directive, Turn):
            state.pose.heading_deg = (state.pose.heading_deg + directive.angle_deg) % 360
            self.emit("TurnComplete", (module_id,), {
                "heading_deg": state.pose.heading_deg})
        elif isinstance(directive, ActuateJoint):
            target = directive.target_deg
            if directive.joint is Joint.BEND:
                state.joint_bend_deg = target
            else:
                state.lift_turn_deg += target - state.joint_rotation_deg
                state.joint_rotation_deg = target
            name = "RotateComplete" if directive.joint is Joint.ROTATION else "BendComplete"
            self.emit(name, (module_id,), {"angle_deg": target})
        elif isinstance(directive, LiftChain):
            state.joint_bend_deg = _lift_angle(state.spec)
            state.lift_turn_deg = 0.0
            world.lifted.update(dict.fromkeys(directive.chain, module_id))
            self.emit("LiftComplete", (module_id,), {"chain": list(directive.chain)})
        elif isinstance(directive, LowerChain):
            chain = world.lifted_chain(module_id)
            state.joint_bend_deg = 0.0
            half_turn = abs(abs(state.lift_turn_deg) % 360.0 - 180.0) < 1e-6
            for mid in chain:
                del world.lifted[mid]
                member = world.modules[mid]
                if not member.posture.upright and half_turn:
                    member.pending_righting = True
            self.emit("LowerComplete", (module_id,), {"chain": list(chain)})

    # -- phase 4 --------------------------------------------------------------------

    def _dock_transition(self, module_id: str) -> None:
        activity = self.activities[module_id]
        directive = activity.directive
        world = self.world
        if isinstance(directive, Undock):
            conn = world.connection_at(module_id, directive.port)
            del self.activities[module_id]
            if conn is None:
                self._reject(module_id, directive, "BadTarget")
                return
            if self._held_up(conn.module_a) or self._held_up(conn.module_b):
                self._reject(module_id, directive, "Busy")
                return
            docking.undock(world, conn)
            self.emit("Undocked", (conn.module_a, conn.module_b), {
                "ports": [conn.port_a, conn.port_b]})
            for mid in (conn.module_a, conn.module_b):
                member = world.modules[mid]
                if member.pending_righting and not member.posture.upright:
                    mechanics.set_posture(world, mid, UPRIGHT)
                    member.pending_righting = False
                    self.emit("PostureUpright", (mid,), {})
            return
        peer = directive.peer
        distance = world.distance(module_id, peer)
        claims = world.claims
        own_key, peer_key = (module_id, directive.own_port), (peer, directive.peer_port)
        if claims[own_key][0] != "aligned":
            if distance <= self.config.dock_reach_m + _EPS:
                # The initiator's port is claimed by this very approach;
                # drop the claim for the compatibility re-check.
                del claims[own_key]
                reason = docking.can_dock(
                    world, module_id, directive.own_port,
                    peer, directive.peer_port, directive.orientation_deg)
                if reason is not None:
                    self._abort_approach(module_id, directive, reason.value)
                    return
                claims[own_key] = ("aligned", peer)
                claims[peer_key] = ("aligned", module_id)
                self.emit("Aligned", (module_id, peer), {
                    "own_port": directive.own_port,
                    "peer_port": directive.peer_port})
            return
        activity.left -= self.config.dt  # the handshake
        if activity.left > _EPS:
            return
        del claims[own_key], claims[peer_key]
        del self.activities[module_id]
        if self._held_up(module_id) or self._held_up(peer):
            self.emit("DockAborted", (module_id,), {"reason": "Busy"})
            return
        try:
            docking.dock(world, module_id, directive.own_port, peer, directive.peer_port,
                         directive.orientation_deg)
        except docking.DockingError as exc:
            self.emit("DockAborted", (module_id,), {"reason": str(exc)})
            return
        self.emit("Docked", (module_id, peer), {
            "own_port": directive.own_port, "peer_port": directive.peer_port,
            "orientation_deg": directive.orientation_deg})

    def _held_up(self, module_id: str) -> bool:
        """Whether ``module_id`` hangs off the ground or in a lift under way."""
        return module_id in self.world.lifted or any(
            isinstance(a.directive, LiftChain) and module_id in a.directive.chain
            for a in self.activities.values())

    def _abort_approach(self, module_id: str, directive: DockWith, reason: str) -> None:
        """End an approach before alignment and free the initiator's port."""
        self.world.claims.pop((module_id, directive.own_port), None)
        del self.activities[module_id]
        self.emit("DockAborted", (module_id,), {"reason": reason})

    # -- phase 5 ---------------------------------------------------------------------

    def _energy_phase(self) -> None:
        world = self.world
        idle_w = self.config.idle_draw_w
        driving_w, driving = idle_w + self.config.drive_draw_w, self._driving
        for mid, state in world.modules.items():
            # ModuleState.alive, written inline.
            alive = state.soc > 0.0 or state.spec.battery.energy_full_wh <= 0.0
            state.load_draw_w = (driving_w if mid in driving else idle_w) if alive else 0.0
        try:
            powerbus.step_energy(world, self.config.dt,
                                 self._shed if self.shed_policy == "shed" else None)
        except powerbus.PowerBusError as exc:
            if self.shed_policy == "shed":  # the organism shed this tick failed again
                exc = powerbus.PowerBusError("load shedding failed")
            self.emit("FatalEvent", exc.organism, {"error": type(exc).__name__, "detail": str(exc)})
            self.halted = True

    def _shed(self, exc: powerbus.PowerBusError) -> None:
        """Log the organism's brown-out and switch its loads off for the tick."""
        self.emit("BrownOut", exc.organism, {"error": type(exc).__name__})
        for mid in exc.organism:
            self.world.modules[mid].load_draw_w = 0.0

    # -- phase 6 ---------------------------------------------------------------------

    def _deliver_messages(self) -> None:
        world = self.world
        for src, payload in self._pending_broadcasts:
            try:
                receivers = commnet.wireless_broadcast(world, src)
            except commnet.DeadBattery:
                self.emit("BroadcastFailed", (src,), {"reason": "DeadBattery"})
                continue
            for receiver in receivers:
                self._inboxes.setdefault(receiver, []).append(
                    ReceivedMessage(src, payload))
            self.emit("Broadcast", (src,), {"receivers": receivers,
                                            "payload": payload})
        self._pending_broadcasts = []
