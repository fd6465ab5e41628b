"""The two built-in experiments: organism assembly and rescue of a fallen module.

Both are fixed choreographies driven by small controllers that read only
sensor memory, so every observation arrives with the engine's one-tick
delay and the resulting logs are fully deterministic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import mechanics, powerbus
from .config import SimConfig
from .engine import Engine
from .model import (
    DockConnection,
    ModuleKind,
    Posture,
    World,
    connected_components,
    total_compute,
)
from .scenario import (
    ActuateJoint,
    Broadcast,
    DockWith,
    EventLog,
    LiftChain,
    LowerChain,
    Move,
    SensorMemory,
    Undock,
    _jsonable,
)
from .mechanics import Joint


class ScenarioError(Exception):
    """A scenario cannot be built or started (precondition failure)."""


@dataclass
class MetricsReport:
    """Summary emitted next to the event log after a run."""

    organisms: list[dict] = field(default_factory=list)
    total_mips: int = 0
    total_wh: float = 0.0
    speeds: dict = field(default_factory=dict)
    rescue_success: Optional[bool] = None

    def to_json(self) -> str:
        record = {
            "organisms": _jsonable(self.organisms),
            "total_mips": self.total_mips,
            "total_wh": round(self.total_wh, 9),
            "speeds": _jsonable(self.speeds),
            "rescue_success": self.rescue_success,
        }
        return json.dumps(record, indent=2) + "\n"


def build_metrics(world: World, speeds: dict, rescue_success: Optional[bool]) -> MetricsReport:
    report = MetricsReport(speeds=speeds, rescue_success=rescue_success)
    for members in connected_components(world):
        mips = total_compute(world, members)
        wh = powerbus.total_available_energy(world, members)
        extra = sum(
            world.modules[mid].spec.battery.energy_full_wh
            for mid in members
            if world.modules[mid].off_ground and world.modules[mid].sharing_on
        )
        report.organisms.append({
            "members": list(members),
            "mips": mips,
            "wh": wh,
            "cpu_nodes": sum(
                1 for mid in members if world.modules[mid].spec.compute_mips > 0),
            "extra_wh_nondriving": extra,
            "speed_cm_s": mechanics.organism_speed(world, members),
        })
        report.total_mips += mips
        report.total_wh += wh
    return report


# -- assembly -------------------------------------------------------------------


class AssemblyCoordinator:
    """Drives four robots through the assembly choreography: one wheel docks
    to the pre-connected pair, the fourth robot docks, the organism drives,
    lifts its middle modules, and drives again on wheels alone."""

    def __init__(self, aw1: str, aw2: str, bb1: str, bb2: str):
        self.aw1, self.aw2, self.bb1, self.bb2 = aw1, aw2, bb1, bb2
        self.stage = "dock_first_wheel"
        self.done = False

    def _locked_to(self, memory: SensorMemory, mid: str, peer: str) -> bool:
        snap = memory.get(mid)
        return any(p.state == "locked" and p.peer == peer for p in snap.ports)

    def on_tick(self, tick: int, memory: SensorMemory, issue, emit) -> None:
        if self.stage == "dock_first_wheel":
            issue(self.aw1, DockWith(self.bb1, own_port=0, peer_port=3))
            self.stage = "wait_first_dock"
        elif self.stage == "wait_first_dock":
            if self._locked_to(memory, self.aw1, self.bb1):
                issue(self.aw2, DockWith(self.bb2, own_port=0, peer_port=1))
                self.stage = "wait_second_dock"
        elif self.stage == "wait_second_dock":
            if self._locked_to(memory, self.aw2, self.bb2):
                emit("OrganismAssembled",
                     (self.aw1, self.aw2, self.bb1, self.bb2), {})
                issue(self.bb1, Move(0.06))
                self.stage = "wait_ground_move"
        elif self.stage == "wait_ground_move":
            if not memory.get(self.bb1).busy:
                issue(self.aw1, LiftChain((self.bb1,)))
                issue(self.aw2, LiftChain((self.bb2,)))
                self.stage = "wait_lift"
        elif self.stage == "wait_lift":
            if memory.get(self.bb1).off_ground and memory.get(self.bb2).off_ground:
                issue(self.aw1, Move(0.31))
                self.stage = "wait_carry_move"
        elif self.stage == "wait_carry_move":
            if not memory.get(self.aw1).busy:
                self.done = True


def build_assembly_world(config: SimConfig, params: dict | None = None) -> World:
    params = params or {}
    world = World(config)
    pitch = config.module_pitch
    world.add_module("bb1", ModuleKind.BACKBONE, pos=(0.0, 0.0))
    world.add_module("bb2", ModuleKind.BACKBONE, pos=(pitch, 0.0))
    world.add_module("aw1", ModuleKind.ACTIVE_WHEEL,
                     pos=(-float(params.get("wheel_offset_m", 0.5)) - pitch, 0.0))
    world.add_module("aw2", ModuleKind.ACTIVE_WHEEL,
                     pos=(pitch + float(params.get("wheel_offset_m", 0.5)) + pitch, 0.0))
    # The two Backbones start out already connected.
    world.add_connection(DockConnection("bb1", 1, "bb2", 3, 0))
    _check_assembly_preconditions(world)
    return world


def _check_assembly_preconditions(world: World) -> None:
    kinds = [st.kind for st in world.modules.values()]
    if kinds.count(ModuleKind.ACTIVE_WHEEL) < 2 or kinds.count(ModuleKind.BACKBONE) < 2:
        raise ScenarioError(
            "assembly needs at least two Active Wheels and two Backbones")


def run_assembly_experiment(
    config: SimConfig | None = None, params: dict | None = None,
    world: World | None = None, max_ticks: int = 2000,
) -> tuple[EventLog, MetricsReport, bool]:
    config = config or SimConfig()
    if world is None:
        world = build_assembly_world(config, params)
    else:
        _check_assembly_preconditions(world)
    coordinator = AssemblyCoordinator("aw1", "aw2", "bb1", "bb2")
    engine = Engine(world, controllers=[coordinator], max_ticks=max_ticks)
    log = engine.run()

    moves = log.events_named("MoveStart")
    speeds: dict = {}
    if len(moves) >= 1:
        speeds["before_lift"] = moves[0].data["speed_cm_s"]
    if len(moves) >= 2:
        speeds["after_lift"] = moves[1].data["speed_cm_s"]
    organisms = connected_components(world)
    success = (
        coordinator.done
        and not engine.halted
        and len(organisms) == 1
        and len(organisms[0]) == 4
    )
    report = build_metrics(world, speeds, rescue_success=None)
    return log, report, success


# -- rescue ----------------------------------------------------------------------


class FallenModuleController:
    """Behavior of the fallen robot: call for help, wait, then resume."""

    def __init__(self, module_id: str, ack_deadline_ticks: int = 200):
        self.module_id = module_id
        self.ack_deadline_ticks = ack_deadline_ticks
        self.stage = "call"
        self.failed = False
        self.done = False
        self._called_at = 0

    def on_tick(self, tick: int, memory: SensorMemory, issue, emit) -> None:
        snap = memory.get(self.module_id)
        if self.stage == "call":
            free = snap.free_ports()
            if not free:
                emit("RescueInfeasible", (self.module_id,), {"reason": "NoFreePort"})
                self.failed = True
                self.done = True
                return
            emit("HelpBroadcast", (self.module_id,), {"advertised_port": free[0]})
            issue(self.module_id, Broadcast(f"help:{free[0]}"))
            self._called_at = tick
            self.stage = "await_ack"
        elif self.stage == "await_ack":
            if any(m.payload == "ack" for m in snap.messages):
                self.stage = "await_upright"
            elif tick - self._called_at > self.ack_deadline_ticks:
                emit("RescueInfeasible", (self.module_id,), {"reason": "NoResponder"})
                self.failed = True
                self.done = True
        elif self.stage == "await_upright":
            if snap.upright:
                issue(self.module_id, Move(0.05))
                self.stage = "confirm_move"
        elif self.stage == "confirm_move":
            if snap.busy:
                emit("ResumedOperation", (self.module_id,), {})
                self.done = True
            else:
                emit("RescueInfeasible", (self.module_id,), {"reason": "CannotMove"})
                self.failed = True
                self.done = True


class RescuerController:
    """Behavior of a helper wheel: answer the call, dock to the advertised
    port, lift, rotate half a turn, set down, and release."""

    def __init__(self, module_id: str, deadline_ticks: int = 2000):
        self.module_id = module_id
        self.deadline_ticks = deadline_ticks
        self.stage = "idle"
        self.failed = False
        self.done = False
        self.target: Optional[str] = None
        self.target_port = 0
        self._busy_seen = False

    def _fail(self, emit, reason: str) -> None:
        emit("RescueInfeasible", (self.module_id,), {"reason": reason})
        self.failed = True
        self.done = True

    def on_tick(self, tick: int, memory: SensorMemory, issue, emit) -> None:
        if tick > self.deadline_ticks and not self.done:
            self._fail(emit, "Timeout")
            return
        snap = memory.get(self.module_id)
        if self.stage == "idle":
            for message in snap.messages:
                if message.payload.startswith("help:"):
                    self.target = message.src
                    self.target_port = int(message.payload.split(":", 1)[1])
                    emit("HelpAck", (self.module_id, self.target), {})
                    issue(self.module_id, Broadcast("ack"))
                    issue(self.module_id, DockWith(
                        self.target, own_port=0, peer_port=self.target_port))
                    self.stage = "await_dock"
                    return
        elif self.stage == "await_dock":
            if any(p.state == "locked" and p.peer == self.target for p in snap.ports):
                issue(self.module_id, LiftChain((self.target,)))
                self.stage = "await_lift"
                self._busy_seen = False
            elif not snap.busy:
                self._fail(emit, "DockFailed")
        elif self.stage == "await_lift":
            if snap.busy:
                self._busy_seen = True
                return
            if not self._busy_seen:
                self._fail(emit, "LiftInfeasible")
                return
            self._busy_seen = False
            issue(self.module_id, ActuateJoint(Joint.ROTATION, 180.0))
            self.stage = "await_rotation"
        elif self.stage == "await_rotation":
            if snap.busy:
                self._busy_seen = True
                return
            if not self._busy_seen:
                self._fail(emit, "RotationFailed")
                return
            self._busy_seen = False
            issue(self.module_id, LowerChain())
            self.stage = "await_lower"
        elif self.stage == "await_lower":
            if snap.busy:
                self._busy_seen = True
                return
            if not self._busy_seen:
                self._fail(emit, "LowerFailed")
                return
            self._busy_seen = False
            issue(self.module_id, Undock(port=0))
            self.stage = "finishing"
        elif self.stage == "finishing":
            if not any(p.state == "locked" for p in snap.ports):
                self.done = True


def build_rescue_world(config: SimConfig, params: dict | None = None) -> World:
    params = params or {}
    world = World(config)
    world.add_module("bb1", ModuleKind.BACKBONE, pos=(0.0, 0.0),
                     posture=Posture(fallen_port=3))
    world.add_module(
        "aw1", ModuleKind.ACTIVE_WHEEL,
        pos=(float(params.get("rescuer_distance_m", 1.5)), 0.0))
    _check_rescue_preconditions(world)
    return world


def _check_rescue_preconditions(world: World) -> None:
    fallen = [st for st in world.modules.values()
              if st.kind is ModuleKind.BACKBONE and not st.posture.upright]
    wheels = [st for st in world.modules.values()
              if st.kind is ModuleKind.ACTIVE_WHEEL]
    if not fallen:
        raise ScenarioError("rescue needs a fallen Backbone")
    if not wheels:
        raise ScenarioError("rescue needs at least one Active Wheel")


def run_rescue_experiment(
    config: SimConfig | None = None, params: dict | None = None,
    world: World | None = None, max_ticks: int = 3000,
) -> tuple[EventLog, MetricsReport, bool]:
    config = config or SimConfig()
    if world is None:
        world = build_rescue_world(config, params)
    else:
        _check_rescue_preconditions(world)
    fallen_id = sorted(
        mid for mid, st in world.modules.items()
        if st.kind is ModuleKind.BACKBONE and not st.posture.upright)[0]
    rescuer_id = sorted(
        mid for mid, st in world.modules.items()
        if st.kind is ModuleKind.ACTIVE_WHEEL)[0]
    connections_before = len(world.connections)

    fallen = FallenModuleController(fallen_id)
    rescuer = RescuerController(rescuer_id)
    engine = Engine(world, controllers=[fallen, rescuer], max_ticks=max_ticks)
    log = engine.run()

    names = log.names()
    success = (
        not fallen.failed
        and not rescuer.failed
        and not engine.halted
        and "PostureUpright" in names
        and "ResumedOperation" in names
        and world.modules[fallen_id].posture.upright
        and len(world.connections) == connections_before
    )
    report = build_metrics(world, speeds={}, rescue_success=success)
    return log, report, success
