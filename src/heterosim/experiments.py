"""The two built-in experiments: organism assembly and rescue of a fallen module.

Both are fixed choreographies. Each part is a generator script, run one
step per tick by the one controller class, :class:`Choreography`; it reads
only sensor memory, so every observation arrives with the engine's one-tick
delay and the resulting logs are fully deterministic. Each entry of
:data:`BUILTINS` starts its engine and judges the finished run; the command
line and the library runners take that one path, and :func:`judge` holds
the one success test, which a custom scenario's run shares.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

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


@dataclass
class MetricsReport:
    """Summary emitted next to the event log after a run."""

    organisms: list[dict] = field(default_factory=list)
    total_mips: int = 0
    total_wh: float = 0.0
    speeds: dict = field(default_factory=dict)
    rescue_success: Optional[bool] = None

    def to_json(self) -> str:
        """The fields in order, each float rounded to 9 places."""
        return json.dumps(_jsonable(asdict(self)), indent=2) + "\n"


def judge(engine: Engine, world_ok: bool = True, speeds: Optional[dict] = None,
          rescue: bool = False) -> tuple[MetricsReport, bool]:
    """The report of a finished run and its success: the engine did not halt,
    every part ended done and none failed, and ``world_ok``, a builtin's
    check of its world, holds. A custom scenario has neither parts nor check;
    a rescue's report also holds its success."""
    world = engine.world
    success = world_ok and not engine.halted and all(
        part.done and not part.failed for part in engine.controllers)
    report = MetricsReport(speeds=speeds or {}, rescue_success=success if rescue else None)
    for members in connected_components(world):
        mips = total_compute(world, members)
        wh = powerbus.total_available_energy(world, members)
        extra = sum(
            world.modules[mid].spec.battery.energy_full_wh
            for mid in members
            if mid in world.lifted and world.modules[mid].sharing_on
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
    return report, success


class Choreography:
    """One part of a built-in experiment, as the engine's controller.

    ``script(self, *args)`` is a generator that yields once per tick. It
    reads ``memory`` and acts through ``issue`` and ``emit``, as the engine
    last handed them to ``on_tick``. A script that returns a failure reason,
    or a tick past ``deadline_ticks`` (reason ``Timeout``), ends the part
    with ``RescueInfeasible`` for ``module_id``; a script that returns None
    ends it done and not failed.
    """

    def __init__(self, module_id: Optional[str], script, *args,
                 deadline_ticks: float = math.inf):
        self.module_id = module_id
        self.deadline_ticks = deadline_ticks
        self.done = self.failed = False
        self._script = script(self, *args)

    def on_tick(self, tick: int, memory: SensorMemory, issue, emit) -> None:
        self.memory, self.issue, self.emit = memory, issue, emit
        try:
            if tick <= self.deadline_ticks:
                next(self._script)
                return
            reason = "Timeout"
        except StopIteration as end:
            reason = end.value
        if reason is not None:
            emit("RescueInfeasible", (self.module_id,), {"reason": reason})
            self.failed = True
        self.done = True
        # The engine keeps its controllers: hold no callback of it, nor the script.
        del self.memory, self.issue, self.emit, self._script


def _until(ready: Callable[[], object]):
    """Wait from the next tick until ``ready()`` holds."""
    yield
    while not ready():
        yield


def _locked_to(snap, peer: str) -> bool:
    return any(p.state == "locked" and p.peer == peer for p in snap.ports)


# -- assembly -------------------------------------------------------------------


def _assembly(part: Choreography, aw1: str, aw2: str, bb1: str, bb2: str):
    """Drives four robots through the assembly choreography: one wheel docks
    to the pre-connected pair, the fourth robot docks, the organism drives,
    lifts its middle modules, and drives again on wheels alone."""
    get = part.memory.get
    part.issue(aw1, DockWith(bb1, own_port=0, peer_port=3))
    yield from _until(lambda: _locked_to(get(aw1), bb1))
    part.issue(aw2, DockWith(bb2, own_port=0, peer_port=1))
    yield from _until(lambda: _locked_to(get(aw2), bb2))
    part.emit("OrganismAssembled", (aw1, aw2, bb1, bb2), {})
    part.issue(bb1, Move(0.06))
    yield from _until(lambda: not get(bb1).busy)
    part.issue(aw1, LiftChain((bb1,)))
    part.issue(aw2, LiftChain((bb2,)))
    yield from _until(lambda: get(bb1).off_ground and get(bb2).off_ground)
    part.issue(aw1, Move(0.31))
    yield from _until(lambda: not get(aw1).busy)


#: The assembly's controller: ``AssemblyCoordinator(aw1, aw2, bb1, bb2)``.
AssemblyCoordinator = partial(Choreography, None, _assembly)


def build_assembly_world(config: SimConfig, params: dict | None = None) -> World:
    world = World(config)
    pitch = config.module_pitch
    offset = float((params or {}).get("wheel_offset_m", 0.5))
    world.add_module("bb1", ModuleKind.BACKBONE, pos=(0.0, 0.0))
    world.add_module("bb2", ModuleKind.BACKBONE, pos=(pitch, 0.0))
    world.add_module("aw1", ModuleKind.ACTIVE_WHEEL, pos=(-offset - pitch, 0.0))
    world.add_module("aw2", ModuleKind.ACTIVE_WHEEL, pos=(pitch + offset + pitch, 0.0))
    # The two Backbones start out already connected.
    world.add_connection(DockConnection("bb1", 1, "bb2", 3, 0))
    return world


def judge_assembly(engine: Engine) -> tuple[MetricsReport, bool]:
    """The assembly's report, with its two drive speeds; success is one organism of 4."""
    speeds = {key: move.data["speed_cm_s"] for key, move in
              zip(("before_lift", "after_lift"), engine.log.events_named("MoveStart"))}
    organisms = connected_components(engine.world)
    return judge(engine, len(organisms) == 1 and len(organisms[0]) == 4, speeds)


def run_assembly_experiment(config: SimConfig | None = None, params: dict | None = None,
                            max_ticks: int = 2000) -> tuple[EventLog, MetricsReport, bool]:
    """The assembly as a library call: its log, report and success."""
    engine = BUILTINS["assembly"].start(config or SimConfig(), params, max_ticks)
    return (engine.run(), *judge_assembly(engine))


# -- rescue ----------------------------------------------------------------------


def _fallen_module(part: Choreography, ack_deadline_ticks: int = 200):
    """Behavior of the fallen robot: call for help, wait, then resume."""
    me, get = part.module_id, part.memory.get
    free = get(me).free_ports()
    if not free:
        return "NoFreePort"
    part.emit("HelpBroadcast", (me,), {"advertised_port": free[0]})
    part.issue(me, Broadcast(f"help:{free[0]}"))
    for _ in range(ack_deadline_ticks + 1):
        yield
        if any(m.payload == "ack" for m in get(me).messages):
            break
    else:
        return "NoResponder"
    yield from _until(lambda: get(me).upright)
    part.issue(me, Move(0.05))
    yield
    if not get(me).busy:
        return "CannotMove"
    part.emit("ResumedOperation", (me,), {})


#: The rescuer's steps after the lift: once the wheel has turned busy and
#: idle again it issues the step's directive, else it fails with its reason.
RESCUE_STEPS = (
    (ActuateJoint(mechanics.Joint.ROTATION, 180.0), "LiftInfeasible"),
    (LowerChain(), "RotationFailed"),
    (Undock(port=0), "LowerFailed"),
)


def _rescuer(part: Choreography):
    """Behavior of a helper wheel: answer the call, dock to the advertised
    port, lift, rotate half a turn, set down, and release."""
    me, get = part.module_id, part.memory.get
    while not (calls := [m for m in get(me).messages if m.payload.startswith("help:")]):
        yield
    target, port = calls[0].src, int(calls[0].payload.split(":", 1)[1])
    part.emit("HelpAck", (me, target), {})
    part.issue(me, Broadcast("ack"))
    part.issue(me, DockWith(target, own_port=0, peer_port=port))
    yield from _until(lambda: not get(me).busy)
    if not _locked_to(get(me), target):
        return "DockFailed"
    part.issue(me, LiftChain((target,)))
    for directive, reason in RESCUE_STEPS:
        yield
        if not get(me).busy:
            return reason
        yield from _until(lambda: not get(me).busy)
        part.issue(me, directive)
    yield from _until(lambda: not any(p.state == "locked" for p in get(me).ports))


def build_rescue_world(config: SimConfig, params: dict | None = None) -> World:
    distance = float((params or {}).get("rescuer_distance_m", 1.5))
    world = World(config)
    world.add_module("bb1", ModuleKind.BACKBONE, pos=(0.0, 0.0),
                     posture=Posture(fallen_port=3))
    world.add_module("aw1", ModuleKind.ACTIVE_WHEEL, pos=(distance, 0.0))
    return world


def judge_rescue(engine: Engine) -> tuple[MetricsReport, bool]:
    """The rescue's success: ``PostureUpright`` logged, bb1 upright, no connection."""
    world = engine.world
    return judge(engine, "PostureUpright" in engine.log.names()
                 and world.modules["bb1"].posture.upright and not world.connections,
                 rescue=True)


def run_rescue_experiment(config: SimConfig | None = None, params: dict | None = None,
                          max_ticks: int = 3000) -> tuple[EventLog, MetricsReport, bool]:
    """The rescue as a library call: its log, report and success."""
    engine = BUILTINS["rescue"].start(config or SimConfig(), params, max_ticks)
    return (engine.run(), *judge_rescue(engine))


class Builtin(NamedTuple):
    """One built-in experiment: its world, its parts, its ``judge``, the
    numeric ``params`` it takes, each with its least value in module
    pitches, and the line ``heterosim list-builtins`` prints for it."""

    build_world: Callable[[SimConfig, Optional[dict]], World]
    parts: Callable[[], list[Choreography]]
    judge: Callable[[Engine], tuple[MetricsReport, bool]]
    params: dict[str, float]
    description: str

    def start(self, config: SimConfig, params: Optional[dict], max_ticks: int,
              shed_policy: str = "halt") -> Engine:
        """The experiment's engine, not yet run; ``ValueError`` for a param out of range."""
        for key, least in self.params.items():
            bound = least * config.module_pitch
            if float(value := (params or {}).get(key, bound)) < bound:
                raise ValueError(f"{key!r} must be >= {bound:g} m, got {value!r}")
        return Engine(self.build_world(config, params), controllers=self.parts(),
                      max_ticks=max_ticks, shed_policy=shed_policy)


#: Every built-in experiment, by the name a scenario's ``builtin`` gives.
BUILTINS = {
    "assembly": Builtin(
        build_assembly_world, lambda: [AssemblyCoordinator("aw1", "aw2", "bb1", "bb2")],
        judge_assembly, {"wheel_offset_m": 0.0},
        "four robots dock into one organism, lift, and drive on wheels"),
    "rescue": Builtin(
        build_rescue_world, lambda: [Choreography("bb1", _fallen_module),
                                     Choreography("aw1", _rescuer, deadline_ticks=2000)],
        judge_rescue, {"rescuer_distance_m": 1.0},
        "an Active Wheel rights a fallen Backbone after a call for help"),
}
