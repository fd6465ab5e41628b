"""Directive vocabulary, kind dispatch, sensor memory, and the event log.

Controllers talk to modules through a small set of common directives; the
dispatch table maps each one onto the platform's concrete implementation
(track drive, screw drive, omni drive) and rejects pairs the platform
cannot perform. Controllers never read the world directly: they see the
per-module sensor memory, refreshed once per tick, which gives every
observation a one-tick delay.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .config import SimConfig
from .mechanics import Joint
from .model import ModuleKind, ModuleSpec, PortState, World


class UnsupportedDirective(Exception):
    pass


@dataclass(frozen=True)
class Move:
    distance_m: float


@dataclass(frozen=True)
class Turn:
    angle_deg: int  # +/-90 or +/-180


@dataclass(frozen=True)
class DockWith:
    peer: str
    own_port: int
    peer_port: int
    orientation_deg: int = 0


@dataclass(frozen=True)
class Undock:
    port: int


@dataclass(frozen=True)
class ActuateJoint:
    joint: Joint
    target_deg: float


@dataclass(frozen=True)
class SetSharing:
    on: bool


@dataclass(frozen=True)
class LiftChain:
    chain: tuple[str, ...]


@dataclass(frozen=True)
class LowerChain:
    pass


@dataclass(frozen=True)
class Broadcast:
    payload: str


@dataclass(frozen=True)
class Wait:
    ticks: int


Directive = Union[
    Move, Turn, DockWith, Undock, ActuateJoint, SetSharing,
    LiftChain, LowerChain, Broadcast, Wait,
]

_DRIVE_IMPL = {
    ModuleKind.SCOUT: "track-drive",
    ModuleKind.BACKBONE: "screw-drive",
    ModuleKind.ACTIVE_WHEEL: "omni-drive",
}

_TURN_IMPL = {
    ModuleKind.SCOUT: "track-turn",
    ModuleKind.BACKBONE: "screw-turn",
    ModuleKind.ACTIVE_WHEEL: "omni-rotate",
}


@dataclass(frozen=True)
class Action:
    """Concrete, kind-specific realization of a directive."""

    implementation: str
    duration_s: Optional[float] = None


def dispatch(
    spec: ModuleSpec,
    directive: Directive,
    config: SimConfig,
    current_angle_deg: float = 0.0,
) -> Action:
    """Map a common directive onto the platform's implementation.

    Raises :class:`UnsupportedDirective` for pairs the platform cannot
    perform (locomotion or joints on a passive block).
    """
    kind = spec.kind
    if isinstance(directive, Move):
        if spec.locomotion_speed_cm_s <= 0:
            raise UnsupportedDirective(f"{kind.value} cannot move")
        if directive.distance_m < 0:
            raise UnsupportedDirective("move distance must be >= 0")
        speed_m_s = spec.locomotion_speed_cm_s / 100.0
        return Action(_DRIVE_IMPL[kind], directive.distance_m / speed_m_s)
    if isinstance(directive, Turn):
        if directive.angle_deg not in (90, -90, 180, -180):
            raise UnsupportedDirective("turn angle must be +/-90 or +/-180")
        if kind is ModuleKind.ACTIVE_WHEEL:
            return Action(_TURN_IMPL[kind], 0.0)  # omni wheels: within one tick
        if spec.locomotion_speed_cm_s <= 0 or spec.actuation_speed_deg_s <= 0:
            raise UnsupportedDirective(f"{kind.value} cannot turn")
        return Action(_TURN_IMPL[kind], abs(directive.angle_deg) / spec.actuation_speed_deg_s)
    if isinstance(directive, ActuateJoint):
        limit = (spec.bend_limit_deg if directive.joint is Joint.BEND
                 else spec.rotation_limit_deg)
        if limit <= 0 or spec.actuation_speed_deg_s <= 0:
            raise UnsupportedDirective(f"{kind.value} has no {directive.joint.value} joint")
        duration = abs(directive.target_deg - current_angle_deg) / spec.actuation_speed_deg_s
        return Action(f"{directive.joint.value}-actuate", duration)
    if isinstance(directive, (LiftChain, LowerChain)):
        if spec.bend_limit_deg <= 0 or spec.actuation_speed_deg_s <= 0:
            raise UnsupportedDirective(f"{kind.value} cannot lift")
        return Action("lift-actuate", None)
    if isinstance(directive, DockWith):
        return Action("approach-dock", None)
    if isinstance(directive, Undock):
        return Action("unlock", 0.0)
    if isinstance(directive, SetSharing):
        return Action("sharing-switch", 0.0)
    if isinstance(directive, Broadcast):
        return Action("radio-broadcast", 0.0)
    if isinstance(directive, Wait):
        return Action("wait", directive.ticks * config.dt)
    raise UnsupportedDirective(f"unknown directive {directive!r}")


# -- sensor memory ---------------------------------------------------------

@dataclass(frozen=True)
class PortView:
    index: int
    state: str
    peer: Optional[str]


@dataclass(frozen=True)
class ReceivedMessage:
    src: str
    payload: str


@dataclass(frozen=True)
class ModuleSnapshot:
    """What one module knows about itself and its surroundings."""

    module_id: str
    kind: ModuleKind
    x: float
    y: float
    heading_deg: int
    fallen_port: Optional[int]
    soc: float
    sharing_on: bool
    off_ground: bool
    busy: bool
    joint_bend_deg: float
    joint_rotation_deg: float
    ports: tuple[PortView, ...]
    messages: tuple[ReceivedMessage, ...]

    @property
    def upright(self) -> bool:
        return self.fallen_port is None

    def free_ports(self) -> list[int]:
        return [p.index for p in self.ports if p.state == PortState.FREE.value]

    def locked_ports(self) -> list[int]:
        return [p.index for p in self.ports if p.state == PortState.LOCKED.value]


class SensorMemory:
    """Per-module observation snapshots, refreshed once per tick."""

    def __init__(self) -> None:
        self.snapshots: dict[str, ModuleSnapshot] = {}

    def get(self, module_id: str) -> ModuleSnapshot:
        return self.snapshots[module_id]

    def refresh(self, world: World, busy: set[str],
                inboxes: dict[str, list[ReceivedMessage]]) -> None:
        snapshots = {}
        for mid in sorted(world.modules):
            st = world.modules[mid]
            snapshots[mid] = ModuleSnapshot(
                module_id=mid,
                kind=st.kind,
                x=st.pose.x,
                y=st.pose.y,
                heading_deg=st.pose.heading_deg,
                fallen_port=st.posture.fallen_port,
                soc=st.soc,
                sharing_on=st.sharing_on,
                off_ground=st.off_ground,
                busy=mid in busy,
                joint_bend_deg=st.joint_bend_deg,
                joint_rotation_deg=st.joint_rotation_deg,
                ports=tuple(
                    PortView(i, p.state.value, p.peer) for i, p in enumerate(st.ports)
                ),
                messages=tuple(inboxes.get(mid, ())),
            )
        self.snapshots = snapshots


# -- event log ---------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, ModuleKind):
        return value.value
    return value


@dataclass(frozen=True)
class Event:
    tick: int
    t: float
    event: str
    subjects: tuple[str, ...]
    data: dict

    def to_json(self) -> str:
        record = {
            "tick": self.tick,
            "t": round(self.t, 9),
            "event": self.event,
            "subjects": list(self.subjects),
            "data": _jsonable(self.data),
        }
        return json.dumps(record, separators=(",", ":"))


class EventLog:
    """Append-only, deterministic trace of a run."""

    def __init__(self) -> None:
        self.records: list[Event] = []

    def append(self, event: Event) -> None:
        if self.records and event.tick < self.records[-1].tick:
            raise ValueError("event log ticks must be non-decreasing")
        self.records.append(event)

    def events_named(self, name: str) -> list[Event]:
        return [e for e in self.records if e.event == name]

    def names(self) -> list[str]:
        return [e.event for e in self.records]

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.records)


# -- scenario scripts ---------------------------------------------------------

BUILTIN_SCENARIOS = ("assembly", "rescue")


@dataclass
class TimelineEntry:
    tick: int
    module_id: str
    directive: Directive


@dataclass
class ScenarioScript:
    """Declarative input of one run: initial layout plus scripted directives,
    or the name of a built-in experiment."""

    builtin: Optional[str] = None
    modules: list[dict] = field(default_factory=list)
    connections: list[dict] = field(default_factory=list)
    timeline: list[TimelineEntry] = field(default_factory=list)
    dt: Optional[float] = None
    max_ticks: int = 10_000
    shed_policy: str = "halt"  # "halt" | "shed"
    params: dict = field(default_factory=dict)


def json_bool(value: object) -> bool:
    """``value`` if it is a JSON ``true`` or ``false``.

    Anything else is refused rather than coerced: ``bool("false")`` is True.
    """
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


_DIRECTIVE_PARSERS: dict[str, Callable[[dict], Directive]] = {
    "move": lambda d: Move(float(d["distance"])),
    "turn": lambda d: Turn(int(d["angle"])),
    "dock_with": lambda d: DockWith(
        str(d["peer"]), int(d["own_port"]), int(d["peer_port"]),
        int(d.get("orientation", 0))),
    "undock": lambda d: Undock(int(d["port"])),
    "actuate_joint": lambda d: ActuateJoint(Joint(d["joint"]), float(d["target"])),
    "set_sharing": lambda d: SetSharing(json_bool(d["on"])),
    "lift_chain": lambda d: LiftChain(tuple(str(m) for m in d["chain"])),
    "lower_chain": lambda d: LowerChain(),
    "broadcast": lambda d: Broadcast(str(d.get("payload", ""))),
    "wait": lambda d: Wait(int(d["ticks"])),
}


def directive_from_dict(raw: dict) -> Directive:
    """Parse one timeline directive from its JSON form."""
    try:
        kind = raw["type"]
    except (TypeError, KeyError):
        raise ValueError(f"directive needs a 'type' field: {raw!r}")
    parser = _DIRECTIVE_PARSERS.get(kind)
    if parser is None:
        raise ValueError(f"unknown directive type {kind!r}")
    try:
        return parser(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {kind} directive {raw!r}: {exc}") from exc
