"""Directive vocabulary, kind dispatch, sensor memory, and the event log.

Controllers talk to modules through a small set of common directives;
``dispatch`` maps each one onto the platform's concrete implementation
(track drive, screw drive, omni drive) and rejects pairs the platform
cannot perform. It returns an implementation, not a duration: the engine
times every directive. Controllers never read the world directly: they read
sensor memory, which builds a module's snapshot when asked, from the world
as it stands at the start of the tick. That gives every observation the
engine makes a one-tick delay, while a change made to the world from
outside between two ``step`` calls is seen by the next tick's controllers.
"""
from __future__ import annotations

import json
import math
import sys
from typing import Callable, NamedTuple, Optional, Union

from .config import Record
from .mechanics import Joint
from .model import ModuleKind, ModuleSpec, World


class UnsupportedDirective(Exception):
    pass


class Move(NamedTuple):
    distance_m: float


class Turn(NamedTuple):
    angle_deg: int  # +/-90 or +/-180


class DockWith(NamedTuple):
    peer: str
    own_port: int
    peer_port: int
    orientation_deg: int = 0


class Undock(NamedTuple):
    port: int


class ActuateJoint(NamedTuple):
    joint: Joint
    target_deg: float


class SetSharing(NamedTuple):
    on: bool


class LiftChain(NamedTuple):
    chain: tuple[str, ...]


class LowerChain(NamedTuple):
    pass


class Broadcast(NamedTuple):
    payload: str


class Wait(NamedTuple):
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


def dispatch(spec: ModuleSpec, directive: Directive) -> Optional[str]:
    """The platform's implementation of a ``Move`` or ``Turn``, whose start
    events name it, or ``None`` for another directive; the engine times them
    all. Raises :class:`UnsupportedDirective` for pairs the platform cannot
    perform (locomotion or joints on a passive block)."""
    kind = spec.kind
    if isinstance(directive, Move):
        if spec.locomotion_speed_cm_s <= 0:
            raise UnsupportedDirective(f"{kind.value} cannot move")
        if directive.distance_m < 0:
            raise UnsupportedDirective("move distance must be >= 0")
        return _DRIVE_IMPL[kind]
    if isinstance(directive, Turn):
        if directive.angle_deg not in (90, -90, 180, -180):
            raise UnsupportedDirective("turn angle must be +/-90 or +/-180")
        if kind is not ModuleKind.ACTIVE_WHEEL and (
                spec.locomotion_speed_cm_s <= 0 or spec.actuation_speed_deg_s <= 0):
            raise UnsupportedDirective(f"{kind.value} cannot turn")
        return _TURN_IMPL[kind]
    if isinstance(directive, ActuateJoint):
        limit = (spec.bend_limit_deg if directive.joint is Joint.BEND
                 else spec.rotation_limit_deg)
        if limit <= 0 or spec.actuation_speed_deg_s <= 0:
            raise UnsupportedDirective(f"{kind.value} has no {directive.joint.value} joint")
    elif isinstance(directive, (LiftChain, LowerChain)):
        if spec.bend_limit_deg <= 0 or spec.actuation_speed_deg_s <= 0:
            raise UnsupportedDirective(f"{kind.value} cannot lift")
    elif not isinstance(directive, (DockWith, Undock, SetSharing, Broadcast, Wait)):
        raise UnsupportedDirective(f"unknown directive {directive!r}")
    return None


# -- sensor memory ---------------------------------------------------------

class PortView(NamedTuple):
    index: int
    state: str
    peer: Optional[str]


class ReceivedMessage(NamedTuple):
    src: str
    payload: str


class ModuleSnapshot(NamedTuple):
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
        return [p.index for p in self.ports if p.state == "free"]


class SensorMemory:
    """Each module's view of the world at the start of the tick.

    ``refresh`` only records the world, the busy modules and the inboxes,
    which the caller does not change afterwards; ``get`` builds a snapshot
    from them. Controllers read first in a tick, so the world they see is
    the one the previous tick left, plus any change made from outside
    between two ``step`` calls. A module is busy while it has an activity
    and on the tick after one started, even one that ended in that tick.
    """

    def get(self, module_id: str) -> ModuleSnapshot:
        """The snapshot of ``module_id``. A port reads locked while it has a
        connection, else its approach claim, else disabled if it is free
        and faces the ground."""
        world = self._world
        st = world.modules[module_id]
        fallen = st.posture.fallen_port
        ports = []
        for i, conn in enumerate(st.ports):
            claim = world.claims.get((module_id, i))
            if conn is not None:
                ports.append(PortView(i, "locked", conn.other(module_id)))
            elif claim is not None:
                ports.append(PortView(i, *claim))
            else:
                ports.append(PortView(i, "disabled" if i == fallen else "free", None))
        return ModuleSnapshot(
            module_id=module_id, kind=st.kind, x=st.pose.x, y=st.pose.y,
            heading_deg=st.pose.heading_deg, fallen_port=fallen,
            soc=st.soc, sharing_on=st.sharing_on, off_ground=module_id in world.lifted,
            busy=module_id in self._busy, joint_bend_deg=st.joint_bend_deg,
            joint_rotation_deg=st.joint_rotation_deg, ports=tuple(ports),
            messages=tuple(self._inboxes.get(module_id, ())),
        )

    def refresh(self, world: World, busy: set[str],
                inboxes: dict[str, list[ReceivedMessage]]) -> None:
        self._world = world
        self._busy = busy
        self._inboxes = inboxes


# -- event log ---------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Event(NamedTuple):
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

class TimelineEntry(NamedTuple):
    tick: int
    module_id: str
    directive: Directive


class ScenarioScript(Record):
    """Declarative input of one run: initial layout plus scripted directives,
    or the name of a built-in experiment."""

    builtin: Optional[str] = None
    modules: list[dict] = []  # see cli._module_kwargs
    connections: list[dict] = []
    timeline: list[TimelineEntry] = []
    dt: Optional[float] = None
    max_ticks: int = 10_000
    shed_policy: str = "halt"  # "halt" | "shed"
    params: dict = {}


def json_bool(value: object, what: str = "value") -> bool:
    """``value`` if it is a JSON ``true`` or ``false``.

    Anything else is refused rather than coerced: ``bool("false")`` is True.
    """
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def json_number(value: object, what: str = "value") -> float:
    """``value`` as a float if it is a finite JSON number.

    Strings are refused rather than parsed, as :func:`json_bool` refuses
    them; ``json.loads`` accepts ``NaN`` and ``Infinity``, so those are
    refused here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def json_int(value: object, what: str = "value") -> int:
    """``value`` if it is a JSON integer; booleans and ``2.0`` are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_str(value: object, what: str = "value") -> str:
    """``value`` if it is a JSON string; numbers, lists and objects are
    refused rather than passed through ``str()``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _wait(d: dict) -> Wait:
    """A wait whose ``ticks`` is >= 0 and small enough to become a float."""
    ticks = json_int(d["ticks"], "'ticks'")
    if not 0 <= ticks <= sys.float_info.max:
        raise ValueError(f"'ticks' must be >= 0 and at most {sys.float_info.max}")
    return Wait(ticks)


def _lift_chain(d: dict) -> LiftChain:
    chain = d["chain"]
    if not isinstance(chain, list):
        raise ValueError(f"'chain' must be a list, got {chain!r}")
    return LiftChain(tuple(json_str(m, "'chain' member") for m in chain))


_DIRECTIVE_PARSERS: dict[str, Callable[[dict], Directive]] = {
    "move": lambda d: Move(json_number(d["distance"], "'distance'")),
    "turn": lambda d: Turn(json_int(d["angle"], "'angle'")),
    "dock_with": lambda d: DockWith(
        json_str(d["peer"], "'peer'"), json_int(d["own_port"], "'own_port'"),
        json_int(d["peer_port"], "'peer_port'"),
        json_int(d.get("orientation", 0), "'orientation'")),
    "undock": lambda d: Undock(json_int(d["port"], "'port'")),
    "actuate_joint": lambda d: ActuateJoint(
        Joint(d["joint"]), json_number(d["target"], "'target'")),
    "set_sharing": lambda d: SetSharing(json_bool(d["on"], "'on'")),
    "lift_chain": _lift_chain,
    "lower_chain": lambda d: LowerChain(),
    "broadcast": lambda d: Broadcast(json_str(d.get("payload", ""), "'payload'")),
    "wait": _wait,
}


def directive_from_dict(raw: dict) -> Directive:
    """Parse one timeline directive from its JSON form."""
    try:
        kind = raw["type"]
    except (TypeError, KeyError):
        raise ValueError(f"directive needs a 'type' field: {raw!r}")
    json_str(kind, "directive 'type'")
    parser = _DIRECTIVE_PARSERS.get(kind)
    if parser is None:
        raise ValueError(f"unknown directive type {kind!r}")
    try:
        return parser(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {kind} directive {raw!r}: {exc}") from exc
