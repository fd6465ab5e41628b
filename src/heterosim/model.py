"""Platform catalogue, per-module state, and the organism topology graph.

Four module kinds exist. Scout, Backbone and Active Wheel are fixed
platforms whose published characteristics live in a lookup table; Passive
blocks are a parameterized family (payload packs, extra ports) built via
:func:`passive_spec`. Docked modules form an undirected graph whose
connected components are the organisms.
"""
from __future__ import annotations

import math
import random
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .config import DEFAULT_CONFIG, Record, SimConfig


class ModuleKind(Enum):
    SCOUT = "scout"
    BACKBONE = "backbone"
    ACTIVE_WHEEL = "active_wheel"
    PASSIVE = "passive"


class BatteryModel(Record, frozen=True):
    """Six-cell LiPo pack common to the active platforms.

    Open-circuit voltage is a linear function of state of charge between the
    empty and full cell voltages; the nominal 22.2 V sits on that line.
    Construction derives ``span`` (``v_full - v_empty``) and ``conductance``
    (``1 / internal_resistance``): plain attributes, not fields, for the bus.
    """

    cells: int = 6
    energy_full_wh: float = 33.0
    v_full: float = 25.2
    v_empty: float = 19.8
    internal_resistance: float = 0.1  # ohms

    def __post_init__(self) -> None:
        if not self.energy_full_wh >= 0:
            raise ValueError(f"battery energy must be >= 0 Wh, got {self.energy_full_wh}")
        if not self.v_full >= self.v_empty:
            raise ValueError(f"v_full must be >= v_empty, got {self.v_full} and {self.v_empty}")
        if not self.internal_resistance > 0:
            raise ValueError(f"internal resistance must be > 0 ohm, got {self.internal_resistance}")
        object.__setattr__(self, "span", self.v_full - self.v_empty)
        object.__setattr__(self, "conductance", 1.0 / self.internal_resistance)

    def voltage(self, soc: float) -> float:
        if not 0.0 <= soc <= 1.0:
            raise ValueError(f"soc out of range [0, 1]: {soc}")
        return self.v_empty + soc * self.span


#: Battery fitted to Scout, Backbone and Active Wheel.
STANDARD_BATTERY = BatteryModel()

#: Placeholder pack for passive blocks without their own energy store.
NO_BATTERY = BatteryModel(cells=0, energy_full_wh=0.0)

#: The most docking ports a module may have: one per face of a cube.
MAX_PORTS = 6


class ModuleSpec(Record, frozen=True):
    """Immutable published characteristics of one platform."""

    kind: ModuleKind
    locomotion_speed_cm_s: float
    num_ports: int
    bend_limit_deg: float        # symmetric limit; 0 means no bend joint
    rotation_limit_deg: float    # symmetric limit; 0 means no rotation joint
    max_torque_nm: float
    actuation_speed_deg_s: float
    mass_kg: float
    compute_mips: int
    battery: BatteryModel
    can_actively_lock: bool

    def __post_init__(self) -> None:
        for name in ("locomotion_speed_cm_s", "num_ports", "bend_limit_deg",
                     "rotation_limit_deg", "max_torque_nm", "actuation_speed_deg_s",
                     "mass_kg", "compute_mips"):
            if not (value := getattr(self, name)) >= 0:
                raise ValueError(f"module spec field {name} must be non-negative, got {value}")
        if self.num_ports < 1:
            raise ValueError("a module has at least one docking port")
        if self.num_ports > MAX_PORTS:
            raise ValueError(f"a module has at most {MAX_PORTS} docking ports")


_ACTIVE_MIPS = 3100

_SPECS: dict[ModuleKind, ModuleSpec] = {
    ModuleKind.SCOUT: ModuleSpec(
        kind=ModuleKind.SCOUT,
        locomotion_speed_cm_s=12.5,
        num_ports=4,
        bend_limit_deg=90.0,
        rotation_limit_deg=180.0,
        max_torque_nm=4.0,
        actuation_speed_deg_s=37.2,
        mass_kg=1.0,
        compute_mips=_ACTIVE_MIPS,
        battery=STANDARD_BATTERY,
        can_actively_lock=True,
    ),
    ModuleKind.BACKBONE: ModuleSpec(
        kind=ModuleKind.BACKBONE,
        locomotion_speed_cm_s=6.0,
        num_ports=4,
        bend_limit_deg=90.0,
        rotation_limit_deg=90.0,
        max_torque_nm=7.0,
        actuation_speed_deg_s=90.0,
        mass_kg=1.0,
        compute_mips=_ACTIVE_MIPS,
        battery=STANDARD_BATTERY,
        can_actively_lock=True,
    ),
    ModuleKind.ACTIVE_WHEEL: ModuleSpec(
        kind=ModuleKind.ACTIVE_WHEEL,
        locomotion_speed_cm_s=31.0,
        num_ports=2,
        bend_limit_deg=180.0,
        rotation_limit_deg=180.0,
        max_torque_nm=5.0,
        actuation_speed_deg_s=50.0,
        mass_kg=1.55,
        compute_mips=_ACTIVE_MIPS,
        battery=STANDARD_BATTERY,
        can_actively_lock=True,
    ),
    ModuleKind.PASSIVE: ModuleSpec(
        kind=ModuleKind.PASSIVE,
        locomotion_speed_cm_s=0.0,
        num_ports=1,
        bend_limit_deg=0.0,
        rotation_limit_deg=0.0,
        max_torque_nm=0.0,
        actuation_speed_deg_s=0.0,
        mass_kg=1.0,
        compute_mips=0,
        battery=NO_BATTERY,
        can_actively_lock=False,
    ),
}


def spec_for(kind: ModuleKind) -> ModuleSpec:
    """Pure lookup of the published spec for a platform kind.

    For :data:`ModuleKind.PASSIVE` this returns the default parameterization;
    use :func:`passive_spec` to build customized passive blocks.
    """
    return _SPECS[kind]


def passive_spec(
    num_ports: int = 1,
    mass_kg: float = 1.0,
    compute_mips: int = 0,
    energy_wh: float = 0.0,
    can_actively_lock: bool = False,
) -> ModuleSpec:
    """Build the spec of a passive block (payload pack, structural element)."""
    battery = NO_BATTERY if energy_wh == 0 else STANDARD_BATTERY.replace(
        energy_full_wh=energy_wh)
    return _SPECS[ModuleKind.PASSIVE].replace(
        num_ports=num_ports,
        mass_kg=mass_kg,
        compute_mips=compute_mips,
        battery=battery,
        can_actively_lock=can_actively_lock,
    )


HEADINGS = (0, 90, 180, 270)

#: The farthest a module may start from the origin along x or y: 1,000 km.
#: Distances between modules stay finite; a float there resolves under 1 nm.
MAX_COORD_M = 1e6


class Pose(Record):
    """Planar position in meters plus a 90-degree-quantized heading."""

    def __init__(self, x: float = 0.0, y: float = 0.0, heading_deg: int = 0) -> None:
        if heading_deg not in HEADINGS:
            raise ValueError(f"heading must be one of {HEADINGS}: {heading_deg}")
        if not (abs(x) <= MAX_COORD_M and abs(y) <= MAX_COORD_M):
            raise ValueError(f"|x| and |y| must be at most {MAX_COORD_M:g} m: {x}, {y}")
        self.x, self.y, self.heading_deg = x, y, heading_deg


class Posture(NamedTuple):
    """Upright, or lying on the face that carries port ``fallen_port``."""

    fallen_port: Optional[int] = None

    @property
    def upright(self) -> bool:
        return self.fallen_port is None


UPRIGHT = Posture()


ORIENTATIONS = (0, 90, 180, 270)


def inverse_orientation(orientation_deg: int) -> int:
    """Relative orientation seen from the other side of a connection."""
    return (360 - orientation_deg) % 360


class DockConnection(Record, frozen=True):
    """A locked port-to-port link; one undirected edge of the organism graph.

    Stored in canonical order: ``(module_a, port_a)`` is the lexicographically
    smaller endpoint, so the same physical link always compares equal no
    matter which side named it first.
    """

    def __init__(self, module_a: str, port_a: int, module_b: str, port_b: int,
                 orientation_deg: int = 0) -> None:
        if orientation_deg not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        if (module_b, port_b) < (module_a, port_a):
            module_a, port_a, module_b, port_b = module_b, port_b, module_a, port_a
            orientation_deg = inverse_orientation(orientation_deg)
        assign = object.__setattr__  # the class's own refuses: it is frozen
        assign(self, "module_a", module_a)
        assign(self, "port_a", port_a)
        assign(self, "module_b", module_b)
        assign(self, "port_b", port_b)
        assign(self, "orientation_deg", orientation_deg)

    @property
    def key(self) -> tuple[str, int, str, int]:
        return (self.module_a, self.port_a, self.module_b, self.port_b)

    def endpoints(self) -> tuple[tuple[str, int], tuple[str, int]]:
        return ((self.module_a, self.port_a), (self.module_b, self.port_b))

    def other(self, module_id: str) -> str:
        if module_id == self.module_a:
            return self.module_b
        if module_id == self.module_b:
            return self.module_a
        raise KeyError(f"{module_id} is not an endpoint of {self.key}")


class ModuleState(Record):
    """One robot's mutable situation; its lifter, if any, is in ``World.lifted``."""

    def __init__(self, module_id: str, kind: ModuleKind, spec: ModuleSpec, pose: Pose,
                 posture: Posture = UPRIGHT, joint_bend_deg: float = 0.0,
                 joint_rotation_deg: float = 0.0, soc: float = 1.0, sharing_on: bool = True,
                 load_draw_w: float = 0.0,
                 ports: Optional[list[Optional[DockConnection]]] = None,  # None: unlocked port
                 # Engine-managed: joint turn since this module last lifted; righting owed.
                 lift_turn_deg: float = 0.0, pending_righting: bool = False) -> None:
        if not 0.0 <= soc <= 1.0:
            raise ValueError(f"soc out of range [0, 1]: {soc}")
        if not abs(joint_bend_deg) <= spec.bend_limit_deg:
            raise ValueError("joint_bend outside spec limit")
        if not abs(joint_rotation_deg) <= spec.rotation_limit_deg:
            raise ValueError("joint_rotation outside spec limit")
        self.module_id, self.kind, self.spec, self.pose = module_id, kind, spec, pose
        self.posture, self.joint_bend_deg = posture, joint_bend_deg
        self.joint_rotation_deg, self.soc, self.sharing_on = joint_rotation_deg, soc, sharing_on
        self.load_draw_w, self.ports = load_draw_w, ports or [None] * spec.num_ports
        self.lift_turn_deg, self.pending_righting = lift_turn_deg, pending_righting

    @property
    def stored_wh(self) -> float:
        return self.soc * self.spec.battery.energy_full_wh

    def set_stored_wh(self, wh: float) -> None:
        cap = self.spec.battery.energy_full_wh
        if cap <= 0:
            return
        self.soc = min(1.0, max(0.0, wh / cap))

    @property
    def alive(self) -> bool:
        """False once an on-board pack is fully drained; battery-less
        passive blocks are always considered powered (they run off the bus)."""
        if self.spec.battery.energy_full_wh <= 0:
            return True
        return self.soc > 0.0


#: The organisms sorted by smallest member, each member's organism, each one's largest v_full.
_Organisms = tuple[list[tuple[str, ...]], dict[str, tuple[str, ...]], dict[tuple[str, ...], float]]


class World:
    """All modules plus their docked connections at one instant.

    A world is owned by exactly one simulation run; every mutator works in
    place and returns the world for chaining. The organisms, with each one's
    largest pack ``v_full`` (its bus reserve and headroom), are cached and
    rebuilt on the first query after ``add_module``, ``add_connection`` or
    ``remove_connection``, so ``modules`` and ``connections`` must only be
    changed through those, and a module's pack is fixed once it is added.
    ``lifted`` maps each module off the ground to its lifter, in chain
    order, and ``claims`` maps each port an approach holds to its (state,
    peer); the engine keeps both.
    """

    def __init__(self, config: SimConfig | None = None):
        self.config = config or DEFAULT_CONFIG
        self.modules: dict[str, ModuleState] = {}
        self.connections: dict[tuple[str, int, str, int], DockConnection] = {}
        self.tick: int = 0
        self.lifted: dict[str, str] = {}
        self.claims: dict[tuple[str, int], tuple[str, str]] = {}
        # Cumulative energy accounting, kept by the power subsystem.
        self.delivered_load_wh: float = 0.0
        self.resistive_loss_wh: float = 0.0
        # Only the wireless loss hook draws from this; with the default
        # drop probability of 0 no randomness is consumed at all.
        self.rng = random.Random(self.config.random_seed)
        # None until queried after the last topology mutation.
        self._organisms: Optional[_Organisms] = None

    # -- construction -----------------------------------------------------

    def add_module(
        self,
        module_id: str,
        kind: ModuleKind,
        pos: tuple[float, float] = (0.0, 0.0),
        heading_deg: int = 0,
        soc: float = 1.0,
        sharing_on: bool = True,
        spec: ModuleSpec | None = None,
        posture: Posture = UPRIGHT,
    ) -> ModuleState:
        if module_id in self.modules:
            raise ValueError(f"duplicate module id: {module_id}")
        if spec is None:
            spec = spec_for(kind)
            if kind is ModuleKind.SCOUT and self.config.scout_max_torque_nm != spec.max_torque_nm:
                spec = spec.replace(max_torque_nm=self.config.scout_max_torque_nm)
        if spec.kind is not kind:
            raise ValueError("spec kind does not match module kind")
        state = ModuleState(
            module_id=module_id,
            kind=kind,
            spec=spec,
            pose=Pose(pos[0], pos[1], heading_deg),
            soc=soc,
            sharing_on=sharing_on,
            posture=posture,
        )
        if not posture.upright and not 0 <= posture.fallen_port < spec.num_ports:
            raise ValueError(f"fallen_port out of range for {module_id}")
        self.modules[module_id] = state
        self._organisms = None
        return state

    # -- connection bookkeeping -------------------------------------------

    def add_connection(self, conn: DockConnection) -> None:
        for mid, port in conn.endpoints():
            if self.modules[mid].ports[port] is not None:
                raise ValueError(f"port {port} of {mid} already carries a connection")
        self.connections[conn.key] = conn
        self._organisms = None
        for mid, port in conn.endpoints():
            self.modules[mid].ports[port] = conn

    def remove_connection(self, key: tuple[str, int, str, int]) -> DockConnection:
        conn = self.connections.pop(key)
        self._organisms = None
        for mid, port in conn.endpoints():
            self.modules[mid].ports[port] = None
        return conn

    def connection_at(self, module_id: str, port: int) -> DockConnection | None:
        return self.modules[module_id].ports[port]

    def port_busy(self, module_id: str, port: int) -> bool:
        """Whether the port is locked or claimed by an approach."""
        return self.modules[module_id].ports[port] is not None \
            or (module_id, port) in self.claims

    # -- topology queries ---------------------------------------------------

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {mid: [] for mid in self.modules}
        for conn in self.connections.values():
            adj[conn.module_a].append(conn.module_b)
            adj[conn.module_b].append(conn.module_a)
        for neighbors in adj.values():
            neighbors.sort()
        return adj

    def organism_of(self, module_id: str) -> tuple[str, ...]:
        return self._index()[1][module_id]  # KeyError for an unknown module

    def _index(self) -> _Organisms:
        """The cached organisms and member map, rebuilt if a mutator ran."""
        if self._organisms is None:
            adj, modules = self.adjacency(), self.modules
            organism: dict[str, tuple[str, ...]] = {}
            components: list[tuple[str, ...]] = []
            v_full: dict[tuple[str, ...], float] = {}
            # Each walk starts at the smallest id not yet placed, which is
            # its organism's smallest member: the list comes out sorted.
            for start in sorted(modules):
                if start in organism:
                    continue
                group = {start}
                frontier = [start]
                while frontier:
                    current = frontier.pop()
                    for nxt in adj[current]:
                        if nxt not in group:
                            group.add(nxt)
                            frontier.append(nxt)
                members = tuple(sorted(group))
                for mid in members:
                    organism[mid] = members
                components.append(members)
                v_full[members] = max([modules[mid].spec.battery.v_full for mid in members])
            self._organisms = (components, organism, v_full)
        return self._organisms

    def lifted_chain(self, lifter: str) -> tuple[str, ...]:
        return tuple(mid for mid, by in self.lifted.items() if by == lifter)

    def distance(self, a: str, b: str) -> float:
        pa, pb = self.modules[a].pose, self.modules[b].pose
        return math.hypot(pa.x - pb.x, pa.y - pb.y)

    def check_port_exclusivity(self) -> None:
        """Raise ``AssertionError`` if a port carries two connections (only a
        direct write to ``connections`` can: ``add_connection`` refuses it)."""
        seen: set[tuple[str, int]] = set()
        for conn in self.connections.values():
            for endpoint in conn.endpoints():
                if endpoint in seen:
                    raise AssertionError(f"port {endpoint} carries two connections")
                seen.add(endpoint)


def connected_components(world: World) -> list[tuple[str, ...]]:
    """Organisms of the world: connected components of the docking graph.

    Every module appears in exactly one component; a lone module is a
    singleton organism. Components are sorted by their smallest member id,
    members sorted within each component. The list is the caller's own.
    """
    return list(world._index()[0])


def total_compute(world: World, organism: Iterable[str]) -> int:
    """Combined compute capacity of an organism, in MIPS."""
    members = list(organism)
    if not members:
        raise ValueError("organism must be nonempty")
    return sum(world.modules[mid].spec.compute_mips for mid in members)
