"""Connection lifecycle: compatibility checks, locking, and release.

The docking hardware is genderless and 90-degree symmetric, so a
compatibility query gives the same answer from either side of the pair and
for every quarter-turn orientation. A locked link is held by a self-locking
worm gear and therefore consumes exactly zero power to maintain; only the
lock transition itself costs a small, configurable amount of energy.
"""
from __future__ import annotations

from enum import Enum

from .model import (
    DockConnection,
    ModuleKind,
    ORIENTATIONS,
    World,
    inverse_orientation,
)


class DockRejection(Enum):
    PORT_BUSY = "PortBusy"
    SHAPE_INCOMPATIBLE = "ShapeIncompatible"
    NO_ACTIVE_LOCKER = "NoActiveLocker"
    BAD_ORIENTATION = "BadOrientation"
    SELF_DOCK = "SelfDock"


class DockingError(Exception):
    pass


class DockRejected(DockingError):
    def __init__(self, reason: DockRejection):
        super().__init__(f"dock rejected: {reason.value}")
        self.reason = reason


class NotAdjacent(DockingError):
    def __init__(self, distance: float, limit: float):
        super().__init__(f"modules {distance:.4f} m apart, limit {limit:.4f} m")
        self.distance = distance
        self.limit = limit


class NoSuchConnection(DockingError):
    pass


def can_dock(
    world: World,
    a: str,
    port_a: int,
    b: str,
    port_b: int,
    orientation_deg: int,
) -> DockRejection | None:
    """Check whether two ports may be joined; ``None`` means ok.

    The check is symmetric in its arguments: swapping the sides (and
    inverting the orientation) never changes the answer. A port whose face
    rests on the ground still accepts a dock from a peer, but two
    ground-facing ports can never meet.
    """
    if a == b:
        return DockRejection.SELF_DOCK
    mod_a, mod_b = world.modules[a], world.modules[b]
    if not 0 <= port_a < mod_a.spec.num_ports:
        raise IndexError(f"port {port_a} invalid for {a} ({mod_a.spec.num_ports} ports)")
    if not 0 <= port_b < mod_b.spec.num_ports:
        raise IndexError(f"port {port_b} invalid for {b} ({mod_b.spec.num_ports} ports)")
    if orientation_deg not in ORIENTATIONS:
        return DockRejection.BAD_ORIENTATION
    if mod_a.kind is ModuleKind.ACTIVE_WHEEL and mod_b.kind is ModuleKind.ACTIVE_WHEEL:
        return DockRejection.SHAPE_INCOMPATIBLE
    if world.port_busy(a, port_a) or world.port_busy(b, port_b):
        return DockRejection.PORT_BUSY
    if mod_a.posture.fallen_port == port_a and mod_b.posture.fallen_port == port_b:
        return DockRejection.PORT_BUSY
    if not (mod_a.spec.can_actively_lock or mod_b.spec.can_actively_lock):
        return DockRejection.NO_ACTIVE_LOCKER
    return None


def dock(
    world: World,
    a: str,
    port_a: int,
    b: str,
    port_b: int,
    orientation_deg: int,
) -> World:
    """Lock two adjacent modules together.

    Electrical continuity (power bus and wired messaging) exists from the
    same step onward. The lock motor's one-shot energy cost is debited from
    the actively-locking side (the lower module id when both can lock).

    Raises :class:`DockRejected` on a failed compatibility check and
    :class:`NotAdjacent` when the centers are too far apart.
    """
    reason = can_dock(world, a, port_a, b, port_b, orientation_deg)
    if reason is not None:
        raise DockRejected(reason)
    limit = world.config.dock_reach_m
    distance = world.distance(a, b)
    if distance > limit:
        raise NotAdjacent(distance, limit)
    conn = DockConnection(a, port_a, b, port_b, orientation_deg)
    world.add_connection(conn)
    _debit_lock_energy(world, a, b)
    world.check_port_exclusivity()
    return world


def _debit_lock_energy(world: World, a: str, b: str) -> None:
    lockers = sorted(
        mid for mid in (a, b)
        if world.modules[mid].spec.can_actively_lock
        and world.modules[mid].spec.battery.energy_full_wh > 0
    )
    if not lockers:
        return
    payer = world.modules[lockers[0]]
    cost_wh = min(world.config.lock_energy_j / 3600.0, payer.stored_wh)
    payer.set_stored_wh(payer.stored_wh - cost_wh)
    world.delivered_load_wh += cost_wh


def undock(world: World, connection: DockConnection | tuple[str, int, str, int]) -> World:
    """Release a locked connection; both ports return to free."""
    key = connection.key if isinstance(connection, DockConnection) else tuple(connection)
    if key not in world.connections:
        raise NoSuchConnection(f"no locked connection {key}")
    world.remove_connection(key)
    world.check_port_exclusivity()
    return world


def holding_power(connection: DockConnection) -> float:
    """Power needed to hold a locked connection: exactly zero, always.

    The worm-gear lock is self-holding, so a closed link never contributes
    to any energy step.
    """
    return 0.0


__all__ = [
    "DockRejection",
    "DockingError",
    "DockRejected",
    "NotAdjacent",
    "NoSuchConnection",
    "can_dock",
    "dock",
    "undock",
    "holding_power",
    "inverse_orientation",
]
