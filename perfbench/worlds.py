"""Build heterosim worlds and engines from the inputs in ``inputs.py``.

Worlds are built only through the public API: ``World.add_module``,
``World.add_connection``, ``Engine(...)`` and the directive classes.
"""
from __future__ import annotations

from heterosim.engine import Engine
from heterosim.model import DockConnection, ModuleKind, World
from heterosim.scenario import Broadcast, DockWith, Move, SetSharing, TimelineEntry, Undock

_DIRECTIVES = {
    "dock_with": DockWith,
    "undock": Undock,
    "set_sharing": SetSharing,
    "broadcast": Broadcast,
}

_CONVOY_KINDS = (ModuleKind.ACTIVE_WHEEL, ModuleKind.BACKBONE,
                 ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL)


def build_convoy(inputs: dict) -> tuple[World, Engine]:
    """The convoy world and its engine, with every organism's Move queued
    for tick 0."""
    world = World()
    pitch = world.config.module_pitch
    timeline = []
    for org in inputs["organisms"]:
        x0, y0 = org["origin"]
        ids = org["ids"]
        for k, (mid, kind) in enumerate(zip(ids, _CONVOY_KINDS)):
            world.add_module(mid, kind, pos=((x0 + k) * pitch, y0 * pitch),
                             heading_deg=org["heading"], soc=org["soc"][k])
        world.add_connection(DockConnection(ids[0], 0, ids[1], 3))
        world.add_connection(DockConnection(ids[1], 1, ids[2], 3))
        world.add_connection(DockConnection(ids[2], 1, ids[3], 0))
        timeline.append(TimelineEntry(0, ids[org["mover"]], Move(1000.0)))
    return world, Engine(world, timeline=timeline, max_ticks=inputs["ticks"])


def build_bus_world(spec: dict, ticks: int) -> tuple[World, Engine]:
    """One ``bus_ensemble`` member world and its engine."""
    world = World()
    pitch = world.config.module_pitch
    for m in spec["modules"]:
        x, y = m["pos"]
        world.add_module(m["id"], ModuleKind(m["kind"]), pos=(x * pitch, y * pitch),
                         soc=m["soc"], sharing_on=m["sharing"])
    for a, port_a, b, port_b in spec["chain"]:
        world.add_connection(DockConnection(a, port_a, b, port_b))
    timeline = [TimelineEntry(tick, mid, _DIRECTIVES[d[0]](*d[1:]))
                for tick, mid, d in spec["timeline"]]
    return world, Engine(world, timeline=timeline, max_ticks=ticks)


def first_engine(workload: str, inputs: dict) -> Engine:
    """The workload's first world and engine, as a user builds them before
    the first tick."""
    if workload == "convoy":
        return build_convoy(inputs)[1]
    if workload == "bus_ensemble":
        return build_bus_world(inputs["worlds"][0], inputs["ticks"])[1]
    import heterosim.cli  # noqa: F401  builtins are run through the CLI
    from heterosim.config import SimConfig
    from heterosim.experiments import AssemblyCoordinator, build_assembly_world

    world = build_assembly_world(SimConfig(), inputs["scenarios"][0]["params"])
    return Engine(world, controllers=[AssemblyCoordinator("aw1", "aw2", "bb1", "bb2")])
