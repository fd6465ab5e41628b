"""Seeded workload inputs, as plain data.

Only ``math`` and ``random`` are imported here, so the set-up probe can
make its inputs before it starts its clock without importing anything that
heterosim would otherwise pay for. Positions are in module pitches; the
functions in ``worlds.py`` scale them by the world's configured pitch. The
same seed always gives the same inputs.
"""
from __future__ import annotations

import math
import random

CONVOY_ORGANISMS = 64
CONVOY_TICKS = 10
BUS_WORLDS = 8
BUS_MODULES = 12
BUS_TICKS = 200


def builtins_inputs(seed: int) -> dict:
    """The two builtins with seeded geometry; the paper's values must hold
    for every draw (the rescuer stays inside the 2 m radio range)."""
    rng = random.Random(f"builtins:{seed}")
    return {"scenarios": [
        {"builtin": "assembly",
         "params": {"wheel_offset_m": round(rng.uniform(0.3, 0.8), 4)}},
        {"builtin": "rescue",
         "params": {"rescuer_distance_m": round(rng.uniform(0.8, 1.9), 4)}},
    ]}


def convoy_inputs(seed: int) -> dict:
    """A grid of wheel-backbone-backbone-wheel organisms, each given one
    Move long enough to keep it driving for the whole pass."""
    rng = random.Random(f"convoy:{seed}")
    side = math.ceil(math.sqrt(CONVOY_ORGANISMS))
    organisms = []
    for i in range(CONVOY_ORGANISMS):
        row, col = divmod(i, side)
        organisms.append({
            "ids": [f"c{i:03d}{part}" for part in "abcd"],
            "origin": (col * 10.0 + rng.uniform(0.0, 0.5),
                       row * 4.0 + rng.uniform(0.0, 0.5)),
            "heading": rng.choice((0, 90, 180, 270)),
            "soc": [round(rng.uniform(0.6, 1.0), 4) for _ in range(4)],
            "mover": rng.randrange(4),
        })
    return {"organisms": organisms, "ticks": CONVOY_TICKS}


def bus_inputs(seed: int) -> dict:
    rng = random.Random(f"bus_ensemble:{seed}")
    return {"worlds": [_bus_world(rng) for _ in range(BUS_WORLDS)],
            "ticks": BUS_TICKS}


def _bus_world(rng: random.Random) -> dict:
    """One chain organism with one or two exporting members and the rest
    switched off at low charge, so they recharge and, with one exporter,
    trip its 8 A limiter; plus an Active Wheel shuttle on a dock cycle."""
    n = BUS_MODULES
    ids = [f"m{j:02d}" for j in range(n)]
    exporters = set(rng.sample(range(n), rng.choice((1, 1, 2))))
    modules = [{
        "id": ids[j],
        "kind": rng.choice(("scout", "backbone")),
        "pos": (float(j), 0.0),
        "soc": round(rng.uniform(0.7, 1.0) if j in exporters
                     else rng.uniform(0.05, 0.4), 4),
        "sharing": j in exporters,
    } for j in range(n)]
    host = rng.randrange(n)
    modules.append({
        "id": "w", "kind": "active_wheel",
        "pos": (float(host), 1.0 + rng.uniform(0.5, 3.0)),
        "soc": round(rng.uniform(0.6, 1.0), 4), "sharing": True,
    })
    chain = [(ids[j], 1, ids[j + 1], 3) for j in range(n - 1)]

    ticks = BUS_TICKS
    timeline: dict[tuple[int, str], list] = {}

    def put(tick: int, module_id: str, directive: list) -> None:
        if tick < ticks:
            timeline.setdefault((tick, module_id), directive)

    # Approach takes at most 10 ticks and the lock handshake 20, so an
    # undock 45+ ticks after the dock always finds the link locked.
    host_port = rng.choice((0, 2))
    t = rng.randint(0, 10)
    while t + 45 < ticks:
        put(t, "w", ["dock_with", ids[host], 0, host_port])
        t += 45 + rng.randint(0, 20)
        put(t, "w", ["undock", 0])
        t += 5 + rng.randint(0, 20)
    # Sharing toggles only on switched-off members, so the exporters stay
    # on and the bus always has a supplier.
    chargers = [ids[j] for j in range(n) if j not in exporters]
    for module_id in rng.sample(chargers, 2):
        on_at = rng.randint(0, ticks - 60)
        put(on_at, module_id, ["set_sharing", True])
        put(on_at + rng.randint(10, 50), module_id, ["set_sharing", False])
    for k in range(rng.randint(3, 6)):
        put(rng.randrange(ticks), rng.choice(ids), ["broadcast", f"ping{k}"])
    return {
        "modules": modules,
        "chain": chain,
        "timeline": [[tick, mid, d] for (tick, mid), d in sorted(timeline.items())],
    }


INPUTS = {
    "builtins": builtins_inputs,
    "convoy": convoy_inputs,
    "bus_ensemble": bus_inputs,
}
