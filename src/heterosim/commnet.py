"""Two communication fabrics: the wired in-organism bus and wireless broadcast.

Wired messages travel only between modules of the same organism, hop by hop
over docked links; wireless broadcast reaches every module within range,
losslessly and deterministically.
"""
from __future__ import annotations

from collections import deque

from .model import World


class DeadBattery(Exception):
    """The sender's battery is empty; radios are down."""


def wired_hops(world: World, src: str, dst: str) -> int | None:
    """Shortest hop count over docked links, or None when the two modules
    sit in different organisms."""
    if src not in world.modules:
        raise KeyError(src)
    if dst not in world.modules:
        raise KeyError(dst)
    if src == dst:
        return 0
    adj = world.adjacency()
    seen = {src: 0}
    queue = deque([src])
    while queue:
        current = queue.popleft()
        for nxt in adj[current]:
            if nxt in seen:
                continue
            seen[nxt] = seen[current] + 1
            if nxt == dst:
                return seen[nxt]
            queue.append(nxt)
    return None


def wireless_broadcast(world: World, src: str, payload: str = "") -> list[str]:
    """Ids of every module within wireless range of ``src``, sorted.

    The sender itself is excluded. Raises :class:`DeadBattery` when the
    sender has an on-board pack and it is empty. Delivery is lossless by
    default; a nonzero ``wireless_drop_probability`` drops each receiver
    independently, drawing from the world's seeded generator so runs stay
    reproducible.
    """
    sender = world.modules[src]
    if not sender.alive:
        raise DeadBattery(f"{src} cannot transmit with an empty battery")
    reach = world.config.wireless_range
    receivers = [
        mid for mid in sorted(world.modules)
        if mid != src and world.distance(src, mid) <= reach
    ]
    drop = world.config.wireless_drop_probability
    if drop > 0.0:
        receivers = [mid for mid in receivers if world.rng.random() >= drop]
    return receivers
