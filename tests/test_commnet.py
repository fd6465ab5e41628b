"""Wired routing over the organism graph and range-limited broadcast."""
import random
from collections import deque

import pytest

from heterosim.commnet import (
    DeadBattery,
    wired_hops,
    wireless_broadcast,
)
from heterosim.model import DockConnection, ModuleKind, World, connected_components


def build_chain(n):
    world = World()
    for i in range(n):
        world.add_module(f"m{i}", ModuleKind.BACKBONE, pos=(0.105 * i, 0.0))
    for i in range(n - 1):
        world.add_connection(DockConnection(f"m{i}", 1, f"m{i+1}", 3, 0))
    return world


class TestWiredDelivery:
    def test_self_delivery_is_zero_hops(self):
        world = build_chain(1)
        assert wired_hops(world, "m0", "m0") == 0

    @pytest.mark.parametrize("src, dst", [("zz", "yy"), ("m0", "zz")])
    def test_unknown_module_raises(self, src, dst):
        # Reaches wired_hops' checks of src, then of dst.
        with pytest.raises(KeyError, match="zz"):
            wired_hops(build_chain(2), src, dst)

    def test_chain_hop_count(self):
        world = build_chain(3)
        assert wired_hops(world, "m0", "m2") == 2

    def test_cross_organism_is_undeliverable(self):
        world = build_chain(2)
        world.add_module("far", ModuleKind.SCOUT, pos=(3.0, 0.0))
        assert wired_hops(world, "m0", "far") is None

    def test_hops_symmetric(self):
        world = build_chain(5)
        world.add_connection(DockConnection("m0", 0, "m4", 0, 0))  # close a ring
        for a in world.modules:
            for b in world.modules:
                assert wired_hops(world, a, b) == wired_hops(world, b, a)


def bfs_oracle(adjacency, src, dst):
    if src == dst:
        return 0
    seen = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    return seen.get(dst)


def random_world(rng):
    world = World()
    n = rng.randint(2, 10)
    for i in range(n):
        world.add_module(f"m{i}", ModuleKind.BACKBONE,
                         pos=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
    used = set()
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        pa, pb = rng.randrange(4), rng.randrange(4)
        if (a, pa) in used or (b, pb) in used:
            continue
        used.add((a, pa))
        used.add((b, pb))
        world.add_connection(DockConnection(f"m{a}", pa, f"m{b}", pb, 0))
    return world


class TestPartitionProperty:
    def test_deliverable_iff_same_component(self):
        rng = random.Random(11)
        for _ in range(100):
            world = random_world(rng)
            adjacency = world.adjacency()
            comp_of = {}
            for comp in connected_components(world):
                for mid in comp:
                    comp_of[mid] = comp
            ids = sorted(world.modules)
            for _ in range(10):
                a, b = rng.choice(ids), rng.choice(ids)
                hops = wired_hops(world, a, b)
                same = comp_of[a] is comp_of[b]
                assert (hops is not None) == same
                assert hops == bfs_oracle(adjacency, a, b)

    def test_docking_makes_pairs_deliverable(self):
        world = build_chain(2)
        world.add_module("m2", ModuleKind.BACKBONE, pos=(0.21, 0.0))
        assert wired_hops(world, "m0", "m2") is None
        world.add_connection(DockConnection("m1", 0, "m2", 2, 0))
        assert wired_hops(world, "m0", "m2") == 2
        world.remove_connection(("m1", 0, "m2", 2))
        assert wired_hops(world, "m0", "m2") is None


class TestWirelessBroadcast:
    def test_empty_when_alone(self):
        world = World()
        world.add_module("solo", ModuleKind.SCOUT)
        assert wireless_broadcast(world, "solo") == []

    def test_fallen_module_calls_nearby_wheel(self):
        world = World()
        world.add_module("bb", ModuleKind.BACKBONE, pos=(0.0, 0.0))
        world.add_module("aw", ModuleKind.ACTIVE_WHEEL, pos=(1.5, 0.0))
        assert wireless_broadcast(world, "bb", "help") == ["aw"]

    def test_range_cutoff(self):
        world = World()
        world.add_module("src", ModuleKind.BACKBONE, pos=(0.0, 0.0))
        world.add_module("near", ModuleKind.SCOUT, pos=(0.5, 0.0))
        world.add_module("edge", ModuleKind.SCOUT, pos=(1.9, 0.0))
        world.add_module("far", ModuleKind.SCOUT, pos=(2.1, 0.0))
        assert wireless_broadcast(world, "src") == ["edge", "near"]

    def test_dead_battery_cannot_transmit(self):
        world = World()
        world.add_module("src", ModuleKind.BACKBONE, soc=0.0)
        world.add_module("other", ModuleKind.SCOUT, pos=(1.0, 0.0))
        with pytest.raises(DeadBattery):
            wireless_broadcast(world, "src")

    def test_range_is_configurable(self):
        from heterosim.config import SimConfig
        world = World(SimConfig().with_overrides({"wireless_range": 0.7}))
        world.add_module("src", ModuleKind.BACKBONE, pos=(0.0, 0.0))
        world.add_module("near", ModuleKind.SCOUT, pos=(0.5, 0.0))
        world.add_module("edge", ModuleKind.SCOUT, pos=(1.9, 0.0))
        assert wireless_broadcast(world, "src") == ["near"]

    def test_loss_hook_defaults_off_and_is_seeded(self):
        from heterosim.config import SimConfig

        def build(drop, seed=0):
            world = World(SimConfig().with_overrides(
                {"wireless_drop_probability": drop, "random_seed": seed}))
            world.add_module("src", ModuleKind.BACKBONE, pos=(0.0, 0.0))
            for i in range(8):
                world.add_module(f"r{i}", ModuleKind.SCOUT, pos=(0.1 * (i + 1), 0.0))
            return world

        assert len(wireless_broadcast(build(0.0), "src")) == 8
        assert wireless_broadcast(build(1.0), "src") == []
        lossy_a = wireless_broadcast(build(0.5, seed=7), "src")
        lossy_b = wireless_broadcast(build(0.5, seed=7), "src")
        assert lossy_a == lossy_b  # same seed, same outcome
