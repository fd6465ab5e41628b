"""Stateful property test: random worlds take random directives tick by tick.

After every ``step`` the engine's invariants must hold, and each case ends
by replaying the same world and directives, which must give a
byte-identical event log. Port views are read only through
``SensorMemory.get``, so the test does not depend on how a port records
its state.
"""
import functools
import math

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from heterosim.config import SimConfig
from heterosim.docking import can_dock
from heterosim.engine import Engine
from heterosim.mechanics import Joint
from heterosim.model import (
    DockConnection,
    ModuleKind,
    Posture,
    World,
    connected_components,
    passive_spec,
    spec_for,
)
from heterosim.powerbus import total_stored_energy
from heterosim.scenario import (
    ActuateJoint,
    Broadcast,
    DockWith,
    LiftChain,
    LowerChain,
    Move,
    SetSharing,
    Turn,
    Undock,
    Wait,
)

KINDS = (ModuleKind.SCOUT, ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL,
         ModuleKind.PASSIVE)
PITCH = SimConfig().module_pitch


@st.composite
def module_specs(draw, index, pos):
    kind = draw(st.sampled_from(KINDS))
    spec = None
    num_ports = spec_for(kind).num_ports
    if kind is ModuleKind.PASSIVE:
        num_ports = draw(st.integers(1, 4))
        spec = passive_spec(num_ports=num_ports,
                            energy_wh=draw(st.sampled_from((10.0, 0.0))),
                            can_actively_lock=draw(st.booleans()))
    fallen = draw(st.integers(0, num_ports - 1))
    return dict(
        module_id=f"m{index}", kind=kind, spec=spec, pos=pos,
        heading_deg=draw(st.sampled_from((0, 90, 180, 270))),
        soc=draw(st.sampled_from((0.9, 0.6, 0.3, 0.1, 1.0, 0.0))),
        sharing_on=draw(st.integers(0, 3)) != 3,
        posture=Posture(fallen) if draw(st.integers(0, 4)) == 0 else Posture())


@st.composite
def worlds(draw):
    """Everything needed to build the same world and engine again: 2-6
    modules, each on a grid cell next to the one before it or anywhere,
    and a link tried between each pair of neighbours."""
    n = draw(st.integers(2, 6))
    x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    modules = []
    for i in range(n):
        if i and draw(st.booleans()):
            dx, dy = draw(st.sampled_from(((1, 0), (0, 1), (-1, 0), (0, -1))))
            x, y = x + dx, y + dy
        elif i:
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        modules.append(draw(module_specs(i, (x * PITCH, y * PITCH))))
    links = draw(st.lists(
        st.tuples(st.integers(1, n - 1), st.integers(0, 3), st.integers(0, 3),
                  st.sampled_from((0, 90, 180, 270))),
        max_size=n))
    return dict(modules=modules, links=links,
                dt=draw(st.sampled_from((0.5, 0.1))),
                shed_policy=draw(st.sampled_from(("shed", "halt"))))


def build_engine(plan) -> Engine:
    world = World(SimConfig(dt=plan["dt"]))
    for kwargs in plan["modules"]:
        kwargs = dict(kwargs)
        world.add_module(kwargs.pop("module_id"), **kwargs)
    for i, pa, pb, orientation in plan["links"]:
        a, b = f"m{i - 1}", f"m{i}"
        if pa >= world.modules[a].spec.num_ports or pb >= world.modules[b].spec.num_ports:
            continue
        if can_dock(world, a, pa, b, pb, orientation) is None \
                and 0 < world.distance(a, b) <= world.config.dock_reach_m:
            world.add_connection(DockConnection(a, pa, b, pb, orientation))
    return Engine(world, shed_policy=plan["shed_policy"])


@functools.lru_cache(maxsize=None)
def directives(ids: tuple[str, ...]):
    """One (module, directive) pair, drawn blind to the world's state."""
    module = st.sampled_from(ids)
    port = st.integers(0, 4)
    return st.tuples(module, st.one_of(
        st.builds(Move, st.floats(0.0, 0.2)),
        st.builds(Turn, st.sampled_from((90, -90, 180, -180))),
        st.builds(DockWith, module, port, port, st.sampled_from((0, 90, 180, 270))),
        st.builds(DockWith, module, port, port),
        st.builds(Undock, port),
        st.builds(ActuateJoint, st.sampled_from(tuple(Joint)), st.floats(-120.0, 120.0)),
        st.builds(SetSharing, st.booleans()),
        st.builds(LiftChain, st.lists(module, min_size=1, max_size=3).map(tuple)),
        st.just(LowerChain()),
        st.builds(Broadcast, st.sampled_from(("a", "b"))),
        st.builds(Wait, st.integers(1, 4)),
    ))


def targeted(data, engine):
    """Pairs aimed at the world as it stands, one kind drawn first so each
    is tried often: a module approaches one port of ``m0`` (the one facing
    the ground, if any), where approaches contend; an approach's peer moves
    off; both ends of a link move at once; an end undocks or lifts the
    other; a lifter lowers its chain."""
    world = engine.world
    links = sorted(world.connections)
    peers = [activity.directive.peer for _, activity in sorted(engine.activities.items())
             if isinstance(activity.directive, DockWith)]
    lifters = sorted(set(world.lifted.values()))
    kind = data.draw(st.sampled_from(("link", "link", "peer", "lower", "approach")))
    if kind == "link" and links:
        a, pa, b, pb = data.draw(st.sampled_from(links))
        return data.draw(st.sampled_from((
            [(a, Move(0.1)), (b, Move(0.1))], [(a, Undock(pa))], [(b, Undock(pb))],
            [(a, LiftChain((b,)))], [(b, LiftChain((a,)))])))
    if kind == "peer" and peers:
        return [(data.draw(st.sampled_from(peers)), Move(0.1))]
    if kind == "lower" and lifters:
        return [(data.draw(st.sampled_from(lifters)), LowerChain())]
    port = world.modules["m0"].posture.fallen_port or 0
    return [(data.draw(st.sampled_from(sorted(world.modules))), DockWith("m0", 0, port))]


def numbers_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(numbers_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(numbers_finite(v) for v in value)
    return True


class EngineMachine(RuleBasedStateMachine):
    @initialize(plan=worlds())
    def build(self, plan):
        self.plan = plan
        self.engine = build_engine(plan)
        self.stored_before = total_stored_energy(self.engine.world)
        self.ticks: list[list] = []

    @rule(data=st.data())
    def step(self, data):
        world = self.engine.world
        blind = directives(tuple(sorted(world.modules)))
        batch = []
        for _ in range(data.draw(st.integers(0, 3))):
            batch += (targeted(data, self.engine) if data.draw(st.integers(0, 2)) == 0
                      else [data.draw(blind)])
        self.ticks.append(batch)
        events = self.engine.step(batch)
        for event in events:
            assert math.isfinite(event.t) and numbers_finite(event.data), event
        self.check_world()
        self.check_port_views()

    def check_world(self):
        engine, world = self.engine, self.engine.world
        world.check_port_exclusivity()
        balance = (total_stored_energy(world) - self.stored_before
                   + world.delivered_load_wh + world.resistive_loss_wh)
        assert abs(balance) < 1e-4, balance
        components = connected_components(world)
        members = [mid for organism in components for mid in organism]
        assert sorted(members) == sorted(world.modules)
        for organism in components:
            moving = [mid for mid in organism
                      if mid in engine.activities
                      and isinstance(engine.activities[mid].directive, (Move, DockWith))]
            assert len(moving) <= 1, moving
        for mid, lifter in world.lifted.items():
            assert mid in world.organism_of(lifter)
            assert lifter not in world.lifted
        for conn in world.connections.values():
            assert world.distance(conn.module_a, conn.module_b) \
                <= world.config.dock_reach_m + 1e-9

    def check_port_views(self):
        engine, world = self.engine, self.engine.world
        memory = engine.memory
        locked = {}
        for conn in world.connections.values():
            locked[(conn.module_a, conn.port_a)] = conn.module_b
            locked[(conn.module_b, conn.port_b)] = conn.module_a
        claimed = {}
        for mid, activity in engine.activities.items():
            approach = activity.directive
            if not isinstance(approach, DockWith):
                continue
            view = memory.get(mid).ports[approach.own_port]
            assert view.state in ("approaching", "aligned"), (mid, view)
            assert view.peer == approach.peer
            claimed[(mid, approach.own_port)] = (view.state, approach.peer)
            if view.state == "aligned":
                claimed[(approach.peer, approach.peer_port)] = ("aligned", mid)
        for mid, state in world.modules.items():
            for view in memory.get(mid).ports:
                key = (mid, view.index)
                if view.state == "locked":
                    assert locked.get(key) == view.peer, (key, view)
                    continue
                assert key not in locked, (key, view)
                if view.state in ("approaching", "aligned"):
                    assert claimed.get(key) == (view.state, view.peer), (key, view)
                else:
                    assert key not in claimed, (key, view)
                    assert view.peer is None
                    fallen = view.index == state.posture.fallen_port
                    assert view.state == ("disabled" if fallen else "free"), (key, view)

    def teardown(self):
        if not hasattr(self, "engine"):
            return
        replay = build_engine(self.plan)
        for batch in self.ticks:
            replay.step(batch)
        assert replay.log.to_jsonl() == self.engine.log.to_jsonl()


EngineMachine.TestCase.settings = settings(
    max_examples=75, stateful_step_count=40, derandomize=True, deadline=None)
TestEngineMachine = EngineMachine.TestCase
