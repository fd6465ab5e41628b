"""Directive dispatch, engine phase behavior, sensor delay, determinism."""
import hashlib
import random
from dataclasses import replace

import pytest

from heterosim import mechanics, powerbus, scenario
from heterosim.config import SimConfig
from heterosim.engine import Engine
from heterosim.experiments import Choreography, _fallen_module, _rescuer, build_rescue_world
from heterosim.mechanics import Joint, set_posture
from heterosim.model import (
    DockConnection,
    ModuleKind,
    Posture,
    World,
    passive_spec,
    spec_for,
)
from heterosim.scenario import (
    ActuateJoint,
    Broadcast,
    DockWith,
    Event,
    EventLog,
    LiftChain,
    LowerChain,
    Move,
    ReceivedMessage,
    SetSharing,
    TimelineEntry,
    Turn,
    Undock,
    UnsupportedDirective,
    Wait,
    directive_from_dict,
    dispatch,
)

CFG = SimConfig()


def turn_complete_tick(kind: ModuleKind, angle_deg: int) -> int:
    """The tick at which a lone module given ``Turn(angle_deg)`` at tick 0
    logs ``TurnComplete``."""
    engine = single_module_engine(kind=kind)
    engine.step([("m", Turn(angle_deg))])
    while "m" in engine.activities:
        engine.step()
    return engine.log.events_named("TurnComplete")[0].tick


class TestDispatch:
    """``dispatch`` names the implementation and refuses what a platform
    cannot do; the engine times each directive."""

    def test_move_on_wheel(self):
        assert dispatch(spec_for(ModuleKind.ACTIVE_WHEEL), Move(0.31)) == "omni-drive"

    def test_move_on_scout(self):
        assert dispatch(spec_for(ModuleKind.SCOUT), Move(0.125)) == "track-drive"

    def test_move_on_backbone_is_screw_drive(self):
        assert dispatch(spec_for(ModuleKind.BACKBONE), Move(0.06)) == "screw-drive"

    def test_move_on_passive_rejected(self):
        with pytest.raises(UnsupportedDirective):
            dispatch(spec_for(ModuleKind.PASSIVE), Move(0.1))

    def test_actuate_on_passive_rejected(self):
        with pytest.raises(UnsupportedDirective):
            dispatch(spec_for(ModuleKind.PASSIVE), ActuateJoint(Joint.BEND, 10.0))

    def test_wheel_turn_is_instant(self):
        assert dispatch(spec_for(ModuleKind.ACTIVE_WHEEL), Turn(90)) == "omni-rotate"
        assert turn_complete_tick(ModuleKind.ACTIVE_WHEEL, 90) == 0

    def test_scout_turn_uses_actuation_rate(self):
        assert dispatch(spec_for(ModuleKind.SCOUT), Turn(-90)) == "track-turn"
        # 90 deg at 37.2 deg/s is 2.42 s: the 25th tick, tick 24, completes it.
        assert turn_complete_tick(ModuleKind.SCOUT, -90) == 24

    def test_turn_angle_quantized(self):
        with pytest.raises(UnsupportedDirective):
            dispatch(spec_for(ModuleKind.SCOUT), Turn(45))

    def test_other_directives_name_no_implementation(self):
        spec = spec_for(ModuleKind.BACKBONE)
        for directive in (ActuateJoint(Joint.BEND, 10.0), LiftChain(("x",)), Wait(1),
                          DockWith("x", 0, 0), Undock(0), SetSharing(True), Broadcast("")):
            assert dispatch(spec, directive) is None

    def test_unknown_directive(self):
        # Reaches dispatch's refusal of a value that is no directive.
        with pytest.raises(UnsupportedDirective, match="unknown directive 'jump'"):
            dispatch(spec_for(ModuleKind.SCOUT), "jump")


class TestDirectiveCodec:
    def test_roundtrip_forms(self):
        # Directives compare as tuples, so Wait(3) == Undock(3): check the kind too.
        for raw, expected in (
            ({"type": "move", "distance": 0.5}, Move(0.5)),
            ({"type": "turn", "angle": -90}, Turn(-90)),
            ({"type": "dock_with", "peer": "b", "own_port": 0, "peer_port": 1},
             DockWith("b", 0, 1, 0)),
            ({"type": "wait", "ticks": 3}, Wait(3)),
        ):
            directive = directive_from_dict(raw)
            assert (type(directive), directive) == (type(expected), expected)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            directive_from_dict({"type": "fly"})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            directive_from_dict({"type": "move"})


def single_module_engine(kind=ModuleKind.BACKBONE, **world_kwargs):
    world = World()
    world.add_module("m", kind, **world_kwargs)
    return Engine(world)


class TestEngineBasics:
    def test_idle_tick_drains_idle_draw(self):
        engine = single_module_engine()
        engine.step()
        assert engine.world.tick == 1
        # Idle electronics: 0.5 W for dt seconds out of a 33 Wh pack.
        expected_drop = 0.5 * CFG.dt / 3600.0 / 33.0
        assert 1.0 - engine.world.modules["m"].soc == pytest.approx(
            expected_drop, rel=1e-3)

    def test_move_takes_the_expected_ticks(self):
        engine = single_module_engine(kind=ModuleKind.ACTIVE_WHEEL)
        engine.step([("m", Move(0.31))])
        # 0.31 m at 31 cm/s is 1 s: active for 10 ticks total.
        for _ in range(8):
            engine.step()
            assert "m" in engine.activities
        engine.step()
        assert "m" not in engine.activities
        assert engine.world.modules["m"].pose.x == pytest.approx(0.31)

    def test_turn_updates_heading_at_completion(self):
        engine = single_module_engine(kind=ModuleKind.ACTIVE_WHEEL)
        engine.step([("m", Turn(90))])
        assert engine.world.modules["m"].pose.heading_deg == 90

    def test_busy_module_rejects_new_directives(self):
        engine = single_module_engine(kind=ModuleKind.ACTIVE_WHEEL)
        engine.step([("m", Move(1.0))])
        events = engine.step([("m", Move(1.0))])
        assert any(e.event == "DirectiveRejected" and e.data["reason"] == "Busy"
                   for e in events)

    def test_one_mover_per_organism(self):
        # Two docked Backbones drive at 6 cm/s whichever member moves them.
        # A second Move in the same organism is refused; the lower id wins.
        world = World()
        world.add_module("a", ModuleKind.BACKBONE)
        world.add_module("b", ModuleKind.BACKBONE, pos=(world.config.module_pitch, 0.0))
        world.add_connection(DockConnection("a", 1, "b", 3))
        engine = Engine(world)
        events = engine.step([("b", Move(0.06)), ("a", Move(0.06))])
        assert [e.subjects for e in events if e.event == "MoveStart"] == [("a",)]
        assert [(e.subjects, e.data["reason"]) for e in events
                if e.event == "DirectiveRejected"] == [(("b",), "Busy")]
        for _ in range(20):
            engine.step()
        assert world.modules["a"].pose.x == pytest.approx(0.06)

    @pytest.mark.parametrize("mover,approacher", [("b", "a"), ("a", "b")])
    def test_one_motion_per_organism_with_an_approach(self, mover, approacher):
        # An approach moves the initiator's whole organism, so it excludes a
        # Move by another member, and the other way round; the lower id wins.
        world = World()
        world.add_module("a", ModuleKind.BACKBONE)
        world.add_module("b", ModuleKind.BACKBONE, pos=(world.config.module_pitch, 0.0))
        world.add_module("s", ModuleKind.SCOUT, pos=(1.2, 0.0))
        world.add_connection(DockConnection("a", 1, "b", 3))
        engine = Engine(world)
        events = engine.step([(mover, Move(0.5)), (approacher, DockWith("s", 0, 2))])
        assert [(e.subjects, e.data["reason"]) for e in events
                if e.event == "DirectiveRejected"] == [(("b",), "Busy")]
        for _ in range(4):
            engine.step()
        # One 6 cm/s driver for 5 ticks.
        assert world.modules["a"].pose.x == pytest.approx(0.03)

    def test_fallen_module_cannot_initiate_motion(self):
        world = World()
        world.add_module("m", ModuleKind.BACKBONE, posture=Posture(fallen_port=3))
        engine = Engine(world)
        events = engine.step([("m", Move(0.1))])
        assert any(e.event == "DirectiveRejected" and e.data["reason"] == "CannotMove"
                   for e in events)

    def test_wait_occupies_the_module(self):
        # Wait(n) keeps the module busy for ticks 0 to n - 1: still running
        # after each of the first n - 1 ticks, done after tick n - 1.
        for ticks in (1, 3, 20):
            engine = single_module_engine()
            busy = []
            for directives in [[("m", Wait(ticks))]] + [None] * ticks:
                engine.step(directives)
                busy.append("m" in engine.activities)
            assert busy == [True] * (ticks - 1) + [False, False]

    def test_set_sharing_is_instant(self):
        engine = single_module_engine()
        events = engine.step([("m", SetSharing(False))])
        assert not engine.world.modules["m"].sharing_on
        assert any(e.event == "SharingSet" for e in events)


class TestDockingThroughEngine:
    def make_engine(self):
        world = World()
        world.add_module("aw1", ModuleKind.ACTIVE_WHEEL, pos=(-0.5, 0.0))
        world.add_module("aw2", ModuleKind.ACTIVE_WHEEL, pos=(0.5, 0.0))
        world.add_module("bb", ModuleKind.BACKBONE, pos=(0.0, 0.0))
        return Engine(world)

    def test_approach_dock_completes(self):
        engine = self.make_engine()
        engine.step([("aw1", DockWith("bb", 0, 3))])
        for _ in range(40):
            engine.step()
        assert ("aw1", 0, "bb", 3) in engine.world.connections

    def test_same_port_contention_lower_id_wins(self):
        engine = self.make_engine()
        events = engine.step([
            ("aw2", DockWith("bb", 0, 1)),
            ("aw1", DockWith("bb", 0, 1)),
        ])
        rejected = [e for e in events if e.event == "DirectiveRejected"]
        assert len(rejected) == 1
        assert rejected[0].subjects == ("aw2",)
        assert rejected[0].data["reason"] == "PortBusy"
        started = [e for e in events if e.event == "ApproachStart"]
        assert started and started[0].subjects[0] == "aw1"

    def test_undock_through_engine(self):
        engine = self.make_engine()
        engine.step([("aw1", DockWith("bb", 0, 3))])
        for _ in range(40):
            engine.step()
        events = engine.step([("aw1", Undock(0))])
        assert any(e.event == "Undocked" for e in events)
        assert not engine.world.connections

    @staticmethod
    def port_lifecycle(engine, ends, ticks, first=None):
        """Each port's (state, peer) views over ``ticks`` steps, the first
        one given ``first``, with repeats dropped."""
        seen = {end: [] for end in ends}
        for tick in range(ticks + 1):
            for (mid, port), views in seen.items():
                view = engine.memory.get(mid).ports[port]
                if not views or views[-1] != (view.state, view.peer):
                    views.append((view.state, view.peer))
            engine.step(first if tick == 0 else None)
        return seen

    def test_port_views_through_an_approach(self):
        engine = self.make_engine()
        seen = self.port_lifecycle(engine, [("aw1", 0), ("bb", 3)], 40,
                                   [("aw1", DockWith("bb", 0, 3))])
        assert seen[("aw1", 0)] == [
            ("free", None), ("approaching", "bb"), ("aligned", "bb"), ("locked", "bb")]
        assert seen[("bb", 3)] == [
            ("free", None), ("aligned", "aw1"), ("locked", "aw1")]
        assert engine.log.names().count("Docked") == 1

    def test_port_views_through_an_aborted_handshake(self):
        world = World()
        world.add_module("b", ModuleKind.BACKBONE, pos=(0.0, 0.0), heading_deg=180)
        world.add_module("c", ModuleKind.SCOUT, pos=(0.3, 0.0))
        engine = Engine(world, timeline=[
            TimelineEntry(0, "c", DockWith("b", 0, 1)),
            TimelineEntry(20, "b", Move(0.3))])
        seen = self.port_lifecycle(engine, [("c", 0), ("b", 1)], 80)
        assert seen[("c", 0)] == [
            ("free", None), ("approaching", "b"), ("aligned", "b"), ("free", None)]
        assert seen[("b", 1)] == [("free", None), ("aligned", "c"), ("free", None)]
        assert [e.subjects for e in engine.log.events_named("DockAborted")] == [("c",)]

    @staticmethod
    def run_until_abort(engine):
        for _ in range(100):
            aborted = [e for e in engine.step() if e.event == "DockAborted"]
            if aborted:
                return aborted
        raise AssertionError("no DockAborted within 100 ticks")

    def test_second_approacher_aborts_at_alignment(self):
        # The peer port is taken only at alignment, so a later approacher
        # to the same port is settled there, and frees only its own port.
        self.second_approacher_aborts_at_alignment(Posture())

    def test_second_approacher_to_a_ground_port_aborts_at_alignment(self):
        # A port that faces the ground is taken at alignment like any other.
        self.second_approacher_aborts_at_alignment(Posture(fallen_port=1))

    def second_approacher_aborts_at_alignment(self, posture):
        world = World()
        world.add_module("p", ModuleKind.BACKBONE, pos=(0.0, 0.0), posture=posture)
        world.add_module("w", ModuleKind.ACTIVE_WHEEL, pos=(0.6, 0.0))
        world.add_module("s", ModuleKind.SCOUT, pos=(-0.3, 0.0))
        engine = Engine(world, timeline=[
            TimelineEntry(0, "w", DockWith("p", 0, 1)),
            TimelineEntry(1, "s", DockWith("p", 0, 1))])
        aborted = self.run_until_abort(engine)
        assert [(e.subjects, e.data["reason"]) for e in aborted] == [(("s",), "PortBusy")]
        assert "s" not in engine.activities
        assert not world.port_busy("s", 0)
        held = engine.memory.get("p").ports[1]
        assert (held.state, held.peer) == ("aligned", "w")

    def test_peer_moving_away_during_handshake_aborts_the_lock(self):
        world = World()
        world.add_module("b", ModuleKind.BACKBONE, pos=(0.0, 0.0), heading_deg=180)
        world.add_module("c", ModuleKind.SCOUT, pos=(0.3, 0.0))
        engine = Engine(world, timeline=[
            TimelineEntry(0, "c", DockWith("b", 0, 1)),
            TimelineEntry(20, "b", Move(0.3))])
        aborted = self.run_until_abort(engine)
        assert [e.subjects for e in aborted] == [("c",)]
        assert aborted[0].data["reason"].startswith("modules ")
        assert "c" not in engine.activities
        assert not world.connections
        assert not world.port_busy("c", 0)
        assert not world.port_busy("b", 1)

    def test_approach_runs_at_the_organism_speed(self):
        # A Scout docked to a Backbone drags it at 6 cm/s, not 12.5 cm/s.
        world = World()
        world.add_module("s", ModuleKind.SCOUT)
        world.add_module("b", ModuleKind.BACKBONE, pos=(world.config.module_pitch, 0.0))
        world.add_module("t", ModuleKind.BACKBONE, pos=(-1.0, 0.0))
        world.add_connection(DockConnection("s", 1, "b", 3))
        engine = Engine(world)
        engine.step([("s", DockWith("t", 3, 1))])
        for _ in range(9):
            engine.step()
        assert world.modules["s"].pose.x == pytest.approx(-0.06)
        assert world.modules["b"].pose.x == pytest.approx(world.config.module_pitch - 0.06)

    def test_approach_aborts_when_the_organism_cannot_move(self):
        world = World()
        world.add_module("a", ModuleKind.BACKBONE)
        world.add_module("t", ModuleKind.BACKBONE, pos=(1.0, 0.0))
        engine = Engine(world)
        engine.step([("a", DockWith("t", 1, 3))])
        engine.step()
        set_posture(world, "a", Posture(fallen_port=3))
        x = world.modules["a"].pose.x
        events = engine.step()
        assert [(e.subjects, e.data) for e in events if e.event == "DockAborted"] == [
            (("a",), {"reason": "CannotMove"})]
        assert "a" not in engine.activities
        assert world.modules["a"].pose.x == x
        assert not world.port_busy("a", 1)


class TestTimelineAndDeterminism:
    def build(self):
        world = World()
        world.add_module("m", ModuleKind.SCOUT)
        timeline = [
            TimelineEntry(0, "m", Move(0.125)),
            TimelineEntry(20, "m", Turn(90)),
            TimelineEntry(60, "m", Broadcast("ping")),
        ]
        return Engine(world, timeline=timeline, max_ticks=100)

    def test_runs_are_byte_identical(self):
        log_a = self.build().run().to_jsonl()
        log_b = self.build().run().to_jsonl()
        assert log_a == log_b
        assert log_a

    def test_timeline_runs_in_tick_then_module_order(self):
        world = World()
        for i, mid in enumerate("ab"):
            world.add_module(mid, ModuleKind.SCOUT, pos=(float(i), 0.0))
        timeline = [TimelineEntry(5, "a", SetSharing(True)),
                    TimelineEntry(1, "b", SetSharing(True)),
                    TimelineEntry(1, "a", SetSharing(True))]
        log = Engine(world, timeline=timeline, max_ticks=10).run()
        assert [(e.tick, e.subjects) for e in log.events_named("SharingSet")] == [
            (1, ("a",)), (1, ("b",)), (5, ("a",))]

    def test_directive_beyond_max_ticks_never_runs(self):
        world = World()
        world.add_module("m", ModuleKind.SCOUT)
        engine = Engine(world, timeline=[TimelineEntry(50, "m", Move(0.1))],
                        max_ticks=10)
        log = engine.run()
        assert engine.world.tick == 10
        assert not log.events_named("MoveStart")

    def test_event_log_refuses_an_earlier_tick(self):
        # Reaches EventLog.append's check that ticks never go back.
        log = EventLog()
        log.append(Event(2, 0.2, "Later", (), {}))
        with pytest.raises(ValueError, match="non-decreasing"):
            log.append(Event(1, 0.1, "Earlier", (), {}))
        assert log.names() == ["Later"]


class TestSensorDelay:
    def test_mutation_visible_one_tick_later(self):
        observations = []

        class Probe:
            done = False

            def on_tick(self, tick, memory, issue, emit):
                observations.append((tick, memory.get("m").sharing_on))
                if tick >= 3:
                    self.done = True

        # Zero idle draw so the switched-off module does not brown out.
        world = World(SimConfig().with_overrides({"idle_draw_w": 0.0}))
        world.add_module("m", ModuleKind.BACKBONE)
        engine = Engine(world, controllers=[Probe()],
                        timeline=[TimelineEntry(0, "m", SetSharing(False))],
                        max_ticks=5)
        engine.run()
        by_tick = dict(observations)
        assert by_tick[0] is True      # switched during tick 0, not yet visible
        assert by_tick[1] is False     # first visible one tick later

    def test_pose_mutation_delayed(self):
        seen_x = []

        class Probe:
            done = False

            def on_tick(self, tick, memory, issue, emit):
                seen_x.append(memory.get("m").x)
                if tick >= 2:
                    self.done = True

        world = World()
        world.add_module("m", ModuleKind.ACTIVE_WHEEL)
        engine = Engine(world, controllers=[Probe()],
                        timeline=[TimelineEntry(0, "m", Move(0.031))], max_ticks=4)
        engine.run()
        assert seen_x[0] == 0.0
        assert seen_x[1] == pytest.approx(0.031)

    @staticmethod
    def _probe(module_id):
        """A controller that keeps one module's snapshot of every tick."""
        class Probe:
            def __init__(self):
                self.done = False
                self.seen = {}

            def on_tick(self, tick, memory, issue, emit):
                self.seen[tick] = memory.get(module_id)

        return Probe()

    def test_busy_visible_one_tick_later(self):
        # A Scout's two-tick wait, and a wheel's turn, which starts and ends
        # in tick 0: each reads busy at tick 1 only.
        for kind, directive in ((ModuleKind.SCOUT, Wait(2)), (ModuleKind.ACTIVE_WHEEL, Turn(90))):
            world = World()
            world.add_module("m", kind)
            probe = self._probe("m")
            engine = Engine(world, controllers=[probe],
                            timeline=[TimelineEntry(0, "m", directive)])
            for _ in range(3):
                engine.step()
            assert [probe.seen[t].busy for t in range(3)] == [False, True, False]

    def test_broadcast_visible_one_tick_later(self):
        world = World()
        world.add_module("a", ModuleKind.SCOUT)
        world.add_module("b", ModuleKind.SCOUT, pos=(1.0, 0.0))
        probe = self._probe("b")
        engine = Engine(world, controllers=[probe],
                        timeline=[TimelineEntry(0, "a", Broadcast("hi"))])
        for _ in range(3):
            engine.step()
        assert [probe.seen[t].messages for t in range(3)] == [
            (), (ReceivedMessage("a", "hi"),), ()]

    def test_snapshot_kept_from_a_tick_does_not_change(self):
        world = World()
        world.add_module("m", ModuleKind.ACTIVE_WHEEL)
        probe = self._probe("m")
        engine = Engine(world, controllers=[probe],
                        timeline=[TimelineEntry(0, "m", Move(0.31))])
        engine.step()
        engine.step()
        before = repr(probe.seen[1])
        for _ in range(3):
            engine.step()
        assert repr(probe.seen[1]) == before
        assert probe.seen[1].x < probe.seen[4].x

    def test_mutation_between_steps_seen_by_next_tick(self):
        world = World()
        world.add_module("m", ModuleKind.BACKBONE)
        probe = self._probe("m")
        engine = Engine(world, controllers=[probe])
        engine.step()
        world.modules["m"].set_stored_wh(0.5 * world.modules["m"].stored_wh)
        engine.step()
        assert probe.seen[0].soc == pytest.approx(1.0, abs=1e-3)
        assert probe.seen[1].soc == pytest.approx(0.5, abs=1e-3)


class TestSensorSnapshotsBuiltOnDemand:
    """A snapshot is built only when a controller asks for one."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        original = scenario.ModuleSnapshot

        def counting(**fields):
            built.append(fields["module_id"])
            return original(**fields)

        monkeypatch.setattr(scenario, "ModuleSnapshot", counting)
        return built

    @staticmethod
    def _world():
        world = World()
        for i in range(16):
            world.add_module(f"m{i:02d}", ModuleKind.SCOUT, pos=(i % 4, i // 4))
        return world

    def test_no_controllers_build_no_snapshots(self, built):
        engine = Engine(self._world())
        for _ in range(10):
            engine.step()
        assert built == []

    def test_one_read_per_tick_builds_one_snapshot(self, built):
        class Probe:
            done = False

            def on_tick(self, tick, memory, issue, emit):
                memory.get(f"m{tick:02d}")

        engine = Engine(self._world(), controllers=[Probe()])
        for _ in range(10):
            engine.step()
        assert built == [f"m{i:02d}" for i in range(10)]


class TestMovingTickTopology:
    """Organisms are built once per topology change, not once per mover."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = World.adjacency

        def counting(self):
            calls.append(None)
            return original(self)

        monkeypatch.setattr(World, "adjacency", counting)
        return calls

    @staticmethod
    def _ten_moving_ticks(n):
        """N modules in 4-module organisms, one mover in each."""
        world = World()
        pitch = world.config.module_pitch
        kinds = (ModuleKind.ACTIVE_WHEEL, ModuleKind.BACKBONE,
                 ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL)
        timeline = []
        for o in range(n // 4):
            ids = [f"o{o:03d}m{k}" for k in range(4)]
            for k, (mid, kind) in enumerate(zip(ids, kinds)):
                world.add_module(mid, kind, pos=(k * pitch, 2 * o * pitch))
            world.add_connection(DockConnection(ids[0], 0, ids[1], 3))
            world.add_connection(DockConnection(ids[1], 1, ids[2], 3))
            world.add_connection(DockConnection(ids[2], 1, ids[3], 0))
            timeline.append(TimelineEntry(0, ids[1], Move(1.0)))
        engine = Engine(world, timeline=timeline)
        for _ in range(10):
            engine.step()
        assert len(engine.activities) == n // 4

    def test_adjacency_calls_do_not_grow_with_the_world(self, calls):
        self._ten_moving_ticks(16)
        small = len(calls)
        calls.clear()
        self._ten_moving_ticks(256)
        assert len(calls) == small


class TestPowerFailurePolicies:
    def test_halt_policy_emits_fatal_event(self):
        world = World()
        world.add_module("m", ModuleKind.BACKBONE, sharing_on=False)
        engine = Engine(world, timeline=[TimelineEntry(0, "m", Wait(5))],
                        max_ticks=10, shed_policy="halt")
        log = engine.run()
        assert engine.halted
        assert log.events_named("FatalEvent")

    def test_shed_policy_keeps_running(self):
        world = World()
        world.add_module("m", ModuleKind.BACKBONE, sharing_on=False)
        engine = Engine(world, timeline=[TimelineEntry(0, "m", Wait(5))],
                        max_ticks=10, shed_policy="shed")
        log = engine.run()
        assert not engine.halted
        assert log.events_named("BrownOut")
        assert engine.world.tick == 5  # the wait ran to completion

    def test_shed_policy_sheds_every_failing_organism(self):
        # Three lone switched-off Backbones each brown out; once all three
        # are shed the step succeeds.
        world = World()
        for i in range(3):
            world.add_module(f"m{i}", ModuleKind.BACKBONE, pos=(float(i), 0.0),
                             sharing_on=False)
        engine = Engine(world, shed_policy="shed")
        events = engine.step()
        assert [e.event for e in events] == ["BrownOut"] * 3
        assert [e.subjects for e in events] == [("m0",), ("m1",), ("m2",)]
        assert not engine.halted

    def test_shed_organism_that_fails_again_halts(self, monkeypatch):
        from heterosim import powerbus

        def always_short(world, dt):
            raise powerbus.InsufficientSupply("short", ("m",))

        monkeypatch.setattr(powerbus, "step_energy", always_short)
        world = World()
        world.add_module("m", ModuleKind.BACKBONE)
        engine = Engine(world, shed_policy="shed")
        events = engine.step()
        assert [e.event for e in events] == ["BrownOut", "FatalEvent"]
        assert events[1].data["detail"] == "load shedding failed"
        assert engine.halted

    def test_unknown_policy_is_refused(self):
        with pytest.raises(ValueError, match="shed_policy must be 'halt' or 'shed', got 'Shed'"):
            Engine(World(), shed_policy="Shed")

    def test_step_on_a_halted_engine_does_nothing(self):
        # The benchmark keeps stepping a halted engine, so this must not raise.
        world = World()
        world.add_module("m", ModuleKind.BACKBONE, sharing_on=False)
        engine = Engine(world, shed_policy="halt")
        assert [e.event for e in engine.step()] == ["FatalEvent"]
        assert engine.step() == [] and engine.step() == []
        assert world.tick == 1
        assert len(engine.log.events_named("FatalEvent")) == 1


class TestPhaseOrdering:
    def test_power_is_solved_after_motion(self):
        # A module that starts driving this tick pays drive draw this tick,
        # so the energy phase must run after motion within the same tick.
        engine = single_module_engine(kind=ModuleKind.ACTIVE_WHEEL)
        engine.step([("m", Move(1.0))])
        drop = 1.0 - engine.world.modules["m"].soc
        drive_and_idle = (5.0 + 0.5) * CFG.dt / 3600.0 / 33.0
        assert drop == pytest.approx(drive_and_idle, rel=1e-3)

    def test_handshake_takes_the_configured_time(self):
        world = World()
        world.add_module("aw", ModuleKind.ACTIVE_WHEEL, pos=(0.0, 0.0))
        world.add_module("bb", ModuleKind.BACKBONE, pos=(0.105, 0.0))
        engine = Engine(world, timeline=[TimelineEntry(0, "aw", DockWith("bb", 0, 3))],
                        max_ticks=100)
        log = engine.run()
        aligned = log.events_named("Aligned")[0]
        docked = log.events_named("Docked")[0]
        assert docked.t - aligned.t == pytest.approx(CFG.dock_handshake_s)

    def test_broadcasts_go_out_by_module_then_issue_order(self):
        world = World()
        world.add_module("a", ModuleKind.SCOUT)
        world.add_module("b", ModuleKind.SCOUT, pos=(1.0, 0.0))
        engine = Engine(world)
        events = engine.step([("b", Broadcast("2")), ("a", Broadcast("1")),
                              ("b", Broadcast("3"))])
        payloads = [e.data["payload"] for e in events if e.event == "Broadcast"]
        assert payloads == ["1", "2", "3"]


def add_carrier(world: World, ids: tuple[str, str, str, str], y: float = 0.0,
                socs: tuple[float, ...] = (1.0,) * 4) -> tuple[str, str, str, str]:
    """Dock a wheel-backbone-backbone-wheel organism along x at height ``y``."""
    kinds = (ModuleKind.ACTIVE_WHEEL, ModuleKind.BACKBONE,
             ModuleKind.BACKBONE, ModuleKind.ACTIVE_WHEEL)
    for k, (mid, kind, soc) in enumerate(zip(ids, kinds, socs)):
        world.add_module(mid, kind, pos=(0.105 * k, y), soc=soc)
    world.add_connection(DockConnection(ids[0], 0, ids[1], 3, 0))
    world.add_connection(DockConnection(ids[1], 1, ids[2], 3, 0))
    world.add_connection(DockConnection(ids[2], 1, ids[3], 0, 0))
    return ids


class TestDriveDraw:
    """While an organism moves, only its grounded drivers draw drive power."""

    @staticmethod
    def _draws_after_one_moving_step(lifted: bool) -> dict[str, float]:
        world = World()
        aw1, bb1, bb2, aw2 = add_carrier(world, ("aw1", "bb1", "bb2", "aw2"))
        if lifted:
            world.lifted.update({bb1: aw1, bb2: aw2})
        Engine(world).step([(aw1, Move(1.0))])
        return {mid: st.load_draw_w for mid, st in world.modules.items()}

    def test_lifted_backbones_draw_idle_only(self):
        assert self._draws_after_one_moving_step(lifted=True) == {
            "aw1": 5.5, "bb1": 0.5, "bb2": 0.5, "aw2": 5.5}

    def test_every_grounded_member_drives(self):
        assert self._draws_after_one_moving_step(lifted=False) == {
            "aw1": 5.5, "bb1": 5.5, "bb2": 5.5, "aw2": 5.5}

    def test_a_drained_wheel_neither_sets_the_pace_nor_draws(self):
        # The drained wheel is the slower one, so it would set the pace if it drove.
        world = World()
        aw1, bb1, bb2, aw2 = add_carrier(world, ("aw1", "bb1", "bb2", "aw2"),
                                         socs=(1.0, 1.0, 1.0, 0.0))
        world.modules[aw2].spec = replace(spec_for(ModuleKind.ACTIVE_WHEEL),
                                          locomotion_speed_cm_s=20.0)
        world.lifted.update({bb1: aw1, bb2: aw2})
        assert mechanics.ground_drive(world, world.organism_of(aw1)) == (31.0, [aw1])
        events = Engine(world).step([(aw1, Move(1.0))])
        assert [e.data["speed_cm_s"] for e in events if e.event == "MoveStart"] == [31.0]
        assert world.modules[aw2].pose.x == pytest.approx(3 * 0.105 + 0.31 * CFG.dt)
        assert {mid: st.load_draw_w for mid, st in world.modules.items()} == {
            "aw1": 5.5, "bb1": 0.5, "bb2": 0.5, "aw2": 0.0}

    def test_a_fallen_backbone_is_not_a_driver(self):
        world = World()
        aw1, bb1, bb2, aw2 = add_carrier(world, ("aw1", "bb1", "bb2", "aw2"))
        set_posture(world, bb2, Posture(fallen_port=0))
        speed, drivers = mechanics.ground_drive(world, world.organism_of(aw1))
        assert speed == 6.0 and sorted(drivers) == [aw1, aw2, bb1]
        Engine(world).step([(aw1, Move(1.0))])
        assert {mid: st.load_draw_w for mid, st in world.modules.items()} == {
            "aw1": 5.5, "bb1": 5.5, "bb2": 0.5, "aw2": 5.5}

    def test_an_organism_whose_only_drivers_are_drained_stops(self):
        world = World()
        aw1, bb1, bb2, aw2 = add_carrier(world, ("aw1", "bb1", "bb2", "aw2"))
        world.lifted.update({bb1: aw1, bb2: aw2})
        engine = Engine(world)
        engine.step([(aw1, Move(1.0))])
        for mid in (aw1, aw2):
            world.modules[mid].soc = 0.0
        before = {mid: (st.pose.x, st.pose.y) for mid, st in world.modules.items()}
        events = engine.step()
        assert [(e.event, e.data) for e in events] == [
            ("MoveAborted", {"reason": "CannotMove"})]
        assert {mid: (st.pose.x, st.pose.y) for mid, st in world.modules.items()} == before
        assert {mid: st.load_draw_w for mid, st in world.modules.items()} == {
            "aw1": 0.0, "bb1": 0.5, "bb2": 0.5, "aw2": 0.0}


#: sha256 of every module's soc, pose and load draw and both energy ledgers
#: after each of 50 engine steps of the world below, as computed when drive
#: draw, bus solve and battery update first ran through ``Engine.step``. Any
#: float that moves, even by one ulp, moves it.
ENGINE_DIGEST = "00256d52c4ed9b38b690a9349c70316bdbe5f819f7d62ec3eb6965edd9526c53"


class TestEngineEnergyDigest:
    def test_moving_organisms_are_bit_identical(self):
        rng = random.Random(15)
        world = World()
        timeline = []
        for o in range(6):
            ids = add_carrier(world, tuple(f"o{o}{name}" for name in ("aw1", "bb1", "bb2", "aw2")),
                              y=0.5 * o, socs=tuple(rng.uniform(0.3, 1.0) for _ in range(4)))
            # Organism 0 carries its Backbones, so only a wheel can move it.
            mover = ids[rng.choice((0, 3))] if o == 0 else rng.choice(ids)
            timeline.append(TimelineEntry(rng.randrange(3), mover, Move(5.0)))
        world.lifted.update(o0bb1="o0aw1", o0bb2="o0aw2")
        # Organism 1 recharges a low, switched-off Backbone.
        world.modules["o1bb2"].soc = 0.1
        world.modules["o1bb2"].sharing_on = False
        world.add_module("lone", ModuleKind.SCOUT, pos=(-1.0, -1.0), soc=rng.uniform(0.3, 1.0))
        engine = Engine(world, timeline=timeline)
        digest = hashlib.sha256()
        for _ in range(50):
            engine.step()
            line = repr(([(st.soc, st.pose, st.load_draw_w) for st in world.modules.values()],
                         world.delivered_load_wh, world.resistive_loss_wh))
            digest.update(line.encode() + b"\n")
        assert not engine.halted and len(engine.activities) == 6
        assert digest.hexdigest() == ENGINE_DIGEST

    def test_mixed_organisms_are_bit_identical(self):
        digest = hashlib.sha256()
        for dt in (0.1, 1.0):
            engine = mixed_organisms_engine(dt)
            world = engine.world
            for i in range(60):
                if i == 20:
                    world.modules["baw2"].soc = 0.0  # a driving wheel runs flat
                engine.step()
                line = repr(([(st.soc, st.pose, st.load_draw_w) for st in world.modules.values()],
                             world.delivered_load_wh, world.resistive_loss_wh))
                digest.update(line.encode() + b"\n")
            assert not engine.halted and sorted(engine.activities) == ["aaw1", "bbb2"]
            assert world.modules["baw2"].load_draw_w == 0.0
            assert world.modules["c05"].soc > 0.0  # recharged from empty
            assert powerbus.solve_bus(world, world.organism_of("c00")).limiter_tripped["c00"]
        assert digest.hexdigest() == MIXED_ENGINE_DIGEST

    def test_headings_and_an_approach_are_bit_identical(self):
        digest = hashlib.sha256()
        for engine in motion_engines():
            world = engine.world
            for _ in range(80):
                engine.step()
                line = repr(([(st.soc, st.pose, st.load_draw_w) for st in world.modules.values()],
                             world.delivered_load_wh, world.resistive_loss_wh))
                digest.update(line.encode() + b"\n")
            assert not engine.halted
        assert len(engine.activities) == 0 and engine.log.events_named("Docked")
        assert digest.hexdigest() == MOTION_DIGEST


#: sha256 of the same per-step record for the world below, stepped 60 times
#: at each of dt 0.1 and 1.0, as computed before the energy and drive loops
#: were written inline. It covers the shapes ENGINE_DIGEST's world lacks.
MIXED_ENGINE_DIGEST = "ca429902a8a479b7297aff08023cf688b75793dceeacb4305986dbbc5453cdd0"


def mixed_organisms_engine(dt: float) -> Engine:
    """Organism ``a``: a carrier with a fallen Backbone and a battery-less
    passive block, driven by a wheel. Organism ``b``: a carrier with a
    passive block carrying its own pack, driven by a Backbone; its wheel
    ``baw2`` is drained by the test. Organism ``c``: a chain like
    ``bus_ensemble``'s, one exporter feeding ten switched-off chargers, one
    of them empty, so the exporter sits at its 8 A limiter. And a lone Scout.
    """
    rng = random.Random(22)
    world = World(SimConfig().with_overrides({"dt": dt}))
    add_carrier(world, ("aaw1", "abb1", "abb2", "aaw2"),
                socs=tuple(rng.uniform(0.4, 1.0) for _ in range(4)))
    set_posture(world, "abb2", Posture(fallen_port=0))
    world.add_module("ablk", ModuleKind.PASSIVE, pos=(0.105, -0.105), spec=passive_spec())
    world.add_connection(DockConnection("abb1", 0, "ablk", 0, 0))
    add_carrier(world, ("baw1", "bbb1", "bbb2", "baw2"), y=1.0,
                socs=tuple(rng.uniform(0.4, 1.0) for _ in range(4)))
    world.add_module("bblk", ModuleKind.PASSIVE, pos=(0.105, 0.895), soc=0.95,
                     spec=passive_spec(energy_wh=10.0))
    world.add_connection(DockConnection("bbb1", 0, "bblk", 0, 0))
    ids = [f"c{j:02d}" for j in range(11)]
    for j, mid in enumerate(ids):
        world.add_module(mid, rng.choice((ModuleKind.SCOUT, ModuleKind.BACKBONE)),
                         pos=(0.105 * j, 2.0), sharing_on=j == 0,
                         soc=0.9 if j == 0 else 0.0 if j == 5 else rng.uniform(0.05, 0.4))
    for a, b in zip(ids, ids[1:]):
        world.add_connection(DockConnection(a, 1, b, 3, 0))
    world.add_module("lone", ModuleKind.SCOUT, pos=(-1.0, -1.0), soc=0.5)
    return Engine(world, timeline=[TimelineEntry(0, "aaw1", Move(5.0)),
                                   TimelineEntry(1, "bbb2", Move(5.0))])


#: sha256 of the same per-step record for each world below, stepped 80
#: times. ENGINE_DIGEST's organisms all head 0 degrees and approach nothing;
#: here an organism moves at each of 90, 180 and 270 degrees, and a Scout's
#: approach drags its Backbone on a diagonal to a dock. The mover of each
#: world starts at the origin, so a one-ulp change to either component of
#: its first step shows in its pose.
MOTION_DIGEST = "5b0dfba918030d2b015b346e60ff1cf49286f777b046b98002e2fa5d0d13d596"


def motion_engines() -> list[Engine]:
    rng = random.Random(30)
    engines = []
    for heading in (90, 180, 270):
        world = World()
        ids = add_carrier(world, ("aw1", "bb1", "bb2", "aw2"),
                          socs=tuple(rng.uniform(0.3, 1.0) for _ in range(4)))
        for mid in ids:
            world.modules[mid].pose.heading_deg = heading
        engines.append(Engine(world, timeline=[TimelineEntry(0, "aw1", Move(5.0))]))
    world = World()
    world.add_module("s", ModuleKind.SCOUT, soc=rng.uniform(0.3, 1.0))
    world.add_module("b", ModuleKind.BACKBONE, pos=(world.config.module_pitch, 0.0),
                     soc=rng.uniform(0.3, 1.0))
    world.add_module("t", ModuleKind.BACKBONE, pos=(-0.3, -0.25), soc=rng.uniform(0.3, 1.0))
    world.add_connection(DockConnection("s", 1, "b", 3))
    return engines + [Engine(world, timeline=[TimelineEntry(0, "s", DockWith("t", 3, 1))])]


def wheel_holding_backbone() -> Engine:
    world = World()
    world.add_module("aw", ModuleKind.ACTIVE_WHEEL, pos=(0.0, 0.0))
    world.add_module("bb", ModuleKind.BACKBONE, pos=(0.105, 0.0))
    world.add_connection(DockConnection("aw", 0, "bb", 3, 0))
    return Engine(world)


def wheels_either_side_of_a_backbone() -> Engine:
    world = World()
    for i, (mid, kind) in enumerate([("aw1", ModuleKind.ACTIVE_WHEEL),
                                     ("bb", ModuleKind.BACKBONE),
                                     ("aw2", ModuleKind.ACTIVE_WHEEL)]):
        world.add_module(mid, kind, pos=(0.105 * i, 0.0))
    world.add_connection(DockConnection("aw1", 0, "bb", 3, 0))
    world.add_connection(DockConnection("bb", 1, "aw2", 0, 0))
    return Engine(world)


def wheel_and_backbone_with_a_scout_nearby() -> Engine:
    world = World()
    world.add_module("aw1", ModuleKind.ACTIVE_WHEEL, pos=(0.0, 0.0))
    world.add_module("bb", ModuleKind.BACKBONE, pos=(0.105, 0.0))
    world.add_module("s", ModuleKind.SCOUT, pos=(0.105, 0.3))
    world.add_connection(DockConnection("aw1", 1, "bb", 3, 0))
    return Engine(world)


def rejections(events) -> list[tuple[tuple[str, ...], str, str]]:
    return [(e.subjects, e.data["directive"], e.data["reason"])
            for e in events if e.event == "DirectiveRejected"]


class TestLiftThroughEngine:
    def test_lift_then_rotate_then_lower(self):
        engine = wheel_holding_backbone()
        world = engine.world
        engine.step([("aw", LiftChain(("bb",)))])
        for _ in range(30):
            engine.step()
        assert "bb" in world.lifted
        engine.step([("aw", ActuateJoint(Joint.ROTATION, 180.0))])
        for _ in range(40):
            engine.step()
        assert world.modules["aw"].lift_turn_deg == pytest.approx(180.0)

    def test_infeasible_lift_rejected(self):
        world = World()
        world.add_module("s", ModuleKind.SCOUT, pos=(0.0, 0.0))
        for i in range(3):
            world.add_module(f"b{i}", ModuleKind.BACKBONE,
                             pos=(0.105 * (i + 1), 0.0))
        world.add_connection(DockConnection("s", 0, "b0", 3, 0))
        world.add_connection(DockConnection("b0", 1, "b1", 3, 0))
        world.add_connection(DockConnection("b1", 1, "b2", 3, 0))
        engine = Engine(world)
        events = engine.step([("s", LiftChain(("b0", "b1", "b2")))])
        assert any(e.event == "DirectiveRejected"
                   and e.data["reason"] == "TorqueExceeded" for e in events)

    @pytest.mark.parametrize("module_id, port", [("aw", 0), ("bb", 3)])
    def test_lifted_link_cannot_be_undocked(self, module_id, port):
        # Once undocked, the wheel would still hold "bb" up, and a later
        # actuation ended in a traceback from the broken chain.
        engine = wheel_holding_backbone()
        engine.step([("aw", LiftChain(("bb",)))])
        for _ in range(39):
            engine.step()
        assert "bb" in engine.world.lifted
        events = engine.step([(module_id, Undock(port))])
        assert rejections(events) == [((module_id,), "Undock", "Busy")]
        assert engine.world.connections
        engine.step([("aw", ActuateJoint(Joint.BEND, 10.0))])
        while engine.activities:
            engine.step()
        assert engine.world.modules["aw"].joint_bend_deg == 10.0

    def test_link_in_a_lift_under_way_cannot_be_undocked(self):
        engine = wheel_holding_backbone()
        engine.step([("aw", LiftChain(("bb",)))])
        events = engine.step([("bb", Undock(3))])
        assert rejections(events) == [(("bb",), "Undock", "Busy")]

    def test_second_lifter_of_a_module_is_refused(self):
        # Accepted, the second lift kept "bb" in the chain of "aw2" after
        # "aw1" lowered it, and a later bend ended in a traceback.
        engine = wheels_either_side_of_a_backbone()
        events = engine.step([("aw1", LiftChain(("bb",))), ("aw2", LiftChain(("bb",)))])
        assert rejections(events) == [(("aw2",), "LiftChain", "BadTarget")]
        while engine.activities:
            engine.step()
        engine.step([("aw1", LowerChain())])
        while engine.activities:
            engine.step()
        events = engine.step([("bb", Undock(1))])
        assert [e.event for e in events] == ["Undocked"]
        engine.step([("aw2", ActuateJoint(Joint.BEND, 10.0))])
        while engine.activities:
            engine.step()
        assert engine.world.modules["aw2"].joint_bend_deg == 10.0
        assert engine.world.lifted == {}

    @pytest.mark.parametrize("finished", [False, True])
    def test_module_held_up_cannot_lift(self, finished):
        engine = wheels_either_side_of_a_backbone()
        engine.step([("aw1", LiftChain(("bb",)))])
        while finished and engine.activities:
            engine.step()
        events = engine.step([("bb", LiftChain(("aw2",)))])
        assert rejections(events) == [(("bb",), "LiftChain", "CannotMove")]
        while engine.activities:
            engine.step()
        assert engine.world.lifted == {"bb": "aw1"}

    @pytest.mark.parametrize("finished", [False, True])
    def test_module_holding_a_chain_cannot_be_lifted(self, finished):
        world = World()
        for i, (mid, kind) in enumerate([("b1", ModuleKind.BACKBONE),
                                         ("s", ModuleKind.SCOUT),
                                         ("b2", ModuleKind.BACKBONE)]):
            world.add_module(mid, kind, pos=(0.105 * i, 0.0))
        world.add_connection(DockConnection("b1", 1, "s", 3, 0))
        world.add_connection(DockConnection("s", 1, "b2", 3, 0))
        engine = Engine(world)
        engine.step([("s", LiftChain(("b2",)))])
        while finished and engine.activities:
            engine.step()
        events = engine.step([("b1", LiftChain(("s",)))])
        assert rejections(events) == [(("b1",), "LiftChain", "BadTarget")]

    def test_undock_accepted_once_lowered(self):
        engine = wheel_holding_backbone()
        engine.step([("aw", LiftChain(("bb",)))])
        while engine.activities:
            engine.step()
        engine.step([("aw", LowerChain())])
        while engine.activities:
            engine.step()
        events = engine.step([("aw", Undock(0))])
        assert [e.event for e in events] == ["Undocked"]
        assert not engine.world.connections

    def test_no_dock_onto_a_module_held_up(self):
        # Accepted, the Scout docked at tick 76 and the organism ran at the
        # Scout's 12.5 cm/s, hanging from a lifted Backbone.
        engine = wheel_and_backbone_with_a_scout_nearby()
        engine.step([("aw1", LiftChain(("bb",)))])
        while engine.world.tick < 41:
            engine.step()
        events = engine.step([("s", DockWith("bb", 0, 2))])
        assert rejections(events) == [(("s",), "DockWith", "Busy")]
        for _ in range(60):
            engine.step()
        assert not engine.log.events_named("Docked")
        assert engine.world.organism_of("aw1") == ("aw1", "bb")

    def test_approach_ends_busy_when_its_peer_is_lifted(self):
        engine = wheel_and_backbone_with_a_scout_nearby()
        engine.step([("s", DockWith("bb", 0, 2))])
        engine.step([("aw1", LiftChain(("bb",)))])
        for _ in range(60):
            engine.step()
        aborted = engine.log.events_named("DockAborted")
        assert [(e.tick, e.subjects, e.data) for e in aborted] == [
            (35, ("s",), {"reason": "Busy"})]
        assert not engine.log.events_named("Docked")
        world = engine.world
        assert not world.port_busy("s", 0)
        assert not world.port_busy("bb", 2)
        members = world.organism_of("aw1")
        assert members == ("aw1", "bb")
        assert mechanics.organism_speed(world, members) == 31.0


def scout_docked_to(mid: str, kind: ModuleKind, spec=None, port: int = 0) -> World:
    """A Scout "s" docked by its port 1 to ``mid``'s ``port``: a passive block
    alone has no battery and halts with ``NoSupplier`` at its first tick."""
    world = World()
    world.add_module("s", ModuleKind.SCOUT)
    world.add_module(mid, kind, pos=(world.config.module_pitch, 0.0), spec=spec)
    world.add_connection(DockConnection("s", 1, mid, port))
    return world


def lone(kind: ModuleKind, **kwargs) -> World:
    world = World()
    world.add_module("m", kind, **kwargs)
    return world


def two(kind_a: ModuleKind, kind_b: ModuleKind) -> World:
    world = World()
    world.add_module("a", kind_a)
    world.add_module("b", kind_b, pos=(world.config.module_pitch, 0.0))
    return world


def lifting_wheel() -> World:
    """A wheel holding up the Backbone docked to it, its lift finished."""
    engine = wheel_holding_backbone()
    engine.step([("aw", LiftChain(("bb",)))])
    while engine.activities:
        engine.step()
    return engine.world


def scout_holding_two() -> World:
    """A Scout "s" docked to Backbone "b", docked in turn to Backbone "c"."""
    world = scout_docked_to("b", ModuleKind.BACKBONE)
    world.add_module("c", ModuleKind.BACKBONE, pos=(2 * world.config.module_pitch, 0.0))
    world.add_connection(DockConnection("b", 1, "c", 3))
    return world


def passive_far_from_a_scout() -> World:
    world = scout_docked_to("p", ModuleKind.PASSIVE, spec=passive_spec(num_ports=2))
    world.add_module("far", ModuleKind.SCOUT, pos=(1.0, 1.0))
    return world


class TestEngineRejections:
    """Each directive the engine refuses, in the smallest world that
    reaches the refusal: one ``DirectiveRejected`` naming the reason."""

    @pytest.mark.parametrize("build, directives, reason", [
        (lambda: lone(ModuleKind.SCOUT), [("ghost", Wait(1))], "NoSuchModule"),
        (lambda: lone(ModuleKind.SCOUT, soc=0.0), [("m", Wait(1))], "DeadBattery"),
        (lambda: scout_docked_to("p", ModuleKind.PASSIVE), [("p", Move(0.1))],
         "Unsupported"),
        (lambda: scout_docked_to("p", ModuleKind.PASSIVE), [("p", Turn(90))],
         "Unsupported"),
        (lambda: scout_docked_to("p", ModuleKind.PASSIVE), [("p", LiftChain(("s",)))],
         "Unsupported"),
        (lambda: scout_docked_to("p", ModuleKind.PASSIVE), [("p", LowerChain())],
         "Unsupported"),
        (lambda: lone(ModuleKind.SCOUT), [("m", Move(-0.1))], "Unsupported"),
        (lambda: scout_docked_to("b", ModuleKind.BACKBONE, port=3), [("b", Turn(90))],
         "CannotMove"),
        (passive_far_from_a_scout, [("p", DockWith("far", 1, 0))], "CannotMove"),
        (lambda: lone(ModuleKind.SCOUT), [("m", Undock(0))], "BadTarget"),
        (lambda: lone(ModuleKind.ACTIVE_WHEEL), [("m", LowerChain())], "BadTarget"),
        (lambda: two(ModuleKind.SCOUT, ModuleKind.SCOUT), [("a", DockWith("zz", 0, 0))],
         "BadTarget"),
        (lambda: two(ModuleKind.SCOUT, ModuleKind.SCOUT), [("a", DockWith("b", 9, 0))],
         "BadTarget"),
        (lambda: lone(ModuleKind.ACTIVE_WHEEL), [("m", LiftChain(("zz",)))], "BadTarget"),
        # The next two reach lift_feasible's checks for an empty chain and
        # for a repeat; the repeat below is a docked path, so only that
        # check refuses it.
        (scout_holding_two, [("s", LiftChain(()))], "BadTarget"),
        (scout_holding_two, [("s", LiftChain(("b", "c", "b")))], "BadTarget"),
        (lambda: scout_docked_to("b", ModuleKind.BACKBONE, port=3),
         [("b", Undock(3)), ("s", Undock(1))], "BadTarget"),
        (lambda: two(ModuleKind.ACTIVE_WHEEL, ModuleKind.ACTIVE_WHEEL),
         [("a", DockWith("b", 0, 0))], "ShapeIncompatible"),
        (lambda: lone(ModuleKind.BACKBONE), [("m", ActuateJoint(Joint.BEND, 120.0))],
         "JointLimit"),
        (lifting_wheel, [("aw", LiftChain(("bb",)))], "Busy"),
    ], ids=["no_such_module", "dead_battery", "passive_move", "passive_turn",
            "passive_lift", "passive_lower", "scout_move_backwards", "docked_turn",
            "passive_dock_far", "undock_free_port", "lower_no_chain", "dock_unknown_peer",
            "dock_port_9", "lift_unknown", "lift_empty_chain", "lift_repeated_member",
            "second_undock_of_a_link", "wheel_to_wheel",
            "bend_past_limit", "lifter_lifts_again"])
    def test_rejected(self, build, directives, reason):
        engine = Engine(build())
        events = engine.step(directives)
        assert [(e.subjects[0], e.data["reason"]) for e in events
                if e.event == "DirectiveRejected"] == [(directives[-1][0], reason)]

    def test_move_aborted_when_the_mover_falls(self):
        engine = single_module_engine(kind=ModuleKind.SCOUT)
        engine.step([("m", Move(1.0))])
        set_posture(engine.world, "m", Posture(fallen_port=0))
        events = engine.step()
        assert [(e.event, e.subjects, e.data) for e in events] == [
            ("MoveAborted", ("m",), {"reason": "CannotMove"})]
        assert "m" not in engine.activities


class TestRescueFailureReasons:
    """A rescue part that cannot go on logs ``RescueInfeasible`` with its
    reason and ends done and failed. The engine is stepped until the part
    ends, not run: the fallen module's part waits for ever once its
    partner has failed."""

    @staticmethod
    def step_until_ended(engine: Engine, part: Choreography) -> list[tuple]:
        while not part.done:
            engine.step()
        return [(e.tick, e.subjects, e.data) for e in engine.log.events_named("RescueInfeasible")]

    def test_fallen_backbone_without_a_free_port(self):
        world = World()
        pitch = world.config.module_pitch
        world.add_module("bb1", ModuleKind.BACKBONE, posture=Posture(fallen_port=3))
        for port, pos in enumerate(((pitch, 0.0), (0.0, pitch), (-pitch, 0.0))):
            world.add_module(f"s{port}", ModuleKind.SCOUT, pos=pos)
            world.add_connection(DockConnection("bb1", port, f"s{port}", 0))
        fallen = Choreography("bb1", _fallen_module)
        engine = Engine(world, controllers=[fallen])
        assert self.step_until_ended(engine, fallen) == [(0, ("bb1",), {"reason": "NoFreePort"})]
        assert fallen.done and fallen.failed

    def test_rescuer_whose_port_is_taken(self):
        world = build_rescue_world(CFG)
        aw1 = world.modules["aw1"].pose
        world.add_module("blk", ModuleKind.PASSIVE, pos=(aw1.x + CFG.module_pitch, aw1.y))
        world.add_connection(DockConnection("aw1", 0, "blk", 0))
        fallen, rescuer = Choreography("bb1", _fallen_module), Choreography("aw1", _rescuer)
        engine = Engine(world, controllers=[fallen, rescuer])
        assert self.step_until_ended(engine, rescuer) == [(2, ("aw1",), {"reason": "DockFailed"})]
        assert rescuer.done and rescuer.failed
        assert [(e.tick, e.data) for e in engine.log.events_named("DirectiveRejected")] == [
            (1, {"directive": "DockWith", "reason": "PortBusy"})]

    def test_fallen_block_that_cannot_move(self):
        # Reaches the fallen part's CannotMove: righted, a passive block
        # (with a pack of its own, so it can call for help) has its move
        # refused, so it never reads busy.
        world = World()
        world.add_module("p", ModuleKind.PASSIVE, posture=Posture(fallen_port=1),
                         spec=passive_spec(num_ports=2, energy_wh=10.0))
        world.add_module("aw1", ModuleKind.ACTIVE_WHEEL, pos=(1.5, 0.0))
        fallen, rescuer = Choreography("p", _fallen_module), Choreography("aw1", _rescuer)
        engine = Engine(world, controllers=[fallen, rescuer])
        [(tick, subjects, data)] = self.step_until_ended(engine, fallen)
        assert (subjects, data) == (("p",), {"reason": "CannotMove"})
        assert fallen.failed and rescuer.done and not rescuer.failed
        assert "PostureUpright" in engine.log.names()
        assert [(e.tick, e.data) for e in engine.log.events_named("DirectiveRejected")] == [
            (tick - 1, {"directive": "Move", "reason": "Unsupported"})]
