"""Scenario ingestion, exit codes, output files, and overrides."""
import json
from pathlib import Path

import pytest

import heterosim.experiments
from heterosim.cli import (
    ENV_CONFIG,
    ParseError,
    ValidationError,
    build_world_from_script,
    load_scenario,
    main,
)
from heterosim.config import SimConfig
from heterosim.engine import Engine
from heterosim.experiments import BUILTINS, run_assembly_experiment, run_rescue_experiment
from heterosim.scenario import ScenarioScript


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


class TestLoadScenario:
    def test_builtin_rescue(self, tmp_path):
        script = load_scenario(write(tmp_path, "s.json", {"builtin": "rescue"}))
        assert script.builtin == "rescue"

    def test_unknown_builtin(self, tmp_path):
        with pytest.raises(ValidationError):
            load_scenario(write(tmp_path, "s.json", {"builtin": "warp"}))

    def test_invalid_json_reports_position(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_scenario(write(tmp_path, "s.json", "{broken"))
        assert "line" in str(exc.value)

    def test_scout_port_out_of_range(self, tmp_path):
        payload = {
            "modules": [
                {"id": "s1", "kind": "scout", "pos": [0, 0]},
                {"id": "s2", "kind": "scout", "pos": [0.105, 0]},
            ],
            "timeline": [
                {"tick": 0, "module": "s1",
                 "directive": {"type": "dock_with", "peer": "s2",
                               "own_port": 7, "peer_port": 0}},
            ],
        }
        script = load_scenario(write(tmp_path, "s.json", payload))
        with pytest.raises(ValidationError) as exc:
            build_world_from_script(script, SimConfig())
        assert "port 7" in str(exc.value)

    def test_duplicate_timeline_key(self, tmp_path):
        payload = {
            "modules": [{"id": "s1", "kind": "scout"}],
            "timeline": [
                {"tick": 3, "module": "s1", "directive": {"type": "wait", "ticks": 1}},
                {"tick": 3, "module": "s1", "directive": {"type": "wait", "ticks": 2}},
            ],
        }
        script = load_scenario(write(tmp_path, "s.json", payload))
        with pytest.raises(ValidationError) as exc:
            build_world_from_script(script, SimConfig())
        assert "duplicate timeline key" in str(exc.value)

    def test_duplicate_module_id(self, tmp_path):
        payload = {"modules": [{"id": "x", "kind": "scout"},
                               {"id": "x", "kind": "backbone"}]}
        script = load_scenario(write(tmp_path, "s.json", payload))
        with pytest.raises(ValidationError) as exc:
            build_world_from_script(script, SimConfig())
        assert "duplicate module id" in str(exc.value)

    def test_unknown_kind(self, tmp_path):
        payload = {"modules": [{"id": "x", "kind": "rover"}]}
        with pytest.raises(ValidationError):
            load_scenario(write(tmp_path, "s.json", payload))

    def test_connection_validation(self, tmp_path):
        payload = {
            "modules": [
                {"id": "w1", "kind": "active_wheel", "pos": [0, 0]},
                {"id": "w2", "kind": "active_wheel", "pos": [0.105, 0]},
            ],
            "connections": [{"a": "w1", "port_a": 0, "b": "w2", "port_b": 0}],
        }
        script = load_scenario(write(tmp_path, "s.json", payload))
        with pytest.raises(ValidationError) as exc:
            build_world_from_script(script, SimConfig())
        assert "ShapeIncompatible" in str(exc.value)

    def test_passive_module_parameters(self, tmp_path):
        payload = {
            "modules": [
                {"id": "p", "kind": "passive",
                 "passive": {"ports": 2, "mass": 3.0, "energy_wh": 50.0}},
            ],
        }
        script = load_scenario(write(tmp_path, "s.json", payload))
        world = build_world_from_script(script, SimConfig())
        assert world.modules["p"].spec.mass_kg == 3.0
        assert world.modules["p"].spec.battery.energy_full_wh == 50.0

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_dt_rejected(self, tmp_path, dt):
        # json.loads accepts NaN and Infinity, and "nan <= 0" is False.
        path = write(tmp_path, "s.json", {"builtin": "assembly", "dt": dt})
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert "'dt'" in str(exc.value)

    @pytest.mark.parametrize("module, directive", [
        ({"sharing": "false"}, {"type": "wait", "ticks": 1}),
        ({"sharing": 0}, {"type": "wait", "ticks": 1}),
        ({}, {"type": "set_sharing", "on": "false"}),
        ({}, {"type": "set_sharing", "on": 1}),
    ])
    def test_booleans_must_be_json_booleans(self, tmp_path, module, directive):
        payload = {
            "modules": [{"id": "b", "kind": "backbone", **module}],
            "timeline": [{"tick": 0, "module": "b", "directive": directive}],
        }
        with pytest.raises(ValidationError) as exc:
            load_scenario(write(tmp_path, "s.json", payload))
        assert "true or false" in str(exc.value)

    def test_can_lock_must_be_json_boolean(self, tmp_path):
        payload = {"modules": [{"id": "p", "kind": "passive",
                                "passive": {"can_lock": "false"}}]}
        with pytest.raises(ValidationError) as exc:
            load_scenario(write(tmp_path, "s.json", payload))
        assert "'can_lock'" in str(exc.value)

    def test_json_booleans_accepted(self, tmp_path):
        payload = {
            "modules": [{"id": "b", "kind": "backbone", "sharing": False},
                        {"id": "p", "kind": "passive", "pos": [1, 0],
                         "passive": {"can_lock": True}}],
            "timeline": [{"tick": 0, "module": "b",
                          "directive": {"type": "set_sharing", "on": True}}],
        }
        script = load_scenario(write(tmp_path, "s.json", payload))
        world = build_world_from_script(script, SimConfig())
        assert world.modules["b"].sharing_on is False
        assert world.modules["p"].spec.can_actively_lock is True
        assert script.timeline[0].directive.on is True


class TestRunCommand:
    def test_assembly_builtin(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        out = str(tmp_path / "events.jsonl")
        report_path = str(tmp_path / "report.json")
        code = main(["run", "--scenario", scenario, "--out", out,
                     "--report", report_path])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["total_mips"] == 12400
        assert report["speeds"] == {"before_lift": 6.0, "after_lift": 31.0}
        assert list(report.keys()) == [
            "organisms", "total_mips", "total_wh", "speeds", "rescue_success"]

    def test_rescue_builtin(self, tmp_path):
        scenario = write(tmp_path, "s.json", {"builtin": "rescue"})
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["rescue_success"] is True

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["out", "report"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, bad):
        # --out in a missing directory, or --report naming a directory.
        paths = {"out": str(tmp_path / "e.jsonl"), "report": str(tmp_path / "r.json")}
        paths[bad] = str(tmp_path / "missing" / "x.jsonl") if bad == "out" else str(tmp_path)
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        code = main(["run", "--scenario", scenario,
                     "--out", paths["out"], "--report", paths["report"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        # Neither output is left behind, not even the event log written first.
        assert not any(Path(path).is_file() for path in paths.values())

    def test_same_out_and_report_path_exits_1_before_running(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        same = tmp_path / "same.json"
        code = main(["run", "--scenario", scenario,
                     "--out", str(same), "--report", str(tmp_path / "." / "same.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert captured.out == "" and not same.exists()

    def test_rescuer_out_of_range_exits_2(self, tmp_path):
        scenario = write(tmp_path, "s.json", {
            "builtin": "rescue", "params": {"rescuer_distance_m": 2.5}})
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["rescue_success"] is False

    def test_override_extends_wireless_range(self, tmp_path):
        scenario = write(tmp_path, "s.json", {
            "builtin": "rescue", "params": {"rescuer_distance_m": 2.5}})
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json"),
                     "--set", "wireless_range=3.0"])
        assert code == 0

    def test_bad_override_exits_1(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {"builtin": "rescue"})
        assert main(["run", "--scenario", scenario, "--set", "warp_speed=9"]) == 1
        assert main(["run", "--scenario", scenario, "--set", "dt=-1"]) == 1

    @pytest.mark.parametrize("text", ["{oops", "[1]"], ids=["invalid_json", "list"])
    def test_bad_env_config_exits_1(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setenv("HETEROSIM_CONFIG", write(tmp_path, "defaults.json", text))
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "e.jsonl").exists()

    def test_boolean_override_accepts_off(self, tmp_path):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        assert main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json"),
                     "--set", "recharge_enabled=off"]) == 0

    @pytest.mark.parametrize("text, value", [("on", True), ("off", False)])
    def test_boolean_override_from_text(self, text, value):
        # "on" reaches config._coerce's ``return True``.
        config = SimConfig(recharge_enabled=not value).with_overrides({"recharge_enabled": text})
        assert config.recharge_enabled is value

    def test_verbose_prints_every_event(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        out = tmp_path / "e.jsonl"
        assert main(["run", "--scenario", scenario, "--out", str(out),
                     "--report", str(tmp_path / "r.json"), "-v"]) == 0
        printed = capsys.readouterr().out.splitlines()
        events = out.read_text().splitlines()
        assert events and printed[:-1] == events
        assert printed[-1].startswith(f"wrote {out} ({len(events)} events)")

    @pytest.mark.parametrize("pair", [
        "dt=nan", "dt=inf", "wireless_range=nan", "idle_draw_w=nan",
        "per_hop_latency_ticks=1", "bus_tolerance_v=1e-6", "dock_reach_m=0.2",
        "dt=1e308", "dt", "dt=abc", "wireless_drop_probability=2",
        "recharge_enabled=maybe",
    ])
    def test_non_finite_or_removed_override_exits_1(self, tmp_path, capsys, pair):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        code = main(["run", "--scenario", scenario, "--set", pair,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "e.jsonl").exists()

    def test_non_finite_dt_in_scenario_exits_1(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {
            "modules": [{"id": "s1", "kind": "scout"}],
            "timeline": [{"tick": 0, "module": "s1",
                          "directive": {"type": "wait", "ticks": 3}}],
            "dt": float("nan"),
        })
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert "'dt'" in capsys.readouterr().err

    def test_string_false_does_not_turn_sharing_on(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {
            "modules": [{"id": "b", "kind": "backbone", "sharing": False}],
            "timeline": [{"tick": 0, "module": "b",
                          "directive": {"type": "set_sharing", "on": "false"}}],
        })
        assert main(["validate", "--scenario", scenario]) == 1
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert not (tmp_path / "e.jsonl").exists()

    @pytest.mark.parametrize("payload, overrides", [
        ({"modules": [{"id": "w1", "kind": "active_wheel", "pos": [0, 0]},
                      {"id": "w2", "kind": "active_wheel", "pos": [0.105, 0]}],
          "connections": [{"a": "w1", "port_a": 0, "b": "w2", "port_b": 0}]}, []),
        ({"modules": [{"id": "b1", "kind": "backbone", "pos": [0, 0]},
                      {"id": "b2", "kind": "backbone", "pos": [0.105, 0]}],
          "connections": [{"a": "b1", "port_a": 1, "b": "b2", "port_b": 3}],
          "timeline": [{"tick": 0, "module": "b1",
                        "directive": {"type": "wait", "ticks": 2}}]},
         ["--set", "module_pitch=0.05"]),
    ], ids=["shape_incompatible", "not_adjacent"])
    def test_rejected_connection_exits_1(self, tmp_path, capsys, payload, overrides):
        scenario = write(tmp_path, "s.json", payload)
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json"), *overrides])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "e.jsonl").exists()
        assert not (tmp_path / "r.json").exists()

    def test_timeline_scenario_runs(self, tmp_path):
        scenario = write(tmp_path, "s.json", {
            "modules": [{"id": "s1", "kind": "scout"}],
            "timeline": [{"tick": 0, "module": "s1",
                          "directive": {"type": "move", "distance": 0.125}}],
            "max_ticks": 100,
        })
        out = tmp_path / "e.jsonl"
        code = main(["run", "--scenario", scenario, "--out", str(out),
                     "--report", str(tmp_path / "r.json")])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(rec["event"] == "MoveStart" for rec in lines)
        assert all(list(rec.keys()) == ["tick", "t", "event", "subjects", "data"]
                   for rec in lines)

    def test_repeat_runs_byte_identical(self, tmp_path):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        paths = []
        for i in (1, 2):
            out = tmp_path / f"e{i}.jsonl"
            rep = tmp_path / f"r{i}.json"
            assert main(["run", "--scenario", scenario, "--out", str(out),
                         "--report", str(rep)]) == 0
            paths.append((out.read_bytes(), rep.read_bytes()))
        assert paths[0] == paths[1]

    def test_env_defaults_and_flag_priority(self, tmp_path, monkeypatch):
        defaults = write(tmp_path, "defaults.json", {"wireless_range": 0.5})
        monkeypatch.setenv("HETEROSIM_CONFIG", defaults)
        scenario = write(tmp_path, "s.json", {"builtin": "rescue"})
        # Env default shrinks the radio range below the 1.5 m gap: infeasible.
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        # An explicit flag wins over the env default.
        code = main(["run", "--scenario", scenario,
                     "--out", str(tmp_path / "e.jsonl"),
                     "--report", str(tmp_path / "r.json"),
                     "--set", "wireless_range=2.0"])
        assert code == 0


SCOUT = {"id": "s", "kind": "scout"}
TICK0 = {"tick": 0, "module": "s"}


class TestMalformedScalars:
    """Each probe once ended in a traceback from ``heterosim run`` and
    ``heterosim validate``; now both exit 1 with one ``error:`` line."""

    @pytest.mark.parametrize("payload", [
        {"modules": [SCOUT], "max_ticks": "many"},
        {"modules": [SCOUT], "dt": "abc"},
        {"modules": [{**SCOUT, "pos": ["x", 0]}]},
        {"modules": [{**SCOUT, "fallen_port": 9}]},
        {"modules": [{**SCOUT, "fallen_port": "1"}]},
        {"modules": [{"id": "p", "kind": "passive", "passive": {"ports": 0}}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "move", "distance": float("nan")}}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "move", "distance": "0.1"}}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "wait", "ticks": 2.9}}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "undock", "port": True}}]},
        {"builtin": "assembly", "params": {"wheel_offset_m": "x"}},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "lift_chain", "chain": "bb"}}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "lift_chain", "chain": ["zz"]}}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "broadcast", "payload": {"x": 1}}}]},
        {"modules": [SCOUT, {"id": "5", "kind": "scout", "pos": [0.105, 0]}],
         "timeline": [TICK0 | {"directive": {
             "type": "dock_with", "peer": 5, "own_port": 0, "peer_port": 0}}]},
        {"modules": [{**SCOUT, "id": 5}]},
        {"modules": [SCOUT], "timeline": [TICK0 | {"directive": {"type": ["move"]}}]},
        {"modules": [{"id": "p", "kind": "passive", "passive": {"ports": 7}}]},
    ], ids=["max_ticks", "dt", "pos", "fallen_port_range", "fallen_port_type",
            "passive_ports", "move_nan", "move_string", "wait_float",
            "undock_bool", "builtin_param", "chain_string", "chain_unknown",
            "payload_object", "peer_number", "id_number", "type_list",
            "passive_ports_past_bound"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, payload, command):
        one_error_line(tmp_path, capsys, payload, command)


def one_error_line(tmp_path, capsys, payload, command) -> str:
    """The stderr of ``command`` on ``payload``, once it exits 1 with one
    ``error:`` line and writes no event log."""
    argv = [command, "--scenario", write(tmp_path, "s.json", payload)]
    if command == "run":
        argv += ["--out", str(tmp_path / "e.jsonl"),
                 "--report", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "e.jsonl").exists()
    return err


class TestRefusedKeysAndRanges:
    """Each probe once ran with exit 0, its key silently ignored, or ended in
    a traceback; now it exits 1 with one ``error:`` line naming the key."""

    @pytest.mark.parametrize("payload, key", [
        ({"builtin": "assembly", "params": {"wheel_ofset_m": 0.3}}, "'wheel_ofset_m'"),
        ({"builtin": "assembly", "params": {"rescuer_distance_m": 1.0}},
         "'rescuer_distance_m'"),
        ({"modules": [SCOUT], "params": {"wheel_offset_m": 0.3}}, "'wheel_offset_m'"),
        ({"modules": [SCOUT], "timline": [TICK0 | {
            "directive": {"type": "wait", "ticks": 1}}]}, "'timline'"),
        ({"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "wait", "ticks": -1}}]}, "'ticks'"),
        ({"modules": [SCOUT], "timeline": [TICK0 | {
            "directive": {"type": "wait", "ticks": 10**400}}]}, "'ticks'"),
        # json_number's OverflowError branch: an integer past the float range.
        ({"builtin": "assembly", "dt": 10**400}, "'dt' must be finite"),
        # directive_from_dict's refusal of a directive without a type.
        ({"modules": [SCOUT], "timeline": [TICK0 | {"directive": {"ticks": 1}}]},
         "needs a 'type'"),
        ('{"builtin": "rescue", "max_ticks": 1' + "0" * 5000 + "}", "digits"),
        ({"builtin": "assembly", "params": {"wheel_offset_m": -1}}, "'wheel_offset_m'"),
        ({"builtin": "rescue", "params": {"rescuer_distance_m": 0}},
         "'rescuer_distance_m'"),
        ({"builtin": "assembly", "dt": 1e308}, "dt"),
        ([SCOUT], "JSON object"),
        ({"builtin": "assembly", "params": [1]}, "'params'"),
        ({"modules": [SCOUT], "max_ticks": 0}, "'max_ticks'"),
        ({"modules": [SCOUT], "shed_policy": "panic"}, "'shed_policy'"),
        ({"builtin": "assembly", "modules": [SCOUT]}, "'modules'"),
        ({"modules": []}, "no modules"),
        ({"modules": {"s": SCOUT}}, "'modules'"),
        ({"modules": ["s"]}, "modules[0]"),
        ({"modules": [{"kind": "scout"}]}, "'id'"),
        ({"modules": [{**SCOUT, "pos": [0, 0, 0]}]}, "'pos'"),
        ({"modules": [{"id": "p", "kind": "passive", "passive": 3}]}, "'passive'"),
        ({"modules": [SCOUT], "timeline": [
            {"tick": -1, "module": "s", "directive": {"type": "wait", "ticks": 1}}]},
         "tick"),
        ({"modules": [SCOUT], "timeline": [
            {"tick": 0, "module": "zz", "directive": {"type": "wait", "ticks": 1}}]},
         "'zz'"),
        ({"modules": [SCOUT], "timeline": [TICK0 | {"directive": {
            "type": "dock_with", "peer": "zz", "own_port": 0, "peer_port": 0}}]}, "'zz'"),
        ({"modules": [SCOUT], "connections": [
            {"a": "s", "port_a": 0, "b": "zz", "port_b": 0}]}, "'zz'"),
        ({"modules": [SCOUT, {"id": "b", "kind": "backbone", "pos": [0.105, 0]}],
          "connections": [{"a": "s", "port_a": 9, "b": "b", "port_b": 0}]}, "port 9"),
        ({"modules": [{"id": "a", "kind": "scout", "pos": [1e308, 0]},
                      {"id": "b", "kind": "scout", "pos": [-1e308, 0]}],
          "timeline": [{"tick": 0, "module": "a", "directive": {
              "type": "dock_with", "peer": "b", "own_port": 0, "peer_port": 0}}]},
         "modules[0]: |x| and |y|"),
        ({"builtin": "rescue", "params": {"rescuer_distance_m": 1e308}}, "'params': |x|"),
        ({"modules": [{**SCOUT, "soc": 1.5}]}, "soc"),
        ({"modules": [{"id": "p", "kind": "passive", "passive": {"mass": -1}}]},
         "mass_kg"),
    ], ids=["param_typo", "param_of_other_builtin", "param_on_custom",
            "unknown_top_level_key", "wait_negative", "wait_past_float",
            "dt_past_float", "directive_without_type",
            "int_past_digit_limit", "wheel_offset_negative",
            "rescuer_inside_the_pitch", "dt_past_bound", "scenario_list",
            "params_list", "max_ticks_zero", "shed_policy_unknown", "builtin_with_modules",
            "modules_empty", "modules_object", "module_string", "module_without_id",
            "pos_three_numbers", "passive_number", "timeline_tick_negative",
            "timeline_unknown_module", "dock_unknown_peer", "connection_unknown_module",
            "connection_port_9", "pos_past_float_distance", "param_past_pos_bound",
            "soc_above_one", "passive_mass_negative"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exits_1_naming_the_key(self, tmp_path, capsys, payload, key, command):
        assert key in one_error_line(tmp_path, capsys, payload, command)

    @pytest.mark.parametrize("module", [
        {**SCOUT, "soc": 2.0},
        {"id": "p", "kind": "passive", "passive": {"ports": 7}},
    ], ids=["soc", "passive_ports"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_dt_is_named_before_a_module_range(self, tmp_path, capsys, module, command):
        # Every module range is checked once the config is built.
        err = one_error_line(tmp_path, capsys, {"dt": -1, "modules": [module]}, command)
        assert "dt" in err and "modules[0]" not in err


class TestOtherCommands:
    def test_validate_ok(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {"builtin": "assembly"})
        assert main(["validate", "--scenario", scenario]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_custom_ok(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {
            "modules": [SCOUT, {"id": "b", "kind": "backbone", "pos": [0.105, 0]}],
            "connections": [{"a": "s", "port_a": 1, "b": "b", "port_b": 3}],
            "timeline": [TICK0 | {"directive": {"type": "wait", "ticks": 1}}]})
        assert main(["validate", "--scenario", scenario]) == 0
        assert capsys.readouterr().out == f"ok: {scenario} (2 modules)\n"

    def test_validate_bad(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.json", {"modules": [{"id": "x", "kind": "ufo"}]})
        assert main(["validate", "--scenario", scenario]) == 1

    def test_list_builtins(self, capsys):
        assert main(["list-builtins"]) == 0
        assert capsys.readouterr().out == (
            "assembly    four robots dock into one organism, lift, and drive on wheels\n"
            "rescue      an Active Wheel rights a fallen Backbone after a call for help\n")

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing --scenario
        assert exc.value.code == 1


def run_builtin(tmp_path, payload: dict, *overrides: str) -> tuple[int, Path, Path]:
    """``heterosim run`` of a builtin scenario: its exit code and output paths."""
    events, report = tmp_path / "events.jsonl", tmp_path / "report.json"
    argv = ["run", "--scenario", write(tmp_path, "s.json", payload),
            "--out", str(events), "--report", str(report)]
    for pair in overrides:
        argv += ["--set", pair]
    return main(argv), events, report


class TestOneEnginePerRun:
    """A builtin and a custom scenario take one path: the command line
    builds one engine, runs it and judges it."""

    def test_builtin_sheds_loads_when_its_scenario_says_so(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        code, events, _ = run_builtin(
            tmp_path, {"builtin": "assembly", "shed_policy": "shed"},
            "drive_draw_w=60", "current_limit_a=1")
        names = [json.loads(line)["event"] for line in events.read_text().splitlines()]
        assert "BrownOut" in names and "FatalEvent" not in names
        assert code == 0

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_cli_builds_one_engine_through_experiments(self, tmp_path, monkeypatch, name):
        # perfbench times a builtin run by swapping this module global.
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        built = []

        class CountingEngine(Engine):
            def __init__(self, world, **kwargs):
                built.append(self)
                super().__init__(world, **kwargs)

        monkeypatch.setattr(heterosim.experiments, "Engine", CountingEngine)
        code, events, _ = run_builtin(tmp_path, {"builtin": name})
        assert code == 0
        assert len(built) == 1
        assert built[0].log.to_jsonl() == events.read_text()

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_library_runner_matches_cli(self, tmp_path, monkeypatch, name):
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        runner = {"assembly": run_assembly_experiment, "rescue": run_rescue_experiment}[name]
        log, report, success = runner(max_ticks=ScenarioScript().max_ticks)
        code, events, report_path = run_builtin(tmp_path, {"builtin": name})
        assert log.to_jsonl() == events.read_text()
        assert report.to_json() == report_path.read_text()
        assert (code, success) == (0, True)

    @pytest.mark.parametrize("runner, params, message", [
        (run_assembly_experiment, {"wheel_offset_m": -0.16},
         "'wheel_offset_m' must be >= 0 m, got -0.16"),
        (run_rescue_experiment, {"rescuer_distance_m": 0.0},
         "'rescuer_distance_m' must be >= 0.105 m, got 0.0"),
    ], ids=["assembly", "rescue"])
    def test_library_runner_refuses_a_param_below_its_least(self, runner, params, message):
        with pytest.raises(ValueError) as exc:
            runner(params=params)
        assert str(exc.value) == message


class TestRunOutcomes:
    """Runs whose outcome hangs on one path through the engine."""

    @pytest.mark.parametrize("dt", ["0.9", "2"])
    def test_rescue_with_one_tick_steps(self, tmp_path, monkeypatch, dt):
        # At these ticks the fallen Backbone's move, or the wheel's lift,
        # starts and ends in one tick; each still reads busy a tick later.
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        code, events, _ = run_builtin(tmp_path, {"builtin": "rescue"}, f"dt={dt}")
        names = [json.loads(line)["event"] for line in events.read_text().splitlines()]
        assert "RescueInfeasible" not in names and names[-1] == "ResumedOperation"
        assert code == 0

    def test_broadcast_from_a_sender_drained_by_its_lock(self, tmp_path, monkeypatch):
        # Reaches the engine's BroadcastFailed. Backbone "a" is nearly empty
        # and shares the bus of the full "c". "z" docks onto "a" at tick 20,
        # and "a", the lower id, pays the lock energy in the energy step, so
        # it is dead when its broadcast of that tick goes out.
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        payload = {
            "modules": [{"id": "a", "kind": "backbone", "pos": [0, 0], "soc": 1e-6},
                        {"id": "c", "kind": "backbone", "pos": [-0.105, 0]},
                        {"id": "z", "kind": "scout", "pos": [0.105, 0]}],
            "connections": [{"a": "a", "port_a": 3, "b": "c", "port_b": 1}],
            "timeline": [
                {"tick": 0, "module": "z", "directive": {
                    "type": "dock_with", "peer": "a", "own_port": 0, "peer_port": 1}},
                {"tick": 20, "module": "a", "directive": {"type": "broadcast"}}],
        }
        code, events, _ = run_builtin(tmp_path, payload)
        records = [json.loads(line) for line in events.read_text().splitlines()]
        assert [(r["tick"], r["event"], r["data"]) for r in records[-2:]] == [
            (20, "Docked", {"own_port": 0, "peer_port": 1, "orientation_deg": 0}),
            (20, "BroadcastFailed", {"reason": "DeadBattery"})]
        assert code == 0

    @pytest.mark.parametrize("torque, outcome", [
        ("4", ("DirectiveRejected", "TorqueExceeded")), ("6.5", ("LiftStart", None))],
        ids=["default", "raised"])
    def test_scout_torque_override(self, tmp_path, monkeypatch, torque, outcome):
        # "6.5" reaches World.add_module's replacement of the Scout's
        # rating: a chain of three Backbones needs 6.18 N m.
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        chain = [{"id": f"b{i}", "kind": "backbone", "pos": [0.105 * (i + 1), 0]}
                 for i in range(3)]
        payload = {
            "modules": [SCOUT] + chain,
            "connections": [{"a": "s", "port_a": 1, "b": "b0", "port_b": 3},
                            {"a": "b0", "port_a": 1, "b": "b1", "port_b": 3},
                            {"a": "b1", "port_a": 1, "b": "b2", "port_b": 3}],
            "timeline": [TICK0 | {"directive": {"type": "lift_chain",
                                                "chain": ["b0", "b1", "b2"]}}],
        }
        code, events, _ = run_builtin(tmp_path, payload, f"scout_max_torque_nm={torque}")
        first = json.loads(events.read_text().splitlines()[0])
        assert (first["event"], first["data"].get("reason")) == outcome
        assert code == 0
