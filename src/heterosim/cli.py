"""Command-line surface: scenario ingestion, run orchestration, output files.

Subcommands: ``run`` executes a scenario and writes the event log (JSON
Lines) plus a metrics report (JSON); ``validate`` checks a scenario file
without running it; ``list-builtins`` names the built-in experiments.
Exit status: 0 success, 1 configuration or validation problem, 2 the
scenario itself failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .config import ConfigError, SimConfig
from .docking import can_dock
from .engine import Engine
from .experiments import BUILTINS, MetricsReport, build_metrics
from .model import UPRIGHT, DockConnection, ModuleKind, Posture, World, passive_spec
from .scenario import (
    DockWith,
    EventLog,
    LiftChain,
    ScenarioScript,
    TimelineEntry,
    Undock,
    directive_from_dict,
    json_bool,
    json_int,
    json_number,
    json_str,
)

ENV_CONFIG = "HETEROSIM_CONFIG"

#: The keys a scenario file may hold; any other key is refused.
SCENARIO_KEYS = ("builtin", "params", "dt", "max_ticks", "shed_policy",
                 "modules", "connections", "timeline")


class ParseError(Exception):
    """The scenario file is not valid JSON or not readable."""


class ValidationError(Exception):
    """The scenario file parses but violates the schema."""


def load_scenario(path: str | Path) -> ScenarioScript:
    """Read and validate a scenario file.

    Modules are checked by adding them to a world built with the default
    config; connections are checked when :func:`build_world_from_script`
    docks them.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")

    for key in raw:
        if key not in SCENARIO_KEYS:
            raise ValidationError(f"unknown scenario key {key!r}")

    script = ScenarioScript()
    takes: dict[str, float] = {}  # a custom scenario takes no params
    builtin = raw.get("builtin")
    if builtin is not None:
        if not isinstance(builtin, str) or builtin not in BUILTINS:
            raise ValidationError(
                f"unknown builtin {builtin!r}; choices: {', '.join(BUILTINS)}")
        script.builtin = builtin
        takes = BUILTINS[builtin].params
    script.params = raw.get("params", {})
    if not isinstance(script.params, dict):
        raise ValidationError("'params' must be an object")
    try:
        for key, value in script.params.items():
            if key not in takes:
                raise ValueError(f"{builtin or 'a custom scenario'} takes no param {key!r}")
            json_number(value, f"'params': {key!r}")
        if "dt" in raw:
            script.dt = json_number(raw["dt"], "'dt'")
        script.max_ticks = json_int(raw.get("max_ticks", script.max_ticks), "'max_ticks'")
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if script.max_ticks <= 0:
        raise ValidationError("'max_ticks' must be > 0")
    script.shed_policy = raw.get("shed_policy", "halt")
    if script.shed_policy not in ("halt", "shed"):
        raise ValidationError("'shed_policy' must be 'halt' or 'shed'")

    if script.builtin is not None:
        for key in ("modules", "connections", "timeline"):
            if raw.get(key):
                raise ValidationError(f"builtin scenarios do not take {key!r}")
        return script

    script.modules = _entries(raw, "modules", _module_kwargs)
    if not script.modules:
        raise ValidationError("scenario defines no modules and no builtin")
    world = _add_modules(World(SimConfig()), script.modules)
    script.connections = _entries(raw, "connections", _connection)
    script.timeline = _validate_timeline(_entries(raw, "timeline", _timeline_entry), world)
    return script


def _entries(raw: dict, key: str, parse) -> list:
    """``parse`` applied to each object in the list ``raw[key]``; its
    ``KeyError`` or ``ValueError`` is raised as a :class:`ValidationError`
    that names the entry."""
    entries = raw.get(key, [])
    if not isinstance(entries, list):
        raise ValidationError(f"{key!r} must be a list")
    parsed = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{key}[{i}]: must be an object")
        try:
            parsed.append(parse(entry))
        except KeyError as exc:
            raise ValidationError(f"{key}[{i}]: missing field {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"{key}[{i}]: {exc}") from exc
    return parsed


def _module_kwargs(entry: dict) -> dict:
    """The keyword arguments of ``World.add_module`` for one module entry.

    Only JSON types are checked here; the model's constructors check ranges.
    """
    pos = entry.get("pos", [0.0, 0.0])
    if not (isinstance(pos, list) and len(pos) == 2):
        raise ValueError("'pos' must be [x, y]")
    kind = ModuleKind(entry["kind"])
    spec = None
    if kind is ModuleKind.PASSIVE:
        passive = entry.get("passive", {})
        if not isinstance(passive, dict):
            raise ValueError("'passive' must be an object")
        spec = passive_spec(
            num_ports=json_int(passive.get("ports", 1), "'ports'"),
            mass_kg=json_number(passive.get("mass", 1.0), "'mass'"),
            compute_mips=json_int(passive.get("compute", 0), "'compute'"),
            energy_wh=json_number(passive.get("energy_wh", 0.0), "'energy_wh'"),
            can_actively_lock=json_bool(passive.get("can_lock", False), "'can_lock'"),
        )
    fallen_port = entry.get("fallen_port")
    return {
        "module_id": json_str(entry["id"], "'id'"),
        "kind": kind,
        "pos": tuple(json_number(c, "'pos'") for c in pos),
        "heading_deg": json_int(entry.get("heading", 0), "'heading'"),
        "soc": json_number(entry.get("soc", 1.0), "'soc'"),
        "sharing_on": json_bool(entry.get("sharing", True), "'sharing'"),
        "spec": spec,
        "posture": UPRIGHT if fallen_port is None
        else Posture(json_int(fallen_port, "'fallen_port'")),
    }


def _add_modules(world: World, modules: list[dict]) -> World:
    for i, kwargs in enumerate(modules):
        try:
            world.add_module(**kwargs)
        except ValueError as exc:
            raise ValidationError(f"modules[{i}]: {exc}") from exc
    return world


def _connection(entry: dict) -> dict:
    return {"a": json_str(entry["a"], "'a'"), "b": json_str(entry["b"], "'b'"),
            "port_a": json_int(entry["port_a"], "'port_a'"),
            "port_b": json_int(entry["port_b"], "'port_b'"),
            "orientation": json_int(entry.get("orientation", 0), "'orientation'")}


def _timeline_entry(entry: dict) -> TimelineEntry:
    return TimelineEntry(json_int(entry["tick"], "'tick'"),
                         json_str(entry["module"], "'module'"),
                         directive_from_dict(entry["directive"]))


def _validate_timeline(entries: list[TimelineEntry], world: World) -> list[TimelineEntry]:
    """``entries`` sorted by tick and module, once each names modules and
    ports that exist and no (tick, module) pair repeats."""
    keys: set[tuple[int, str]] = set()
    for i, entry in enumerate(entries):
        where = f"timeline[{i}]"
        if entry.tick < 0:
            raise ValidationError(f"{where}: tick must be >= 0")
        if entry.module_id not in world.modules:
            raise ValidationError(f"{where}: unknown module {entry.module_id!r}")
        if (entry.tick, entry.module_id) in keys:
            raise ValidationError(
                f"{where}: duplicate timeline key (tick {entry.tick}, "
                f"module {entry.module_id!r})")
        keys.add((entry.tick, entry.module_id))
        directive = entry.directive
        if isinstance(directive, Undock):
            _check_port(world, entry.module_id, directive.port, where)
        if isinstance(directive, DockWith):
            if directive.peer not in world.modules:
                raise ValidationError(f"{where}: unknown peer {directive.peer!r}")
            _check_port(world, entry.module_id, directive.own_port, where)
            _check_port(world, directive.peer, directive.peer_port, where)
        if isinstance(directive, LiftChain):
            for member in directive.chain:
                if member not in world.modules:
                    raise ValidationError(f"{where}: unknown chain member {member!r}")
    return sorted(entries, key=lambda e: (e.tick, e.module_id))


def _check_port(world: World, module_id: str, port: int, where: str) -> None:
    num_ports = world.modules[module_id].spec.num_ports
    if not 0 <= port < num_ports:
        raise ValidationError(
            f"{where}: port {port} invalid for {module_id} ({num_ports} ports)")


def build_world_from_script(script: ScenarioScript, config: SimConfig) -> World:
    """The initial world of a custom scenario: its modules, then its
    connections, each checked by :func:`can_dock` and for adjacency."""
    world = _add_modules(World(config), script.modules)
    for i, c in enumerate(script.connections):
        where = f"connections[{i}]"
        try:
            reason = can_dock(world, c["a"], c["port_a"], c["b"], c["port_b"],
                              c["orientation"])
        except KeyError as exc:
            raise ValidationError(f"{where}: unknown module {exc}") from exc
        except IndexError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        if reason is not None:
            raise ValidationError(
                f"{where}: {c['a']}:{c['port_a']}-{c['b']}:{c['port_b']} "
                f"rejected: {reason.value}")
        if world.distance(c["a"], c["b"]) > config.dock_reach_m:
            raise ValidationError(
                f"{where}: {c['a']} and {c['b']} are not adjacent")
        world.add_connection(DockConnection(
            c["a"], c["port_a"], c["b"], c["port_b"], c["orientation"]))
    return world


def _scenario_config(script: ScenarioScript) -> SimConfig:
    """The default config with the scenario's ``dt``, which it checks."""
    return SimConfig().with_overrides({} if script.dt is None else {"dt": script.dt})


def _check_param_ranges(script: ScenarioScript, config: SimConfig) -> None:
    """Refuse a builtin param below its least value, which the pitch sets."""
    takes = BUILTINS[script.builtin].params if script.builtin else {}
    for key, least in takes.items():
        bound = least * config.module_pitch
        if (value := script.params.get(key, bound)) < bound:
            raise ValidationError(f"'params': {key!r} must be >= {bound:g} m, got {value!r}")


def _gather_overrides(set_args: list[str]) -> dict:
    overrides: dict = {}
    env_path = os.environ.get(ENV_CONFIG)
    if env_path:
        try:
            defaults = json.loads(Path(env_path).read_text())
        except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
            raise ConfigError(f"bad {ENV_CONFIG} file {env_path}: {exc}") from exc
        if not isinstance(defaults, dict):
            raise ConfigError(f"{ENV_CONFIG} file must hold a JSON object")
        overrides.update(defaults)
    for pair in set_args or []:
        if "=" not in pair:
            raise ConfigError(f"--set takes key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def run(scenario_path: str, out_path: str, report_path: str,
        overrides: dict, verbose: bool) -> int:
    """Execute one scenario; returns the process exit status."""
    if Path(out_path).resolve() == Path(report_path).resolve():
        print(f"error: --out and --report both name {out_path}", file=sys.stderr)
        return 1
    try:
        script = load_scenario(scenario_path)
        config = _scenario_config(script).with_overrides(overrides)
        _check_param_ranges(script, config)
        log, report, success = _execute(script, config)
    except (ParseError, ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    opened: list[str] = []
    try:
        for path, text in ((out_path, log.to_jsonl()), (report_path, report.to_json())):
            with open(path, "w") as file:
                opened.append(path)
                file.write(text)
    except OSError as exc:
        for path in opened:  # leave neither output behind, nor half of one
            Path(path).unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if verbose:
        for record in log.records:
            print(record.to_json())
    print(f"wrote {out_path} ({len(log.records)} events) and {report_path}")
    if not success:
        print("scenario failed", file=sys.stderr)
        return 2
    return 0


def _execute(script: ScenarioScript, config: SimConfig
             ) -> tuple[EventLog, MetricsReport, bool]:
    if script.builtin is not None:
        return BUILTINS[script.builtin].run(config, script.params,
                                            max_ticks=script.max_ticks)
    world = build_world_from_script(script, config)
    engine = Engine(world, timeline=script.timeline,
                    max_ticks=script.max_ticks, shed_policy=script.shed_policy)
    log = engine.run()
    report = build_metrics(world, speeds={}, rescue_success=None)
    return log, report, not engine.halted


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; config errors are 1
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(prog="heterosim",
                     description="Heterogeneous modular robot organism simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario")
    run_parser.add_argument("--scenario", required=True)
    run_parser.add_argument("--out", default="events.jsonl",
                            help="event log path (JSON Lines)")
    run_parser.add_argument("--report", default="report.json",
                            help="metrics report path (JSON)")
    run_parser.add_argument("--set", dest="overrides", action="append", default=[],
                            metavar="KEY=VALUE", help="config override; repeatable")
    run_parser.add_argument("-v", "--verbose", action="store_true")

    validate_parser = sub.add_parser("validate", help="validate a scenario file")
    validate_parser.add_argument("--scenario", required=True)

    sub.add_parser("list-builtins", help="list built-in scenarios")

    args = parser.parse_args(argv)

    if args.command == "list-builtins":
        for name, builtin in BUILTINS.items():
            print(f"{name:<12}{builtin.description}")
        return 0

    if args.command == "validate":
        try:
            script = load_scenario(args.scenario)
            config = _scenario_config(script)
            _check_param_ranges(script, config)
            if script.builtin is None:
                build_world_from_script(script, config)
        except (ParseError, ValidationError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        what = script.builtin or f"{len(script.modules)} modules"
        print(f"ok: {args.scenario} ({what})")
        return 0

    try:
        overrides = _gather_overrides(args.overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(args.scenario, args.out, args.report, overrides, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
