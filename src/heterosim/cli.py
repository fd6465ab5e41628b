"""Command-line surface: scenario ingestion, run orchestration, output files.

Subcommands: ``run`` executes a scenario and writes the event log (JSON
Lines) plus a metrics report (JSON); ``validate`` makes the checks of ``run``,
without overrides, and does not run the scenario; ``list-builtins`` names the
built-in experiments.
Exit status: 0 success, 1 configuration or validation problem, 2 the
scenario itself failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from .config import ConfigError, SimConfig
from .docking import can_dock
from .engine import SHED_POLICIES, Engine
from .experiments import BUILTINS, MetricsReport, judge
from .model import UPRIGHT, DockConnection, ModuleKind, Posture, World, passive_spec
from .scenario import (
    DockWith,
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
    """Parse a scenario file: its keys and the JSON type of each value.

    Ranges and references are checked by :func:`build_world_from_script`,
    which builds the run's world from the script.
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
    if script.shed_policy not in SHED_POLICIES:
        raise ValidationError("'shed_policy' must be 'halt' or 'shed'")

    if script.builtin is not None:
        for key in ("modules", "connections", "timeline"):
            if raw.get(key):
                raise ValidationError(f"builtin scenarios do not take {key!r}")
        return script

    script.modules = _entries(raw, "modules", _module_kwargs)
    if not script.modules:
        raise ValidationError("scenario defines no modules and no builtin")
    script.connections = _entries(raw, "connections", _connection)
    script.timeline = _entries(raw, "timeline", _timeline_entry)
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
    """The keyword arguments of ``World.add_module`` for one module entry; a
    passive block's ``spec`` holds the keyword arguments of :func:`passive_spec`.

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
        spec = dict(
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


def _connection(entry: dict) -> dict:
    return {"a": json_str(entry["a"], "'a'"), "b": json_str(entry["b"], "'b'"),
            "port_a": json_int(entry["port_a"], "'port_a'"),
            "port_b": json_int(entry["port_b"], "'port_b'"),
            "orientation": json_int(entry.get("orientation", 0), "'orientation'")}


def _timeline_entry(entry: dict) -> TimelineEntry:
    return TimelineEntry(json_int(entry["tick"], "'tick'"),
                         json_str(entry["module"], "'module'"),
                         directive_from_dict(entry["directive"]))


def _check_timeline(entries: list[TimelineEntry], world: World) -> None:
    """Refuse an entry that names a module or port ``world`` lacks, or that
    repeats a (tick, module) pair; the engine runs them in that order."""
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


def _check_port(world: World, module_id: str, port: int, where: str) -> None:
    num_ports = world.modules[module_id].spec.num_ports
    if not 0 <= port < num_ports:
        raise ValidationError(
            f"{where}: port {port} invalid for {module_id} ({num_ports} ports)")


def build_world_from_script(script: ScenarioScript, config: SimConfig) -> World:
    """The initial world of a custom scenario, the one place a script's ranges
    and references are checked: its modules by the model, its connections by
    :func:`can_dock` and for adjacency, then its timeline against the world."""
    world = World(config)
    for i, kwargs in enumerate(script.modules):
        try:
            spec = None if kwargs["spec"] is None else passive_spec(**kwargs["spec"])
            world.add_module(**kwargs | {"spec": spec})
        except ValueError as exc:
            raise ValidationError(f"modules[{i}]: {exc}") from exc
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
    _check_timeline(script.timeline, world)
    return world


def _prepare(path: str, overrides: dict
             ) -> tuple[ScenarioScript, Engine, Callable[[Engine], tuple[MetricsReport, bool]]]:
    """The checked script at ``path``, its engine, not yet run, and its judge:
    the one path of ``validate`` and ``run``. The config takes the scenario's
    ``dt``, then ``overrides``."""
    script = load_scenario(path)
    config = SimConfig().with_overrides({} if script.dt is None else {"dt": script.dt})
    config = config.with_overrides(overrides)
    if script.builtin is None:
        return script, Engine(build_world_from_script(script, config), timeline=script.timeline,
                              max_ticks=script.max_ticks, shed_policy=script.shed_policy), judge
    builtin = BUILTINS[script.builtin]
    try:
        engine = builtin.start(config, script.params, script.max_ticks, script.shed_policy)
    except ValueError as exc:  # a param below its least value or out of range
        raise ValidationError(f"'params': {exc}") from exc
    return script, engine, builtin.judge


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
    """Execute one scenario; returns the exit status, 0 or 2. Bad input
    raises before anything runs; an output that cannot be written raises
    ``OSError`` and leaves no output file behind."""
    if Path(out_path).resolve() == Path(report_path).resolve():
        raise ConfigError(f"--out and --report both name {out_path}")
    _, engine, judge_run = _prepare(scenario_path, overrides)
    log = engine.run()
    report, success = judge_run(engine)

    opened: list[str] = []
    try:
        for path, text in ((out_path, log.to_jsonl()), (report_path, report.to_json())):
            with open(path, "w") as file:
                opened.append(path)
                file.write(text)
    except OSError:
        for path in opened:  # leave neither output behind, nor half of one
            Path(path).unlink(missing_ok=True)
        raise
    if verbose:
        for record in log.records:
            print(record.to_json())
    print(f"wrote {out_path} ({len(log.records)} events) and {report_path}")
    if not success:
        print("scenario failed", file=sys.stderr)
        return 2
    return 0


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

    try:
        if args.command == "run":
            return run(args.scenario, args.out, args.report,
                       _gather_overrides(args.overrides), args.verbose)
        script = _prepare(args.scenario, {})[0]
    except (ParseError, ValidationError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    what = script.builtin or f"{len(script.modules)} modules"
    print(f"ok: {args.scenario} ({what})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
