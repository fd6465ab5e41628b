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
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .config import ConfigError, SimConfig
from .docking import can_dock
from .engine import Engine
from .experiments import (
    MetricsReport,
    ScenarioError,
    build_metrics,
    run_assembly_experiment,
    run_rescue_experiment,
)
from .model import DockConnection, ModuleKind, Posture, World, passive_spec
from .scenario import (
    BUILTIN_SCENARIOS,
    DockWith,
    EventLog,
    ScenarioScript,
    TimelineEntry,
    Undock,
    directive_from_dict,
    json_bool,
)

ENV_CONFIG = "HETEROSIM_CONFIG"


class ParseError(Exception):
    """The scenario file is not valid JSON or not readable."""


class ValidationError(Exception):
    """The scenario file parses but violates the schema."""


@dataclass
class RunConfig:
    scenario_path: str
    out_path: str = "events.jsonl"
    report_path: str = "report.json"
    overrides: dict = field(default_factory=dict)
    verbose: bool = False


_KINDS = {k.value: k for k in ModuleKind}


def load_scenario(path: str | Path) -> ScenarioScript:
    """Read and fully validate a scenario file."""
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
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")

    script = ScenarioScript()
    builtin = raw.get("builtin")
    if builtin is not None:
        if builtin not in BUILTIN_SCENARIOS:
            raise ValidationError(
                f"unknown builtin {builtin!r}; choices: {', '.join(BUILTIN_SCENARIOS)}")
        script.builtin = builtin
    script.params = raw.get("params", {})
    if not isinstance(script.params, dict):
        raise ValidationError("'params' must be an object")
    if "dt" in raw:
        script.dt = float(raw["dt"])
        if not 0 < script.dt < math.inf:
            raise ValidationError(f"'dt' must be finite and > 0, got {script.dt}")
    script.max_ticks = int(raw.get("max_ticks", script.max_ticks))
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

    script.modules = _validate_modules(raw.get("modules", []))
    ids_to_spec = {
        m["id"]: _module_spec_of(m) for m in script.modules
    }
    script.connections = _validate_connections(raw.get("connections", []), ids_to_spec)
    script.timeline = _validate_timeline(raw.get("timeline", []), ids_to_spec)
    if not script.modules:
        raise ValidationError("scenario defines no modules and no builtin")
    return script


def _module_spec_of(entry: dict):
    if entry["kind"] is ModuleKind.PASSIVE:
        p = entry.get("passive", {})
        return passive_spec(
            num_ports=int(p.get("ports", 1)),
            mass_kg=float(p.get("mass", 1.0)),
            compute_mips=int(p.get("compute", 0)),
            energy_wh=float(p.get("energy_wh", 0.0)),
            can_actively_lock=_json_bool(p.get("can_lock", False), "'can_lock'"),
        )
    from .model import spec_for
    return spec_for(entry["kind"])


def _json_bool(value: object, what: str) -> bool:
    try:
        return json_bool(value)
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def _validate_modules(raw_modules) -> list[dict]:
    if not isinstance(raw_modules, list):
        raise ValidationError("'modules' must be a list")
    seen: set[str] = set()
    modules = []
    for i, entry in enumerate(raw_modules):
        where = f"modules[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: must be an object")
        try:
            module_id = str(entry["id"])
            kind_name = str(entry["kind"])
        except KeyError as exc:
            raise ValidationError(f"{where}: missing field {exc}") from exc
        if module_id in seen:
            raise ValidationError(f"{where}: duplicate module id {module_id!r}")
        seen.add(module_id)
        if kind_name not in _KINDS:
            raise ValidationError(
                f"{where}: unknown kind {kind_name!r}; choices: {sorted(_KINDS)}")
        pos = entry.get("pos", [0.0, 0.0])
        if not (isinstance(pos, list) and len(pos) == 2):
            raise ValidationError(f"{where}: 'pos' must be [x, y]")
        heading = int(entry.get("heading", 0))
        if heading not in (0, 90, 180, 270):
            raise ValidationError(f"{where}: heading must be 0/90/180/270")
        soc = float(entry.get("soc", 1.0))
        if not 0.0 <= soc <= 1.0:
            raise ValidationError(f"{where}: soc must be in [0, 1]")
        modules.append({
            "id": module_id,
            "kind": _KINDS[kind_name],
            "pos": (float(pos[0]), float(pos[1])),
            "heading": heading,
            "soc": soc,
            "sharing": _json_bool(entry.get("sharing", True), f"{where}: 'sharing'"),
            "fallen_port": entry.get("fallen_port"),
            "passive": entry.get("passive", {}),
        })
    return modules


def _validate_connections(raw_connections, ids_to_spec) -> list[dict]:
    if not isinstance(raw_connections, list):
        raise ValidationError("'connections' must be a list")
    connections = []
    used_ports: set[tuple[str, int]] = set()
    for i, entry in enumerate(raw_connections):
        where = f"connections[{i}]"
        try:
            a, port_a = str(entry["a"]), int(entry["port_a"])
            b, port_b = str(entry["b"]), int(entry["port_b"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"{where}: missing field {exc}") from exc
        orientation = int(entry.get("orientation", 0))
        for mid, port in ((a, port_a), (b, port_b)):
            if mid not in ids_to_spec:
                raise ValidationError(f"{where}: unknown module {mid!r}")
            if not 0 <= port < ids_to_spec[mid].num_ports:
                raise ValidationError(
                    f"{where}: port {port} invalid for {mid} "
                    f"({ids_to_spec[mid].num_ports} ports)")
            if (mid, port) in used_ports:
                raise ValidationError(f"{where}: port {port} of {mid} used twice")
            used_ports.add((mid, port))
        if orientation not in (0, 90, 180, 270):
            raise ValidationError(f"{where}: orientation must be 0/90/180/270")
        connections.append({"a": a, "port_a": port_a, "b": b, "port_b": port_b,
                            "orientation": orientation})
    return connections


def _validate_timeline(raw_timeline, ids_to_spec) -> list[TimelineEntry]:
    if not isinstance(raw_timeline, list):
        raise ValidationError("'timeline' must be a list")
    entries = []
    keys: set[tuple[int, str]] = set()
    for i, entry in enumerate(raw_timeline):
        where = f"timeline[{i}]"
        try:
            tick = int(entry["tick"])
            module_id = str(entry["module"])
            directive_raw = entry["directive"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"{where}: missing field {exc}") from exc
        if tick < 0:
            raise ValidationError(f"{where}: tick must be >= 0")
        if module_id not in ids_to_spec:
            raise ValidationError(f"{where}: unknown module {module_id!r}")
        if (tick, module_id) in keys:
            raise ValidationError(
                f"{where}: duplicate timeline key (tick {tick}, module {module_id!r})")
        keys.add((tick, module_id))
        try:
            directive = directive_from_dict(directive_raw)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        spec = ids_to_spec[module_id]
        if isinstance(directive, (DockWith, Undock)):
            own_port = directive.own_port if isinstance(directive, DockWith) else directive.port
            if not 0 <= own_port < spec.num_ports:
                raise ValidationError(
                    f"{where}: port {own_port} invalid for {module_id} "
                    f"({spec.num_ports} ports)")
        if isinstance(directive, DockWith):
            if directive.peer not in ids_to_spec:
                raise ValidationError(f"{where}: unknown peer {directive.peer!r}")
            peer_spec = ids_to_spec[directive.peer]
            if not 0 <= directive.peer_port < peer_spec.num_ports:
                raise ValidationError(
                    f"{where}: peer port {directive.peer_port} invalid for "
                    f"{directive.peer} ({peer_spec.num_ports} ports)")
        entries.append(TimelineEntry(tick, module_id, directive))
    entries.sort(key=lambda e: (e.tick, e.module_id))
    return entries


def build_world_from_script(script: ScenarioScript, config: SimConfig) -> World:
    world = World(config)
    for m in script.modules:
        spec = _module_spec_of(m) if m["kind"] is ModuleKind.PASSIVE else None
        posture = Posture(fallen_port=m["fallen_port"]) if m["fallen_port"] is not None \
            else Posture()
        world.add_module(
            m["id"], m["kind"], pos=m["pos"], heading_deg=m["heading"],
            soc=m["soc"], sharing_on=m["sharing"], spec=spec, posture=posture)
    for c in script.connections:
        reason = can_dock(world, c["a"], c["port_a"], c["b"], c["port_b"],
                          c["orientation"])
        if reason is not None:
            raise ValidationError(
                f"connection {c['a']}:{c['port_a']}-{c['b']}:{c['port_b']} "
                f"rejected: {reason.value}")
        limit = config.module_pitch * (1.0 + config.misalignment_tolerance)
        if world.distance(c["a"], c["b"]) > limit:
            raise ValidationError(
                f"connection {c['a']}-{c['b']}: modules are not adjacent")
        world.add_connection(DockConnection(
            c["a"], c["port_a"], c["b"], c["port_b"], c["orientation"]))
    return world


def _gather_overrides(set_args: list[str]) -> dict:
    overrides: dict = {}
    env_path = os.environ.get(ENV_CONFIG)
    if env_path:
        try:
            defaults = json.loads(Path(env_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
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


def run(run_config: RunConfig) -> int:
    """Execute one scenario; returns the process exit status."""
    try:
        overrides = dict(run_config.overrides)
        script = load_scenario(run_config.scenario_path)
        config = SimConfig()
        if script.dt is not None:
            config = config.with_overrides({"dt": script.dt})
        config = config.with_overrides(overrides)
    except (ParseError, ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        log, report, success = _execute(script, config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    Path(run_config.out_path).write_text(log.to_jsonl())
    Path(run_config.report_path).write_text(report.to_json())
    if run_config.verbose:
        for record in log.records:
            print(record.to_json())
    print(f"wrote {run_config.out_path} ({len(log.records)} events) "
          f"and {run_config.report_path}")
    if not success:
        print("scenario failed", file=sys.stderr)
        return 2
    return 0


def _execute(script: ScenarioScript, config: SimConfig
             ) -> tuple[EventLog, MetricsReport, bool]:
    if script.builtin == "assembly":
        return run_assembly_experiment(config, script.params,
                                       max_ticks=script.max_ticks)
    if script.builtin == "rescue":
        return run_rescue_experiment(config, script.params,
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
        print("assembly    four robots dock into one organism, lift, and drive on wheels")
        print("rescue      an Active Wheel rights a fallen Backbone after a call for help")
        return 0

    if args.command == "validate":
        try:
            script = load_scenario(args.scenario)
            if script.builtin is None:
                build_world_from_script(script, SimConfig())
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
    return run(RunConfig(
        scenario_path=args.scenario,
        out_path=args.out,
        report_path=args.report,
        overrides=overrides,
        verbose=args.verbose,
    ))


if __name__ == "__main__":
    sys.exit(main())
