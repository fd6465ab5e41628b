"""Round runners and correctness gates for the three workloads.

A *round* is the unit of repeated work: one ``builtins`` round is one CLI
run of each builtin, one ``convoy`` round is one pass of a fresh convoy
world, one ``bus_ensemble`` round is one sweep over its worlds. Every round
of a run has the same inputs, so every round must produce the same event
logs; the runner checks that.

An *op* is what can fail: one CLI run for ``builtins``, one tick for
``convoy`` and one world for ``bus_ensemble``. An op fails if it raises,
exits non-zero, leaves its engine halted (``Engine.step`` does not stop on
a ``FatalEvent``), or fails a gate: the paper's builtin values, the energy
ledger, port exclusivity, or every convoy organism still moving.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import heterosim.cli
import heterosim.experiments
from heterosim.engine import Engine
from heterosim.powerbus import total_stored_energy

from worlds import build_bus_world, build_convoy

LEDGER_TOLERANCE_WH = 1e-4


# -- results -------------------------------------------------------------------

@dataclass
class RoundResult:
    """What one round did. ``host_s`` covers only the program's work
    (building worlds, ticking, CLI runs), not the benchmark's own checks."""

    ops: int = 0
    failed: int = 0
    ticks: int = 0
    sim_s: float = 0.0
    host_s: float = 0.0
    step_ns: array = field(default_factory=lambda: array("q"))
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    events: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.errors.append(why)

    def record_log(self, records) -> str:
        """Add an event log to the round's digest and event counts; returns
        its JSON Lines text. Built from ``Event.to_json`` rather than
        ``EventLog.to_jsonl`` so a traced run does not count the
        benchmark's own hashing as the program's serialisation."""
        text = "".join(e.to_json() + "\n" for e in records)
        self.digest.update(text.encode())
        self.events.update(e.event for e in records)
        return text


def check_world(world, stored_before_wh: float) -> str | None:
    """Energy ledger and port exclusivity; returns why the world fails."""
    residual = (stored_before_wh - total_stored_energy(world)
                - world.delivered_load_wh - world.resistive_loss_wh)
    if not abs(residual) <= LEDGER_TOLERANCE_WH:
        return f"energy ledger residual {residual:.3e} Wh"
    try:
        world.check_port_exclusivity()
    except AssertionError as exc:
        return f"port exclusivity: {exc}"
    return None


def _tick(engine, result: RoundResult) -> int:
    """One timed ``Engine.step``; returns its host time in ns."""
    t0 = time.perf_counter_ns()
    engine.step()
    elapsed = time.perf_counter_ns() - t0
    result.step_ns.append(elapsed)
    result.ticks += 1
    result.sim_s += engine.config.dt
    return elapsed


# -- convoy ----------------------------------------------------------------------

def run_convoy_round(inputs: dict, result: RoundResult) -> None:
    ticks = inputs["ticks"]
    result.ops += ticks
    start = time.perf_counter_ns()
    world, engine = build_convoy(inputs)
    host_ns = time.perf_counter_ns() - start
    stored_before = total_stored_energy(world)
    start_pos = {mid: (st.pose.x, st.pose.y) for mid, st in world.modules.items()}
    failed = 0
    try:
        for _ in range(ticks):
            host_ns += _tick(engine, result)
            if engine.halted:
                failed += 1
    except Exception as exc:
        result.host_s += host_ns / 1e9
        result.fail(ticks - failed, f"convoy tick {world.tick} raised {exc!r}")
        return
    result.host_s += host_ns / 1e9
    result.record_log(engine.log.records)
    if failed:
        result.fail(failed, f"convoy engine halted in {failed} ticks")

    ended = {e.subjects[0] for e in engine.log.records
             if e.event in ("MoveComplete", "MoveAborted")}
    stopped = sum(
        1 for org in inputs["organisms"]
        if ended & set(org["ids"])
        or any((world.modules[mid].pose.x, world.modules[mid].pose.y) == start_pos[mid]
               for mid in org["ids"]))
    why = check_world(world, stored_before)
    if why is None and stopped:
        why = f"{stopped} convoy organisms stopped moving"
    if why is not None:
        result.fail(ticks - failed, why)


# -- bus_ensemble ------------------------------------------------------------------

def run_bus_round(inputs: dict, result: RoundResult) -> None:
    ticks = inputs["ticks"]
    for index, spec in enumerate(inputs["worlds"]):
        result.ops += 1
        start = time.perf_counter_ns()
        world, engine = build_bus_world(spec, ticks)
        host_ns = time.perf_counter_ns() - start
        stored_before = total_stored_energy(world)
        why = None
        try:
            for _ in range(ticks):
                host_ns += _tick(engine, result)
                if engine.halted:
                    why = f"bus world {index} halted at tick {world.tick - 1}"
                    break
        except Exception as exc:
            why = f"bus world {index} tick {world.tick} raised {exc!r}"
        result.host_s += host_ns / 1e9
        result.record_log(engine.log.records)
        why = why or check_world(world, stored_before)
        if why is not None:
            result.fail(1, why)


# -- builtins ----------------------------------------------------------------------

ASSEMBLY_GATES = "one 4-module organism, 12400 MIPS, 6 then 31 cm/s"


def builtin_report_error(name: str, report: dict) -> str | None:
    """The paper's values each builtin report must hold."""
    if name == "assembly":
        organisms = report.get("organisms", [])
        ok = (len(organisms) == 1 and len(organisms[0]["members"]) == 4
              and report.get("total_mips") == 12_400
              and report.get("speeds") == {"before_lift": 6.0, "after_lift": 31.0})
        return None if ok else f"assembly report lacks {ASSEMBLY_GATES}: {report}"
    if report.get("rescue_success") is not True:
        return f"rescue report has rescue_success {report.get('rescue_success')!r}"
    return None


class BuiltinsRunner:
    """Runs the builtins through ``heterosim.cli.main`` in this process.

    While installed it replaces ``heterosim.experiments.Engine`` with a
    subclass that times each ``step`` and keeps each engine and its
    starting stored energy, so every world's ledger can be checked after
    the CLI returns. Call :meth:`close` to put the original back.
    """

    def __init__(self, inputs: dict, workdir: Path):
        self._original_engine = heterosim.experiments.Engine
        self.engines: list = []
        self.step_ns = array("q")
        runner = self

        class TimedEngine(Engine):
            def __init__(self, world, **kwargs):
                runner.engines.append((self, total_stored_energy(world)))
                super().__init__(world, **kwargs)

            def step(self, *args, **kwargs):
                t0 = time.perf_counter_ns()
                events = super().step(*args, **kwargs)
                runner.step_ns.append(time.perf_counter_ns() - t0)
                return events

        heterosim.experiments.Engine = TimedEngine
        self.runs = []
        for scenario in inputs["scenarios"]:
            name = scenario["builtin"]
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(scenario))
            events, report = workdir / f"{name}.events.jsonl", workdir / f"{name}.report.json"
            argv = ["run", "--scenario", str(path), "--out", str(events), "--report", str(report)]
            self.runs.append((name, argv, events, report))

    def close(self) -> None:
        heterosim.experiments.Engine = self._original_engine

    def run_round(self, result: RoundResult) -> None:
        for name, argv, events, report in self.runs:
            result.ops += 1
            self.engines.clear()
            self.step_ns = array("q")
            sink = io.StringIO()
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = heterosim.cli.main(argv)
            except (Exception, SystemExit) as exc:  # argparse exits on bad argv
                result.host_s += (time.perf_counter_ns() - start) / 1e9
                result.fail(1, f"{name}: cli raised {exc!r}")
                continue
            result.host_s += (time.perf_counter_ns() - start) / 1e9
            result.step_ns.extend(self.step_ns)
            result.ticks += len(self.step_ns)
            if code != 0:
                result.fail(1, f"{name}: exit {code}: {sink.getvalue().strip()}")
                continue
            why = builtin_report_error(name, json.loads(report.read_text()))
            for engine, stored_before in self.engines:
                result.sim_s += engine.world.tick * engine.config.dt
                if result.record_log(engine.log.records) != events.read_text():
                    why = why or f"{name}: {events.name} differs from the engine's log"
                why = why or check_world(engine.world, stored_before)
                if engine.halted:
                    why = why or f"{name}: engine halted"
            if len(self.engines) != 1:
                why = why or f"{name}: expected one engine, saw {len(self.engines)}"
            if why is not None:
                result.fail(1, why)
