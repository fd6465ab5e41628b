"""Per-layer tracing of heterosim from outside the package.

Each public function or method a layer exposes is wrapped where its caller
looks it up (a module global such as ``heterosim.engine.dispatch``, or a
class attribute such as ``World.organism_of``), so the program itself is
not edited. A wrapped call is a span: it records its duration, and its
duration minus the time covered by spans it caused is its self time. Calls
to ``World.distance`` are counted but not timed, because there are millions
of them and timing each would swamp the refresh that makes them.

Spans are aggregated per name as they close; the spans of one chosen round
are also kept whole in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

SPAN, COUNT = "span", "count"

#: (metric name, module whose attribute is patched, class or None, attribute, kind)
PATCHES = [
    ("scenario.refresh", "heterosim.scenario", "SensorMemory", "refresh", SPAN),
    ("scenario.dispatch", "heterosim.engine", None, "dispatch", SPAN),
    ("scenario.to_jsonl", "heterosim.scenario", "EventLog", "to_jsonl", SPAN),
    ("model.distance", "heterosim.model", "World", "distance", COUNT),
    ("model.adjacency", "heterosim.model", "World", "adjacency", SPAN),
    ("model.organism_of", "heterosim.model", "World", "organism_of", SPAN),
    ("model.connected_components", "heterosim.powerbus", None, "connected_components", SPAN),
    ("model.connected_components", "heterosim.experiments", None, "connected_components", SPAN),
    ("model.add_connection", "heterosim.model", "World", "add_connection", SPAN),
    ("model.remove_connection", "heterosim.model", "World", "remove_connection", SPAN),
    ("powerbus.step_energy", "heterosim.powerbus", None, "step_energy", SPAN),
    ("powerbus.solve_bus", "heterosim.powerbus", None, "solve_bus", SPAN),
    ("mechanics.organism_speed", "heterosim.mechanics", None, "organism_speed", SPAN),
    ("mechanics.lift_feasible", "heterosim.mechanics", None, "lift_feasible", SPAN),
    ("docking.can_dock", "heterosim.docking", None, "can_dock", SPAN),
    ("docking.can_dock", "heterosim.cli", None, "can_dock", SPAN),
    ("docking.dock", "heterosim.docking", None, "dock", SPAN),
    ("docking.undock", "heterosim.docking", None, "undock", SPAN),
    ("commnet.wireless_broadcast", "heterosim.commnet", None, "wireless_broadcast", SPAN),
    ("cli.main", "heterosim.cli", None, "main", SPAN),
    ("cli.load_scenario", "heterosim.cli", None, "load_scenario", SPAN),
    ("engine.step", "heterosim.engine", "Engine", "step", SPAN),
]
# Every controller class in heterosim.experiments gets its on_tick wrapped
# as "experiments.on_tick"; see Tracer.install.
CONTROLLER_MODULE = "heterosim.experiments"

#: The layers that do most of their work on each workload; a traced run
#: fails if one of them records no calls there.
MOST_WORK = {
    "builtins": ("powerbus", "experiments", "cli", "engine"),
    "convoy": ("scenario", "model", "mechanics", "engine"),
    "bus_ensemble": ("powerbus", "docking", "commnet", "engine"),
}


class Tracer:
    """Installs span wrappers, aggregates them, and restores the originals."""

    def __init__(self) -> None:
        self.active = False
        self.keep_spans = False
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- aggregation -------------------------------------------------------

    def reset(self) -> None:
        self.calls.clear()
        self.errors.clear()
        self.self_ns.clear()
        self.extra.clear()

    def _span(self, name: str, fn, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if tracer.keep_spans:
                    tracer.spans.append(
                        (tracer.trace_id, frame[0], parent, name, start, end))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every entry of :data:`PATCHES` and every controller's
        ``on_tick``. Raises if a patched name no longer exists."""
        extra = self.extra

        def solved(_solution) -> None:
            extra["solves_pending"] += 1

        def before_energy_step(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                extra["solves_pending"] = 0
                return fn(*args, **kwargs)
            return wrapper

        def energy_stepped(_world) -> None:
            extra["solves_used"] += extra["solves_pending"]

        def received(receivers) -> None:
            extra["receivers"] += len(receivers)

        after = {"powerbus.solve_bus": solved,
                 "powerbus.step_energy": energy_stepped,
                 "commnet.wireless_broadcast": received}
        try:
            for name, module_name, class_name, attribute, kind in PATCHES:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                fn = owner.__dict__[attribute]
                if kind == COUNT:
                    wrapper = self._count(name, fn)
                else:
                    if name == "powerbus.step_energy":
                        fn = before_energy_step(fn)
                    wrapper = self._span(name, fn, after.get(name))
                self._patch(owner, attribute, wrapper)
            controllers = importlib.import_module(CONTROLLER_MODULE)
            for value in list(vars(controllers).values()):
                if isinstance(value, type) and value.__module__ == CONTROLLER_MODULE \
                        and "on_tick" in value.__dict__:
                    self._patch(value, "on_tick",
                                self._span("experiments.on_tick", value.__dict__["on_tick"]))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not
        end up as their original object (empty when all is well)."""
        self.active = False
        leftover = []
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
            if owner.__dict__.get(attribute) is not original:
                leftover.append(f"{owner.__name__}.{attribute}")
        return leftover

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of what was recorded since :meth:`reset`."""
        c, ms = self.calls, (lambda name: self.self_ns[name] / 1e6)
        attempted = c["powerbus.solve_bus"]
        return {
            "scenario.refresh.ms": ms("scenario.refresh"),
            "scenario.refresh.calls": c["scenario.refresh"],
            "scenario.dispatch.calls": c["scenario.dispatch"],
            "scenario.to_jsonl.ms": ms("scenario.to_jsonl"),
            "model.distance.calls": c["model.distance"],
            "model.adjacency.calls": c["model.adjacency"],
            "model.adjacency.ms": ms("model.adjacency"),
            "model.organism_of.calls": c["model.organism_of"],
            "model.organism_of.ms": ms("model.organism_of"),
            "model.connected_components.calls": c["model.connected_components"],
            "model.connected_components.ms": ms("model.connected_components"),
            "model.add_connection.calls": c["model.add_connection"],
            "model.remove_connection.calls": c["model.remove_connection"],
            "powerbus.step_energy.ms": ms("powerbus.step_energy"),
            "powerbus.step_energy.calls": c["powerbus.step_energy"],
            "powerbus.step_energy.failed": self.errors["powerbus.step_energy"],
            "powerbus.solve_bus.ms": ms("powerbus.solve_bus"),
            "powerbus.solve_bus.calls": attempted,
            "powerbus.solve_bus.ok_ratio":
                self.extra["solves_used"] / attempted if attempted else 1.0,
            "mechanics.organism_speed.calls": c["mechanics.organism_speed"],
            "mechanics.organism_speed.ms": ms("mechanics.organism_speed"),
            "mechanics.lift_feasible.calls": c["mechanics.lift_feasible"],
            "mechanics.lift_feasible.ms": ms("mechanics.lift_feasible"),
            "docking.can_dock.calls": c["docking.can_dock"],
            "docking.can_dock.ms": ms("docking.can_dock"),
            "docking.dock.calls": c["docking.dock"],
            "docking.undock.calls": c["docking.undock"],
            "commnet.wireless_broadcast.calls": c["commnet.wireless_broadcast"],
            "commnet.wireless_broadcast.ms": ms("commnet.wireless_broadcast"),
            "commnet.receivers": self.extra["receivers"],
            "experiments.on_tick.ms": ms("experiments.on_tick"),
            "cli.main.ms": ms("cli.main"),
            "cli.load_scenario.ms": ms("cli.load_scenario"),
            "engine.step.calls": c["engine.step"],
            "engine.step.self_ms": ms("engine.step"),
        }

    def counts(self) -> dict[str, int]:
        """Exact call counts of what was recorded since :meth:`reset`."""
        return {**{f"{k}.calls": v for k, v in sorted(self.calls.items())},
                **{f"{k}.errors": v for k, v in sorted(self.errors.items())},
                "solves_used": self.extra["solves_used"],
                "receivers": self.extra["receivers"]}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for trace_id, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"trace": trace_id, "span": span_id,
                                      "parent": parent, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
