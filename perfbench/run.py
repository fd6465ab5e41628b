"""The heterosim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {builtins,convoy,bus_ensemble} \\
        --seed N --seconds S --trace {0,1}

It imports heterosim from ``src/`` of the checkout it sits in, makes the
workload's inputs from ``--seed``, runs one untimed round that records the
simulated counters, then repeats timed rounds until ``--seconds`` have
passed. Every op is checked (see ``rounds.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the time runs untraced and half traced, and the metrics
are the per-layer ones plus the tracing overhead. The exit status is 0 when
every check passed, 1 when one failed, and 2 when there is nothing to run.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"
WORKLOADS = ("builtins", "convoy", "bus_ensemble")
SETUP_PROBES = 9
# The tail percentile of tick time reported as tick_ms_p99: p99 where a run
# times tens of thousands of ticks, p95 for convoy, which times about 400,
# so that at least ten ticks lie beyond it. It is fixed per workload so
# that a faster or slower run reports the same percentile.
TAIL_PERCENTILE = {"builtins": 99, "convoy": 95, "bus_ensemble": 99}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- measurement helpers ---------------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured by one fresh interpreter (see setup_probe.py)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    if Path(probe["module"]).resolve().parent != SRC / "heterosim":
        raise RuntimeError(f"set-up probe imported heterosim from {probe['module']}")
    return probe["setup_s"]


def percentile(samples: list[int], q: int) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


@contextlib.contextmanager
def bus_counters(counts: Counter):
    """Count limiter trips and charging members over every bus solution."""
    import heterosim.powerbus as powerbus

    original = powerbus.solve_bus

    def counted(*args, **kwargs):
        solution = original(*args, **kwargs)
        counts["limiter_trips"] += sum(solution.limiter_tripped.values())
        counts["charging_members"] += sum(
            1 for amps in solution.charge_current.values() if amps > 0)
        return solution

    powerbus.solve_bus = counted
    try:
        yield
    finally:
        powerbus.solve_bus = original


@contextlib.contextmanager
def round_runner(workload: str, inputs: dict):
    import rounds

    if workload == "convoy":
        yield lambda result: rounds.run_convoy_round(inputs, result)
    elif workload == "bus_ensemble":
        yield lambda result: rounds.run_bus_round(inputs, result)
    else:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            runner = rounds.BuiltinsRunner(inputs, Path(workdir))
            try:
                yield runner.run_round
            finally:
                runner.close()


def one_round(run_round, reference: str | None = None):
    from rounds import RoundResult

    result = RoundResult()
    try:
        run_round(result)
    except Exception as exc:
        result.ops = max(result.ops, 1)
        result.fail(result.ops - result.failed, f"round raised {exc!r}")
    if reference is not None:
        if result.digest.hexdigest() != reference:
            result.fail(result.ops - result.failed, "event logs differ from the first round")
        # Timed rounds keep only what the metrics need, so the benchmark's
        # own memory does not grow with the number of rounds a run fits in.
        result.digest = result.events = None
    return result


def rounds_for(run_round, seconds: float, reference: str, probe=None) -> tuple[list, list]:
    """Timed rounds until ``seconds`` have passed. With ``probe``, one
    set-up probe runs before the round that passes each SETUP_PROBES-th of
    the time, so set-up is sampled across the run like the rounds are."""
    results, setup = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if probe is not None and len(setup) < SETUP_PROBES \
                and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        results.append(one_round(run_round, reference))
    return results, setup


# -- the two kinds of run ------------------------------------------------------------

def end_to_end(workload: str, measured: list, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of the timed rounds.

    Every round does the same work, but the host alternates between a fast
    and a slow state lasting seconds (about 1.5x apart on a shared 2-core
    virtual machine), so a median over all rounds depends on how long each
    state lasted. The median and the rate are therefore taken over the slowest
    quarter of the rounds, ranked by host time per simulated second, which
    reads the slow state whenever it lasted an eighth of the run. The tail
    is taken over every round: it comes from the slow state anyway, and
    picking slow rounds would over-count the rounds a passing disturbance
    hit.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ranked = sorted(measured, key=lambda r: r.host_s / r.sim_s)
    kept = ranked[len(ranked) * 3 // 4:]
    kept_ns = [ns for r in kept for ns in r.step_ns]
    all_ns = [ns for r in measured for ns in r.step_ns]
    q = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sim_rtf": (statistics.median(r.sim_s / r.host_s for r in kept), "sim_s/s"),
        "tick_ms_p50": (statistics.median(kept_ns) / 1e6, "ms"),
        "tick_ms_p99": (percentile(all_ns, q) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    notes = [f"setup_s: median of {len(setup)} probes",
             f"sim_rtf, tick_ms_p50: the slowest {len(kept)} of {len(measured)} rounds, "
             f"{len(kept_ns)} ticks",
             f"tick_ms_p99: p{q} of all {len(all_ns)} ticks, "
             f"{len(all_ns) - math.ceil(q / 100 * len(all_ns))} beyond it"]
    return metrics, notes


def traced(workload: str, run_round, seconds: float, reference: str, spans: Path):
    """Untraced rounds for half the time, then traced rounds for the other
    half. Returns (per-layer metrics, all rounds, errors)."""
    from tracing import MOST_WORK, Tracer

    untraced, _ = rounds_for(run_round, seconds / 2, reference)
    tracer = Tracer()
    tracer.install()
    traced_rounds, per_round, counts = [], [], []
    try:
        start = time.perf_counter()
        while not traced_rounds or time.perf_counter() - start < seconds / 2:
            tracer.reset()
            tracer.keep_spans = not traced_rounds
            tracer.trace_id = len(traced_rounds)
            tracer.active = True
            result = one_round(run_round, reference)
            tracer.active = False
            traced_rounds.append(result)
            per_round.append(tracer.metrics())
            counts.append(tracer.counts())
    finally:
        leftover = tracer.restore()
    tracer.write_spans(spans)

    errors = [f"wrapper not restored: {name}" for name in leftover]
    if any(c != counts[0] for c in counts):
        errors.append("call counts differ between traced rounds")
    errors += [f"layer {layer} made no calls on {workload}" for layer in MOST_WORK[workload]
               if not any(n for key, n in counts[0].items()
                          if key.startswith(layer + ".") and key.endswith(".calls"))]

    metrics = {}
    for name, value in per_round[0].items():
        timed = name.endswith("ms")
        if timed:
            value = statistics.median(m[name] for m in per_round)
        unit = "ms" if timed else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (value, unit)
    overhead = (statistics.median(r.host_s for r in traced_rounds)
                / statistics.median(r.host_s for r in untraced) - 1.0)
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics, untraced + traced_rounds, errors


# -- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heterosim" / "__init__.py").is_file():
        print(f"error: no heterosim sources under {SRC}", file=sys.stderr)
        return 2
    # The CLI would take config defaults from this file; the workloads use none.
    os.environ.pop("HETEROSIM_CONFIG", None)
    sys.path.insert(0, str(SRC))
    import heterosim
    if Path(heterosim.__file__).resolve().parent != SRC / "heterosim":
        print(f"error: heterosim imported from {heterosim.__file__}", file=sys.stderr)
        return 2
    from inputs import INPUTS

    inputs = INPUTS[args.workload](args.seed)
    bus = Counter()
    with round_runner(args.workload, inputs) as run_round:
        with bus_counters(bus):
            record = one_round(run_round)
        reference = record.digest.hexdigest()
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, measured, errors = traced(args.workload, run_round,
                                               args.seconds, reference, spans)
            notes = []
        else:
            # The first probe may compile bytecode into the checkout; drop it.
            setup_probe(args.workload, args.seed)
            measured, setup = rounds_for(
                run_round, args.seconds, reference,
                probe=lambda: setup_probe(args.workload, args.seed))
            metrics, notes = end_to_end(args.workload, measured, setup)
            errors = []

    determinism = {
        "workload": args.workload,
        "seed": args.seed,
        "ticks": record.ticks,
        "events": dict(sorted(record.events.items())),
        "docks": record.events["Docked"],
        "broadcasts": record.events["Broadcast"],
        "limiter_trips": bus["limiter_trips"],
        "charging_members": bus["charging_members"],
        "event_log_sha256": reference,
    }
    if args.workload == "bus_ensemble":
        errors += [f"bus_ensemble made no {name}" for name in
                   ("docks", "broadcasts", "limiter_trips", "charging_members")
                   if determinism[name] == 0]
    every = [record, *measured]
    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)
    errors = [e for r in every for e in r.errors] + errors
    correct = failed == 0 and not errors

    print(f"heterosim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(measured)} rounds, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':36s} {failed / attempted:>14.6g} ({failed}/{attempted} ops)")
    for note in notes:
        print(f"  # {note}")
    print("determinism " + json.dumps(determinism))
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
