"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``

Makes the workload's inputs, then times importing heterosim from this
checkout and building the workload's first World and Engine, up to the
first tick. Prints ``{"setup_s": <seconds>, "module": <heterosim path>}``.
Before the clock starts only ``os``, ``sys``, ``time`` and the input
generator's ``math`` and ``random`` are imported, so modules heterosim
needs (``json``, ``pathlib``, ``dataclasses``...) are charged to set-up.
"""
import os
import sys
import time

from inputs import INPUTS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = INPUTS[workload](seed)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import heterosim
    from worlds import first_engine
    first_engine(workload, inputs)
    elapsed = time.perf_counter() - start
    import json
    print(json.dumps({"setup_s": elapsed, "module": heterosim.__file__}))


if __name__ == "__main__":
    main()
