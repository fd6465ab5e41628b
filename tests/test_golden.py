"""Pinned outputs: the event log and report of fixed runs.

Each scenario ``tests/golden/<name>.json`` is run through ``heterosim run``
and both output files are compared line by line with the expected ones in
``tests/golden/<name>/``, so a failure names the first line that differs.
The sha256 of both files is then compared with ``tests/golden/digests.json``,
which also pins the expected files themselves. They were taken once from a
known-good build; a change that alters any byte of a run's output fails
here. Never regenerate them to make a change pass: a moved output means
behaviour moved.
"""
import hashlib
import json
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import pytest

from heterosim.cli import ENV_CONFIG, main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def first_difference(got: Path, want: Path) -> Optional[str]:
    """The first line where ``got`` differs from ``want``, or None."""
    pairs = zip_longest(got.read_text().splitlines(), want.read_text().splitlines())
    for number, (line, expected) in enumerate(pairs, 1):
        if line != expected:
            return f"{want} line {number}:\n  expected {expected!r}\n  got      {line!r}"
    return None


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_pinned_digest(name, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    expected = DIGESTS[name]
    events, report = tmp_path / "events.jsonl", tmp_path / "report.json"
    argv = ["run", "--scenario", str(GOLDEN / f"{name}.json"),
            "--out", str(events), "--report", str(report)]
    for pair in expected["set"]:
        argv += ["--set", pair]
    assert main(argv) == expected["exit"]
    for got in (events, report):
        difference = first_difference(got, GOLDEN / name / got.name)
        assert difference is None, difference
    for got, key in ((events, "events_sha256"), (report, "report_sha256")):
        assert sha256(GOLDEN / name / got.name) == expected[key]
        assert sha256(got) == expected[key]
