"""Pinned output digests: the event log and report of fixed runs.

Each scenario in ``tests/golden/`` is run through ``heterosim run`` and the
sha256 of both output files is compared with ``tests/golden/digests.json``.
The digests were taken once from a known-good build; a change that alters
any byte of a run's output fails here. Never regenerate them to make a
change pass: a moved digest means behaviour moved.
"""
import hashlib
import json
from pathlib import Path

import pytest

from heterosim.cli import ENV_CONFIG, main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert sha256(events) == expected["events_sha256"]
    assert sha256(report) == expected["report_sha256"]
