"""Golden chaos drills: the quick seed-7 summaries pinned across commits.

The drill CLI checks that two runs of *one* commit agree.  These tests
compare each summary with a file recorded from an earlier commit, so a
change anywhere on the serving recovery path (engine retries, health
transitions, re-queueing, device-clock times to 1e-9 s) fails here
even when it is deterministic.
"""

import json
from pathlib import Path

import pytest

from repro.serve.chaos import DrillConfig, run_cluster_drill, run_drill

DATA = Path(__file__).resolve().parents[1] / "data"
CFG = DrillConfig(seed=7, requests=500, quick=True)


@pytest.mark.parametrize(
    "drill, golden",
    [
        (run_drill, "chaos_drill_seed7_quick.json"),
        (run_cluster_drill, "chaos_cluster_drill_seed7_quick.json"),
    ],
)
def test_summary_matches_golden(drill, golden):
    result = drill(CFG)
    assert result.ok, result.violations
    expected = json.loads((DATA / golden).read_text())
    assert json.loads(result.to_json()) == expected
