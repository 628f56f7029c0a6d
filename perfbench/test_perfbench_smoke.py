"""Smoke test of the benchmark: every workload on a 3x3 grid, checked by its oracles."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# faults of today's program that the smoke points reach (see families.known_fault)
EXPECTED_FAULTS = {
    "scan-obstructed-admits": {"analyze:F1", "analyze:F2", "analyze:F3"},
    "vanishing-verify": set(),
}


def test_smoke_runs_every_workload_with_its_oracles_and_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {(r["workload"], r["trace"]) for r in lines} == {
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    }
    for r in lines:
        assert r["correct"], r["errors"]
        assert r["attempted"] > 0
        assert set(r["faults"]) <= EXPECTED_FAULTS[r["workload"]]
        assert sum(r["faults"].values()) == r["failed"]
        wanted = spec["per_layer"] if r["trace"] else spec["end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            k: v["unit"] for k, v in r["metrics"].items()
        }
    counts = {(r["workload"], r["trace"]): r["metrics"] for r in lines}
    # an opposite point, analyzed or verified, builds exactly one frame
    assert counts["vanishing-verify", 1]["geometry.frames_per_point"]["value"] == 1.0
