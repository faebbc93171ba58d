"""Every call of the benchmark's workloads passes the benchmark's own check
of its output, so a change that drops an output key or rejects a workload's
model fails here, not only as a benchmark failure."""

import json
import sys
from pathlib import Path

import pytest

from envqueue.cli import main

# perfbench is imported from the repository root, as perfbench/run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_call_passes_its_oracle(name, tmp_path):
    failures = []
    for call in workloads.build(name, tmp_path, seed=1).calls:
        outdir = tmp_path / call.name
        code = main([*call.argv, "--out", str(outdir)])
        failures += [f"{call.name}: {msg}" for msg in call.check(outdir, code)]
    assert failures == []


def test_every_bounds_call_reports_isotone_systems(tmp_path):
    # the uniformized chain's evidence holds at every bounds point the benchmark runs
    flags = {}
    for name in workloads.WORKLOADS:
        for call in workloads.build(name, tmp_path, seed=1).calls:
            if call.command == "bounds":
                outdir = tmp_path / name / call.name
                assert main([*call.argv, "--out", str(outdir)]) == 0
                rec = json.loads((outdir / "bounds.json").read_text())
                flags[f"{name}/{call.name}"] = [rec[f"isotone_{tag}"] for tag in ("minus", "o", "plus")]
    assert len(flags) == 6
    assert flags == {call: [True, True, True] for call in flags}
