"""Every call of the benchmark's workloads passes the benchmark's own check
of its output, so a change that drops an output key or rejects a workload's
model fails here, not only as a benchmark failure."""

import json
import sys
from pathlib import Path

import pytest

from envqueue import bounds
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


def test_exact_solve_runs_only_where_gamma_differs_from_mu(tmp_path, monkeypatch):
    # at mu = gamma TH_o comes from the target's autonomous environment: the exact solve runs once per
    # other gamma of a sweep, and at no bounds point the benchmark runs
    gammas, solved = [], []
    build_triple, exact_tail = bounds.build_triple, bounds._exact_tail

    def build_spy(lam, mu, nu, gamma, b):
        gammas.append(gamma)
        return build_triple(lam, mu, nu, gamma, b)

    def exact_spy(model, *blocks):
        solved.append(gammas[-1])
        return exact_tail(model, *blocks)

    monkeypatch.setattr(bounds, "build_triple", build_spy)
    monkeypatch.setattr(bounds, "_exact_tail", exact_spy)
    runs = {}
    for name in workloads.WORKLOADS:
        for call in workloads.build(name, tmp_path, seed=1).calls:
            if call.command in ("bounds", "sweep"):
                gammas.clear()
                solved.clear()
                assert main([*call.argv, "--out", str(tmp_path / name / call.name)]) == 0
                mu = float(call.argv[call.argv.index("--mu") + 1])
                runs[f"{name}/{call.name}"] = (mu, list(map(float, gammas)), list(map(float, solved)))
    # (mu, the gammas analysed, the gammas solved exactly)
    assert runs == {
        "heavy_traffic/bounds_rho0.95": (1.0, [1.0], []),
        "heavy_traffic/sweep_rho0.95": (1.0, [1.0, 2.0], [2.0]),
        "large_env/bounds_b50": (2.0, [2.0], []),
        "large_env/bounds_b100": (2.0, [2.0], []),
        "replications/bounds_sim_b2": (2.0, [2.0], []),
        "replications/bounds_sim_b1": (2.0, [2.0], []),
        "cli_batch/bounds_b2": (2.0, [2.0], []),
        "cli_batch/sweep_b2": (2.0, [1.0, 2.0], [1.0]),
    }
