"""Command line front end: exit codes, manifests, file outputs."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import envqueue
from envqueue import bounds, cli, numerics, simulate
from envqueue.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, build_parser, main
from envqueue.model import InvalidParam
from envqueue.modelfile import load_model
from envqueue.separability import NotSeparable

from conftest import poisson_oracle


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_manifest(tmp_path):
    text = (tmp_path / "manifest.txt").read_text()
    return dict(line.split("=", 1) for line in text.strip().split("\n"))


BS = ("--catalog", "base_stock", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2")
PER = ("--catalog", "perishable_o", "--lambda", "1", "--mu", "2", "--nu", "1", "--gamma", "1", "--b", "2")
RATES = ("--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2")  # the options every perishable_o command reads


class TestExitCodes:
    def test_validate_ok(self, tmp_path):
        assert run(tmp_path, "validate", *BS) == EXIT_OK

    def test_separability_positive(self, tmp_path):
        assert run(tmp_path, "separability", *BS) == EXIT_OK
        rec = json.loads((tmp_path / "separability.json").read_text())
        assert rec["separable"]
        assert rec["theta"] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_separability_negative(self, tmp_path):
        assert run(tmp_path, "separability", *PER) == EXIT_NEGATIVE
        rec = json.loads((tmp_path / "separability.json").read_text())
        assert rec["reason"] == "NoCommonSolution"

    def test_certify_positive(self, tmp_path):
        assert run(tmp_path, "certify", *PER) == EXIT_OK
        rec = json.loads((tmp_path / "certificate.json").read_text())
        assert rec["epsilon"] > 0

    def test_certify_negative(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--catalog", "mm1_plain", "--lambda", "2", "--mu", "1")
        assert code == EXIT_NEGATIVE
        rec = json.loads((tmp_path / "certificate.json").read_text())
        detail = "queue tail ratio 2.0 is not below 1"
        assert rec == {"certified": False, "reason": "NecessaryFails", "detail": detail}
        assert capsys.readouterr().out == f"not certified: NecessaryFails {detail}\n"

    def test_validate_negative(self, tmp_path, capsys):
        assert run(tmp_path, "validate", "--model", split_model(tmp_path)) == EXIT_NEGATIVE
        assert capsys.readouterr().out == (
            "validate: FAIL (1 warnings)\n"
            "  SeveralClosedClasses: 2 closed classes; one holds [(0, 0), (1, 0)]\n")
        rec = json.loads((tmp_path / "validation.json").read_text())
        assert rec == {"passed": False, "violations": [],
                       "warnings": [["SeveralClosedClasses", "2 closed classes; one holds [(0, 0), (1, 0)]"]]}

    def test_missing_model_source_errors(self, tmp_path):
        assert run(tmp_path, "validate") == EXIT_ERROR

    def test_bad_params_error(self, tmp_path):
        code = run(tmp_path, "validate", "--catalog", "base_stock", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "0")
        assert code == EXIT_ERROR

    def test_catalog_params_checked(self, tmp_path):
        # a parameter the model does not take, and a missing one
        assert run(tmp_path, "validate", *BS, "--gamma", "1") == EXIT_ERROR
        assert run(tmp_path, "validate", "--catalog", "base_stock", "--lambda", "1", "--mu", "2") == EXIT_ERROR

    def test_missing_file_errors(self, tmp_path):
        assert run(tmp_path, "validate", "--model", "/no/such/file.yaml") == EXIT_ERROR


class TestSolveCommand:
    def test_solve_outputs(self, tmp_path):
        assert run(tmp_path, "solve", *BS, "--N", "120") == EXIT_OK
        rec = json.loads((tmp_path / "metrics.json").read_text())
        assert rec["throughput"] == pytest.approx(2 / 3, abs=1e-8)
        lines = (tmp_path / "stationary.csv").read_text().strip().split("\n")
        assert lines[0] == "n,k,pi"
        assert len(lines) == 1 + 121 * 3

    def test_auto_truncation_default(self, tmp_path):
        assert run(tmp_path, "solve", *PER) == EXIT_OK
        rec = json.loads((tmp_path / "metrics.json").read_text())
        # exact solve: levels listed up to the first with mass above it < tol
        assert 0.0 < rec["truncation_estimate"] < 1e-9
        assert rec["residual"] <= 1e-12
        lines = (tmp_path / "stationary.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + (rec["N"] + 1) * 3
        assert sum(float(line.split(",")[2]) for line in lines[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_auto_csv_reproducible(self, tmp_path):
        for out in ("a", "b"):
            assert main(["solve", *PER, "--out", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / "a" / "stationary.csv").read_bytes() == (tmp_path / "b" / "stationary.csv").read_bytes()

    def test_heavy_traffic_solves(self, tmp_path):
        code = run(tmp_path, "solve", "--catalog", "base_stock", "--lambda", "0.999", "--mu", "1",
                   "--nu", "3", "--b", "5")
        assert code == EXIT_OK
        rec = json.loads((tmp_path / "metrics.json").read_text())
        assert rec["throughput"] == pytest.approx(0.9962678467, abs=1e-9)

    def test_tail_with_one_closed_class_off_phase_0(self, tmp_path):
        # from level 1 on, state 0 moves to state 1, which it never leaves: the tail's phases have one closed
        # class, {1}, which misses phase 0 (a GTH on A refused it); both states work, so the queue is M/M/1
        eye = [[1.0, 0.0], [0.0, 1.0]]
        doc = {"rates": {"lambda_tail": [0.5], "mu_tail": [1.0]},
               "environment": {"labels": [0, 1], "blocked": [], "V_prefix": [[[-1.0, 1.0], [2.0, -2.0]]],
                               "R_prefix": [eye], "V_tail": [[[-1.0, 1.0], [0.0, 0.0]]], "R_tail": [eye]}}
        path = tmp_path / "one_closed_class.json"
        path.write_text(json.dumps(doc))
        assert run(tmp_path / "validate", "validate", "--model", str(path)) == EXIT_OK
        for out, argv in (("truncated", ["--N", "200"]), ("exact", [])):
            assert run(tmp_path / out, "solve", "--model", str(path), *argv) == EXIT_OK
            rec = json.loads((tmp_path / out / "metrics.json").read_text())
            assert rec["throughput"] == pytest.approx(0.5, rel=1e-14, abs=0.0), out
            assert rec["mean_queue_length"] == pytest.approx(1.0, rel=1e-14, abs=0.0), out

    def test_finite_buffer_takes_no_tol(self, tmp_path, capsys):
        # the finite-buffer solve lists all N + 1 levels: a tolerance was recorded in the manifest, not read
        assert run(tmp_path, "solve", *BS, "--N", "50", "--tol", "0.5") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: InvalidParam: solve --N takes no --tol: the finite-buffer solve lists all N + 1 levels\n"
        assert list(tmp_path.iterdir()) == []

    def test_manifest_records_the_tol_it_reads(self, tmp_path):
        assert run(tmp_path / "finite", "solve", *BS, "--N", "50") == EXIT_OK
        assert "tol" not in read_manifest(tmp_path / "finite")
        assert run(tmp_path / "exact", "solve", *BS) == EXIT_OK
        assert read_manifest(tmp_path / "exact")["tol"] == "1e-09"

    def test_cached_parser_keeps_no_option_value(self, tmp_path):
        # main builds each command's parser once per process: a run's options must not become the next one's
        assert run(tmp_path / "loose", "solve", *BS, "--tol", "1e-3") == EXIT_OK
        assert read_manifest(tmp_path / "loose")["tol"] == "0.001"
        assert run(tmp_path / "default", "solve", *BS) == EXIT_OK
        assert read_manifest(tmp_path / "default")["tol"] == "1e-09"
        assert cli._parser.cache_info().hits >= 1


def write_model(path, labels, blocked, V, R, lam=1.0, mu=2.0):
    doc = {"rates": {"lambda_tail": [lam], "mu_tail": [mu]},
           "environment": {"labels": labels, "blocked": blocked, "V_tail": [V], "R_tail": [R]}}
    path.write_text(json.dumps(doc))
    return str(path)


def absorbing_model(tmp_path):
    """One blocked environment state that never moves: every state absorbs."""
    return write_model(tmp_path / "absorbing.yaml", [0], [0], [[0.0]], [[1.0]])


def split_model(tmp_path):
    """Two working environment states that never switch: the chain is reducible."""
    return write_model(tmp_path / "split.json", [0, 1], [], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


def island_model(tmp_path):
    """Blocked state 0 moves to working state 1, which is never left: one closed class, and (n, 0) transient."""
    return write_model(tmp_path / "island.json", [0, 1], [0], [[-1.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


def all_blocked_model(tmp_path):
    """Two blocked environment states that switch: no state is working, so the queue never moves."""
    return write_model(tmp_path / "all_blocked.json", [0, 1], [0, 1], [[-1.0, 1.0], [1.0, -1.0]],
                       [[1.0, 0.0], [0.0, 1.0]], lam=0.5, mu=1.0)


# a section, list or `params` of the wrong type; each raised TypeError or AttributeError
ONE_STATE_ENV = "environment: {labels: [0], V_tail: [[[0.0]]], R_tail: [[[1.0]]]}\n"
MISTYPED_MODELS = {
    "tail.yaml": "rates: {lambda_tail: 1.0, mu_tail: [2.0]}\n" + ONE_STATE_ENV,
    "catalog.yaml": "catalog: base_stock\n",
    "rates.yaml": "rates: [1]\n" + ONE_STATE_ENV,
    "rate.yaml": "rates: {lambda_tail: [null], mu_tail: [2.0]}\n" + ONE_STATE_ENV,
    "blocked.json": json.dumps({"rates": {"lambda_tail": [1.0], "mu_tail": [2.0]},
                                "environment": {"labels": [0, 1], "blocked": 5, "V_tail": [[[-1, 1], [1, -1]]],
                                                "R_tail": [[[1, 0], [0, 1]]]}}),
    "catalog_rate.yaml": "catalog: {name: mm1_plain, params: {lam: [1], mu: 2}}\n",
    "catalog_level.yaml": "catalog: {name: base_stock, params: {lam: 1, mu: 2, nu: 1, b: [2]}}\n",
    "catalog_depth.yaml": "catalog: {name: onoff_a, params: {eta: 1, gamma: 1, depth: 2.5}}\n",
    # YAML 1.1 booleans, which were read as 1 and 0
    "catalog_bool.yaml": "catalog: {name: perishable_o, params: {lam: yes, mu: 2, nu: 1, gamma: off, b: on}}\n",
    "rate_bool.yaml": "rates: {lambda_tail: [yes], mu_tail: [2]}\n" + ONE_STATE_ENV,
    "matrix_bool.yaml": "rates: {lambda_tail: [1], mu_tail: [2]}\n"
                        "environment: {labels: [0, 1], V_tail: [[[-1, 1], [1, -1]]],"
                        " R_tail: [[[yes, no], [no, yes]]]}\n",
}

# a required key left out; each raised a bare KeyError
MISSING_KEY_MODELS = {
    "name": '{"catalog": {"params": {}}}',
    "lambda_tail": "rates: {mu_tail: [2.0]}\n" + ONE_STATE_ENV,
    "labels": "rates: {lambda_tail: [1.0], mu_tail: [2.0]}\nenvironment: {V_tail: [[[0.0]]], R_tail: [[[1.0]]]}\n",
    "R_tail": "rates: {lambda_tail: [1.0], mu_tail: [2.0]}\nenvironment: {labels: [0], V_tail: [[[0.0]]]}\n",
}



def two_state_text(labels="[0, 1]", blocked="[0]", V="[[-1, 1], [1, -1]]", R="[[1, 0], [0, 1]]"):
    return ("rates: {lambda_tail: [1], mu_tail: [2]}\n"
            f"environment: {{labels: {labels}, blocked: {blocked}, V_tail: [{V}], R_tail: [{R}]}}\n")


# two-state models, each malformed in one place, and the one error line every command gives for it
MALFORMED_MODELS = {
    "R_row_sums_half": (dict(R="[[0.5, 0], [0, 0.5]]"), "MalformedMatrix: R_tail[0] row 0 sums to 0.5, not 1"),
    "R_negative": (dict(R="[[1.5, -0.5], [0, 1]]"), "MalformedMatrix: R_tail[0] row 0 has a negative probability"),
    "V_nan": (dict(V="[[-1, .nan], [1, -1]]"), "MalformedMatrix: V_tail[0] row 0 has a non-finite entry"),
    "labels_list": (dict(labels="[[0]]"),
                    "InvalidParam: environment labels and blocked states must be hashable: unhashable type: 'list'"),
    "blocked_list": (dict(blocked="[[0]]"),
                     "InvalidParam: environment labels and blocked states must be hashable: unhashable type: 'list'"),
}


# run in a child whose address space is capped 64 MB above its size after the imports
MEMORY_CAP = """
import resource
from envqueue.cli import main
with open("/proc/self/statm") as fh:
    limit = int(fh.read().split()[0]) * resource.getpagesize() + (64 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
"""
MEMORY_PROBE = MEMORY_CAP + """
import sys
sys.exit(main(["solve", "--catalog", "base_stock", "--lambda", repr(1 - 1e-6), "--mu", "1", "--nu", "3", "--b", "5",
               "--out", sys.argv[1]]))
"""
# each command of the JSON list argv[1]: (exit code, stderr, seconds)
TIMED_COMMANDS = MEMORY_CAP + """
import contextlib, io, json, sys, time
results = []
for argv in json.loads(sys.argv[1]):
    err, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    results.append((code, err.getvalue(), time.perf_counter() - start))
print(json.dumps(results))
"""


def run_capped(script, *args):
    """`script` run by a fresh interpreter that imports this checkout's envqueue."""
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("no /proc/self/statm to size the cap")
    path = os.pathsep.join([str(Path(envqueue.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestErrorContract:
    """A valid negative answer exits 1; every library error exits 2 with one
    line on stderr."""

    def expect_error(self, capsys, code, name):
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {name}:"), err

    def test_not_ergodic_is_negative(self, tmp_path, capsys):
        code = run(tmp_path, "solve", "--catalog", "mm1_plain", "--lambda", "1.2", "--mu", "1")
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().out.startswith("not ergodic: ")
        assert (tmp_path / "manifest.txt").exists()

    def test_singular_solve(self, tmp_path, capsys):
        # one closed class, which misses state (0, 0): GTH finds the chain censored to level 0 reducible
        path = island_model(tmp_path)
        assert main(["solve", "--model", path, "--out", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: SingularSolve: no exit below state 1: chain not irreducible\n"

    def test_not_irreducible_truncation(self, tmp_path, capsys):
        code = main(["solve", "--model", absorbing_model(tmp_path), "--N", "10", "--out", str(tmp_path)])
        self.expect_error(capsys, code, "NotIrreducibleTruncation")

    def test_not_irreducible_truncation_names_level_and_component(self, tmp_path, capsys):
        # trap: blocked state 2 is never left and admits no arrival, so every (n, 2) absorbs
        V = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]
        trap = write_model(tmp_path / "trap.json", [0, 1, 2], [2], V, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        # split: the elimination reaches level 0, where GTH finds the censored chain reducible
        split = split_model(tmp_path)
        column = ", ".join(f"({n}, 0)" for n in range(10))
        for path, N, message in [
            (trap, "10", "Singular matrix eliminating level 10 of the chain capped at N = 10; "
                         "11 strong components below the cap: example component: [(0, 2)]"),
            (split, "20", "no exit below state 1: chain not irreducible eliminating level 0 of the chain capped at "
                          f"N = 20; 2 strong components below the cap: example component: [{column}]"),
        ]:
            assert main(["solve", "--model", path, "--N", N, "--out", str(tmp_path)]) == EXIT_ERROR
            assert capsys.readouterr().err == f"error: NotIrreducibleTruncation: {message}\n"

    def test_zero_exit_rate(self, tmp_path, capsys):
        code = main(["simulate", "--model", absorbing_model(tmp_path), "--horizon", "10", "--out", str(tmp_path)])
        self.expect_error(capsys, code, "ZeroExitRate")

    def test_not_separable_bound_system(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "product_form", lambda model: NotSeparable(reason="NoCommonSolution"))
        code = run(tmp_path, "bounds", "--catalog", "perishable_o", "--lambda", "1", "--mu", "2",
                   "--nu", "1", "--gamma", "1", "--b", "2")
        self.expect_error(capsys, code, "NotSeparableBoundSystem")

    def test_arithmetic_error(self, tmp_path, capsys, monkeypatch):
        def diverge(df, p):
            raise ArithmeticError(f"t quantile at df = {df}, p = {p} did not converge")

        monkeypatch.setattr(simulate, "_t_quantile", diverge)
        code = run(tmp_path, "simulate", "--catalog", "mm1_plain", "--lambda", "1", "--mu", "2", "--horizon", "10")
        self.expect_error(capsys, code, "ArithmeticError")

    def test_unmapped_exception_keeps_its_traceback(self, tmp_path, capsys, monkeypatch):
        def bug(model):
            raise RuntimeError("a library bug")

        monkeypatch.setattr(cli, "separability_report", bug)
        assert run(tmp_path, "separability", "--catalog", "mm1_plain", "--lambda", "1", "--mu", "2") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):") and ", in bug\n" in err, err
        assert err.endswith("\nRuntimeError: a library bug\n"), err

    def test_interrupt_not_caught(self, tmp_path, monkeypatch):
        def interrupt(model):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "separability_report", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path, "separability", "--catalog", "mm1_plain", "--lambda", "1", "--mu", "2")

    def test_not_convergent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "LOG_REDUCTION_STEPS", 1)
        # perishable_o is not separable, so its solve reaches logarithmic reduction
        code = run(tmp_path, "solve", "--catalog", "perishable_o", "--lambda", "0.99", "--mu", "1",
                   "--nu", "3", "--b", "5", "--gamma", "1")
        self.expect_error(capsys, code, "NotConvergent")

    def test_exhausted_run_exits_2(self, tmp_path):
        # base stock's listing at lam = 1 - 1e-6 (~1.2e8 values) is refused by the cap, not allocated
        proc = run_capped(MEMORY_PROBE, str(tmp_path))
        assert proc.returncode == EXIT_ERROR, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: MemoryError: "), proc.stderr

    def test_listing_past_the_limit_refused_at_once(self, tmp_path):
        # lam = 1 - 10^-k: N ~ 2e8 at k = 7, so every listing would pass LISTING_LIMIT, and it is refused
        # before anything is listed
        commands = [["solve", "--catalog", name, "--lambda", repr(1 - 10.0**-k), "--mu", "1", "--nu", "3", "--b", "5",
                     *gamma, "--out", str(tmp_path / f"{name}_{k}")]
                    for k in range(7, 16) for name, gamma in (("perishable_o", ["--gamma", "1"]), ("base_stock", []))]
        proc = run_capped(TIMED_COMMANDS, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        for argv, (code, err, seconds) in zip(commands, json.loads(proc.stdout)):
            assert code == EXIT_ERROR and err.count("\n") == 1, (argv, err)
            assert err.startswith("error: ValueError: the listing to tol = 1e-09 needs N ~ "), (argv, err)
            assert seconds < 1.0, argv

    def test_malformed_model_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("rates: [unclosed\n")
        self.expect_error(capsys, main(["validate", "--model", str(path), "--out", str(tmp_path)]), "InvalidParam")

    @pytest.mark.parametrize("name", sorted(MISTYPED_MODELS))
    def test_mistyped_model_file(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text(MISTYPED_MODELS[name])
        self.expect_error(capsys, main(["validate", "--model", str(path), "--out", str(tmp_path)]), "InvalidParam")

    @pytest.mark.parametrize("text, message", [
        ("catalog: {name: 3}\n", "`name` must be a str, got 3"),
        ("catalog: {name: mm1_plain, params: {1: 2}}\n", "catalog `params` keys must be strings"),
    ], ids=["name", "params_key"])
    def test_catalog_entry_typed(self, tmp_path, capsys, text, message):
        path = tmp_path / "model.yaml"
        path.write_text(text)
        assert main(["validate", "--model", str(path), "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: InvalidParam: model file: {message}\n"

    @pytest.mark.parametrize("key", sorted(MISSING_KEY_MODELS))
    def test_missing_key_named(self, tmp_path, capsys, key):
        path = tmp_path / "model.yaml"
        path.write_text(MISSING_KEY_MODELS[key])
        assert main(["validate", "--model", str(path), "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: InvalidParam: model file: missing `{key}`\n"

    @pytest.mark.parametrize("catalog", [("onoff_a",), ("onoff_b", "--lambda", "0.1")], ids=["onoff_a", "onoff_b"])
    def test_onoff_depth_checked(self, tmp_path, capsys, catalog):
        # a negative depth raised IndexError; depth 0 has no prefix and builds
        onoff = ("--catalog", *catalog, "--eta", "1", "--gamma", "1")
        assert run(tmp_path, "validate", *onoff, "--depth", "-1") == EXIT_ERROR
        assert capsys.readouterr().err == "error: InvalidParam: on-off depth must be an integer >= 0, got -1\n"
        assert run(tmp_path, "validate", *onoff, "--depth", "0") == EXIT_OK

    def test_negative_seed_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        # numpy's SeedSequence refused it after the triple's exact solves, in its own words
        monkeypatch.setattr(bounds, "build_triple", lambda *args: pytest.fail("the triple was built"))
        argv = ("--lambda", "1", "--mu", "2", "--nu", "1", "--gamma", "1", "--b", "2", "--seed", "-1")
        assert run(tmp_path, "bounds", *argv, "--replications", "5") == EXIT_ERROR
        assert capsys.readouterr().err == "error: ValueError: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["validate", "separability", "certify", "solve", "simulate"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
    def test_malformed_model_refused(self, tmp_path, capsys, command, name):
        fields, message = MALFORMED_MODELS[name]
        path = tmp_path / "model.yaml"
        path.write_text(two_state_text(**fields))
        out = tmp_path / "out"
        assert main([command, "--model", str(path), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())

    def test_value_error(self, tmp_path, capsys):
        self.expect_error(capsys, run(tmp_path, "solve", *BS, "--N", "1"), "ValueError")

    @pytest.mark.parametrize("argv, message", [
        (("bounds", "--lambda", "1", "--mu", "2", "--gamma", "1", "--b", "2"),
         "InvalidParam: missing required options: --nu"),
        (("solve", *BS, "--tol", "0"), "ValueError: tol must be positive, got 0.0"),
    ], ids=["bounds_without_nu", "solve_tol_0"])
    def test_refusal_named(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())  # refused before the manifest is written

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_bad_horizon(self, tmp_path, capsys, horizon):
        self.expect_error(capsys, run(tmp_path, "simulate", *BS, "--horizon", horizon), "ValueError")


class TestOneVerdict:
    """Every command reads one ergodicity verdict: a chain with no working state, or whose tail ratio
    is not below 1, is a valid negative answer (exit 1) that names that one reason."""

    def test_no_working_state(self, tmp_path, capsys):
        path, why = all_blocked_model(tmp_path), "no environment state is working"
        assert run(tmp_path, "separability", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not separable: NoWorkingState (tail ratio 0.5)\n  {why}\n", "")
        assert json.loads((tmp_path / "separability.json").read_text())["reason"] == "NoWorkingState"
        assert run(tmp_path, "certify", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not certified: NecessaryFails {why}\n", "")
        assert json.loads((tmp_path / "certificate.json").read_text())["detail"] == why
        assert run(tmp_path, "solve", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not ergodic: {why}\n", "")

    def test_several_closed_classes(self, tmp_path, capsys):
        # two working states that never switch: every command refuses the chain with the one reachability verdict
        path, why = split_model(tmp_path), "2 closed classes; one holds [(0, 0), (1, 0)]"
        assert run(tmp_path, "validate", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"validate: FAIL (1 warnings)\n  SeveralClosedClasses: {why}\n", "")
        assert run(tmp_path, "separability", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not separable: SeveralClosedClasses (tail ratio 0.5)\n  {why}\n", "")
        assert json.loads((tmp_path / "separability.json").read_text())["detail"] == why
        assert run(tmp_path, "certify", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not certified: SeveralClosedClasses {why}\n", "")
        assert json.loads((tmp_path / "certificate.json").read_text())["detail"] == why
        assert run(tmp_path, "solve", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not ergodic: {why}\n", "")

    def test_transient_states(self, tmp_path, capsys):
        # one closed class: validate and certify refuse a chain that is not irreducible; its product form is unique
        path, why = island_model(tmp_path), "one closed class; state (0, 0) is outside it"
        assert run(tmp_path, "validate", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"validate: FAIL (1 warnings)\n  TransientStates: {why}\n", "")
        assert run(tmp_path, "certify", "--model", path) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not certified: TransientStates {why}\n", "")
        assert run(tmp_path, "separability", "--model", path) == EXIT_OK

    @pytest.mark.parametrize("lam", ["2", "1"])
    @pytest.mark.parametrize("command, extra", [("bounds", ("--gamma", "1")), ("sweep", ("--gamma-steps", "2"))])
    def test_bounds_at_lambda_not_below_mu(self, tmp_path, capsys, command, extra, lam):
        # the target is solved before the companions, whose product forms would not exist
        assert run(tmp_path, command, "--lambda", lam, "--mu", "1", "--nu", "1", "--b", "2", *extra) == EXIT_NEGATIVE
        assert capsys.readouterr() == (f"not ergodic: queue tail ratio {float(lam)} is not below 1\n", "")


def near_critical(lam):
    return ("--catalog", "base_stock", "--lambda", lam, "--mu", "1", "--nu", "3", "--b", "5")


class TestNearCritical:
    """A tail ratio just below 1 is summable, so the model is ergodic: no command answers
    otherwise, and none prints a warning."""

    def test_solve_refuses_the_listing(self, tmp_path, capsys):
        # the mass above level N falls by a factor 1 - 1e-13 per level: refused before the levels are allocated
        assert run(tmp_path, "solve", *near_critical("0.9999999999999")) == EXIT_ERROR
        assert capsys.readouterr() == (
            "", "error: ValueError: the listing to tol = 1e-09 needs N ~ 207168240402147, more than 134217728 values\n")

    def test_summable_ratio_round_trips(self, tmp_path, capsys):
        assert run(tmp_path, "separability", *near_critical("0.9999999999999")) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("separable: product form steady state\n  tail ratio = 0.9999999999999, C = ")
        assert err == ""

    @pytest.mark.parametrize("k", [6, 9, 12, 15])
    def test_bounds_answer_at_mu_equal_gamma(self, tmp_path, k):
        # perishable_o's stock is a Markov chain on its own at mu = gamma, so TH_o needs no solve of the
        # joint chain; the exact solve was 1.1e-8 off at k = 9 and refused from k = 12 on
        lam = 1 - 10.0**-k
        assert run(tmp_path, "bounds", "--lambda", repr(lam), "--mu", "1", "--nu", "3", "--gamma", "1",
                   "--b", "5") == EXIT_OK
        th, _ = poisson_oracle(lam, 1.0, 3.0, 5)
        assert json.loads((tmp_path / "bounds.json").read_text())["TH_o_truncated"] == pytest.approx(th, rel=1e-13)

    @pytest.mark.parametrize("k", [12, 15])
    def test_bounds_answer_at_mu_unequal_gamma(self, tmp_path, k):
        # at gamma != mu TH_o comes from the exact solve, which refused these loads while it guarded the tail drift
        assert run(tmp_path, "bounds", "--lambda", repr(1 - 10.0**-k), "--mu", "1", "--nu", "3", "--gamma", "2",
                   "--b", "5") == EXIT_OK
        assert json.loads((tmp_path / "bounds.json").read_text())["ordering_holds"] is True

    def test_certify_prints_no_warning(self, tmp_path, capsys):
        assert run(tmp_path, "certify", "--kind", "hitting_time", *near_critical("0.99999999995")) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("certified ergodic: kind=hitting_time")
        assert err == ""


@pytest.mark.parametrize("b", ["320", "400"])
def test_large_environment_answers_are_finite(tmp_path, b):
    # theta spans more than the float range: unscaled, GTH gave theta = nan ("separable") and a
    # nan tail drift ("not ergodic")
    model = ("--catalog", "base_stock", "--lambda", "0.9", "--mu", "1", "--nu", "10", "--b", b)
    assert run(tmp_path, "separability", *model) == EXIT_OK
    theta = json.loads((tmp_path / "separability.json").read_text())["theta"]
    assert all(map(math.isfinite, theta)) and sum(theta) == pytest.approx(1.0)
    assert run(tmp_path, "solve", *model) == EXIT_OK
    assert json.loads((tmp_path / "metrics.json").read_text())["throughput"] == pytest.approx(0.9, abs=1e-14)


@pytest.mark.parametrize("nu", [3, 10])
@pytest.mark.parametrize("b", [10, 20, 30, 50])
def test_small_blocking_probabilities_keep_their_digits(tmp_path, nu, b):
    # base stock is separable, so P(blocked) is read from the product form: theta(0) of a truncated
    # geometric law.  The exact solve's subtractions wrote 2.0e-21 at nu = 10, b = 50, for 4.69e-53.
    lam, a = 0.9, 0.9 / nu
    assert run(tmp_path, "solve", "--catalog", "base_stock", "--lambda", "0.9", "--mu", "1", "--nu", str(nu),
               "--b", str(b)) == EXIT_OK
    record = json.loads((tmp_path / "metrics.json").read_text())
    theta0 = (1 - a) * a**b / (1 - a ** (b + 1))
    assert record["blocked_probability"] == pytest.approx(theta0, rel=1e-12)
    assert record["loss_rate"] == pytest.approx(lam * theta0, rel=1e-12)


class TestSimulateCommand:
    def test_reproducible_csv(self, tmp_path):
        args = ("simulate", *BS, "--seed", "7", "--horizon", "300", "--replications", "3")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == EXIT_OK
        assert main([*args, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "simulation.csv").read_bytes() == (out_b / "simulation.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ("simulate", *BS, "--horizon", "300", "--replications", "3")
        main([*base, "--seed", "1", "--out", str(out_a)])
        main([*base, "--seed", "2", "--out", str(out_b)])
        assert (out_a / "simulation.csv").read_bytes() != (out_b / "simulation.csv").read_bytes()


class TestBoundsCommands:
    def test_bounds(self, tmp_path):
        code = run(
            tmp_path, "bounds", "--catalog", "perishable_o",
            "--lambda", "1", "--mu", "1.5", "--nu", "1", "--gamma", "1.5", "--b", "2",
        )
        assert code == EXIT_OK
        rec = json.loads((tmp_path / "bounds.json").read_text())
        assert rec["TH_minus"] <= rec["TH_o_truncated"] <= rec["TH_plus"]
        header = (tmp_path / "bounds.csv").read_text().split("\n")[0]
        assert header == "gamma,TH_minus,TH_o,TH_plus"

    def test_sweep(self, tmp_path):
        code = run(
            tmp_path, "sweep", "--catalog", "perishable_o",
            "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2",
            "--gamma-min", "0.5", "--gamma-max", "1.0", "--gamma-steps", "2",
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert "tol" not in read_manifest(tmp_path)

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ("--catalog", "base_stock", "--gamma", "1")),
        ("bounds", ("--model", "/no/such/file.yaml", "--gamma", "1")),
        ("bounds", ("--catalog", "perishable_o", "--gamma", "1", "--eta", "5")),
        ("bounds", ("--catalog", "perishable_o", "--gamma", "1", "--depth", "3")),
        ("sweep", ("--catalog", "perishable_minus",)),
        ("sweep", ("--model", "/no/such/file.yaml")),
        ("sweep", ("--catalog", "perishable_o", "--eta", "5")),
        ("sweep", ("--catalog", "perishable_o", "--gamma", "7")),
    ])
    def test_refuses_options_it_does_not_read(self, tmp_path, capsys, command, extra):
        # both commands analyse perishable_o from --lambda, --mu, --nu, --b (and bounds' --gamma) alone
        assert run(tmp_path, command, *RATES, *extra) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidParam: {command} takes --catalog perishable_o")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, extra", [("bounds", ("--gamma", "1")), ("sweep", ("--gamma-steps", "1"))])
    def test_source_is_perishable_o_without_catalog(self, tmp_path, command, extra):
        assert run(tmp_path, command, *RATES, *extra) == EXIT_OK
        assert read_manifest(tmp_path)["model_source"] == "catalog:perishable_o"

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_sweep_needs_a_step(self, tmp_path, capsys, steps):
        assert run(tmp_path, "sweep", "--catalog", "perishable_o", *RATES, "--gamma-steps", steps) == EXIT_ERROR
        assert "--gamma-steps must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "separability"])
    def test_takes_no_tol(self, tmp_path, command):
        # the sweep's values are exact, and separability measures its residuals against the model's rates
        with pytest.raises(SystemExit) as usage:
            run(tmp_path, command, *PER, "--tol", "1e-9")
        assert usage.value.code == EXIT_ERROR


# each ran at unit rates scaled by a power of ten, where an absolute tolerance gave another verdict
SCALED_RUNS = [
    (["separability", "--catalog", "perishable_o", "--lambda", "1e-12", "--mu", "2e-12", "--nu", "1e-12",
      "--gamma", "2e-12", "--b", "2"], EXIT_NEGATIVE),
    (["separability", "--catalog", "base_stock", "--lambda", "1e9", "--mu", "2e9", "--nu", "1e9", "--b", "5"],
     EXIT_OK),
    (["bounds", "--catalog", "perishable_o", "--lambda", "1e6", "--mu", "2e6", "--nu", "1e6", "--gamma", "2e6",
      "--b", "3"], EXIT_OK),
]


@pytest.mark.parametrize("argv, code", SCALED_RUNS, ids=["perishable_o_1e-12", "base_stock_1e9", "bounds_1e6"])
def test_unit_rate_verdicts_at_any_scale(tmp_path, argv, code):
    assert run(tmp_path, *argv) == code


def strict_json(path):
    """The file's JSON, read as RFC 8259 reads it: NaN and Infinity are no JSON."""
    def reject(name):
        raise ValueError(f"{name} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


MM1 = ("--catalog", "mm1_plain", "--lambda", "1", "--mu", "2")


class TestJsonOutputs:
    @pytest.mark.parametrize("kind", ["linear_drift", "hitting_time"])
    def test_certificate_writes_null_for_unbounded(self, tmp_path, kind):
        # one environment state, never blocked: c_hat(0) is unbounded
        assert run(tmp_path, "certify", *MM1, "--kind", kind) == EXIT_OK
        record = strict_json(tmp_path / "certificate.json")
        assert record["c_n"]["0"] is None and record["c_hat_n"]["0"] is None

    def test_simulation_half_width_of_one_replication(self, tmp_path):
        assert run(tmp_path, "simulate", *BS, "--horizon", "100", "--replications", "1") == EXIT_OK
        record = strict_json(tmp_path / "simulation.json")
        assert record["half_width"] is None and record["mean"] > 0

    def test_bounds_half_width_of_one_replication(self, tmp_path):
        assert run(tmp_path, "bounds", *PER, "--horizon", "100", "--replications", "1") == EXIT_OK
        record = strict_json(tmp_path / "bounds.json")
        assert record["TH_o_sim_half_width"] is None and record["TH_o_sim_mean"] > 0


class TestManifest:
    def test_written_with_hash_and_options(self, tmp_path):
        run(tmp_path, "separability", *BS)
        manifest = read_manifest(tmp_path)
        assert "tol" not in manifest
        assert manifest["tool"] == "envqueue"
        assert manifest["command"] == "separability"
        assert len(manifest["model_hash"]) == 64
        assert manifest["model_source"] == "catalog:base_stock"
        assert manifest["b"] == "2"

    def test_hash_tracks_model(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["separability", *BS, "--out", str(out_a)])
        main(["separability", "--catalog", "base_stock", "--lambda", "1", "--mu", "2",
              "--nu", "1.5", "--b", "2", "--out", str(out_b)])
        assert read_manifest(out_a)["model_hash"] != read_manifest(out_b)["model_hash"]

    def test_hash_covers_every_matrix_entry(self, tmp_path):
        # 40 x 40 matrices, which a printed rendering would elide; the models differ in row 20 only
        hashes = []
        for rate in (1.0, 3.0):
            V = [[0.0] * 40 for _ in range(40)]
            R = [[float(j == k) for j in range(40)] for k in range(40)]
            for k in range(40):
                V[k][(k + 1) % 40], V[k][k] = 1.0, -1.0
            V[20][21], V[20][20] = rate, -rate
            out = tmp_path / str(rate)
            path = write_model(tmp_path / f"model{rate}.json", list(range(40)), [0], V, R)
            assert main(["validate", "--model", path, "--out", str(out)]) == EXIT_OK
            hashes.append(read_manifest(out)["model_hash"])
        assert hashes[0] != hashes[1]

    def test_sweep_hash_covers_every_gamma(self, tmp_path):
        # the same gamma_min, so the same first model: only the rest of the grid differs
        hashes = []
        for gamma_max in ("1.0", "1.5"):
            out = tmp_path / gamma_max
            main(["sweep", "--catalog", "perishable_o", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2",
                  "--gamma-min", "0.5", "--gamma-max", gamma_max, "--gamma-steps", "2", "--out", str(out)])
            hashes.append(read_manifest(out)["model_hash"])
        assert hashes[0] != hashes[1]


class TestModelFile:
    def test_yaml_model_loads(self, tmp_path):
        doc = """
rates:
  lambda_tail: [1.0]
  mu_tail: [2.0]
environment:
  labels: ["down", "up"]
  blocked: ["down"]
  V_tail:
    - [[-1.0, 1.0], [1.0, -1.0]]
  R_tail:
    - [[1.0, 0.0], [0.0, 1.0]]
"""
        path = tmp_path / "model.yaml"
        path.write_text(doc)
        code = main(["separability", "--model", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        rec = json.loads((tmp_path / "separability.json").read_text())
        assert rec["theta"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_yaml_catalog_shortcut(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("catalog:\n  name: base_stock\n  params: {lam: 1, mu: 2, nu: 1, b: 2}\n")
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["validate", "separability", "certify", "solve", "simulate"])
    @pytest.mark.parametrize("option", [("--lambda", "5"), ("--b", "3")])
    def test_takes_no_catalog_options(self, tmp_path, capsys, command, option):
        # the file fixes every rate: the option was recorded in the manifest and never read
        path = tmp_path / "model.yaml"
        path.write_text("catalog:\n  name: base_stock\n  params: {lam: 1, mu: 2, nu: 1, b: 2}\n")
        out = tmp_path / "out"
        assert main([command, "--model", str(path), *option, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: InvalidParam: --model takes no catalog options, got {option[0]}\n"
        assert list(out.iterdir()) == []

    def test_without_libyaml(self, tmp_path, monkeypatch):
        # PyYAML built without libyaml has no CSafeLoader: its pure-Python parser takes over
        path = tmp_path / "model.yaml"
        path.write_text("catalog:\n  name: base_stock\n  params: {lam: 1, mu: 2, nu: 1, b: 2}\n")
        signature = load_model(path).signature()
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_model(path).signature() == signature
        path.write_text("rates: [unclosed\n")
        with pytest.raises(InvalidParam, match="not valid YAML"):
            load_model(path)


def test_readme_examples_run(tmp_path, capsys):
    # every line of the first shell block under the README's "Command line" heading
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) >= 6
    for i, (program, *argv) in enumerate(commands):
        assert program == "envqueue"
        assert main([*argv, "--out", str(tmp_path / str(i))]) == EXIT_OK, argv


COMMANDS = ("validate", "separability", "certify", "solve", "simulate", "bounds", "sweep")

# runs in a fresh interpreter: the modules `import envqueue.cli` loads, then those each command's `main` adds
STARTUP_PROBE = """
import contextlib, gc, io, json, sys
import envqueue.cli
frozen = gc.get_freeze_count()
BS = ["--catalog", "base_stock", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2"]
PER = ["--catalog", "perishable_o", "--lambda", "1", "--mu", "2", "--nu", "1", "--gamma", "1", "--b", "2"]
runs = [["validate", *BS], ["separability", *BS], ["certify", *BS], ["solve", *BS],
        ["simulate", *BS, "--horizon", "100", "--replications", "3"],
        ["bounds", *PER, "--horizon", "50", "--replications", "3"],
        ["sweep", "--catalog", "perishable_o", "--lambda", "1", "--mu", "2", "--nu", "1", "--b", "2",
         "--gamma-steps", "3"],
        # long enough to run its replications in forked workers
        ["simulate", *BS, "--horizon", "5000", "--replications", "4"]]
record = {"import": sorted(sys.modules), "frozen": frozen, "runs": []}
for argv in runs:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = envqueue.cli.main([*argv, "--out", sys.argv[1]])
    record["runs"].append([argv[0], code, sorted(set(sys.modules) - before)])
print(json.dumps(record))
"""


class TestStartup:
    def test_numpy_only_runtime(self, tmp_path):
        path = os.pathsep.join([str(Path(envqueue.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        record = json.loads(proc.stdout)
        assert not [m for m in record.pop("import") if m.split(".")[0] == "scipy"]
        # what the imports left is out of the collector's reach, so collections and exit do not walk it
        assert record.pop("frozen") > 0
        assert {command for command, _, _ in record["runs"]} == set(COMMANDS)
        for command, code, loaded in record["runs"]:
            assert code in (EXIT_OK, EXIT_NEGATIVE), command
            # numpy.random and numpy.ma load lazily, so a first use inside main would be timed as analysis;
            # a process pool would be imported there too
            late = [m for m in loaded if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent")
                    or m.startswith(("numpy.random", "numpy.ma"))]
            assert not late, (command, late)

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_unchanged_by_partial_parser(self, command, capsys):
        # main builds only the named subcommand's options; the help must be the full parser's
        argv = [command, "--help"] if command else ["--help"]
        with pytest.raises(SystemExit) as exit_main:
            main(argv)
        from_main = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_full:
            build_parser().parse_args(argv)
        assert exit_main.value.code == exit_full.value.code == 0
        assert from_main == capsys.readouterr().out
        assert from_main.startswith(f"usage: envqueue {command or ''}".rstrip())
