"""Batch command line front end.

Every run writes its outputs plus a `manifest.txt` (model hash, options, tool
version, seed) sufficient to reproduce the run.  Exit codes: 0 analytic
success, 1 only a valid analytic negative result (e.g. not separable, not
certified, not ergodic), 2 usage, model or solver errors and any other failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_report, gamma_sweep
from .catalog import CATALOG_NAMES, catalog
from .ergodicity import certify
from .model import EnvqueueError, InvalidParam
from .modelfile import load_model
from .numerics import (NotErgodic, auto_truncate, check_cut_structure, check_tol, export_csv, metrics,
                       solve_truncated)
from .separability import reachability as validate_model  # perfbench/tracing.py spans `validate` through this name
from .separability import separability_report
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

_CATALOG_PARAMS = ("lam", "mu", "nu", "gamma", "eta", "b", "depth")


def _add_model_source(parser):
    src = parser.add_argument_group("model source (exactly one)")
    src.add_argument("--model", metavar="FILE", help="model definition file (YAML)")
    src.add_argument("--catalog", metavar="NAME", choices=CATALOG_NAMES, help="catalog model name")
    parser.add_argument("--lambda", dest="lam", type=float, help="arrival rate")
    parser.add_argument("--mu", type=float, help="service rate")
    parser.add_argument("--nu", type=float, help="replenishment rate")
    parser.add_argument("--gamma", type=float, help="ageing / switch-off rate")
    parser.add_argument("--eta", type=float, help="switch-on rate")
    parser.add_argument("--b", type=int, help="base stock level")
    parser.add_argument("--depth", type=int, help="prefix depth for linear-rate catalog models")
    parser.add_argument("--out", default=".", help="output directory (default: current)")


def _resolve_model(args):
    if bool(args.model) == bool(args.catalog):
        raise InvalidParam("supply exactly one of --model FILE or --catalog NAME")
    if args.model:
        # a model file fixes every rate: catalog options would be recorded in the manifest, not read
        given = ["--lambda" if p == "lam" else "--" + p for p in _CATALOG_PARAMS if getattr(args, p) is not None]
        if given:
            raise InvalidParam(f"--model takes no catalog options, got {', '.join(given)}")
        return load_model(args.model)
    params = {p: getattr(args, p) for p in _CATALOG_PARAMS if getattr(args, p, None) is not None}
    return catalog(args.catalog, **params)


def _write_manifest(args, models, outdir: Path, extra=None):
    """`model_hash` is the SHA-256 of the models' signatures joined by newlines: the one model
    a command analyses, or a sweep's models in grid order."""
    digest = hashlib.sha256("\n".join(model.signature() for model in models).encode()).hexdigest()
    lines = {
        "tool": "envqueue",
        "version": __version__,
        "command": args.command,
        "model_hash": digest,
        "model_source": args.model or f"catalog:{args.catalog}",
    }
    for p in _CATALOG_PARAMS:
        value = getattr(args, p, None)
        if value is not None:
            lines[p] = value
    for key in ("N", "tol", "seed", "horizon", "replications", "kind"):
        value = getattr(args, key, None)
        if value is not None:
            lines[key] = value
    if extra:
        lines.update(extra)
    with open(outdir / "manifest.txt", "w", encoding="utf-8", newline="\n") as fh:
        for key, value in lines.items():
            fh.write(f"{key}={value}\n")


def _write_json(outdir: Path, name: str, record) -> None:
    # JSON has no infinity: a non-finite number is written as null, which stands for an unbounded value
    text = json.dumps(record, sort_keys=True, default=float)
    with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(json.loads(text, parse_constant=lambda constant: None), fh, indent=2)
        fh.write("\n")


def _cmd_validate(args, outdir):
    model = _resolve_model(args)
    warnings = [verdict] if (verdict := validate_model(model)) else []
    _write_manifest(args, [model], outdir)
    # a malformed matrix fails the model's construction, so no violation is left to list
    _write_json(outdir, "validation.json", {"passed": not warnings, "violations": [], "warnings": warnings})
    print(f"validate: {'FAIL' if warnings else 'PASS'} ({len(warnings)} warnings)")
    for reason, detail in warnings:
        print(f"  {reason}: {detail}")
    return EXIT_NEGATIVE if warnings else EXIT_OK


def _cmd_separability(args, outdir):
    model = _resolve_model(args)
    record = separability_report(model)
    _write_manifest(args, [model], outdir)
    _write_json(outdir, "separability.json", record)
    # the ratio as it round-trips: a ratio just off 1 must not read as 1
    if record["separable"]:
        print("separable: product form steady state")
        print(f"  tail ratio = {record['tail_ratio']!r}, C = {record['C']:.12g}")
        for label, t in zip(model.env.labels, record["theta"]):
            print(f"  theta({label}) = {t:.12g}")
        return EXIT_OK
    print(f"not separable: {record['reason']} (tail ratio {record['tail_ratio']!r})")
    if "detail" in record:
        print(f"  {record['detail']}")
    return EXIT_NEGATIVE


def _cmd_certify(args, outdir):
    model = _resolve_model(args)
    result = certify(model, kind=args.kind)
    _write_manifest(args, [model], outdir)
    if result.certified:
        _write_json(outdir, "certificate.json", result.to_record())
        print(f"certified ergodic: kind={result.kind}, eps={result.eps:.6g}, "
              f"eps_tilde={result.eps_tilde:.6g}, worst margin {result.worst_margin:.3e}")
        return EXIT_OK
    _write_json(outdir, "certificate.json", {"certified": False, "reason": result.reason, "detail": result.detail})
    print(f"not certified: {result.reason} {result.detail}")
    return EXIT_NEGATIVE


def _cmd_solve(args, outdir):
    if args.N is None:
        args.tol = check_tol(1e-9 if args.tol is None else args.tol)
    elif args.tol is not None:
        raise InvalidParam("solve --N takes no --tol: the finite-buffer solve lists all N + 1 levels")
    model = _resolve_model(args)
    _write_manifest(args, [model], outdir)
    if args.N is None:
        sol = auto_truncate(model, tol=args.tol)
    else:
        sol = solve_truncated(model, args.N)
    m = metrics(sol, model)
    cut = check_cut_structure(sol, model)
    export_csv(sol, model, outdir / "stationary.csv")
    record = dataclasses.asdict(m)
    record.update(
        {
            "N": sol.N,
            "residual": sol.residual,
            "truncation_estimate": sol.truncation_estimate,
            "cut_worst_relative": cut.worst_relative,
        }
    )
    _write_json(outdir, "metrics.json", record)
    print(f"solved at N={sol.N}: throughput={m.throughput:.9g}, "
          f"P(blocked)={m.blocked_probability:.9g}, residual={sol.residual:.3e}")
    return EXIT_OK


def _cmd_simulate(args, outdir):
    model = _resolve_model(args)
    config = SimConfig(seed=args.seed, horizon=args.horizon, replications=args.replications)
    result = simulate(model, config)
    est = result.estimate
    record = {
        "mean": est.mean,
        "half_width": est.half_width,
        "per_replication": list(est.per_replication),
        "seed": args.seed,
        "total_jumps": result.total_jumps,
    }
    _write_manifest(args, [model], outdir)
    _write_json(outdir, "simulation.json", record)
    with open(outdir / "simulation.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("replication,throughput\n")
        for i, value in enumerate(est.per_replication):
            fh.write(f"{i},{value:.17g}\n")
    print(f"simulated throughput = {est.mean:.6g} +/- {est.half_width:.6g} (95%)")
    return EXIT_OK


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise InvalidParam(f"missing required options: {', '.join('--' + m for m in missing)}")


def _perishable_only(args, *unread):
    """bounds and sweep analyse perishable_o from their rate options alone: refuse any other
    model source and every option in `unread`, and record the source as perishable_o."""
    offending = [f"--catalog {args.catalog}"] if args.catalog not in (None, "perishable_o") else []
    offending += ["--" + name for name in ("model", "eta", "depth", *unread) if getattr(args, name) is not None]
    if offending:
        raise InvalidParam(f"{args.command} takes --catalog perishable_o and its rate options only, "
                           f"not {', '.join(offending)}")
    args.catalog = "perishable_o"


def _cmd_bounds(args, outdir):
    _perishable_only(args)
    _require(args, "lam", "mu", "nu", "gamma", "b")
    sim_config = None
    if args.replications:
        sim_config = SimConfig(seed=args.seed, horizon=args.horizon, replications=args.replications)
    report = bound_report(args.lam, args.mu, args.nu, args.gamma, args.b, sim_config=sim_config)
    model = catalog("perishable_o", lam=args.lam, mu=args.mu, nu=args.nu, gamma=args.gamma, b=args.b)
    _write_manifest(args, [model], outdir)
    _write_json(outdir, "bounds.json", report.to_record())
    with open(outdir / "bounds.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,TH_minus,TH_o,TH_plus\n")
        fh.write(f"{args.gamma:.17g},{report.TH_minus:.17g},{report.TH_o_truncated:.17g},{report.TH_plus:.17g}\n")
    verdict = "holds" if report.ordering_holds else "VIOLATED"
    print(f"TH- = {report.TH_minus:.9g} <= TH_o = {report.TH_o_truncated:.9g} "
          f"<= TH+ = {report.TH_plus:.9g}: ordering {verdict} ({report.regime})")
    return EXIT_OK if report.ordering_holds else EXIT_NEGATIVE


def _cmd_sweep(args, outdir):
    _perishable_only(args, "gamma")
    _require(args, "lam", "mu", "nu", "b")
    if args.gamma_steps < 1:
        raise InvalidParam(f"--gamma-steps must be at least 1, got {args.gamma_steps}")
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    rows = gamma_sweep(args.lam, args.mu, args.nu, args.b, gammas)
    models = [catalog("perishable_o", lam=args.lam, mu=args.mu, nu=args.nu, gamma=gamma, b=args.b) for gamma in gammas]
    _write_manifest(args, models, outdir,
                    extra={"gamma_min": args.gamma_min, "gamma_max": args.gamma_max, "gamma_steps": args.gamma_steps})
    with open(outdir / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,TH_minus,TH_o,TH_plus\n")
        for gamma, th_m, th_o, th_p in rows:
            fh.write(f"{gamma:.17g},{th_m:.17g},{th_o:.17g},{th_p:.17g}\n")
    print(f"sweep: {len(rows)} points written to sweep.csv")
    return EXIT_OK


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The command line parser.  Only the subcommands named in `commands`
    (all when None) get their options: adding options is most of the cost of
    building the parser, and a run parses one subcommand."""
    parser = argparse.ArgumentParser(
        prog="envqueue",
        description="Analysis of exponential queues in a finite interactive random environment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_, func):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if commands is None or name in commands:
            _add_model_source(p)
            return p
        return None

    command("validate", "whether the joint chain is irreducible", _cmd_validate)
    command("separability", "product-form decision and theta", _cmd_separability)

    if p := command("certify", "Lyapunov ergodicity certificate", _cmd_certify):
        p.add_argument("--kind", choices=("linear_drift", "hitting_time"), default="linear_drift")

    if p := command("solve", "stationary distribution and metrics", _cmd_solve):
        p.add_argument("--N", type=int, default=None,
                       help="solve the finite-buffer variant, where an arrival that finds N customers is lost "
                            "(lambda(N) = 0); its metrics describe that model (default: exact solve of the "
                            "infinite chain)")
        p.add_argument("--tol", type=float, default=None,
                       help="exact solve: list levels up to the first with stationary mass above it below tol "
                            "(default: 1e-9; not taken with --N)")

    if p := command("simulate", "Monte Carlo throughput estimate", _cmd_simulate):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--horizon", type=float, default=1e4)
        p.add_argument("--replications", type=int, default=10)

    if p := command("bounds", "two-sided throughput bounds for the perishable system", _cmd_bounds):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--horizon", type=float, default=1e4)
        p.add_argument("--replications", type=int, default=0, help="0 disables simulation")

    if p := command("sweep", "bound throughputs over a gamma grid", _cmd_sweep):
        p.add_argument("--gamma-min", type=float, default=0.1)
        p.add_argument("--gamma-max", type=float, default=2.0)
        p.add_argument("--gamma-steps", type=int, default=10)
    return parser


@functools.lru_cache(maxsize=8)  # the seven commands, and room for one stray word
def _parser(commands: tuple) -> argparse.ArgumentParser:
    """`build_parser(commands)`, built once per process and command: argparse does not change
    a parser while it parses, and building one looks up message catalogs for every subcommand."""
    return build_parser(commands)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option values, so its first bare word is the subcommand
    args = _parser(tuple(a for a in argv if not a.startswith("-"))[:1]).parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        return args.func(args, outdir)
    except NotErgodic as exc:
        print(f"not ergodic: {exc}")
        return EXIT_NEGATIVE
    except (EnvqueueError, OSError, KeyError, ValueError, ArithmeticError, MemoryError) as exc:
        # an exhausted run lands here too: this path imports nothing, so it cannot run out itself
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # a bug: its traceback, and the exit code of an error, not of a negative answer
        import traceback

        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
