"""Command-line interface.

Subcommands expose the solvers, baselines, simulator and experiment drivers;
models are given either as inline flags mirroring the JSON field names or as
a JSON file via --model.  Data goes to stdout (or --out) as JSON or CSV with
12 significant digits; diagnostics go to stderr, with verbosity controlled
by the FBQ_LOG environment variable (error|warn|info|debug).

Exit codes: 0 success, 2 invalid input (including unstable models), 1
internal solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .baselines import fcfs_L, las_L
from .ctmc import ctmc_solve
from .models import (
    CostCoefficients,
    CoxianService,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SolverError,
    SpeedProfile,
    UnstableModelError,
    check_stability_multi,
    check_stability_single,
    multi_model_from_json,
    multi_model_to_json,
    single_model_from_json,
    single_model_to_json,
)
from .multi import verify_multi
from .simulation import SimConfig, ThreePhaseModel, simulate
from .single import solve_general, solve_k1_closed_form, verify_single
from .experiments import (optimize_intermediate_speeds, optimize_threshold, reproduce_figure, solve,
                          write_csv_rows)

log = logging.getLogger("fbq.cli")

# `validate` caps each axis of the oracle's rectangle at 1024 levels instead
# of ctmc_solve's default 2048.  On 2 vCPUs, m = 4 pools and K = 2 single
# servers with q = 0.1, 0.5 and 1 fit in at most (167, 690) levels and 0.7 s
# up to load 0.97; the foreground axis stays below 200 levels unless q is
# near 0, and a q = 0.02 pool at load 0.97 took (478, 569) levels and 2.9 s
ORACLE_MAX_N = 1024

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _round12(obj):
    """Clamp every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(doc, out_path) -> None:
    text = json.dumps(_round12(doc), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _single_model(args) -> SingleServerModel:
    if args.model:
        with open(args.model) as fh:
            return single_model_from_json(json.load(fh))
    if None in (args.lam, args.nu1, args.nu2, args.q) or not args.speeds:
        raise ModelError("give --model FILE or all of --lambda --nu1 --nu2 --q --speeds")
    levels = tuple(float(s) for s in args.speeds.split(","))
    return SingleServerModel(
        lam=args.lam,
        service=CoxianService(args.nu1, args.nu2, args.q),
        speeds=SpeedProfile(levels, alpha=args.alpha),
    )


def _multi_model(args) -> MultiServerModel:
    if args.model:
        with open(args.model) as fh:
            return multi_model_from_json(json.load(fh))
    if None in (args.lam, args.mu1, args.mu2, args.q, args.m):
        raise ModelError("give --model FILE or all of --lambda --mu1 --mu2 --q --m")
    return MultiServerModel(lam=args.lam, mu1=args.mu1, mu2=args.mu2, q=args.q,
                            m=args.m, threshold=args.threshold)


def _add_single_flags(p):
    p.add_argument("--model", help="JSON model file")
    p.add_argument("--lambda", dest="lam", type=float, help="arrival rate")
    p.add_argument("--nu1", type=float, help="phase-1 length rate")
    p.add_argument("--nu2", type=float, help="phase-2 length rate")
    p.add_argument("--q", type=float, help="probability of a second phase")
    p.add_argument("--speeds", help="comma-separated speed levels s_0,...,s_K")
    p.add_argument("--alpha", type=float, default=1.0, help="power-law exponent")


def _add_multi_flags(p):
    p.add_argument("--model", help="JSON model file")
    p.add_argument("--lambda", dest="lam", type=float, help="arrival rate")
    p.add_argument("--mu1", type=float, help="per-server phase-1 rate")
    p.add_argument("--mu2", type=float, help="per-server phase-2 rate")
    p.add_argument("--q", type=float, help="probability of a second phase")
    p.add_argument("--m", type=int, help="number of servers")
    p.add_argument("--threshold", type=int, default=0, help="switch-off threshold")


def _cmd_solve(args) -> int:
    """solve-single and solve-multi: `args.model_io` is the model's (reader, JSON writer) pair."""
    read_model, model_to_json = args.model_io
    model = read_model(args)
    _emit(model_to_json(model) if args.dump_model else solve(model).to_json(), args.out)
    return 0


def _cmd_compare(args) -> int:
    service = CoxianService(args.nu1, args.nu2, args.q)
    lams = [float(x) for x in args.lambdas.split(",")]
    rows = []
    for lam in lams:
        model = SingleServerModel(lam, service, SpeedProfile((1.0, 1.0)))
        rows.append((lam, "FCFS", fcfs_L(lam, service)))
        rows.append((lam, "LAS", las_L(lam, service)))
        rows.append((lam, "FB-ph2", solve_k1_closed_form(model).L))
    write_csv_rows(rows, args.out)
    return 0


def _cmd_optimize_speeds(args) -> int:
    model = _single_model(args)
    costs = CostCoefficients(args.c1, args.c2)
    profile, cost, curve = optimize_intermediate_speeds(model, args.K, costs)
    _emit({"best_speeds": list(profile.levels), "best_cost": cost,
           "alpha": profile.alpha}, args.out)
    if args.curve_out:
        write_csv_rows([(x, curve.label, y) for x, y in zip(curve.xs, curve.ys)], args.curve_out)
    return 0


def _cmd_optimize_threshold(args) -> int:
    model = _multi_model(args)
    costs = CostCoefficients(args.c1, args.c2)
    best_k, curve = optimize_threshold(model, costs)
    _emit({"best_threshold": best_k,
           "curve": [[int(x), y] for x, y in zip(curve.xs, curve.ys)]}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.mu3 is not None:
        if None in (args.lam, args.nu1, args.nu2, args.q):
            raise ModelError("three-phase simulation needs --lambda --mu1 --mu2 --mu3 --q --q2")
        model = ThreePhaseModel(lam=args.lam, mu1=args.nu1, mu2=args.nu2,
                                mu3=args.mu3, q1=args.q, q2=args.q2)
    elif args.m is not None:
        if None in (args.lam, args.nu1, args.nu2, args.q):
            raise ModelError("pool simulation needs --lambda --mu1 --mu2 --q --m")
        model = MultiServerModel(lam=args.lam, mu1=args.nu1, mu2=args.nu2,
                                 q=args.q, m=args.m, threshold=args.threshold)
    else:
        model = _single_model(args)
    est = simulate(SimConfig(model=model, jobs=args.jobs, warmup_jobs=args.warmup,
                             seed=args.seed, batch_count=args.batches))
    doc = est.to_json()
    if isinstance(model, MultiServerModel):
        doc["U"] = est.U
    _emit(doc, args.out)
    return 0


def _cmd_figure(args) -> int:
    result = reproduce_figure(args.figure, seed=args.seed, sim_jobs=args.jobs)
    result.write_csv(args.out)
    if args.out:
        result.write_metadata(args.out + ".meta.json")
    return 0


def _oracle_agreement(model, sol):
    """Relative gap in L between `sol` and the truncated-CTMC oracle;
    FBQ_LOG=debug shows the oracle's growth steps."""
    try:
        ora = ctmc_solve(model, max_n=ORACLE_MAX_N)
    except SolverError as exc:
        return ("oracle_agreement", False, f"oracle failed: {exc}")
    gap = abs(sol.L - ora.L) / max(abs(ora.L), 1e-12)
    return ("oracle_agreement", gap < 1e-8, f"{gap:.2e} at truncation {ora.truncation}")


def _cmd_validate(args) -> int:
    checks = []
    if args.kind == "single":
        model = _single_model(args)
        stable = check_stability_single(model)
        checks.append(("stability", stable, f"offered load {model.offered_load():.6g}"))
        if stable:
            sol = solve(model)
            res = verify_single(model, sol)
            checks.append(("normalization", res["normalization"] < 1e-10, f"{res['normalization']:.2e}"))
            checks.append(("flow_balance", res["flow_balance"] < 1e-9, f"{res['flow_balance']:.2e}"))
            # the general solver rejects q = 1, where the closed form is the only exact solve
            if model.K == 1 and model.q < 1 and not all(s == 0 for s in model.speeds.levels[: model.K]):
                gen = solve_general(model)
                cf = solve_k1_closed_form(model)
                diff = max(abs(gen.L - cf.L), abs(gen.L1 - cf.L1), abs(gen.L2 - cf.L2))
                checks.append(("closed_form_agreement", diff < 1e-9, f"{diff:.2e}"))
            checks.append(_oracle_agreement(model, sol))
    else:
        model = _multi_model(args)
        stable = check_stability_multi(model)
        checks.append(("stability", stable, f"offered load {model.offered_load():.6g} vs m={model.m}"))
        if stable:
            sol = solve(model)
            checks.append(("root_count", len(sol.roots) == model.m - 1,
                           f"{len(sol.roots)} of {model.m - 1}"))
            res = verify_multi(model, sol)
            checks.append(("idle_server_identity", res["idle_server_identity"] < 1e-9,
                           f"{res['idle_server_identity']:.2e}"))
            checks.append(("normalization", res["normalization"] < 1e-10, f"{res['normalization']:.2e}"))
            checks.append(("geometric_tail", res["geometric_tail"] < 1e-8, f"{res['geometric_tail']:.2e}"))
            checks.append(_oracle_agreement(model, sol))
    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbq", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"fbq {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-single", help="exact single-server solution")
    _add_single_flags(p)
    p.add_argument("--dump-model", action="store_true", help="echo the parsed model as JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_solve, model_io=(_single_model, single_model_to_json))

    p = sub.add_parser("solve-multi", help="exact multiserver solution")
    _add_multi_flags(p)
    p.add_argument("--dump-model", action="store_true", help="echo the parsed model as JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_solve, model_io=(_multi_model, multi_model_to_json))

    p = sub.add_parser("compare-policies", help="FCFS vs LAS vs two-phase FB")
    p.add_argument("--nu1", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lambdas", required=True, help="comma-separated arrival rates")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("optimize-speeds", help="search the intermediate speed levels")
    _add_single_flags(p)
    p.add_argument("--K", type=int, default=2, choices=(2, 3))
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--curve-out", help="CSV path for the search curve")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_optimize_speeds)

    p = sub.add_parser("optimize-threshold", help="search the switch-off threshold")
    _add_multi_flags(p)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_optimize_threshold)

    p = sub.add_parser("simulate", help="discrete-event simulation")
    _add_single_flags(p)
    p.add_argument("--mu1", dest="nu1", type=float, help=argparse.SUPPRESS)
    p.add_argument("--mu2", dest="nu2", type=float, help=argparse.SUPPRESS)
    p.add_argument("--m", type=int, help="simulate an m-server pool instead")
    p.add_argument("--threshold", type=int, default=0)
    p.add_argument("--mu3", type=float, help="simulate a three-phase system instead")
    p.add_argument("--q2", type=float, default=0.0, help="phase-2 to phase-3 probability")
    p.add_argument("--jobs", type=int, default=1_000_000)
    p.add_argument("--warmup", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--batches", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("reproduce-figure", help="emit the CSV behind a published figure")
    p.add_argument("figure", type=int, choices=(3, 4, 5, 6, 7, 8))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1_000_000, help="simulated jobs per point")
    p.add_argument("--out", help="CSV path; metadata goes to OUT.meta.json")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("validate", help="run the invariant suite on a model")
    p.add_argument("kind", choices=("single", "multi"))
    _add_single_flags(p)
    p.add_argument("--mu1", type=float)
    p.add_argument("--mu2", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--threshold", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)

    return ap


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("FBQ_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s %(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnstableModelError as exc:
        log.error("%s (stability requires the offered load below capacity)", exc)
        return 2
    except (ModelError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except SolverError as exc:
        log.error("internal solver failure: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
