"""Experiment runner: every module behind one subcommand, with JSON
summaries and CSV series for plotting.

Exit codes: 0 success, 1 a numerical check failed (a failed shot prints
`error: ...`), 2 usage/config error.
Config files are JSON with the same keys as the flags; flags override file
values; unknown keys are rejected.  Every JSON summary embeds the config
hash and a stable quantity identifier for each reported number.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .closedform import (gap_inequality, gap_scan, kappa_energy,
                         singular_energy, sphere_constant, write_gap_scan_csv)
from .core import (ParameterError, constant_profile, make_params,
                   singular_profile)
from .fixtures import SHOOTING_BRACKETS, reference_profile
from .flow import (BC_NOFLUX, OUTCOME_BLEWUP, FlowConfig,
                   entropy_perturbation_experiment, flow_diagnostics,
                   init_flow, run as flow_run)
from .functionals import energy, entropy, f_functional, identities
from .shooting import ShootingError, shoot
from .spectrum import build_sector, eigen_smallest, first_eigenfunction
from .variations import stability_report

COMMANDS = ("energy", "f-scan", "entropy", "shoot", "spectrum", "stability",
            "flow", "perturb", "gamma", "gap-scan", "identities", "verify-all")


class UsageError(ValueError):
    pass


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load_config(path: str | None, args_ns, parser_keys: set) -> dict:
    cfg = {}
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config {path}: {err}")
        unknown = set(cfg) - parser_keys
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, val in cfg.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool) \
                    and val <= 0 and key.endswith("tol"):
                raise UsageError(f"tolerance {key} must be positive")
    merged = dict(cfg)
    for key, val in vars(args_ns).items():
        if key in ("config", "command"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _emit(out_dir: str, name: str, summary: dict, series: dict | None = None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=_jsonable)
    if series:
        cols = list(series)
        rows = zip(*[np.asarray(series[c]).ravel() for c in cols])
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([f"{x:.12g}" if isinstance(x, float)
                                 else x for x in row])
    return out


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _params_from(cfg: dict):
    return make_params(int(cfg.get("n", 3)), float(cfg.get("p", 7.0)),
                       require_supercritical=bool(cfg.get("supercritical",
                                                          False)))


def _profile_from(cfg: dict, params):
    choice = str(cfg.get("profile", "kappa"))
    if choice == "kappa":
        return constant_profile(params, "+")
    if choice == "zero":
        return constant_profile(params, "0")
    if choice == "-kappa":
        return constant_profile(params, "-")
    if choice == "singular":
        return singular_profile(params)
    if choice == "shoot":
        key = (params.n, params.p)
        if key in SHOOTING_BRACKETS:
            return reference_profile(params.n, params.p)
        raise UsageError(f"no recorded shooting bracket for (n, p) = {key}; "
                         f"run the shoot subcommand with --a-lo/--a-hi")
    raise UsageError(f"unknown profile {choice!r}")


# ---------------------------------------------------------------------------
# subcommand bodies: return (verdict_ok, summary, series)
# ---------------------------------------------------------------------------

def cmd_energy(cfg):
    params = _params_from(cfg)
    prof = _profile_from(cfg, params)
    rep = energy(prof)
    summary = {
        "quantity": "weighted_energy",
        "E": rep.energy,
        "E_stationary_shortcut": rep.energy_shortcut,
        "gradient_term": rep.grad_term,
        "mass_term": rep.mass_term,
        "potential_term": rep.potential_term,
        "flags": rep.flags,
    }
    return len(rep.flags) == 0, summary, None


def cmd_f_scan(cfg):
    params = _params_from(cfg)
    prof = _profile_from(cfg, params)
    x0s = np.linspace(0.0, float(cfg.get("x0_max", 5.0)),
                      int(cfg.get("x0_count", 11)))
    las = np.linspace(float(cfg.get("log_a_min", -2.0)),
                      float(cfg.get("log_a_max", 2.0)),
                      int(cfg.get("t0_count", 11)))
    rows = {"x0_norm": [], "t0": [], "F": []}
    for b in x0s:
        for la in las:
            t0 = -math.exp(la)
            rows["x0_norm"].append(float(b))
            rows["t0"].append(t0)
            rows["F"].append(f_functional(prof, float(b), t0))
    summary = {"quantity": "recentering_functional_scan",
               "max_F": max(rows["F"]), "grid_points": len(rows["F"])}
    return True, summary, rows


def cmd_entropy(cfg):
    params = _params_from(cfg)
    prof = _profile_from(cfg, params)
    res = entropy(prof)
    e = energy(prof).energy
    summary = {
        "quantity": "entropy",
        "lambda": res.lam,
        "argmax_x0_norm": res.x0_norm,
        "argmax_t0": res.t0,
        "ring_margin_time": res.ring_margin_t,
        "ring_margin_space": res.ring_margin_x,
        "weighted_energy": e,
        "entropy_equals_energy_rel": abs(res.lam - e) / max(abs(e), 1e-300),
        "flags": res.flags,
    }
    series = {"x0_norm": [t[0] for t in res.trace],
              "log_a": [t[1] for t in res.trace],
              "F": [t[2] for t in res.trace]}
    ok = not res.flags and (not prof.is_solution
                            or summary["entropy_equals_energy_rel"] <= 1e-8)
    return ok, summary, series


def cmd_shoot(cfg):
    params = _params_from(cfg)
    a_lo = cfg.get("a_lo")
    a_hi = cfg.get("a_hi")
    if a_lo is None or a_hi is None:
        key = (params.n, params.p)
        if key not in SHOOTING_BRACKETS:
            raise UsageError("no bracket given and none recorded; "
                             "pass --a-lo and --a-hi")
        a_lo, a_hi = SHOOTING_BRACKETS[key]
    prof = shoot(params, float(a_lo), float(a_hi))
    summary = {
        "quantity": "shooting_profile",
        "initial_height": prof.meta["a"],
        "ode_residual_sup": prof.meta["ode_residual"],
        "tail_coefficient": prof.decay_coeff,
        "grid_cut": prof.meta["r_cut"],
        "energy": energy(prof).energy,
        "kappa_energy": kappa_energy(params),
    }
    series = {"r": prof.grid, "w": prof.values, "dw": prof.derivs}
    return summary["ode_residual_sup"] <= 1e-7, summary, series


def cmd_spectrum(cfg):
    params = _params_from(cfg)
    prof = _profile_from(cfg, params)
    ell = int(cfg.get("ell", 0))
    k = int(cfg.get("k", 3))
    resolution = int(cfg.get("resolution", 3000))
    op = build_sector(prof, ell, resolution=resolution)
    res = eigen_smallest(op, k, refine=True, profile=prof)
    summary = {
        "quantity": "sector_eigenvalues",
        "ell": ell,
        "lambdas": list(map(float, res.lambdas)),
        "doubling_shift": res.certificates.get("doubling_shift"),
        "count_below_one": res.meta["count_below_one"],
    }
    series = {"r": res.r}
    for j in range(k):
        series[f"f{j}"] = res.samples[j]
    return True, summary, series


def cmd_stability(cfg):
    params = _params_from(cfg)
    prof = _profile_from(cfg, params)
    resolution = int(cfg.get("resolution", 4000))
    op0 = build_sector(prof, 0, resolution=resolution)
    e0 = eigen_smallest(op0, 2, refine=True, profile=prof)
    rep = stability_report(prof, e0)
    summary = {
        "quantity": "stability_verdict",
        "verdict": rep.verdict,
        "lambda_1": rep.lambda_1,
        "margin": rep.margin,
        "second_variation_along_ground_state": rep.second_variation_value,
        "orthogonality_scaling_mode": rep.orthogonality_scale,
        "details": rep.details,
    }
    return True, summary, None


def cmd_flow(cfg):
    params = _params_from(cfg)
    init = str(cfg.get("init", "kappa"))
    fc = FlowConfig(n_points=int(cfg.get("n_points", 800)),
                    bc=str(cfg.get("bc", BC_NOFLUX)),
                    dt_max=float(cfg.get("dt_max", 0.01)),
                    conv_tol=float(cfg.get("conv_tol", 1e-7)))
    if init.startswith("const:"):
        level = float(init.split(":", 1)[1])
        prof = constant_profile(params, "+")
        state = init_flow(prof, fc)
        state.w = np.full_like(state.w, level)
        state.history = [(0.0, state.w.copy())]
    else:
        prof = _profile_from(dict(cfg, profile=init), params)
        state = init_flow(prof, fc)
    report = flow_run(state, tau_max=float(cfg.get("tau_max", 10.0)))
    summary_d = flow_diagnostics(report)
    summary = {
        "quantity": "rescaled_flow_report",
        "outcome": report.outcome,
        "tau_end": report.tau_end,
        "blowup_time_estimate": report.tau1,
        "blowup_location": report.blowup_location,
        "type1_indicator": report.type1_indicator,
        "min_dtau_w": report.min_dtau_w,
        "average_criterion_exceeded": report.criterion_exceeded,
        "energy_monotone": summary_d.energy_monotone,
        "boundary_condition": report.bc,
        "flags": report.flags,
    }
    series = report.series
    ok = summary_d.energy_monotone and not (
        report.criterion_exceeded and report.outcome != OUTCOME_BLEWUP)
    return ok, summary, series


def cmd_perturb(cfg):
    params = _params_from(cfg)
    prof = _profile_from(dict(cfg, profile=cfg.get("profile", "shoot")), params)
    s = float(cfg.get("s", 0.05))
    rep = entropy_perturbation_experiment(
        prof, s_values=(s, -s), run_flow_for=s if s > 0 else None)
    summary = {
        "quantity": "entropy_perturbation",
        "base_entropy": rep.base_entropy,
        "entropies": {str(k): v for k, v in rep.entropies.items()},
        "drop_margins": {str(k): v for k, v in rep.margins.items()},
        "flow_outcome": rep.flow_outcome,
        "flow_blowup_time": rep.flow_tau1,
        "final_resolved_energy": rep.energy_plateau,
        "kappa_energy": rep.kappa_energy,
        "flags": rep.flags,
    }
    ok = all(m > 0 for m in rep.margins.values())
    return ok, summary, None


def cmd_gamma(cfg):
    params = _params_from(cfg)
    summary = {
        "quantity": "singular_energy_closed_form",
        "E_singular": singular_energy(params),
        "E_kappa": kappa_energy(params),
        "gap": gap_inequality(params),
        "sphere_constant": sphere_constant(params)[0],
        "in_uniqueness_range": sphere_constant(params)[1],
    }
    return summary["gap"] > 0, summary, None


def cmd_gap_scan(cfg):
    n_lo, n_hi = (int(x) for x in str(cfg.get("n_range", "4:10")).split(":"))
    rows = gap_scan(range(n_lo, n_hi + 1), p_count=int(cfg.get("p_count", 40)))
    valid = [r for r in rows if r.gamma_argument_positive]
    summary = {
        "quantity": "gap_scan",
        "rows": len(rows),
        "valid_rows": len(valid),
        "all_gaps_positive": all(r.ratio > 1.0 for r in valid),
        "min_gap": min(r.ratio - 1.0 for r in valid),
    }
    series = {
        "n": [r.n for r in rows], "p": [r.p for r in rows],
        "beta": [r.beta for r in rows],
        "E_singular": [r.e_singular for r in rows],
        "E_kappa": [r.e_kappa for r in rows],
        "ratio": [r.ratio for r in rows],
        "in_uniqueness_range": [int(r.in_uniqueness_range) for r in rows],
    }
    return summary["all_gaps_positive"], summary, series


def cmd_identities(cfg):
    params = _params_from(cfg)
    prof = _profile_from(cfg, params)
    rep = identities(prof)
    summary = {
        "quantity": "stationary_identities",
        "pohozaev_residual": rep.pohozaev_residual,
        "mass_balance_residual": rep.mass_balance_residual,
        "moment_balance_residual": rep.moment_balance_residual,
        "scale": rep.scale,
    }
    tol = 1e-5 if prof.is_solution else math.inf
    ok = all(abs(summary[k]) <= tol for k in
             ("pohozaev_residual", "mass_balance_residual",
              "moment_balance_residual"))
    return ok, summary, None


def cmd_verify_all(cfg):
    if cfg.get("n") is not None or cfg.get("p") is not None:
        _params_from(cfg)   # reject inconsistent parameter blocks up front
    results = acceptance.run_all(verbose=True)
    summary = {
        "quantity": "acceptance_suite",
        "passed": all(r.passed for r in results),
        "criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                      "seconds": r.seconds, "details": r.details}
                     for r in results],
    }
    return summary["passed"], summary, None


HANDLERS = {
    "energy": cmd_energy, "f-scan": cmd_f_scan, "entropy": cmd_entropy,
    "shoot": cmd_shoot, "spectrum": cmd_spectrum, "stability": cmd_stability,
    "flow": cmd_flow, "perturb": cmd_perturb, "gamma": cmd_gamma,
    "gap-scan": cmd_gap_scan, "identities": cmd_identities,
    "verify-all": cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="self-similar profile toolkit for the supercritical "
                    "semilinear heat equation")
    parser.add_argument("--out", default="selfsim_out",
                        help="output directory for JSON/CSV results")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized test-function batches")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *arg_specs):
        sp = sub.add_parser(name)
        for flag, kw in arg_specs:
            sp.add_argument(flag, **kw)
        return sp

    common = [("--n", dict(type=int, default=None)),
              ("--p", dict(type=float, default=None)),
              ("--supercritical", dict(action="store_const", const=True,
                                       default=None))]
    prof_arg = [("--profile", dict(default=None,
                                   help="kappa | -kappa | zero | singular | shoot"))]
    add("energy", *common, *prof_arg)
    add("f-scan", *common, *prof_arg,
        ("--x0-max", dict(type=float, default=None, dest="x0_max")),
        ("--x0-count", dict(type=int, default=None, dest="x0_count")),
        ("--t0-count", dict(type=int, default=None, dest="t0_count")),
        ("--log-a-min", dict(type=float, default=None, dest="log_a_min")),
        ("--log-a-max", dict(type=float, default=None, dest="log_a_max")))
    add("entropy", *common, *prof_arg)
    add("shoot", *common,
        ("--a-lo", dict(type=float, default=None, dest="a_lo")),
        ("--a-hi", dict(type=float, default=None, dest="a_hi")))
    add("spectrum", *common, *prof_arg,
        ("--ell", dict(type=int, default=None)),
        ("--k", dict(type=int, default=None)),
        ("--resolution", dict(type=int, default=None)))
    add("stability", *common, *prof_arg,
        ("--resolution", dict(type=int, default=None)))
    add("flow", *common,
        ("--init", dict(default=None, help="const:<level> | kappa | shoot")),
        ("--tau-max", dict(type=float, default=None, dest="tau_max")),
        ("--n-points", dict(type=int, default=None, dest="n_points")),
        ("--bc", dict(default=None)),
        ("--dt-max", dict(type=float, default=None, dest="dt_max")),
        ("--conv-tol", dict(type=float, default=None, dest="conv_tol")))
    add("perturb", *common, *prof_arg,
        ("--s", dict(type=float, default=None)))
    add("gamma", *common)
    add("gap-scan",
        ("--n-range", dict(default=None, dest="n_range")),
        ("--p-count", dict(type=int, default=None, dest="p_count")))
    add("identities", *common, *prof_arg)
    add("verify-all", *common)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    keys = set(vars(args)) | {"seed", "out"}
    try:
        cfg = _load_config(args.config, args, keys)
        cfg.setdefault("seed", 0)
        handler = HANDLERS[args.command]
        ok, summary, series = handler(cfg)
    except (UsageError, ParameterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ShootingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    summary["config"] = {k: v for k, v in cfg.items() if k != "out"}
    summary["config_hash"] = _config_hash(summary["config"])
    out = _emit(cfg.get("out", "selfsim_out"), args.command.replace("-", "_"),
                summary, series)
    verdict = "ok" if ok else "check failed"
    print(f"{args.command}: {verdict}  (results in {out})")
    if args.command != "verify-all":
        key_numbers = {k: v for k, v in summary.items()
                       if isinstance(v, (int, float)) and k != "config_hash"}
        print(json.dumps(key_numbers, indent=2, default=_jsonable))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
