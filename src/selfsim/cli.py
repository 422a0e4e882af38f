"""Experiment runner: every module behind one subcommand, with JSON
summaries and CSV series for plotting.

Each setting is one SUBCOMMANDS entry, key -> default (a type as default:
unset unless given).  Key ``x0_max`` is flag ``--x0-max`` and config-file
key ``x0_max``; ``out`` may be set either way.  Values resolve as defaults,
then the ``--config`` JSON file, then flags, converted to the default's type
alike; unknown file keys are rejected.  Every JSON summary records the
resolved settings, their hash and a stable identifier per quantity.

Exit codes: 0 success; 1 a numerical failure or a failed check; 2 a bad or
out-of-scope request.  Failures print ``error: ...`` to stderr.
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
                         singular_energy, sphere_constant)
from .core import (SCAN_ROWS_MAX, ParameterError, SelfsimError,
                   constant_profile, make_params, singular_profile)
from .fixtures import SHOOTING_BRACKETS, reference_profile
from .flow import (OUTCOME_BLEWUP, FlowConfig, entropy_perturbation_experiment,
                   init_flow, run as flow_run)
from .functionals import _f_values, energy, entropy, identities
from .shooting import shoot
from .spectrum import build_sector, eigen_smallest
from .variations import stability_report

GLOBAL = {"out": "selfsim_out"}
HELP = {"profile": "kappa | -kappa (as --profile=-kappa) | zero | singular "
                   "| shoot ",
        "init": "const:<level> | kappa | shoot ",
        "dt_max": "largest flow step; a local error estimate sets each "
                  "step below it "}
CONSTANTS = {"kappa": "+", "zero": "0", "-kappa": "-"}


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _convert(key: str, value, default):
    """value as the type of the key's default; an int must be integral."""
    kind = default if isinstance(default, type) else type(default)
    if value is None and isinstance(default, type):
        return None
    try:
        if (kind is bool) != isinstance(value, bool) or \
                kind is int and not float(value).is_integer():
            raise ValueError
        return int(float(value)) if kind is int else kind(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{key} must be {kind.__name__}, "
                             f"got {value!r}") from None


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParameterError(f"cannot read config {path}: {err}") from None
    if not isinstance(data, dict):
        raise ParameterError(f"config {path} must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags, each converted alike."""
    table = {**GLOBAL, **SUBCOMMANDS[args.command][1]}
    from_file = _read_config(args.config)
    unknown = set(from_file) - set(table)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    from_flags = vars(args)
    cfg = {}
    for key, default in table.items():
        unset = None if isinstance(default, type) else default
        value = from_flags.get(key, from_file.get(key, unset))
        cfg[key] = _convert(key, value, default)
    return cfg


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
    return make_params(cfg["n"], cfg["p"],
                       require_supercritical=cfg["supercritical"])


def _profile_from(cfg: dict, key: str = "profile"):
    params, choice = _params_from(cfg), cfg[key]
    if choice in CONSTANTS:
        return constant_profile(params, CONSTANTS[choice])
    if choice == "singular":
        return singular_profile(params)
    if choice == "shoot":
        key = (params.n, params.p)
        if key in SHOOTING_BRACKETS:
            return reference_profile(params.n, params.p)
        raise ParameterError(f"no recorded shooting bracket for (n, p) = "
                             f"{key}; run the shoot subcommand with "
                             f"--a-lo/--a-hi")
    raise ParameterError(f"unknown profile {choice!r}")


# ---------------------------------------------------------------------------
# subcommand bodies: return (verdict_ok, summary, series)
# ---------------------------------------------------------------------------

def cmd_energy(cfg):
    prof = _profile_from(cfg)
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


def _check_rows(**counts):
    """Each count >= 1 and their product (the rows) <= SCAN_ROWS_MAX."""
    if min(counts.values()) < 1 or math.prod(counts.values()) > SCAN_ROWS_MAX:
        named = " x ".join(f"{k}={v}" for k, v in counts.items())
        raise ParameterError(f"a scan takes counts of at least 1 and at most "
                             f"{SCAN_ROWS_MAX} rows, got {named}")


def cmd_f_scan(cfg):
    _check_rows(x0_count=cfg["x0_count"], t0_count=cfg["t0_count"])
    prof = _profile_from(cfg)
    for key in ("x0_max", "log_a_min", "log_a_max"):
        if not math.isfinite(cfg[key]):
            raise ParameterError(f"{key} must be finite, got {cfg[key]}")
    x0s = np.linspace(0.0, cfg["x0_max"], cfg["x0_count"])
    las = np.linspace(cfg["log_a_min"], cfg["log_a_max"], cfg["t0_count"])
    try:
        t0s = [-math.exp(la) for la in las]
    except OverflowError:
        raise ParameterError(f"log(-t0) = {float(max(las))!r} puts t0 past "
                             f"the float range") from None
    rows = {"x0_norm": [float(b) for b in x0s for _ in t0s],
            "t0": [t0 for _ in x0s for t0 in t0s]}
    rows["F"] = _f_values(prof, rows["x0_norm"], rows["t0"]).tolist()
    summary = {"quantity": "recentering_functional_scan",
               "max_F": max(rows["F"]), "grid_points": len(rows["F"])}
    return True, summary, rows


def cmd_entropy(cfg):
    prof = _profile_from(cfg)
    res = entropy(prof)
    e = energy(prof).energy
    rel = abs(res.lam - e) / max(abs(e), 1e-300)
    summary = {
        "quantity": "entropy",
        "lambda": res.lam,
        "argmax_x0_norm": res.x0_norm,
        "argmax_t0": res.t0,
        "ring_margin_time": res.ring_margin_t,
        "ring_margin_space": res.ring_margin_x,
        "weighted_energy": e,
        "entropy_equals_energy_rel": rel,
        "flags": res.flags,
    }
    series = {"x0_norm": [t[0] for t in res.trace],
              "log_a": [t[1] for t in res.trace],
              "F": [t[2] for t in res.trace]}
    ok = not res.flags and (not prof.is_solution
                            or rel <= acceptance.ENTROPY_ENERGY_TOL)
    return ok, summary, series


def cmd_shoot(cfg):
    params = _params_from(cfg)
    bracket = (cfg["a_lo"], cfg["a_hi"])
    if bracket == (None, None):
        key = (params.n, params.p)
        if key not in SHOOTING_BRACKETS:
            raise ParameterError("no bracket given and none recorded; "
                                 "pass --a-lo and --a-hi")
        bracket = SHOOTING_BRACKETS[key]
    elif None in bracket:
        raise ParameterError("pass both --a-lo and --a-hi")
    prof = shoot(params, *bracket)
    summary = {
        "quantity": "shooting_profile",
        "initial_height": prof.meta["a"],
        "ode_residual_sup": prof.meta["ode_residual"],
        "tail_coefficient": prof.decay_coeff,
        "grid_cut": prof.meta["r_cut"],
        "energy": energy(prof).energy,
        "kappa_energy": kappa_energy(params),
        **{key: prof.meta[key] for key in ("kernel_calls", "lane_steps",
                                          "hidden_rebound_rejections")},
    }
    series = {"r": prof.grid, "w": prof.values, "dw": prof.derivs}
    # shoot raises (exit 1) on a residual above shooting.RESIDUAL_TOL
    return True, summary, series


def cmd_spectrum(cfg):
    prof = _profile_from(cfg)
    ell, k = cfg["ell"], cfg["k"]
    op = build_sector(prof, ell, resolution=cfg["resolution"])
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
    prof = _profile_from(cfg)
    op0 = build_sector(prof, 0, resolution=cfg["resolution"])
    e0 = eigen_smallest(op0, 1, refine=True, profile=prof)
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
    init = cfg["init"]
    fc = FlowConfig(**{key: cfg[key] for key in FLOW_KEYS})
    if init.startswith("const:"):
        level = _convert("init level", init.split(":", 1)[1], 0.0)
        if not math.isfinite(level):
            raise ParameterError(f"init level must be finite, got {level}")
        # the level as the zero profile plus level times the constant 1
        state = init_flow(constant_profile(params, "0"), fc,
                          eigenfunction=np.ones_like, amplitude=level)
    else:
        state = init_flow(_profile_from(cfg, "init"), fc)
    report = flow_run(state, tau_max=cfg["tau_max"])
    steady = report.steady    # None unless a non-constant solution started
    summary = {
        "quantity": "rescaled_flow_report",
        "outcome": report.outcome,
        "tau_end": report.tau_end,
        "blowup_time_estimate": report.tau1,
        "blowup_location": report.blowup_location,
        "type1_indicator": report.type1_indicator,
        "min_dtau_w": report.min_dtau_w,
        "average_criterion_exceeded": report.criterion_exceeded,
        "energy_monotone": report.energy_monotone,
        "steps_accepted": report.steps.accepted,
        "steps_rejected_by_error": report.steps.rejected_by_error,
        "steps_rejected_by_energy": report.steps.rejected_by_energy,
        "steps_rejected_by_reaction": report.steps.rejected_by_reaction,
        "max_error_estimate": report.steps.max_error_estimate,
        "newton_steps": steady.newton_steps if steady else None,
        "newton_residual": steady.residual if steady else None,
        "steady_state_shift": steady.shift if steady else None,
        "flags": report.flags,
    }
    series = report.series
    ok = report.energy_monotone and not report.flags and not (
        report.criterion_exceeded and report.outcome != OUTCOME_BLEWUP)
    return ok, summary, series


def cmd_perturb(cfg):
    prof = _profile_from(cfg)
    s = cfg["s"]
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
    try:
        n_lo, n_hi = (int(x) for x in cfg["n_range"].split(":"))
        if n_lo > n_hi:
            raise ValueError
    except ValueError:
        raise ParameterError(f"n_range must be <lo>:<hi> with integers "
                             f"lo <= hi, got {cfg['n_range']!r}") from None
    _check_rows(n_count=n_hi - n_lo + 1, p_count=cfg["p_count"])
    rows = gap_scan(range(n_lo, n_hi + 1), p_count=cfg["p_count"])
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
    prof = _profile_from(cfg)
    rep = identities(prof)
    summary = {
        "quantity": "stationary_identities",
        "pohozaev_residual": rep.pohozaev_residual,
        "mass_balance_residual": rep.mass_balance_residual,
        "moment_balance_residual": rep.moment_balance_residual,
        "scale": rep.scale,
    }
    tol = acceptance.identity_tol(prof) if prof.is_solution else math.inf
    ok = all(abs(summary[k]) <= tol for k in
             ("pohozaev_residual", "mass_balance_residual",
              "moment_balance_residual"))
    return ok, summary, None


def cmd_verify_all(cfg):
    results = acceptance.run_all(verbose=True)
    summary = {
        "quantity": "acceptance_suite",
        "passed": all(r.passed for r in results),
        "criteria": [{"id": r.cid, "name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
        # wall times apart from the results, which repeat bit for bit
        "timings": [{"id": r.cid, "seconds": r.seconds} for r in results],
    }
    return summary["passed"], summary, None


# subcommand -> (handler, {key: default})
PARAMS = {"n": 3, "p": 7.0, "supercritical": False}
PROFILE = {**PARAMS, "profile": "kappa"}
FLOW_KEYS = ("n_points", "dt_max", "conv_tol")

SUBCOMMANDS = {
    "energy": (cmd_energy, PROFILE),
    "f-scan": (cmd_f_scan, {**PROFILE, "x0_max": 5.0, "x0_count": 11,
                            "t0_count": 11, "log_a_min": -2.0,
                            "log_a_max": 2.0}),
    "entropy": (cmd_entropy, PROFILE),
    "shoot": (cmd_shoot, {**PARAMS, "a_lo": float, "a_hi": float}),
    "spectrum": (cmd_spectrum, {**PROFILE, "ell": 0, "k": 3,
                                "resolution": 3000}),
    "stability": (cmd_stability, {**PROFILE, "resolution": 4000}),
    "flow": (cmd_flow, {**PARAMS, "init": "kappa", "tau_max": 10.0,
                        **{key: getattr(FlowConfig(), key)
                           for key in FLOW_KEYS}}),
    "perturb": (cmd_perturb, {**PROFILE, "profile": "shoot", "s": 0.05}),
    "gamma": (cmd_gamma, PARAMS),
    "gap-scan": (cmd_gap_scan, {"n_range": "4:10", "p_count": 40}),
    "identities": (cmd_identities, PROFILE),
    "verify-all": (cmd_verify_all, {}),
}


def _add_flags(parser: argparse.ArgumentParser, table: dict) -> None:
    for key, default in table.items():
        shown = "unset" if isinstance(default, type) else repr(default)
        parser.add_argument("--" + key.replace("_", "-"),
                            action="store_true" if default is False else None,
                            default=argparse.SUPPRESS,
                            help=f"{HELP.get(key, '')}(default {shown})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="self-similar profile toolkit for the supercritical "
                    "semilinear heat equation")
    parser.add_argument("--config", help="JSON file with any of the "
                                         "subcommand's keys and out")
    _add_flags(parser, GLOBAL)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name), table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        cfg = _resolve(args)
        ok, summary, series = SUBCOMMANDS[args.command][0](cfg)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SelfsimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out_dir = cfg.pop("out")
    summary["config"] = cfg
    summary["config_hash"] = _config_hash(cfg)
    out = _emit(out_dir, args.command.replace("-", "_"), summary, series)
    verdict = "ok" if ok else "check failed"
    print(f"{args.command}: {verdict}  (results in {out})")
    if args.command != "verify-all":
        key_numbers = {k: v for k, v in summary.items()
                       if isinstance(v, (int, float)) and k != "config_hash"}
        print(json.dumps(key_numbers, indent=2, default=_jsonable))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
