import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from selfsim import cli, fixtures, flow
from selfsim.cli import HELP, SUBCOMMANDS, _resolve, build_parser, main


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """json.loads that refuses the NaN and Infinity json.dump writes."""
    return json.loads(text, parse_constant=_not_json)


def read_json(out_dir, name):
    return strict_loads((out_dir / f"{name}.json").read_text())


def test_energy_kappa_p7(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "energy", "--n", "3", "--p", "7",
               "--profile", "kappa"])
    assert rc == 0
    data = read_json(tmp_path, "energy")
    assert data["quantity"] == "weighted_energy"
    assert abs(data["E"] - 0.034395) < 1e-5
    assert "config_hash" in data and len(data["config_hash"]) == 16


def test_negative_kappa_profile_as_listed_in_help(tmp_path):
    assert "--profile=-kappa" in HELP["profile"]
    rc = main(["--out", str(tmp_path), "energy", "--n", "3", "--p", "7",
               "--profile=-kappa"])
    assert rc == 0
    data = read_json(tmp_path, "energy")
    assert data["config"]["profile"] == "-kappa"
    assert abs(data["E"] - 0.034395) < 1e-5   # E is even in w


def test_gamma_7_3(tmp_path):
    rc = main(["--out", str(tmp_path), "gamma", "--n", "7", "--p", "3"])
    assert rc == 0
    data = read_json(tmp_path, "gamma")
    assert abs(data["E_singular"] - 1.0 / 15.0) < 1e-10
    assert abs(data["gap"] - 1.0 / 15.0) < 1e-10


def test_flow_constant_blowup(tmp_path):
    rc = main(["--out", str(tmp_path), "flow", "--n", "3", "--p", "3",
               "--init", "const:1.0"])
    assert rc == 0
    data = read_json(tmp_path, "flow")
    assert data["outcome"] == "blew_up"
    assert abs(data["blowup_time_estimate"] - math.log(2.0)) < 1e-2
    csv_text = (tmp_path / "flow.csv").read_text().splitlines()
    assert csv_text[0].split(",") == ["tau", "sup_norm", "weighted_avg",
                                      "energy", "dt", "min_dtau_w"]
    assert len(csv_text) > 10
    # one row for the initial data and one per accepted step
    assert data["steps_accepted"] == len(csv_text) - 2
    for cause in ("error", "energy", "reaction"):
        assert data[f"steps_rejected_by_{cause}"] >= 0
    assert 0.0 < data["max_error_estimate"] < 1e-6
    # constant data starts as it is: no steady-state solve
    assert data["newton_steps"] is None
    assert data["newton_residual"] is None
    assert data["steady_state_shift"] is None


def test_flow_from_the_shot_profile_reports_its_steady_state_solve(tmp_path):
    # the run starts at the flow's own steady state, solved by Newton from
    # the sampled profile in 3 steps; it moves the profile by 2.05e-2
    assert main(["--out", str(tmp_path), "flow", "--init", "shoot",
                 "--n-points", "800"]) == 0
    data = read_json(tmp_path, "flow")
    assert data["newton_steps"] == 3
    assert data["newton_residual"] <= 1e-11
    assert data["steady_state_shift"] == pytest.approx(2.05e-2, rel=0.01)
    assert data["outcome"] == "blew_up"


def test_flow_whose_steady_state_solve_fails_exits_1(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(flow, "NEWTON_STEPS", 1)
    assert main(["--out", str(tmp_path), "flow", "--init", "shoot"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "flow.json").exists()


def test_flow_of_tiny_constant_data_reports_without_warning(tmp_path, capsys):
    # |w|^{1-p} overflows: no reaction limit on dt, and the data decays
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--out", str(tmp_path), "flow", "--init", "const:1e-320",
                   "--tau-max", "0.2"])
    assert rc == 0
    assert not caught
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert read_json(tmp_path, "flow")["energy_monotone"] is True


def test_flagged_flow_run_exits_1(tmp_path, monkeypatch):
    # a run that stops on its step budget reports, but does not pass
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    rc = main(["--out", str(tmp_path), "flow", "--init", "const:0.5",
               "--tau-max", "10"])
    assert rc == 1
    data = read_json(tmp_path, "flow")
    assert data["flags"] == ["step budget exhausted"]
    assert data["energy_monotone"] is True


def test_perturbation_amplitude_that_overflows_exits_2_without_warning(
        tmp_path, capsys):
    # 1e100 and 1e300 keep w + s f finite, but not |w + s f|^(p+1)
    for s in ("1e100", "1e300", "1e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["--out", str(tmp_path), "perturb", "--s", s])
        assert rc == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"s={float(s)!r}" in err
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.json"))


def test_identities_judges_constants_at_the_acceptance_bound(tmp_path,
                                                             monkeypatch):
    # criterion 6's bound: constants' residuals stay at rounding (at most
    # 1e-15), so every constant passes
    for n in (1, 2, 3, 5, 10):
        for p in ("1.5", "2", "3", "7", "40"):
            for profile in ("kappa", "zero", "-kappa"):
                assert main(["--out", str(tmp_path), "identities", "--n",
                             str(n), "--p", p, f"--profile={profile}"]) == 0
                data = read_json(tmp_path, "identities")
                assert max(abs(data[k]) for k in (
                    "pohozaev_residual", "mass_balance_residual",
                    "moment_balance_residual")) <= 1e-15
    # a residual of 1e-9 fails a constant (bound 1e-13), not another solution
    # (bound 1e-5)
    real = cli.identities

    def shifted(prof):
        rep = real(prof)
        rep.pohozaev_residual += 1e-9
        return rep
    monkeypatch.setattr(cli, "identities", shifted)
    assert main(["--out", str(tmp_path), "identities", "--n", "3", "--p", "3",
                 "--profile", "kappa"]) == 1
    assert main(["--out", str(tmp_path), "identities", "--n", "7", "--p", "3",
                 "--profile", "singular"]) == 0


def test_entropy_and_identities_kappa(tmp_path):
    rc = main(["--out", str(tmp_path), "entropy", "--n", "3", "--p", "3",
               "--profile", "kappa"])
    assert rc == 0
    data = read_json(tmp_path, "entropy")
    assert abs(data["lambda"] - 0.0625) < 1e-9
    rc = main(["--out", str(tmp_path), "identities", "--n", "7", "--p", "3",
               "--profile", "singular"])
    assert rc == 0


def test_gap_scan_writes_csv(tmp_path):
    rc = main(["--out", str(tmp_path), "gap-scan", "--n-range", "4:6",
               "--p-count", "5"])
    assert rc == 0
    data = read_json(tmp_path, "gap_scan")
    assert data["rows"] == 15 and data["all_gaps_positive"]
    lines = (tmp_path / "gap_scan.csv").read_text().splitlines()
    assert lines[0].startswith("n,p,beta")
    assert len(lines) == 16


def test_spectrum_kappa(tmp_path):
    rc = main(["--out", str(tmp_path), "spectrum", "--n", "3", "--p", "3",
               "--profile", "kappa", "--ell", "0", "--k", "3",
               "--resolution", "1500"])
    assert rc == 0
    data = read_json(tmp_path, "spectrum")
    assert max(abs(l - e) for l, e in zip(data["lambdas"], [-1.0, 0.0, 1.0])) < 1e-5


def test_subcritical_flag_rejected(tmp_path):
    rc = main(["--out", str(tmp_path), "energy", "--n", "3", "--p", "3",
               "--supercritical"])
    assert rc == 2


def test_flow_rejects_unknown_boundary_condition(tmp_path, capsys):
    # the command line has no boundary setting: the flow runs no-flux, and
    # neither a flag nor a config key can name a boundary
    args = ["flow", "--n", "3", "--p", "3", "--init", "const:1.0"]
    cfg = write_config(tmp_path, {"bc": "noflux"})
    for argv in ([*args, "--bc", "noflux"], ["--config", cfg, *args]):
        assert main(["--out", str(tmp_path), *argv]) == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "flow.json").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "p": 3.0, "bogus_key": 1}))
    rc = main(["--out", str(tmp_path), "--config", str(cfg), "energy"])
    assert rc == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "p": 3.0}))
    rc = main(["--out", str(tmp_path), "--config", str(cfg), "gamma"])
    assert rc == 0
    assert abs(read_json(tmp_path, "gamma")["E_singular"] - 1 / 15) < 1e-10
    rc = main(["--out", str(tmp_path), "--config", str(cfg), "gamma",
               "--n", "6", "--p", "5"])
    assert rc == 0
    assert abs(read_json(tmp_path, "gamma")["E_singular"] - 0.0427425842) < 1e-8


def test_determinism_same_config_same_hash(tmp_path):
    rc1 = main(["--out", str(tmp_path / "a"), "energy", "--n", "3", "--p", "7"])
    rc2 = main(["--out", str(tmp_path / "b"), "energy", "--n", "3", "--p", "7"])
    assert rc1 == rc2 == 0
    d1 = read_json(tmp_path / "a", "energy")
    d2 = read_json(tmp_path / "b", "energy")
    assert d1["config_hash"] == d2["config_hash"]
    assert d1["E"] == d2["E"]


def test_determinism_shoot_writes_identical_files(tmp_path):
    for out in ("a", "b"):
        assert main(["--out", str(tmp_path / out), "shoot", "--n", "3",
                     "--p", "7"]) == 0
    for name in ("shoot.json", "shoot.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("init", ["const:1.0", "kappa"])   # blows up; holds
def test_determinism_flow_writes_identical_files(tmp_path, init):
    for out in ("a", "b"):
        assert main(["--out", str(tmp_path / out), "flow", "--n", "3",
                     "--p", "3", "--init", init]) == 0
    for name in ("flow.json", "flow.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["energy", "--profile", "shoot"],
    ["identities", "--profile", "shoot"],
    ["entropy", "--profile", "shoot"],
    ["entropy", "--profile", "kappa"],
    ["f-scan", "--profile", "shoot", "--x0-count", "3", "--t0-count", "4"],
    ["spectrum", "--profile", "shoot"],
    ["stability", "--profile", "shoot"],
    ["perturb", "--profile", "shoot"],
    ["gamma"],
    ["gap-scan"],
    ["verify-all"],
])
def test_determinism_profile_commands_write_identical_files(tmp_path,
                                                            monkeypatch, argv):
    name = argv[0].replace("-", "_")
    params = ["--n", "3", "--p", "7"] if "n" in SUBCOMMANDS[argv[0]][1] else []
    for out in ("a", "b"):
        if "shoot" in argv or name == "verify_all":
            # every run shoots and builds its interpolant afresh
            monkeypatch.setattr(fixtures, "_PROFILE_CACHE", {})
        assert main(["--out", str(tmp_path / out), argv[0], *params,
                     *argv[1:]]) == 0
    written = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert f"{name}.json" in written
    for fname in written:
        a, b = ((tmp_path / out / fname).read_bytes() for out in ("a", "b"))
        if name == "verify_all":   # only the wall times may differ
            a, b = (json.dumps({k: v for k, v in strict_loads(x).items()
                                if k != "timings"}) for x in (a, b))
        elif fname.endswith(".json"):
            strict_loads(a)
        assert a == b


def test_flow_from_kappa_converges_when_dt_max_exceeds_the_reaction_limit(
        tmp_path):
    # near kappa at p = 3 the reaction limit caps dt at 0.25, so the
    # convergence stop must compare with that cap, not with dt_max
    rc = main(["--out", str(tmp_path), "flow", "--n", "3", "--p", "3",
               "--init", "kappa", "--dt-max", "1"])
    assert rc == 0
    data = read_json(tmp_path, "flow")
    assert data["outcome"] == "converged_to_profile"
    assert not data["average_criterion_exceeded"]


def test_f_scan_csv(tmp_path):
    # 5 log-time points put a = 1 on the grid, where F of kappa peaks
    rc = main(["--out", str(tmp_path), "f-scan", "--n", "3", "--p", "3",
               "--profile", "kappa", "--x0-count", "3", "--t0-count", "5"])
    assert rc == 0
    data = read_json(tmp_path, "f_scan")
    assert data["grid_points"] == 15
    assert abs(data["max_F"] - 0.0625) < 1e-9
    lines = (tmp_path / "f_scan.csv").read_text().splitlines()
    assert lines[0] == "x0_norm,t0,F" and len(lines) == 16


def test_stability_verdicts(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "stability", "--n", "3", "--p", "3",
               "--profile", "kappa", "--resolution", "1500"])
    assert rc == 0
    data = read_json(tmp_path, "stability")
    assert data["verdict"] == "stable_modulo_translations"
    rc = main(["--out", str(tmp_path), "stability", "--n", "3", "--p", "3",
               "--profile", "zero", "--resolution", "1500"])
    assert rc == 0
    data = read_json(tmp_path, "stability")
    assert data["verdict"] == "stable"
    # no destabilizing direction: the values it would carry are null
    assert data["second_variation_along_ground_state"] is None
    assert data["orthogonality_scaling_mode"] is None
    # stdout: per run a verdict line, then the key numbers as JSON
    runs = capsys.readouterr().out.split("stability: ok")[1:]
    assert len(runs) == 2
    for run in runs:
        assert "lambda_1" in strict_loads(run.split("\n", 1)[1])


def test_shoot_uses_recorded_bracket(tmp_path):
    rc = main(["--out", str(tmp_path), "shoot", "--n", "3", "--p", "7"])
    assert rc == 0
    data = read_json(tmp_path, "shoot")
    assert abs(data["initial_height"] - 2.3025214117) < 1e-6
    assert data["ode_residual_sup"] <= 1e-7
    assert data["energy"] > data["kappa_energy"]
    assert data["kernel_calls"] == 6 and data["lane_steps"] > 0
    assert data["hidden_rebound_rejections"] == 0
    assert (tmp_path / "shoot.csv").exists()


def test_shoot_without_bracket_for_unknown_pair(tmp_path):
    rc = main(["--out", str(tmp_path), "shoot", "--n", "4", "--p", "9"])
    assert rc == 2


def test_shoot_reports_a_non_bracket(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "shoot", "--n", "3", "--p", "7",
               "--a-lo", "1", "--a-hi", "1.1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no bracket")
    assert "Traceback" not in err


def test_perturb_subcommand(tmp_path):
    rc = main(["--out", str(tmp_path), "perturb", "--n", "3", "--p", "7",
               "--profile", "shoot", "--s", "0.05"])
    assert rc == 0
    data = read_json(tmp_path, "perturb")
    assert all(m > 0 for m in data["drop_margins"].values())
    assert data["flow_outcome"] == "blew_up"
    assert data["final_resolved_energy"] < data["base_entropy"] + 1e-6


def write_config(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


def test_config_file_out_is_used_and_flag_wins(tmp_path):
    from_file, from_flag = tmp_path / "from_file", tmp_path / "from_flag"
    cfg = write_config(tmp_path, {"n": 7, "p": 3, "out": str(from_file)})
    assert main(["--config", cfg, "gamma"]) == 0
    assert (from_file / "gamma.json").exists()
    assert main(["--config", cfg, "--out", str(from_flag), "gamma"]) == 0
    assert (from_flag / "gamma.json").exists()
    assert "out" not in read_json(from_flag, "gamma")["config"]


@pytest.mark.parametrize("source", ["flag", "file"])
def test_conv_tol_zero_runs_negative_rejected(tmp_path, source):
    def run(conv_tol):
        args = ["flow", "--n", "3", "--p", "3", "--init", "const:1.0"]
        if source == "flag":
            return main(["--out", str(tmp_path), *args,
                         "--conv-tol", str(conv_tol)])
        cfg = write_config(tmp_path, {"conv_tol": conv_tol})
        return main(["--out", str(tmp_path), "--config", cfg, *args])
    assert run(0) == 0
    assert read_json(tmp_path, "flow")["config"]["conv_tol"] == 0.0
    assert run(-1) == 2


@pytest.mark.parametrize("source", ["flag", "file"])
def test_integer_key_rejects_non_integral_value(tmp_path, capsys, source):
    if source == "flag":
        rc = main(["--out", str(tmp_path), "gamma", "--n", "3.5", "--p", "3"])
    else:
        cfg = write_config(tmp_path, {"n": 3.5, "p": 3})
        rc = main(["--out", str(tmp_path), "--config", cfg, "gamma"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: n must be int")
    assert not (tmp_path / "gamma.json").exists()


BAD_REQUESTS = [
    ["spectrum", "--profile", "singular"],
    ["stability", "--profile", "singular"],
    ["perturb", "--profile", "singular"],
    ["perturb", "--s", "0"],
    ["perturb", "--profile", "kappa"],
    ["entropy", "--profile", "singular"],
    ["spectrum", "--ell", "-1"],
    ["spectrum", "--k", "0"],
    ["spectrum", "--resolution", "0"],
    ["flow", "--n-points", "0"],
    ["flow", "--init", "const:abc"],
    ["flow", "--init", "const:nan"],
    ["flow", "--init", "const:inf"],
    ["flow", "--init", "const:1e200"],
    ["flow", "--init", "singular"],
    ["flow", "--init", "const:0.5", "--dt-max", "inf"],
    ["flow", "--init", "const:0.5", "--dt-max", "1e-20", "--tau-max", "0.1"],
    ["flow", "--init", "const:0.5", "--tau-max", "nan"],
    ["flow", "--init", "const:0.5", "--tau-max", "-1"],
    # weights r^(n-1) e^(-r^2/4) beyond the float range
    ["energy", "--n", "400", "--p", "3"],
    ["energy", "--n", "200", "--p", "3"],
    ["identities", "--n", "200"],
    ["entropy", "--n", "300"],
    ["spectrum", "--n", "300", "--resolution", "100"],
    ["spectrum", "--ell", "33"],
    ["spectrum", "--ell", "60", "--resolution", "400"],
    ["flow", "--n", "400", "--tau-max", "0.1"],
    ["f-scan", "--x0-count", "0"],
    ["f-scan", "--x0-max", "inf"],
    ["f-scan", "--x0-max", "-1"],
    ["f-scan", "--log-a-max", "800"],
    ["f-scan", "--log-a-min", "-700", "--log-a-max", "-690"],
    ["gap-scan", "--p-count", "0"],
    ["gap-scan", "--n-range", "4"],
    ["gap-scan", "--n-range", "a:b"],
    [{"n": "abc"}, "gamma"],
    ["shoot", "--n", "3", "--p", "7", "--a-lo", "2.31", "--a-hi", "2.30"],
    ["shoot", "--n", "3", "--p", "7", "--a-lo", "2.3", "--a-hi", "2.3"],
]


@pytest.mark.parametrize("argv", BAD_REQUESTS,
                         ids=lambda a: " ".join(map(str, a)))
def test_bad_request_exits_2_without_traceback(tmp_path, capsys, argv):
    if isinstance(argv[0], dict):
        argv = ["--config", write_config(tmp_path, argv[0]), *argv[1:]]
    assert main(["--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out/*.json"))


def test_energy_at_a_dimension_whose_weights_stay_finite(tmp_path):
    assert main(["--out", str(tmp_path), "energy", "--n", "40",
                 "--p", "3"]) == 0
    assert abs(read_json(tmp_path, "energy")["E"] - 0.0625) <= 1e-12


@pytest.mark.parametrize("argv,named", [
    (["gamma", "--p", "inf"], "p must be finite and > 1, got inf"),
    (["energy", "--p", "inf"], "p must be finite and > 1, got inf"),
    (["energy", "--p", "1.001"], "p=1.001 is too close to 1"),
    (["entropy", "--p", "1.01"], "p=1.01 is too close to 1"),
])
def test_bad_exponent_exits_2_with_one_error_line_naming_p(tmp_path, capsys,
                                                            argv, named):
    assert main(["--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("argv,named", [
    (["--x0-max", "inf"], "x0_max must be finite, got inf"),
    (["--x0-max", "-1"], "x0_norm >= 0, got -0.1"),
    (["--log-a-max", "800"], "log(-t0) = 800.0"),
    (["--log-a-min", "-700", "--log-a-max", "-690"],
     "t0=-9.85967654375977e-305"),
])
def test_f_scan_names_the_bad_value(tmp_path, capsys, argv, named):
    assert main(["--out", str(tmp_path), "f-scan", *argv]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_table_key_is_a_flag_and_a_config_key(tmp_path, capsys,
                                                    command):
    table = SUBCOMMANDS[command][1]
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out
    for key in table:
        assert "--" + key.replace("_", "-") in usage
    values = {key: None if isinstance(default, type) else default
              for key, default in table.items()}
    cfg = write_config(tmp_path, values)
    args = build_parser().parse_args(["--config", cfg, command])
    assert _resolve(args) == {**values, "out": "selfsim_out"}


def test_defaults_and_explicit_defaults_hash_alike(tmp_path):
    assert main(["--out", str(tmp_path / "a"), "energy", "--n", "3",
                 "--p", "7"]) == 0
    assert main(["--out", str(tmp_path / "b"), "energy", "--n", "3",
                 "--p", "7", "--profile", "kappa"]) == 0
    assert read_json(tmp_path / "a", "energy")["config_hash"] == \
        read_json(tmp_path / "b", "energy")["config_hash"]


def test_python_m_selfsim_runs_the_command_line(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "selfsim", "--out", str(tmp_path), "gamma",
         "--n", "7", "--p", "3"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "gamma.json").read_text())["E_singular"] \
        == pytest.approx(1.0 / 15.0, rel=1e-12)
