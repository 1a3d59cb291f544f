import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from toruslab import cli
from toruslab.cli import main
from toruslab.config import (
    DEFAULT_TOLERANCES,
    config_from_dict,
    load_config,
)
from toruslab.errors import ConfigInvalid, EigenFailure


# ---------------------------------------------------------------------------
# config loading


def test_config_defaults():
    cfg = config_from_dict({})
    assert cfg.family == "elliptic"
    assert cfg.backend == "grid"
    assert cfg.N == 64 and cfg.M == 8 and cfg.order == 10
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.tol("routes_rel") == 1e-5


def test_config_complex_fields():
    cfg = config_from_dict({"t": [0.3, 1.1], "tau": 2.0})
    assert cfg.t == 0.3 + 1.1j
    assert cfg.tau == 2.0 + 0.0j


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigInvalid):
        config_from_dict({"familly": "elliptic"})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"tolerances": {"routes_relly": 1.0}})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"scan": {"centre": [0, 1]}})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"bls": {"steps": 1e-3}})


def test_config_rejects_bad_types():
    with pytest.raises(ConfigInvalid):
        config_from_dict({"t": "1+2j"})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"N": -4})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"step": 0.0})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"family": "banana"})
    with pytest.raises(ConfigInvalid):
        config_from_dict({"backend": "fem"})
    with pytest.raises(ConfigInvalid):
        config_from_dict([1, 2, 3])


def test_config_scan_samples():
    cfg = config_from_dict({"scan": {"center": [0, 1], "radius": 0.05,
                                     "samples": 101}})
    ts = cfg.scan_samples()
    assert len(ts) == 101
    assert ts[50] == pytest.approx(1j)
    assert ts[0] == pytest.approx(1j - 0.05)
    assert ts[-1] == pytest.approx(1j + 0.05)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_config(str(bad))


def test_as_dict_round_trips():
    cfg = config_from_dict({"t": [0.3, 1.1], "d": 2, "seed": 7})
    again = config_from_dict(cfg.as_dict())
    assert again.as_dict() == cfg.as_dict()


# ---------------------------------------------------------------------------
# CLI commands (fast configs only; heavier runs live in the acceptance suite)


def run_cli(args, **kw):
    return CliRunner().invoke(main, args, **kw)


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_hodge_check_passes_on_spectral_flat(tmp_path):
    out = str(tmp_path / "hodge.json")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"backend": "spectral", "d": 0, "M": 4})
    res = run_cli(["hodge-check", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    report = json.loads(open(out).read())
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert set(report["residuals"]) == {
        "dbar_squared", "chern_anticommutator", "l_lambda_commutator",
        "bochner_kodaira", "hodge_decomposition", "minimal_solution_norm",
    }


def test_hodge_check_flags_underresolved_grid(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"backend": "grid", "d": 1, "N": 8, "order": 2})
    res = run_cli(["hodge-check", "--config", cfg])
    assert res.exit_code == 1


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    res = run_cli(["hodge-check", "--config", str(bad)])
    assert res.exit_code == 2
    unknown = write_cfg(tmp_path, "unknown.json", {"banana": 1})
    res = run_cli(["curvature", "--config", unknown])
    assert res.exit_code == 2
    # grid backend cannot discretize a surface fiber
    surf = write_cfg(tmp_path, "surf.json",
                     {"family": "siegel-diagonal", "backend": "grid"})
    res = run_cli(["primitive-lift", "--config", surf])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "command", ["hodge-check", "curvature", "scan-rank", "primitive-lift", "bls"])
def test_unknown_config_key_exits_2(tmp_path, command):
    cfg = write_cfg(tmp_path, "cfg.json", {"threads": 2})
    res = run_cli([command, "--config", cfg])
    assert res.exit_code == 2
    assert "config error:" in res.output


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise EigenFailure("ARPACK did not converge")

    monkeypatch.setattr(cli, "build_hodge", fail)
    cfg = write_cfg(tmp_path, "cfg.json", {"backend": "spectral", "d": 0, "M": 4})
    res = run_cli(["hodge-check", "--config", cfg])
    assert res.exit_code == 3
    assert "numerical failure: ARPACK did not converge" in res.output


def test_curvature_report_contents(tmp_path):
    out = str(tmp_path / "curv.json")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"backend": "grid", "d": 1, "N": 32, "order": 6,
                     "tolerances": {"routes_rel": 1e-4,
                                    "admissibility": 1e-2}})
    res = run_cli(["curvature", "--config", cfg, "--out", out,
                   "--dump-spectrum"])
    assert res.exit_code == 0, res.output
    report = json.loads(open(out).read())
    assert report["rank"] == 1
    assert report["positivity_verdict"] is True
    assert report["residual_routes"] >= 0.0
    theta = report["theta_H"][0][0]
    assert theta[0] > 0  # rank-one positive direct image
    # spectrum CSV written alongside
    lines = open(out + ".spectrum.csv").read().strip().splitlines()
    assert lines[0] == "bidegree,index,eigenvalue"
    assert len(lines) > 1


def test_scan_rank_csv(tmp_path):
    out = str(tmp_path / "scan.csv")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"family": "jumping", "t": [0, 1], "M": 4,
                     "scan": {"center": [0, 1], "radius": 0.05, "samples": 21}})
    res = run_cli(["scan-rank", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "t_re,t_im,rank,lambda1"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 21
    assert sum(int(r[2]) for r in rows) == 1
    assert int(rows[10][2]) == 1  # the jump sits at the center sample


def test_primitive_lift_command(tmp_path):
    out = str(tmp_path / "lift.json")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"family": "siegel-diagonal", "t": [0.2, 0.9],
                     "backend": "spectral", "d": 0, "M": 4})
    res = run_cli(["primitive-lift", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    report = json.loads(open(out).read())
    assert report["rank"] == 1
    assert report["primitivity_residual"] <= 1e-8
    assert report["hr_equality_residual"] <= 1e-7


def test_bls_command_small_battery(tmp_path):
    out = str(tmp_path / "bls.json")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"bls": {"instances": 5}, "seed": 3})
    res = run_cli(["bls", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    report = json.loads(open(out).read())
    b = report["battery"]
    assert b["disagreements"] == []
    assert b["monotonicity_violations"] == []
    assert b["griffiths_not_nakano"] == {"one_positive": True,
                                         "two_positive": False}


def test_bls_command_passes_on_slow_als_block(tmp_path):
    # holds instance 78653459536, where ALS restarts alone stop short of the
    # oracle by 2.5e-6, over the battery's 1e-6 rule
    out = str(tmp_path / "bls.json")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"seed": 786511, "bls": {"instances": 10}})
    res = run_cli(["bls", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    assert json.loads(open(out).read())["battery"]["disagreements"] == []


def test_report_aggregation(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"command": "hodge-check", "status": "pass",
                                "failures": []}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "curvature", "status": "fail",
                               "failures": ["routes_rel"]}))
    out = str(tmp_path / "summary.json")
    res = run_cli(["report", str(good), str(bad), "--out", out])
    assert res.exit_code == 1
    summary = json.loads(open(out).read())
    assert summary["status"] == "fail"
    assert {e["status"] for e in summary["reports"]} == {"pass", "fail"}

    res = run_cli(["report", str(good), "--out", out])
    assert res.exit_code == 0


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"backend": "spectral", "d": 0, "M": 4, "seed": 11})
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        res = run_cli(["hodge-check", "--config", cfg, "--out", out])
        assert res.exit_code == 0
        data = json.loads(open(out).read())
        data.pop("timestamp")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_grid_reports_are_deterministic_modulo_timestamp(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"backend": "grid", "d": 1, "N": 32, "order": 6,
                     "tolerances": {"routes_rel": 1e-4,
                                    "admissibility": 1e-2}})
    paths = [str(tmp_path / name) for name in ("a.json", "b.json", "c.json")]
    for out in paths[:2]:
        res = run_cli(["curvature", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "toruslab.cli", "curvature", "--config", cfg,
         "--out", paths[2]], env=env, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    reports = []
    for out in paths:
        data = json.loads(open(out).read())
        data.pop("timestamp")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1] == reports[2]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"backend": "spectral", "d": 0, "M": 4, "seed": 11})
    out = str(tmp_path / "s.json")
    res = run_cli(["hodge-check", "--config", cfg, "--out", out,
                   "--seed", "99"])
    assert res.exit_code == 0
    assert json.loads(open(out).read())["config"]["seed"] == 99
