import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from toruslab import cli, hodge
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


def test_every_tolerance_is_read_by_a_command():
    # a tolerance that no cfg.tol("<key>") call reads is a knob that changes
    # nothing; every literal read must name a default, too
    src = pathlib.Path(cli.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "tol" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                read.add(node.args[0].value)
    assert read == set(DEFAULT_TOLERANCES)


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


_fuzz_num = st.one_of(
    st.floats(), st.integers(min_value=-10**400, max_value=10**400),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400]))
_fuzz_scalar = st.one_of(_fuzz_num, st.lists(_fuzz_num, min_size=2, max_size=2))
_fuzz_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.lists(st.none(), max_size=3), st.just({}))


def _or_junk(strategy):
    return st.one_of(strategy, _fuzz_junk)


_fuzz_count = st.integers(min_value=-1, max_value=10**400)
# every key of the schema, each with plausible values, non-finite and
# overflowing numbers, and values of the wrong type
_FUZZ_VALUES = {
    "family": _or_junk(st.sampled_from(["elliptic", "jumping", "siegel-diagonal"])),
    "backend": _or_junk(st.sampled_from(["grid", "spectral"])),
    "t": _or_junk(_fuzz_scalar), "tau": _or_junk(_fuzz_scalar),
    "d": _or_junk(st.integers(min_value=-1, max_value=3)),
    "chi": _or_junk(st.lists(_fuzz_num, max_size=4)),
    "N": _or_junk(_fuzz_count), "M": _or_junk(_fuzz_count),
    "order": _or_junk(_fuzz_count), "seed": _or_junk(_fuzz_count),
    "step": _or_junk(_fuzz_num),
    "tolerances": _or_junk(st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)), _or_junk(_fuzz_num), max_size=2)),
    "scan": _or_junk(st.fixed_dictionaries({}, optional={
        "center": _or_junk(_fuzz_scalar), "direction": _or_junk(_fuzz_scalar),
        "radius": _or_junk(_fuzz_num), "samples": _or_junk(_fuzz_count)})),
    "bls": _or_junk(st.fixed_dictionaries({}, optional={
        "instances": _or_junk(_fuzz_count), "step": _or_junk(_fuzz_num),
        "t": _or_junk(_fuzz_scalar)})),
}
# up to three keys a config, so that a fair share of them is accepted
_fuzz_configs = st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _FUZZ_VALUES[k] for k in keys}))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_fuzz_configs)
def test_config_fuzz_only_config_invalid_escapes(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigInvalid:
        return
    # an accepted config is echoed as strict JSON (finite numbers only) and
    # reads back to itself
    text = json.dumps(cfg.as_dict(), allow_nan=False)
    assert config_from_dict(json.loads(text)).as_dict() == cfg.as_dict()


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
    # every report echoes as_dict, so it must be JSON, complex entries included
    for raw in ({"t": [0.3, 1.1], "d": 2, "seed": 7},
                {"scan": {"center": [0, 1]}, "bls": {"t": [0.3, 0.2], "step": 1e-4}}):
        cfg = config_from_dict(raw)
        again = config_from_dict(json.loads(json.dumps(cfg.as_dict())))
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
    # the elliptic (1,1) package, and the siegel-diagonal (2,1) one with its
    # spectrum CSV: one row per eigenvalue
    for payload, bidegree, kernel, dump in (
            ({"backend": "spectral", "d": 0, "M": 4}, [1, 1], 1, []),
            ({"family": "siegel-diagonal", "M": 4}, [2, 1], 2, ["--dump-spectrum"])):
        out = str(tmp_path / "hodge.json")
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        res = run_cli(["hodge-check", "--config", cfg, "--out", out, *dump])
        assert res.exit_code == 0, res.output
        report = json.loads(open(out).read())
        assert report["status"] == "pass"
        assert report["failures"] == []
        assert set(report["residuals"]) == {
            "dbar_squared", "chern_anticommutator", "l_lambda_commutator",
            "bochner_kodaira", "hodge_decomposition", "minimal_solution_norm",
            "lefschetz_decomposition", "hodge_riemann",
        }
        diag, = report["diagnostics"]
        assert diag["bidegree"] == bidegree
        assert diag["kernel_found"] == diag["kernel_expected"] == kernel
        assert diag["lambda1"] > 0 and "cut" not in diag
    header, *rows = open(out + ".spectrum.csv").read().splitlines()
    assert header == "bidegree,index,eigenvalue"
    assert len(rows) == diag["dim"] == 2 * 9 ** 4
    assert [r.split(",")[:2] for r in rows] == [["(2 1)", str(i)] for i in range(len(rows))]


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
    # an integer literal longer than Python's int parser takes (4300 digits)
    bad.write_text('{"step": 1' + "0" * 5000 + "}")
    res = run_cli(["hodge-check", "--config", str(bad)])
    assert res.exit_code == 2 and "config error:" in res.output
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


_BAD_CONFIGS = {
    "chi-not-numeric": {"chi": ["a", 0]},
    "chi-wrong-length": {"d": 0, "chi": [0.1]},
    "t-below-axis": {"t": [0.3, -1.1]},
    "t-on-axis": {"t": [0.3, 0.0]},
    "bls-t-below-axis": {"bls": {"t": [0.3, -0.2]}},
    "spectral-positive-bundle": {"backend": "spectral", "d": 1},
    "jumping-on-grid": {"family": "jumping", "backend": "grid"},
    "unread-tolerance": {"tolerances": {"sff_routes": 1e-6}},
    # numbers that are not finite, written as the NaN/Infinity literals that
    # Python's json reads, and an integer literal too large for a float
    "step-nan": {"step": float("nan")},
    "bls-step-inf": {"bls": {"step": float("inf")}},
    "t-nan": {"t": [0.3, float("nan")]},
    "tau-nan": {"tau": [float("nan"), 0]},
    "tolerance-nan": {"tolerances": {"fd_rel": float("nan")}},
    "chi-inf": {"d": 0, "chi": [float("-inf"), 0.0]},
    "t-overflow": {"t": [0.3, 10**400]},
    "grid-N-1": {"backend": "grid", "d": 1, "N": 1},
    # a central stencil has an even order: 1 would build an empty stencil, 3
    # would run the order-2 one
    "grid-order-1": {"backend": "grid", "d": 1, "N": 16, "order": 1},
    "grid-order-3": {"backend": "grid", "d": 1, "N": 16, "order": 3},
}


@pytest.mark.parametrize(
    "command", ["hodge-check", "curvature", "scan-rank", "primitive-lift", "bls"])
@pytest.mark.parametrize("payload", list(_BAD_CONFIGS.values()), ids=list(_BAD_CONFIGS))
def test_invalid_config_exits_2(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    res = run_cli([command, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "config error:" in res.output


@pytest.mark.parametrize(
    "command", ["hodge-check", "curvature", "scan-rank", "primitive-lift", "bls"])
def test_negative_seed_flag_exits_2(command):
    # --seed is checked as the config's "seed" is, before anything runs
    res = run_cli([command, "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: '--seed' must be an integer >= 0")
    assert res.output.count("\n") == 1


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise EigenFailure("ARPACK did not converge")

    monkeypatch.setattr(cli, "build_hodge", fail)
    cfg = write_cfg(tmp_path, "cfg.json", {"backend": "spectral", "d": 0, "M": 4})
    res = run_cli(["hodge-check", "--config", cfg])
    assert res.exit_code == 3
    assert "numerical failure: ARPACK did not converge" in res.output


def test_other_exception_exits_3_with_one_line(monkeypatch):
    def fail(cfg):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "bls_battery", fail)
    res = run_cli(["bls"])
    assert res.exit_code == 3
    assert res.stderr.splitlines() == [
        "numerical failure: LinAlgError: Eigenvalues did not converge"]


def test_overflow_exits_3_with_one_line(tmp_path):
    # a floating-point overflow or invalid value raises instead of warning, so
    # the run prints one line; a fresh process shows warnings as a user sees them
    cfg = write_cfg(tmp_path, "cfg.json", {"t": [1e300, 1], "N": 16})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "toruslab.cli", "curvature", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 3
    line, = proc.stderr.splitlines()
    assert line.startswith("numerical failure: FloatingPointError: ")


_OOM_CHILD = """
import resource
import numpy, scipy.sparse.linalg
from toruslab import cli
with open("/proc/self/status") as fh:
    vm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = vm_kib * 1024 + 256 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
cli.main()
"""


@pytest.mark.parametrize("command", ["curvature", "hodge-check"])
@pytest.mark.parametrize("payload", [{"d": 1, "N": 1024}, {"family": "siegel-diagonal", "M": 11}],
                         ids=["grid", "spectral"])
def test_memory_error_exits_3_with_one_line(tmp_path, command, payload):
    # a real MemoryError: the child caps its own address space 256 MiB above
    # what it holds after the imports, and the config needs more than that
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", _OOM_CHILD, command, "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    line, = proc.stderr.splitlines()
    assert line.startswith("numerical failure: MemoryError: ")


def test_curvature_next_to_the_jump_has_rank_zero(tmp_path):
    # at t = 0.001 + i the bundle is not trivial, so the fibre has no section:
    # the package finds no kernel, though its lowest eigenvalue is only 2e-5
    out = str(tmp_path / "curv.json")
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"family": "jumping", "backend": "spectral", "t": [0.001, 1]})
    res = run_cli(["curvature", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    report = json.loads(open(out).read())
    assert report["rank"] == 0 and report["at_jump_locus"] is False
    # no section to be positive on: neither verdict nor Nakano eigenvalue
    assert report["positivity_verdict"] is None and report["nakano_min_eig"] is None
    diag, = report["diagnostics"]
    assert diag["kernel_found"] == diag["kernel_expected"] == 0
    assert 0 < diag["lambda1"] < 1e-4 and "lambda1_rel_err" not in diag


def test_grid_curvature_reports_the_lambda1_error(tmp_path):
    # a degree-d fibre's lowest positive Landau level is 2 pi d, whatever t
    out = str(tmp_path / "curv.json")
    cfg = write_cfg(tmp_path, "cfg.json", {"backend": "grid", "d": 2, "N": 64})
    res = run_cli(["curvature", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    diag, = json.loads(open(out).read())["diagnostics"]
    assert diag["lambda1_rel_err"] == abs(diag["lambda1"] - 4 * np.pi) / (4 * np.pi)
    assert diag["lambda1_rel_err"] <= 1e-9
    # the same report field on the (1,1) package of a grid hodge-check, whose
    # run still fails its identity checks (band-limited fields are not sections)
    cfg = write_cfg(tmp_path, "cfg.json", {"backend": "grid", "d": 1, "N": 64})
    run_cli(["hodge-check", "--config", cfg, "--out", out])
    diag, = json.loads(open(out).read())["diagnostics"]
    assert diag["bidegree"] == [1, 1]
    assert diag["lambda1_rel_err"] == abs(diag["lambda1"] - 2 * np.pi) / (2 * np.pi)
    assert diag["lambda1_rel_err"] <= 1e-11


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
    assert report["xu_wang_gap"] >= 0.0 and "xu_wang" not in report["failures"]
    assert report["residual_routes"] >= 0.0
    assert 0.0 <= report["fd_rel"] <= 1e-3
    theta = report["theta_H"][0][0]
    assert theta[0] > 0  # rank-one positive direct image
    diag, = report["diagnostics"]
    assert diag["bidegree"] == [1, 0] and diag["dim"] == 32 * 32
    assert diag["kernel_found"] == diag["kernel_deflated"] == diag["kernel_expected"] == 1
    assert diag["nnz"] > 0 and 0 < diag["lu_fill"] <= 32 * diag["dim"]
    assert 0 < diag["eigsh_solves"] and "sigma" not in diag
    # two solves per Green apply, after at least four of the near-null iteration
    assert diag["lu_solves"] >= 2 * diag["eigsh_solves"] + 4
    assert diag["lambda1"] > diag["cut"] > 0
    # spectrum CSV written alongside
    lines = open(out + ".spectrum.csv").read().strip().splitlines()
    assert lines[0] == "bidegree,index,eigenvalue"
    assert len(lines) > 1


@pytest.mark.parametrize("command, payload, failure", [
    # N = 4 resolves no holomorphic section of the degree-1 bundle
    ("curvature", {"backend": "grid", "d": 1, "N": 4}, "kernel_dim"),
    ("primitive-lift", {"backend": "grid", "d": 1, "N": 4}, "kernel_dim"),
    # the FD Gram oracle agrees to about 3e-6 at N = 32, order 6
    ("curvature", {"backend": "grid", "d": 1, "N": 32, "order": 6,
                   "tolerances": {"routes_rel": 1e-4, "admissibility": 1e-2,
                                  "fd_rel": 1e-9}}, "fd_rel"),
], ids=["curvature-no-section", "primitive-lift-no-section", "curvature-fd-rel"])
def test_tolerance_failure_exits_1(tmp_path, command, payload, failure):
    out = str(tmp_path / "report.json")
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    res = run_cli([command, "--config", cfg, "--out", out])
    assert res.exit_code == 1, res.output
    report = json.loads(open(out).read(), parse_constant=_reject_constant)
    assert failure in report["failures"] and report["status"] == "fail"


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: it holds {name}")


@pytest.mark.parametrize("N, reason", [
    (8, "theta-flow extension of a non-holomorphic section"),
    (16, "iota* L^{1,0} dbar u residual"),
], ids=["N8", "N16"])
def test_underresolved_grid_curvature_exits_1(tmp_path, N, reason):
    # the extension misses the admissibility tolerance: a tolerance failure
    out = str(tmp_path / "report.json")
    cfg = write_cfg(tmp_path, "cfg.json", {"backend": "grid", "d": 1, "N": N})
    res = run_cli(["curvature", "--config", cfg, "--out", out])
    assert res.exit_code == 1, res.output
    assert res.output.startswith(f"tolerance failure: admissibility: {reason}")
    assert res.output.count("\n") == 1
    # the run still writes a report, so `toruslab report` counts it
    report = json.loads(open(out).read(), parse_constant=_reject_constant)
    assert report["command"] == "curvature" and report["status"] == "fail"
    assert report["failures"] == ["admissibility"]
    assert report["reason"].startswith(reason) and report["config"]["N"] == N
    summary = str(tmp_path / "summary.json")
    res = run_cli(["report", out, "--out", summary])
    assert res.exit_code == 1, res.output
    assert json.loads(open(summary).read())["reports"][0]["failures"] == ["admissibility"]
    # without --out the report goes to stdout, the reason still to stderr
    res = run_cli(["curvature", "--config", cfg])
    assert res.exit_code == 1, res.output
    assert res.stderr.startswith(f"tolerance failure: admissibility: {reason}")
    assert res.stderr.count("\n") == 1
    report = json.loads(res.stdout, parse_constant=_reject_constant)
    assert report["command"] == "curvature" and report["failures"] == ["admissibility"]


@pytest.mark.parametrize("command", ["curvature", "hodge-check"])
@pytest.mark.parametrize("payload", [
    {"backend": "grid", "d": 1, "N": 100000},
    {"backend": "spectral", "d": 0, "M": 100000},
    {"backend": "grid", "d": 1, "order": 10**9},
], ids=["grid-N", "spectral-M", "grid-order"])
def test_oversized_config_exits_2_before_building(tmp_path, monkeypatch, command, payload):
    def build(cfg):
        raise AssertionError("a family was built")

    monkeypatch.setattr(cli, "_family", build)
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    res = run_cli([command, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error:") and res.output.count("\n") == 1


def test_size_budget_edges():
    # four times the spectral n = 2, M = 8 config: M = 11 fits, M = 12 does not
    siegel = {"family": "siegel-diagonal", "t": [0.2, 0.9]}
    assert config_from_dict(dict(siegel, M=11)).M == 11
    with pytest.raises(ConfigInvalid, match="'M' is too large"):
        config_from_dict(dict(siegel, M=12))
    # grids up to N² <= 4·4·17⁴
    assert config_from_dict({"backend": "grid", "d": 1, "N": 1156}).N == 1156
    with pytest.raises(ConfigInvalid, match="'N' is too large"):
        config_from_dict({"backend": "grid", "d": 1, "N": 1157})
    # and grid derivatives up to N² (2·order + 1) <= 21·4·4·17⁴ nonzeros
    assert config_from_dict({"backend": "grid", "d": 1, "N": 64, "order": 3424}).order == 3424
    for N, order in ((64, 3426), (1156, 12)):
        with pytest.raises(ConfigInvalid, match="'order' is too large"):
            config_from_dict({"backend": "grid", "d": 1, "N": N, "order": order})


def test_huge_order_exits_2_at_once(tmp_path):
    # the budget counts the stencil width, so no factorial of the order is taken
    cfg = write_cfg(tmp_path, "cfg.json", {"backend": "grid", "d": 1, "order": 10**9})
    start = time.perf_counter()
    res = run_cli(["curvature", "--config", cfg])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: 'order' is too large")
    assert res.output.count("\n") == 1


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
    assert report["rank"] == 1 and report["unchanged"] is True
    assert report["primitivity_residual"] <= 1e-8
    assert report["hr_equality_residual"] <= 1e-12   # relative to ||kf||^2


@pytest.mark.parametrize("command, payload", [
    ("curvature", {"family": "siegel-diagonal", "t": [0.2, 0.9]}),
    ("primitive-lift", None),   # the default config: siegel-diagonal
], ids=["curvature-siegel", "primitive-lift"])
def test_spectral_box_is_built_once_per_fibre(tmp_path, monkeypatch, command, payload):
    # each spectral package reads lambda(kappa) off the fibre's (0,0) box, which
    # the fibre calculus keeps
    from toruslab import hodge

    laplacian, built = hodge.laplacian, []

    def counted(space, kind):
        built.append((space.bidegree, kind))
        return laplacian(space, kind)

    monkeypatch.setattr(hodge, "laplacian", counted)
    args = [] if payload is None else ["--config", write_cfg(tmp_path, "cfg.json", payload)]
    res = run_cli([command, *args, "--out", str(tmp_path / "report.json")])
    assert res.exit_code == 0, res.output
    assert built.count(((0, 0), "dbar")) == 1


def test_spectral_commands_sample_no_field(tmp_path, monkeypatch):
    # every Kodaira-Spencer field these commands contract is constant (unit
    # trailing dims), so no spectral product takes the FFT path; the default
    # primitive-lift keeps the trivialization lift, whose defect is zero
    from toruslab import forms

    pointwise, sampled, lifts = forms._SpectralCalculus.pointwise, [], []

    def counted(self, field):
        sampled.append(np.shape(field)[-len(self.field_shape):] != (1,) * len(self.field_shape))
        return pointwise(self, field)

    def recorded(theta0):
        lifts.append((theta0, primitive_lift(theta0)))
        return lifts[-1][1]

    primitive_lift = cli.primitive_lift
    monkeypatch.setattr(forms._SpectralCalculus, "pointwise", counted)
    monkeypatch.setattr(cli, "primitive_lift", recorded)
    runs = [("curvature", {"family": "siegel-diagonal", "t": [0.2, 0.9]}),
            ("curvature", {"d": 0}),
            ("curvature", {"family": "jumping", "t": [0.0, 1.0]}),
            ("hodge-check", {"family": "siegel-diagonal"}),
            ("hodge-check", None),
            ("primitive-lift", None),
            ("primitive-lift", {"d": 0}),
            ("scan-rank", None)]
    for i, (command, payload) in enumerate(runs):
        args = [] if payload is None else ["--config", write_cfg(tmp_path, "cfg.json", payload)]
        res = run_cli([command, *args, "--out", str(tmp_path / f"{i}.out")])
        assert res.exit_code == 0, res.output
    assert sampled and not any(sampled), len(sampled)
    (base, lifted), _ = lifts
    assert lifted is base and base.K.shape == (2, 2, 1, 1, 1, 1)
    assert json.loads(open(tmp_path / "5.out").read())["unchanged"] is True


def test_curvature_command_on_surface_family(tmp_path, monkeypatch):
    # the n = 2 corrected representative checks property (a), so the command
    # builds no Hodge package beyond (2,0)
    built = []
    real = hodge.HodgePackage.__init__

    def counted(self, space, *args, **kwargs):
        built.append(space.bidegree)
        real(self, space, *args, **kwargs)
    monkeypatch.setattr(hodge.HodgePackage, "__init__", counted)
    out = str(tmp_path / "curv.json")
    cfg = write_cfg(tmp_path, "cfg.json", {"family": "siegel-diagonal", "t": [0.2, 0.9]})
    res = run_cli(["curvature", "--config", cfg, "--out", out])
    assert res.exit_code == 0, res.output
    assert built == [(2, 0)]
    report = json.loads(open(out).read())
    assert report["status"] == "pass" and report["rank"] == 1
    assert report["residual_routes"] <= 1e-12
    assert report["xu_wang_gap"] is None   # flat: [i Theta, Lambda] is not invertible
    diag, = report["diagnostics"]
    assert diag["bidegree"] == [2, 0]
    assert diag["kernel_found"] == diag["kernel_expected"] == 1


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


@pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe"], ids=["list-root", "not-utf8"])
def test_report_of_a_non_report_file_exits_2_with_one_line(tmp_path, content):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    res = run_cli(["report", str(path)])
    assert res.exit_code == 2
    line, = res.stderr.splitlines()
    assert line.startswith(f"config error: cannot read {path}: ")


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
