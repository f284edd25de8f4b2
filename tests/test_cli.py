import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import expcircle
from expcircle import coupling_lab, correlation_suite
from expcircle.audits import (MASS_TOL, PAIR_SLACK, cos_observable, coupling_pair,
                              standard_maps)
from expcircle.circle_map import linear_map
from expcircle import cli
from expcircle.cli import N_MAX_CEILING, RunConfig, _write_json, main, make_map
from expcircle.correlation_suite import decay_report
from expcircle.coupling_lab import CHI2_P_FLOOR, monte_carlo_coupling
from expcircle.transfer_operator import invariant_density
from expcircle.system_constants import ROUNDING_SLACK

from conftest import DEFAULT_MAP


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# sha256 of every file a fixed run writes, keyed by run and file name: the
# output contract is byte for byte.  verify.json is hashed with its wall
# times blanked.
GOLDEN = {
    "constants": {
        "constants.json": "d01c96c6e1ca4668ee881f85e0833c971fb5518de70e032f035e96b601ce5877",
    },
    "invariant --resolution 512": {
        "invariant.csv": "12bc1f0f67c850cd04d97422b2a2e8c52331e16ce0bda8afea93845cf58d8748",
        "invariant.json": "d0f61533f553adf78a276d61c94da1f29fed95fe5039808f85758d3d1d64a532",
    },
    "invariant --resolution 16384": {
        "invariant.csv": "2981a28aeb71af4fb839db1f8ef63a3a83bd895062976c694dc40d5055484508",
        "invariant.json": "42046637d2f541207d4deddadf71f14c53422eee4b69e708d4e5ce1214738edd",
    },
    "decay --n-max 12": {
        "decay.csv": "4ee40fb380eb941f611cf8f89ce88067ad3e8628f083a696da5ffd76e00e7540",
        "decay.json": "6382dcc9a38645b4d858214bb8ab770ebc248cc53b402d8e56ef9672866ee545",
    },
    "decay --n-max 12 on linear{2}": {
        "decay.csv": "5643daf7708fffc4a93807fdb30557ebc073557c63ca1c9ca0804bd4d0b67bcc",
        "decay.json": "6b45d2e346800f40d2fb4148853bc1cef17d650b6fad90124184e431aa998775",
    },
    "coupling --trials 20000 --n-max 21": {
        "coupling.csv": "cd0198987ada4852a7aa2c704a1cb5bf5c53629f118780bf64112c022037f8b8",
        "coupling.json": "b5b88c3533f453dde9edf5d0e37f4c2e638412bc36f3a24746f508d6fe988c3b",
    },
    "verify on linear{2}": {
        "verify.json": "46d43a277424c4ca22cc3a39a8f65cc4c8a278e17fa2461ab15e325722de939a",
    },
    "verify on linear{3}": {
        "verify.json": "cfbc8548a31008de1b5c029b15bb63b521d6c7ac5ba6fe3389028970791ff5ec",
    },
    "verify on perturbed{2,0.02}": {
        "verify.json": "c2d2e7c41cf8064c73b3d37d447010f9c3b69d5a13ca41686f632e96d5f4655f",
    },
    "verify on perturbed{2,0.05}": {
        "verify.json": "34c044e6086db90f7e23ad7f760089358c12d9abdd1501bbb875026b0f727c75",
    },
    "verify on perturbed{2,0.1}": {
        "verify.json": "769574f53195721ae698ffcf90be056221db9b4c983559d6866035261a18731d",
    },
}


def assert_golden(out: Path, run: str) -> None:
    written = {p.name for p in out.iterdir() if p.name != "config.json"}
    assert written == set(GOLDEN[run])
    for name, digest in GOLDEN[run].items():
        data = (out / name).read_bytes()
        if name == "verify.json":
            data = re.sub(rb'"seconds": [^,\n]+', b'"seconds": 0', data)
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_constants_defaults(tmp_path, capsys):
    assert main(["constants", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    # default map is perturbed{2, 0.05} at alpha = 1
    assert data["alpha"] == 1.0
    assert data["lambda"] == pytest.approx(2.0 - 0.1 * math.pi, abs=1e-15)
    assert set(data) == {
        "alpha", "lambda", "winding", "d1_sup", "d2_sup", "omega", "a", "K",
        "N_K", "n_k_paper_raw", "D_exact", "D_relaxed", "D_tilde",
        "theta_exact", "theta_paper", "C", "lower_floor",
    }
    assert "constants.json" in capsys.readouterr().out
    assert_golden(tmp_path, "constants")


def test_constants_doubling_closed_form(tmp_path):
    cfg = write_config(tmp_path, {"map": {"family": "linear", "w": 2}})
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    assert data["omega"] == 0.0
    assert data["C"] == 384.0
    assert data["N_K"] == 6


def test_invariant_outputs(tmp_path):
    assert main(["invariant", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "invariant.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 4097
    diag = json.loads((tmp_path / "invariant.json").read_text())
    assert diag["map"] == "perturbed{2,0.05}"
    assert diag["n_steps"] <= 200
    assert diag["records"][-1]["l1_diff"] < 1e-12
    assert set(diag["records"][0]) == {"step", "l1_diff", "sup", "inf", "d_l1"}
    # the CSV holds the density the command computed, bit for bit
    phi, _ = invariant_density(make_map(RunConfig()), resolution=4096, tol=1e-12)
    rows = np.loadtxt(tmp_path / "invariant.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], phi.nodes)
    assert np.array_equal(rows[:, 1], phi.values)


def test_invariant_honors_resolution(tmp_path):
    assert main(["invariant", "--resolution", "512", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "invariant.csv").read_text().splitlines()) == 513
    assert_golden(tmp_path, "invariant --resolution 512")


def test_invariant_crosses_write_blocks(tmp_path):
    # 16384 nodes: four CSV blocks
    assert main(["invariant", "--resolution", "16384", "--out", str(tmp_path)]) == 0
    assert_golden(tmp_path, "invariant --resolution 16384")


def test_decay_outputs(tmp_path):
    assert main(["decay", "--n-max", "12", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[0] == "n,corr,bound,ok"
    assert len(lines) == 14
    data = json.loads((tmp_path / "decay.json").read_text())
    assert data["summary"]["all_ok"] is True
    assert (data["resolution"], data["n_max"]) == (4096, 12)
    assert_golden(tmp_path, "decay --n-max 12")


def test_decay_csv_layout(tmp_path):
    cfg = write_config(tmp_path, {"map": {"family": "linear", "w": 2}})
    assert main(["decay", "--n-max", "12", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[0] == "n,corr,bound,ok"
    f = cos_observable(4096)
    (rep,), = decay_report(linear_map(2), [f], f, (1.0,), n_max=12)
    assert len(lines) == len(rep.ns) + 1
    n, corr, bound, ok = np.loadtxt(tmp_path / "decay.csv", delimiter=",",
                                    skiprows=1, unpack=True)
    assert np.array_equal(n, rep.ns) and np.array_equal(ok, rep.ok)
    assert np.array_equal(corr, rep.corr) and np.array_equal(bound, rep.bound)
    assert lines[1].startswith("0,") and lines[1].endswith(",1")
    # cos(2 pi x) decorrelates in one doubling step: nothing left to fit
    data = json.loads((tmp_path / "decay.json").read_text())
    assert math.isnan(data["summary"]["fitted_rate"])
    assert_golden(tmp_path, "decay --n-max 12 on linear{2}")


def test_json_encodes_numpy_values_as_python_values(tmp_path):
    payload = {"i": np.int64(3), "b": np.bool_(True), "f": np.float32(0.5),
               "a": np.arange(3), "m": np.eye(2, dtype=bool), "t": (np.uint8(7),)}
    _write_json(tmp_path / "x.json", payload)
    assert json.loads((tmp_path / "x.json").read_text()) == {
        "i": 3, "b": True, "f": 0.5, "a": [0, 1, 2],
        "m": [[True, False], [False, True]], "t": [7],
    }
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        _write_json(tmp_path / "y.json", {"s": {1}})


# The keys of each table's JSON: metadata and summaries, and the name of
# the CSV that holds the table itself.
TABLE_JSON_KEYS = {
    "invariant": {"map", "resolution", "tol", "n_steps", "final_sup",
                  "final_inf", "records", "csv"},
    "decay": {"resolution", "n_max", "summary", "observables", "csv"},
    "coupling": {"map", "resolution", "summary", "csv"},
}


def list_lengths(value) -> list:
    """The length of every list inside a parsed JSON value."""
    if isinstance(value, dict):
        return [n for v in value.values() for n in list_lengths(v)]
    if isinstance(value, list):
        return [len(value)] + [n for v in value for n in list_lengths(v)]
    return []


@pytest.mark.parametrize("argv", [
    ["invariant", "--resolution", "512"],
    ["decay", "--n-max", "12"],
    ["coupling", "--trials", "20000", "--n-max", "21"],
], ids=lambda argv: argv[0])
def test_table_json_names_its_csv_and_repeats_no_column(tmp_path, argv):
    stem = argv[0]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / f"{stem}.json").read_text())
    assert set(data) == TABLE_JSON_KEYS[stem]
    assert data["csv"] == f"{stem}.csv"
    rows = len((tmp_path / data["csv"]).read_text().splitlines()) - 1
    assert rows not in list_lengths(data)


def test_coupling_reproducible_byte_for_byte(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["coupling", "--trials", "20000", "--n-max", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "coupling.csv").read_bytes() == (out2 / "coupling.csv").read_bytes()
    assert (out1 / "coupling.json").read_bytes() == (out2 / "coupling.json").read_bytes()
    data = json.loads((out1 / "coupling.json").read_text())
    assert data["summary"]["trials"] == 20000
    assert data["summary"]["seed"] == 42
    assert data["resolution"] == 4096
    assert all(c["p_value"] > 1e-4 for c in data["summary"]["chi2"])
    assert len((out1 / "coupling.csv").read_text().splitlines()) == 44


def test_coupling_csv_layout(tmp_path):
    args = ["coupling", "--trials", "20000", "--n-max", "21"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "coupling.csv").read_text().splitlines()
    assert lines[0] == "n,k,tv_true,empirical_mismatch,bound_coupling,bound_theta"
    assert len(lines) == 23  # header + n = 0..21
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[4]) == 2.0
    psi1, psi2 = coupling_pair(4096)
    trace = monte_carlo_coupling(make_map(RunConfig()), psi1, psi2, 1.0, 21,
                                 trials=20000, seed=42)
    n, k, tv, mismatch, b_coupling, b_theta = np.loadtxt(
        tmp_path / "coupling.csv", delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(n, trace.ns) and np.array_equal(k, trace.ks)
    assert np.array_equal(tv, trace.tv_true)
    assert np.array_equal(mismatch, trace.empirical_mismatch)
    assert np.array_equal(b_coupling, trace.bound_coupling)
    assert np.array_equal(b_theta, trace.bound_theta)
    assert_golden(tmp_path, "coupling --trials 20000 --n-max 21")


@pytest.mark.parametrize("m", standard_maps(), ids=repr)
def test_coupling_checks_x_and_y_at_every_check(tmp_path, m):
    # two epochs and one step of a third: every check, the last, partial
    # one too, tests the x marginal and then the y marginal
    n_epoch = expcircle.compute_ledger(m, 1.0).n_big_k
    cfg = write_config(tmp_path, {"map": {"family": m.family,
                                          **dict(zip(("w", "eps"), m.params))}})
    argv = ["coupling", "--config", cfg, "--trials", "20000",
            "--n-max", str(2 * n_epoch + 1), "--out", str(tmp_path)]
    assert main(argv) == 0
    chi2 = json.loads((tmp_path / "coupling.json").read_text())["summary"]["chi2"]
    checks = [n_epoch, 2 * n_epoch, 2 * n_epoch + 1]
    assert [(c["n"], c["marginal"]) for c in chi2] == [
        (n, side) for n in checks for side in "xy"]
    assert all(c["p_value"] > CHI2_P_FLOOR for c in chi2)


def test_coupling_seed_changes_stream(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["coupling", "--trials", "20000", "--n-max", "21"]
    assert main(args + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(args + ["--seed", "2", "--out", str(out2)]) == 0
    # the chi-square statistics are continuous in the sample, so two
    # different streams cannot reproduce them
    chi1 = json.loads((out1 / "coupling.json").read_text())["summary"]["chi2"]
    chi2 = json.loads((out2 / "coupling.json").read_text())["summary"]["chi2"]
    assert chi1 != chi2


VERIFY_NAMES = [
    "certificate", "second-derivative-fd", "arc-expansion",
    "preimage-roundtrip", "preimage-partition", "backward-contraction",
    "distortion", "operator-mass", "operator-positivity",
    "operator-contraction", "operator-duality", "sup-c1-bounds",
    "holder-log-contraction", "holder-growth-cap", "positivity-floor",
    "pointwise-log-bounds", "holder-from-log", "class-entry",
    "invariant-density", "cesaro-almost-invariance", "coupling-deterministic",
    "coupling-monte-carlo", "correlation-decay", "reduction-chain",
    "density-convergence", "grid-quadrature", "sampling",
    "constants-reference", "constants-monotonic",
]

# Every result with a numeric margin: (the number its detail prints last,
# as a function of the margin less its slack; the slack; whether the
# comparison is strict).  Every other result reports margin null.
MARGINS = {
    "second-derivative-fd": (lambda g: -g, 1e-5, False),
    "arc-expansion": (lambda g: -g, 1e-12, False),
    "preimage-roundtrip": (lambda g: -g, 1e-9, False),
    "backward-contraction": (lambda g: -g, PAIR_SLACK, False),
    "distortion": (lambda g: -g, 0.0, False),   # its band already has a slack
    "operator-mass": (lambda g: -g, MASS_TOL, False),
    "operator-positivity": (lambda g: g, 0.0, False),
    "operator-contraction": (lambda g: -g, MASS_TOL, False),
    "operator-duality": (lambda g: -g, 0.0, False),
    "holder-log-contraction": (lambda g: -g, ROUNDING_SLACK, False),
    "holder-growth-cap": (lambda g: -g, ROUNDING_SLACK, False),
    "positivity-floor": (lambda g: g, 0.0, False),
    "holder-from-log": (lambda g: -g, ROUNDING_SLACK, False),
    "cesaro-almost-invariance": (lambda g: -g, 1e-10, False),
    "coupling-monte-carlo": (lambda g: g + CHI2_P_FLOOR, 0.0, True),
}


# Operator applications, Hoelder lag scans and the lag rows they visit in one
# whole verify run: a chain or scan walked again per alpha or per f, or a
# class check or lag block that a bound could have decided, shows up here.
# On the perturbed maps the regularity sweep's scans are chained along each
# orbit; scanned from scratch they read 196896, 198576 and 203584 rows.
VERIFY_WORK = {
    "linear{2}": (1636, 63, 36736),
    "linear{3}": (1582, 183, 32000),
    "perturbed{2,0.02}": (1738, 199, 54688),
    "perturbed{2,0.05}": (2026, 199, 56528),
    "perturbed{2,0.1}": (5148, 199, 56800),
}

# Distinct "mass drift" warnings in one whole verify run.  On the perturbed
# maps each cusp side density whose mass drifts on its first steps is
# walked once, for correlation-decay and reduction-chain alike, so each
# line is logged exactly once.
VERIFY_DRIFTS = {
    "linear{2}": 0,
    "linear{3}": 0,
    "perturbed{2,0.02}": 3,
    "perturbed{2,0.05}": 3,
    "perturbed{2,0.1}": 2,
}


@pytest.mark.parametrize("m", standard_maps(), ids=repr)
def test_verify_standard_maps(verify_run, m):
    run = verify_run(m)
    assert run.code == 0
    counts = run.counts
    assert (counts["apply"], counts["scan"], counts["rows"]) == VERIFY_WORK[repr(m)]
    assert len(run.drifts) == VERIFY_DRIFTS[repr(m)]
    assert set(run.drifts.values()) <= {1}
    out = run.stdout
    report = json.loads((run.out / "verify.json").read_text())
    assert report["map"] == repr(m)
    assert (report["resolution"], report["n_max"]) == (4096, 60)
    assert all(r["ok"] for r in report["results"])
    assert [r["name"] for r in report["results"]] == VERIFY_NAMES
    assert out.count("PASS") == len(report["results"])
    assert "FAIL" not in out
    for r in report["results"]:
        assert set(r) == {"name", "ok", "detail", "seconds", "margin"}
        if r["name"] not in MARGINS:
            assert r["margin"] is None, r
            continue
        printed, slack, strict = MARGINS[r["name"]]
        margin = r["margin"]
        # the margin includes the slack, so its sign is the verdict
        assert r["ok"] == (margin > 0 if strict else margin >= 0), r
        # the detail's last decimal number, to its printed precision
        token = re.findall(r"-?\d+\.\d+(?:e[-+]\d+)?", r["detail"])[-1]
        half_ulp = 0.5 * 10.0 ** Decimal(token).as_tuple().exponent
        assert abs(printed(margin - slack) - float(token)) <= half_ulp * (1 + 1e-9), r
    assert_golden(run.out, f"verify on {m!r}")


def test_verify_walks_and_logs_each_side_chain_once(verify_run):
    # the default map, with no config (the shared run)
    run = verify_run(make_map(RunConfig()))
    assert run.code == 0
    assert (run.counts["apply"], run.counts["scan"]) == VERIFY_WORK[DEFAULT_MAP][:2]
    assert len(run.drifts) == VERIFY_DRIFTS[DEFAULT_MAP]
    assert set(run.drifts.values()) == {1}


def test_env_var_output_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("EXPCIRCLE_OUT", str(tmp_path))
    assert main(["constants"]) == 0
    assert (tmp_path / "constants.json").exists()


def test_config_out_beats_env_var(tmp_path, monkeypatch):
    # "." names the working directory like any other path: the env var
    # applies only when neither --out nor the config gives one
    cwd, env = tmp_path / "cwd", tmp_path / "env"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("EXPCIRCLE_OUT", str(env))
    cfg = write_config(tmp_path, {"out": "."})
    assert main(["constants", "--config", cfg]) == 0
    assert (cwd / "constants.json").exists()
    assert not env.exists()
    assert main(["constants", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "constants.json").exists()
    assert not env.exists()


def test_integer_past_the_parser_limit_exits_two(tmp_path, capsys):
    # Python refuses to parse an int of more than 4300 digits
    path = tmp_path / "config.json"
    path.write_text('{"map": {"family": "linear", "w": 1%s}}' % ("0" * 5000))
    assert main(["constants", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON") and err.count("\n") == 1


def test_flag_beats_config_beats_default(tmp_path):
    cfg = write_config(
        tmp_path,
        {"map": {"family": "linear", "w": 2}, "alpha": 0.5,
         "out": str(tmp_path / "from_config")},
    )
    assert main(["constants", "--config", cfg]) == 0
    data = json.loads((tmp_path / "from_config" / "constants.json").read_text())
    assert data["alpha"] == 0.5
    assert main(["constants", "--config", cfg, "--alpha", "1.0"]) == 0
    data = json.loads((tmp_path / "from_config" / "constants.json").read_text())
    assert data["alpha"] == 1.0


COARSE_16 = "resolution must be a power of two >= 16"
FINITE = "must be a finite number"
TOL_RANGE = "tol must lie in (0, 1e-06]"
WIDE_WINDING = "map winding must not exceed 2**53 in size"

# (command, config, the start of its error message after "error: "): each
# tuning key goes to a command that reads it, so its own check refuses it
BAD_CONFIGS = [
    ("constants", {"map": {"family": "perturbed", "w": 2, "eps": 0.05}, "bogus": 1},
     "unknown config keys for constants: ['bogus']"),
    ("constants", {"map": {"family": "perturbed", "w": 2, "epsilon": 0.05}},
     "unknown map keys: ['epsilon']"),
    ("constants", {"map": {"family": "logistic"}}, "unknown map family 'logistic'"),
    ("constants", {"map": {"family": "perturbed", "w": 2, "eps": 0.2}},
     "2*pi*eps = 1.25664 must stay below w - 1"),
    ("constants", {"map": {"family": "linear", "w": 2.5}},
     "map winding must be an integer"),
    ("invariant", {"resolution": 3000}, COARSE_16),
    ("coupling", {"trials": 10}, "trials must be at least 1000"),
    ("coupling", {"seed": -1}, "seed must lie in [0, 2**128)"),
    ("constants", {"map": {"family": "perturbed", "w": 2, "eps": -0.01}},
     "eps must be nonnegative"),
    ("constants", {"map": {"family": "perturbed", "w": 2, "eps": float("nan")}},
     "eps " + FINITE),
    ("constants", {"out": 5}, "out must be a string"),
    ("constants", {"out": None}, "out must be a string"),
    ("decay", {"n_max": True}, "n_max must be a number, not True"),
    ("coupling", {"seed": True}, "seed must be a number, not True"),
    ("constants", {"alpha": True}, "alpha must be a number, not True"),
    ("invariant", {"tol": 1e300}, TOL_RANGE),
    ("invariant", {"tol": 0}, TOL_RANGE),
    ("invariant", {"tol": -1}, TOL_RANGE),
    # ints past the float64 range
    ("constants", {"map": {"family": "perturbed", "w": 2, "eps": 10**400}},
     "eps " + FINITE),
    ("constants", {"alpha": 10**400}, "alpha " + FINITE),
    ("invariant", {"tol": -10**400}, "tol " + FINITE),
    # windings float64 does not hold exactly
    ("constants", {"map": {"family": "linear", "w": 2**53 + 1}}, WIDE_WINDING),
    ("constants", {"map": {"family": "perturbed", "w": 2**53 + 1, "eps": 0.05}},
     WIDE_WINDING),
    ("constants", {"map": {"family": "linear", "w": -10**400}}, WIDE_WINDING),
    ("constants", {"map": {"family": "perturbed", "w": 10**400, "eps": 0.05}},
     WIDE_WINDING),
    # counts past the int64 range, and past the memory cap
    ("coupling", {"trials": 10**30},
     f"out of memory: a Monte-Carlo run of {10**30} trials"),
    ("coupling", {"trials": 2**63}, f"out of memory: a Monte-Carlo run of {2**63} trials"),
    ("invariant", {"resolution": 2**70}, f"out of memory: a grid of M={2**70} nodes"),
    ("decay", {"n_max": 10**30}, "n_max must not exceed 1000000"),
    ("decay", {"n_max": 10**6 + 1}, "n_max must not exceed 1000000"),
    # a map key the family does not read
    ("constants", {"map": {"family": "linear", "w": 2, "eps": 0.3}},
     "unknown map keys: ['eps'] (a linear map reads w)"),
]


@pytest.mark.parametrize("command, payload, message", BAD_CONFIGS,
                         ids=[f"payload{i}" for i in range(len(BAD_CONFIGS))])
def test_bad_configs_exit_two(tmp_path, monkeypatch, command, payload, message, capsys):
    # no --out, so a config "out" is the output directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXPCIRCLE_OUT", raising=False)
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# The tuning keys each command reads besides map and out: the only flags
# and config keys it takes.  tol has no flag.
READS = {
    "constants": {"alpha"},
    "invariant": {"resolution", "tol"},
    "decay": {"alpha", "resolution", "n_max"},
    "coupling": {"alpha", "resolution", "seed", "trials", "n_max"},
    "verify": {"resolution", "seed", "trials", "n_max"},
}
# a value each reading command accepts, as a config value and as a flag
TUNING = {"alpha": 0.5, "resolution": 2048, "seed": 7, "trials": 2000, "n_max": 10,
          "tol": 1e-10}


PAIRS = [(command, key) for command in READS for key in TUNING]


@pytest.mark.parametrize("command, key", PAIRS, ids=["-".join(p) for p in PAIRS])
def test_each_command_takes_only_the_keys_it_reads(tmp_path, command, key, capsys):
    assert {c: set(keys) for c, (_, keys, _, _) in cli.COMMANDS.items()} == READS
    value = TUNING[key]
    cfg = write_config(tmp_path, {key: value})
    flag = [] if key == "tol" else ["--" + key.replace("_", "-"), str(value)]
    if key in READS[command]:
        for argv in filter(None, (["--config", cfg], flag)):
            args = cli._parser().parse_args([command, *argv])
            assert getattr(cli.build_config(args), key) == value
        return
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys for {command}: ['{key}']\n"
    if flag:
        with pytest.raises(SystemExit) as exc:
            main([command, *flag, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_removed_threads_knob_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"threads": 2})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "verify.json").exists()


def test_malformed_and_missing_config_exit_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["constants", "--config", str(broken)]) == 2
    assert main(["constants", "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_invalid_alpha_exits_two(tmp_path, capsys):
    assert main(["constants", "--alpha", "1.5", "--out", str(tmp_path)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_overflowing_ledger_exits_two(tmp_path, capsys):
    # lambda = 2 - 2 pi eps is barely above 1 here, so 4(Omega+1) lies far
    # past the float64 exponent range and K = exp(4(Omega+1)) overflows
    cfg = write_config(tmp_path, {"map": {"family": "perturbed", "w": 2, "eps": 0.159}})
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "overflows float64" in capsys.readouterr().err
    assert not (tmp_path / "constants.json").exists()


@pytest.mark.parametrize("alpha", ["1e-300", "5e-324"])
def test_unrepresentable_epoch_count_exits_two(tmp_path, alpha, capsys):
    # N_K grows like 1/alpha; past 2**53 neither float64 nor a common JSON
    # reader holds it exactly (at 5e-324 alpha log lambda underflows)
    assert main(["constants", "--alpha", alpha, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: N_K") and "exceeds 2**53" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "constants.json").exists()


def test_large_exact_epoch_count_is_kept(tmp_path):
    assert main(["constants", "--alpha", "1e-12", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    assert data["N_K"] == 20734491884924


def test_vacuous_ledger_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"map": {"family": "perturbed", "w": 2, "eps": 0.11}})
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "must both be below 1" in capsys.readouterr().err
    assert not (tmp_path / "constants.json").exists()
    # verify reaches the same refusal inside an audit; it is no audit FAIL
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "must both be below 1" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()
    cfg = write_config(tmp_path, {"map": {"family": "perturbed", "w": 2, "eps": 0.1}})
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["decay", "--n-max", "-5"],
    ["decay", "--n-max", "0"],
    ["coupling", "--n-max", "-5"],
])
def test_nonpositive_horizon_exits_two(tmp_path, argv, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "n_max must be an integer of at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_uncreatable_output_directory_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["constants", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("cannot create output directory") == 2


@pytest.mark.parametrize("argv, blocked", [
    (["constants"], "constants.json"),
    (["decay", "--n-max", "2"], "decay.csv"),
    (["invariant", "--resolution", "16"], "invariant.csv"),
])
def test_unwritable_output_file_exits_two(tmp_path, argv, blocked, capsys):
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / blocked}: ")
    assert err.count("\n") == 1


def test_unallocatable_resolution_exits_two(tmp_path, capsys):
    # 2**50 nodes of float64 exceed the 2**47-byte user address space; the
    # grid passes the memory cap, so it is refused before any allocation
    assert main(["invariant", "--resolution", str(2**50), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_monte_carlo_run_above_the_memory_cap_is_refused(tmp_path, capsys):
    # 10**9 trials hold about 78 GiB: refused before the run
    argv = ["coupling", "--trials", str(10**9), "--resolution", "64", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out of memory: a Monte-Carlo run of {10**9} trials ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha, steps", [("1e-4", 1036725), ("1e-6", 103672460)])
def test_default_coupling_horizon_above_the_ceiling_is_refused(tmp_path, alpha, steps,
                                                              capsys):
    # the default horizon, five epochs of N_K, grows like 1/alpha; it is
    # held to N_MAX_CEILING as --n-max is, before anything is allocated
    argv = ["coupling", "--alpha", alpha, "--resolution", "64", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: the default n_max of 5 epochs must not exceed {N_MAX_CEILING}, "
        f"got {steps}\n")
    assert not list(tmp_path.iterdir())


def test_the_longest_accepted_horizon_fits_the_memory_check(monkeypatch):
    # no past epoch is kept, so the default trials over N_MAX_CEILING steps
    # are estimated at about 0.65 GB, inside even a 1 GiB cap
    monkeypatch.setattr("expcircle.transfer_operator.TABLE_BYTES_CAP", 2**30)
    coupling_lab._check_run_bytes(100_000, N_MAX_CEILING)


COARSE = "resolution must be a power of two >= 64"
# verify's operator-mass gate holds from M = 1024 (1.85e-10 against 1e-10
# at M = 512 on the default map)
VERIFY_COARSE = "resolution must be a power of two >= 1024"


@pytest.mark.parametrize("argv, message", [
    (["coupling", "--resolution", "16"], COARSE),
    (["coupling", "--resolution", "32"], COARSE),
    (["verify", "--resolution", "16"], VERIFY_COARSE),
    (["verify", "--resolution", "32"], VERIFY_COARSE),
    (["verify", "--resolution", "512"], VERIFY_COARSE),
    (["coupling", "--seed", str(2**128)], "seed must lie in [0, 2**128)"),
], ids=["coupling-16", "coupling-32", "verify-16", "verify-32", "verify-512",
        "coupling-seed-2**128"])
def test_inputs_outside_the_coupling_run_exit_two(tmp_path, argv, message, capsys):
    # the chi-square bins the sampled marginals into 64 arcs of grid cells,
    # Philox takes a key below 2**128, and verify's mass gate needs M >= 1024
    assert main([*argv, "--trials", "1000", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_coarse_grid_still_serves_invariant_and_decay(tmp_path, capsys):
    assert main(["invariant", "--resolution", "16", "--out", str(tmp_path)]) == 0
    # decay is not refused as a configuration error (its phi check may fail)
    assert main(["decay", "--resolution", "16", "--n-max", "2",
                 "--out", str(tmp_path)]) != 2
    assert "resolution must be" not in capsys.readouterr().err
    assert (tmp_path / "invariant.csv").exists()


@pytest.mark.parametrize("resolution", [16, 32, 64, 128])
@pytest.mark.parametrize("m", standard_maps(), ids=repr)
def test_coarse_grid_decay_passes_its_invariance_check(tmp_path, m, resolution):
    # phi is the fixed point of the renormalized step, so the check
    # renormalizes L phi too: the raw image's mass drift on these grids
    # exceeds the 1e-10 invariance tolerance
    config = {"family": m.family, **dict(zip(("w", "eps"), m.params))}
    cfg = write_config(tmp_path, {"map": config})
    assert main(["decay", "--config", cfg, "--resolution", str(resolution),
                 "--out", str(tmp_path)]) == 0


def test_decay_drift_lines_do_not_grow_with_the_horizon(tmp_path, caplog):
    # the side density is walked only while |corr_n| is above the reduction
    # slack, so a longer horizon adds no steps to it and no drift lines
    drifts = []
    for n_max in ("100", "1000"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="expcircle"):
            assert main(["decay", "--resolution", "16", "--n-max", n_max,
                         "--out", str(tmp_path)]) == 0
        drifts.append(sum("mass drift" in r.getMessage() for r in caplog.records))
    assert drifts[0] == drifts[1] > 0


def test_decay_exits_four_on_a_side_density_defect(tmp_path, monkeypatch, capsys):
    # psi_g replaced by phi: the side errors vanish, so the reduction check
    # (not the envelope) fails at n = 0, where corr_0 is the variance of cos
    monkeypatch.setattr(correlation_suite, "normalized_observable_density",
                        lambda g, phi: phi)
    assert main(["decay", "--n-max", "12", "--out", str(tmp_path)]) == 4
    assert "decay bound violated" in capsys.readouterr().err
    assert json.loads((tmp_path / "decay.json").read_text())["summary"]["all_ok"] is False
    f = cos_observable(1024)
    (rep,), = decay_report(make_map(RunConfig()), [f], f, (1.0,), n_max=60)
    assert np.all(rep.ok) and not rep.reduction_ok[0]


@pytest.mark.parametrize("config", [{"family": "linear", "w": 20000},
                                    {"family": "perturbed", "w": 20000, "eps": 0.3}],
                         ids=["linear{20000}", "perturbed{20000,0.3}"])
def test_invariant_on_a_large_winding_map(tmp_path, config):
    # the node preimages' targets pass 8192, where a residual of 1e-12 is
    # below their float spacing
    cfg = write_config(tmp_path, {"map": config})
    assert main(["invariant", "--config", cfg, "--resolution", "16",
                 "--out", str(tmp_path)]) == 0


def test_collapsed_coupling_marginals_exit_four(tmp_path, capsys):
    # float orbits of x -> 2x mod 1 reach 0 after ~53 steps, while coupled
    # pairs flow for up to 80 steps at alpha 0.3: the marginals collapse
    cfg = write_config(tmp_path, {"map": {"family": "linear", "w": 2},
                                  "alpha": 0.3, "trials": 20000})
    assert main(["coupling", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "marginal chi2 p-value" in capsys.readouterr().err
    assert not (tmp_path / "coupling.json").exists()


def test_unreachable_tolerance_exits_three(tmp_path, capsys):
    # successive iterates at M = 16 keep an L1 difference near 1e-16
    cfg = write_config(tmp_path, {"resolution": 16, "tol": 1e-300})
    assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "error:" in capsys.readouterr().err


def child_env() -> dict:
    """Environment in which a child imports the same package as this
    process, installed or not."""
    src = str(Path(expcircle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats would dominate start-up; the package needs only
    # scipy.sparse, and scipy.special for the chi-square test
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, expcircle.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_invariant_and_decay_leave_scipy_special_out(tmp_path):
    # only the Monte-Carlo coupling's chi-square test needs scipy.special
    runs = [["invariant", "--resolution", "512"],
            ["decay", "--resolution", "512", "--n-max", "4"]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from expcircle.cli import main\n"
         f"for argv in {runs!r}:\n"
         f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
         "print('scipy.special' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert {p.name for p in tmp_path.iterdir()} == {
        "invariant.csv", "invariant.json", "decay.csv", "decay.json"}


def test_module_entry_point(tmp_path):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "expcircle", "constants", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "constants.json").exists()
    proc = subprocess.run(
        [sys.executable, "-m", "expcircle", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    for sub in ("constants", "invariant", "decay", "coupling", "verify"):
        assert sub in proc.stdout
