import copy
import csv
import functools
import hashlib
import json
import operator
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uavcell
from uavcell import baseline
from uavcell.baseline import brute_force_optimum
from uavcell.channel import ENVIRONMENTS, RadioConfig
from uavcell.cli import _read_manifest, _write_csv, main, plan_from_dict, plan_scenario, plan_to_dict
from uavcell.clustering import ClusteringConfig
from uavcell.deployment import evaluate
from uavcell.scenario import (
    PcpConfig, Region, Scenario, dump_canonical_json, generate_pcp, load_scenario, save_scenario, scenario_to_dict,
)

from oracles import write_csv_per_row

URBAN = ENVIRONMENTS["urban"]


def write_scenario(path, users, k_max=8, max_outer_iterations=50):
    scenario = Scenario(
        region=Region(),
        users=np.asarray(users, dtype=float),
        environment=URBAN,
        radio=RadioConfig(),
        clustering=ClusteringConfig(k_max=k_max, max_outer_iterations=max_outer_iterations),
    )
    save_scenario(scenario, path)
    return path


def two_blob_users(seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal([250.0, 250.0], 25.0, (12, 2)),
        rng.normal([750.0, 700.0], 25.0, (12, 2)),
    ])


def strip_users():
    return np.random.default_rng(0).uniform([0.0, 0.0], [600.0, 30.0], (60, 2))


# --- generate ---------------------------------------------------------------

def test_generate_writes_numbered_scenarios(tmp_path):
    out = tmp_path / "scen"
    assert main(["generate", "--out-dir", str(out), "--count", "3", "--master-seed", "5"]) == 0
    files = sorted(p.name for p in out.glob("*.json"))
    assert files == ["scenario_000.json", "scenario_001.json", "scenario_002.json"]
    payload = json.loads((out / "scenario_000.json").read_text())
    assert len(payload["users"]) > 0
    assert payload["environment"]["name"] == "urban"


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--out-dir", str(a), "--count", "2", "--master-seed", "9"])
    main(["generate", "--out-dir", str(b), "--count", "2", "--master-seed", "9"])
    for name in ("scenario_000.json", "scenario_001.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_zero_count(tmp_path):
    out = tmp_path / "none"
    assert main(["generate", "--out-dir", str(out), "--count", "0"]) == 0
    assert list(out.glob("*.json")) == []


def test_generate_that_draws_no_user_makes_no_directory(tmp_path, caplog):
    out = tmp_path / "g"
    assert main(["generate", "--out-dir", str(out), "--width", "0.01", "--height", "0.01"]) == 2
    assert "could not draw a non-empty scenario" in caplog.text
    assert not out.exists()


# --- deploy -----------------------------------------------------------------

def test_deploy_ellipse_writes_plan_and_trace(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = tmp_path / "out"
    assert main(["deploy", str(scen), "--out-dir", str(out)]) == 0
    plan_payload = json.loads((out / "plan.json").read_text())
    trace = json.loads((out / "trace.json").read_text())
    assert plan_payload["method"] == "ellipse"
    assert len(plan_payload["uavs"]) == 2
    assert trace["converged"] is True
    plan = plan_from_dict(plan_payload)
    assert plan.total_power_mw == pytest.approx(plan_payload["total_power_mw"])
    members = sorted(i for u in plan.uavs for i in u.members)
    assert members == list(range(24))


def test_deploy_is_byte_deterministic(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users(seed=3))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["deploy", str(scen), "--out-dir", str(out_a)])
    main(["deploy", str(scen), "--out-dir", str(out_b)])
    assert (out_a / "plan.json").read_bytes() == (out_b / "plan.json").read_bytes()
    assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()


def test_deploy_circle_needs_cell_count(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "o"), "--method", "circle"]) == 2


def test_a_deploy_that_fails_to_plan_makes_no_out_dir(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = tmp_path / "d"
    assert main(["deploy", str(scen), "--out-dir", str(out), "--method", "circle", "--num-uavs", "5000"]) == 2
    assert main(["deploy", str(scen), "--out-dir", str(out), "--method", "circle"]) == 2
    assert not out.exists()


def test_deploy_circle_plan(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = tmp_path / "out"
    code = main(["deploy", str(scen), "--out-dir", str(out), "--method", "circle", "--num-uavs", "4"])
    assert code == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["method"] == "circle"
    assert len(payload["uavs"]) == 4
    assert all(u["position"][2] == 150.0 for u in payload["uavs"])
    assert not (out / "trace.json").exists()


def test_deploy_infeasible_packing_exit_code(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    code = main([
        "deploy", str(scen), "--out-dir", str(tmp_path / "o"),
        "--method", "circle", "--num-uavs", "9", "--beam-deg", "80",
    ])
    assert code == 4


def test_circle_count_above_the_cap_exits_2_before_the_lattice_search(tmp_path, caplog, monkeypatch):
    # the search tries every column count up to the circle count, so 1e20 circles never finished
    def search(num, region):
        raise AssertionError(f"lattice search for {num} circles")

    monkeypatch.setattr(baseline, "_best_lattice", search)
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    huge = "100000000000000000000"
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "o"), "--method", "circle", "--num-uavs", huge]) == 2
    assert f"num_uavs must be in [1, 1000], got {huge}" in caplog.text
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "res", "scenarios": ["s.json"], "methods": ["circle"], "circle": {"num_uavs": int(huge)}}))
    assert main(["sweep", str(manifest)]) == 2
    row = (tmp_path / "res" / "runs.csv").read_text().splitlines()[1].split(",", 9)
    assert row[8] == "bad_input" and "num_uavs must be in [1, 1000]" in row[9]


def test_deploy_brute_small_instance(tmp_path):
    # each tight pair shares its floor ellipse, so only the 2-cell grouping
    # and the single spanning cell are feasible; the 2-cell one is cheaper
    users = [[100.0, 100.0], [101.0, 100.0], [800.0, 800.0], [801.0, 800.0]]
    scen = write_scenario(tmp_path / "s.json", users)
    out = tmp_path / "out"
    assert main(["deploy", str(scen), "--out-dir", str(out), "--method", "brute"]) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["method"] == "brute"
    assert len(payload["uavs"]) == 2
    assert sorted(u["members"] for u in payload["uavs"]) == [[0, 1], [2, 3]]
    # the plan is the one the exhaustive search built, not a refit of it
    _, power = brute_force_optimum(users, 3, URBAN, RadioConfig())
    assert payload["total_power_mw"] == power


@pytest.mark.parametrize("method, flags", [
    ("ellipse", []),
    ("circle", ["--num-uavs", "4"]),
    ("brute", []),
])
def test_plan_scenario_matches_deploy(tmp_path, method, flags):
    users = [[100.0, 100.0], [101.0, 100.0], [800.0, 800.0], [801.0, 800.0], [450.0, 520.0]]
    scen = write_scenario(tmp_path / "s.json", users)
    out = tmp_path / "out"
    assert main(["deploy", str(scen), "--out-dir", str(out), "--method", method] + flags) == 0
    num_uavs = 4 if method == "circle" else None
    plan, trace = plan_scenario(load_scenario(scen), method, h_max=1000.0, num_uavs=num_uavs)
    assert dump_canonical_json(plan_to_dict(plan, method)) == (out / "plan.json").read_text()
    assert (trace is not None) == (method == "ellipse")


def test_deploy_non_convergence_still_writes_trace(tmp_path):
    scen = write_scenario(tmp_path / "s.json", strip_users(), max_outer_iterations=50)
    out = tmp_path / "out"
    code = main(["deploy", str(scen), "--out-dir", str(out), "--max-outer-iterations", "1"])
    assert code == 3
    trace = json.loads((out / "trace.json").read_text())
    assert trace["converged"] is False
    assert len(trace["iterations"]) == 1
    assert not (out / "plan.json").exists()


def test_deploy_missing_scenario_file(tmp_path):
    assert main(["deploy", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("{not json", "7", "[1, 2]"):
        bad.write_text(text)
        assert main(["deploy", str(bad), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_user_coordinate_too_large_for_a_float_exits_2(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    payload = json.loads(scen.read_text())
    payload["users"][0][0] = "HUGE"
    scen.write_text(json.dumps(payload).replace('"HUGE"', str(10**400)))
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_scenario_nested_too_deeply_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["deploy", str(deep), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_on_a_million_closed_levels_exits_2_not_by_a_signal(tmp_path):
    # orjson 3.8 parses nesting without a limit and crashes its process on a million levels
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**6 + "]" * 10**6)
    src = str(Path(uavcell.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "uavcell.cli", "deploy", str(deep), "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "nested too deeply" in proc.stderr


def test_deploy_scenario_with_an_int_too_long_to_convert_names_the_file(tmp_path, caplog):
    # json reads a literal of more than 4300 digits with int(), which refuses it
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    scen.write_text(scen.read_text().replace('"k_max": 8', '"k_max": 1' + "0" * 5000))
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "o")]) == 2
    message = next(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
    assert message.startswith(f"{scen}: invalid JSON: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("block, key, value", [
    ("radio", "bandwidth_hz", None),  # None: delete the key
    ("environment", "sigmoid_a", "x"),
    ("clustering", "k_max", [3]),
    ("region", "width_m", -1.0),
    ("radio", "snr_threshold_db", "nan"),
    ("radio", "bandwidth_hz", "inf"),
    ("environment", "excess_los_db", "-inf"),
    # json.dumps writes these floats as the literals NaN and Infinity
    pytest.param("radio", "snr_threshold_db", float("nan"), id="radio-snr_threshold_db-NaN-literal"),
    pytest.param("clustering", "k_max", float("inf"), id="clustering-k_max-Infinity-literal"),
])
def test_deploy_malformed_nested_block_exit_code(tmp_path, block, key, value):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    payload = json.loads(scen.read_text())
    if value is None:
        del payload[block][key]
    else:
        payload[block][key] = value
    scen.write_text(json.dumps(payload))
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_old_scenario_with_rng_seed_warns_and_plans_the_same(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users(seed=5))
    old = tmp_path / "old.json"
    payload = json.loads(scen.read_text())
    payload["clustering"]["rng_seed"] = 1234
    old.write_text(json.dumps(payload))
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "new_out")]) == 0
    with pytest.warns(UserWarning, match="clustering: ignoring unknown field 'rng_seed'"):
        assert main(["deploy", str(old), "--out-dir", str(tmp_path / "old_out")]) == 0
    assert (tmp_path / "old_out" / "plan.json").read_bytes() == (tmp_path / "new_out" / "plan.json").read_bytes()


def test_deploy_rejects_non_finite_flag_overrides(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    for flag in ("--snr-threshold-db=nan", "--bandwidth-hz=inf", "--noise-psd-dbm-hz=-inf"):
        out = tmp_path / flag.strip("-")
        assert main(["deploy", str(scen), "--out-dir", str(out), flag]) == 2
        assert not (out / "plan.json").exists()


@pytest.mark.parametrize("flag, message", [
    ("--fixed-power-dbm=inf", "fixed power must be finite"),
    ("--fixed-power-dbm=nan", "fixed power must be finite"),
    ("--fixed-altitude=nan", "fixed altitude must be positive and finite"),
])
def test_deploy_circle_rejects_non_finite_altitude_and_power(tmp_path, caplog, flag, message):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = tmp_path / "out"
    assert main(["deploy", str(scen), "--out-dir", str(out), "--method", "circle", "--num-uavs", "4", flag]) == 2
    assert message in caplog.text
    assert not (out / "plan.json").exists()


def test_deploy_env_override_changes_power(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out_u, out_h = tmp_path / "u", tmp_path / "h"
    main(["deploy", str(scen), "--out-dir", str(out_u)])
    main(["deploy", str(scen), "--out-dir", str(out_h), "--env", "high-rise"])
    p_u = json.loads((out_u / "plan.json").read_text())["total_power_mw"]
    p_h = json.loads((out_h / "plan.json").read_text())["total_power_mw"]
    assert p_h > p_u  # heavier shadowing costs power


# --- evaluate ---------------------------------------------------------------

def test_evaluate_metrics_and_cdf(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users(seed=7))
    out = tmp_path / "out"
    main(["deploy", str(scen), "--out-dir", str(out)])
    ev = tmp_path / "ev"
    assert main(["evaluate", str(out / "plan.json"), str(scen), "--out-dir", str(ev)]) == 0

    lines = (ev / "metrics.csv").read_text().splitlines()
    assert lines[0] == "scenario,num_users,num_uavs,coverage_probability,total_power_mw,min_snr_db,mean_throughput_bps"
    row = lines[1].split(",")
    assert row[0] == "s.json"
    assert int(row[1]) == 24
    assert float(row[3]) == 1.0
    plan_power = json.loads((out / "plan.json").read_text())["total_power_mw"]
    assert float(row[4]) == pytest.approx(plan_power, rel=1e-12)

    cdf_lines = (ev / "throughput_cdf.csv").read_text().splitlines()
    assert cdf_lines[0] == "throughput_bps,cdf"
    values = [tuple(map(float, line.split(","))) for line in cdf_lines[1:]]
    assert len(values) == 24
    assert all(b[0] >= a[0] for a, b in zip(values, values[1:]))
    assert values[-1][1] == 1.0


def test_evaluate_is_byte_deterministic(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users(seed=8))
    out = tmp_path / "out"
    main(["deploy", str(scen), "--out-dir", str(out)])
    ev_a, ev_b = tmp_path / "a", tmp_path / "b"
    main(["evaluate", str(out / "plan.json"), str(scen), "--out-dir", str(ev_a)])
    main(["evaluate", str(out / "plan.json"), str(scen), "--out-dir", str(ev_b)])
    assert (ev_a / "metrics.csv").read_bytes() == (ev_b / "metrics.csv").read_bytes()
    assert (ev_a / "throughput_cdf.csv").read_bytes() == (ev_b / "throughput_cdf.csv").read_bytes()


def test_evaluate_tables_have_the_bytes_of_the_per_row_writer(tmp_path):
    scen_dir, plan_dir, ev = tmp_path / "s", tmp_path / "p", tmp_path / "ev"
    main(["generate", "--out-dir", str(scen_dir), "--master-seed", "7", "--mean-daughters", "360"])
    scen = scen_dir / "scenario_000.json"
    main(["deploy", str(scen), "--out-dir", str(plan_dir), "--method", "circle", "--num-uavs", "9"])
    assert main(["evaluate", str(plan_dir / "plan.json"), str(scen), "--out-dir", str(ev)]) == 0
    users = load_scenario(scen).users
    metrics = evaluate(plan_from_dict(json.loads((plan_dir / "plan.json").read_text())), users)
    ordered = sorted(metrics.per_user_throughput_bps)
    n = len(ordered)
    write_csv_per_row(tmp_path / "cdf.csv", ["throughput_bps", "cdf"], [[v, (i + 1) / n] for i, v in enumerate(ordered)])
    assert (ev / "throughput_cdf.csv").read_bytes() == (tmp_path / "cdf.csv").read_bytes()
    header = ["scenario", "num_users", "num_uavs", "coverage_probability", "total_power_mw", "min_snr_db", "mean_throughput_bps"]
    row = ["scenario_000.json", len(users), metrics.num_uavs, metrics.coverage_probability, metrics.total_power_mw,
           min(metrics.per_user_snr_db), statistics.fmean(metrics.per_user_throughput_bps)]
    write_csv_per_row(tmp_path / "metrics.csv", header, [row])
    assert (ev / "metrics.csv").read_bytes() == (tmp_path / "metrics.csv").read_bytes()


def test_evaluate_missing_plan(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    assert main(["evaluate", str(tmp_path / "missing.json"), str(scen), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_and_evaluate_on_a_directory_exit_2(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = str(tmp_path / "o")
    assert main(["deploy", str(tmp_path), "--out-dir", out]) == 2
    assert main(["evaluate", str(tmp_path), str(scen), "--out-dir", out]) == 2


def test_evaluate_plan_nested_too_deeply_exits_2(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    plan = tmp_path / "plan.json"
    plan.write_text("[" * 100_000)
    assert main(["evaluate", str(plan), str(scen), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("field, literal, message", [
    ("members", "1e400", "'members' must be a list of integer user indices"),
    ("members", "2.5", "'members' must be a list of integer user indices"),
    ("members", "true", "'members' must be a list of integer user indices"),
    ("members", "1000000000000000000000000000000", "member index 1000000000000000000000000000000 outside user array"),
    ("position", "NaN", "uav 0: 'position' must be finite, got nan"),
    ("orientation_rad", "Infinity", "uav 0: 'orientation_rad' must be finite, got inf"),
    ("tx_power_dbm", "-Infinity", "uav 0: 'tx_power_dbm' must be finite, got -inf"),
    ("total_power_mw", "NaN", "plan: 'total_power_mw' must be finite, got nan"),
])
def test_evaluate_names_a_bad_plan_field_and_exits_2(tmp_path, caplog, field, literal, message):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = tmp_path / "out"
    main(["deploy", str(scen), "--out-dir", str(out)])
    payload = json.loads((out / "plan.json").read_text())
    uav = payload["uavs"][0]
    if field == "total_power_mw":
        payload[field] = "LITERAL"
    elif field in ("members", "position"):
        uav[field][-1] = "LITERAL"
    else:
        uav[field] = "LITERAL"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload).replace('"LITERAL"', literal))
    assert main(["evaluate", str(bad), str(scen), "--out-dir", str(tmp_path / "ev")]) == 2
    assert message in caplog.text


def test_plan_round_trips_to_an_equal_plan(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users(seed=4))
    for method, num in (("ellipse", None), ("circle", 4)):
        plan, _ = plan_scenario(load_scenario(scen), method, num_uavs=num)
        assert plan_from_dict(plan_to_dict(plan, method)) == plan


def test_generated_and_deployed_files_keep_their_bytes(tmp_path):
    scen_dir, plan_dir = tmp_path / "s", tmp_path / "p"
    assert main(["generate", "--out-dir", str(scen_dir), "--master-seed", "7", "--mean-daughters", "360"]) == 0
    scen = scen_dir / "scenario_000.json"
    assert main(["deploy", str(scen), "--out-dir", str(plan_dir), "--method", "circle", "--num-uavs", "9"]) == 0
    files = (scen, plan_dir / "plan.json")
    for path in files:  # holds on any CPU
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    # Digests of the files written before the JSON writer was replaced.  They
    # also pin the scenario's numbers, which go through numpy's sin/cos and so
    # may differ in the last ulp on a CPU with other SIMD code paths.
    digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert digest == {
        "scenario_000.json": "a5c18e797601c8f87f21c192dfcbd5f0de4d439353893cb7cbef2524f67f18fc",
        "plan.json": "d3fb8f955f4f83c03ab6dd48e781f05cb85cee474d6313c7a8d3b4f1fc7f849e",
    }


# --- values whose power ratio is beyond the float range ----------------------

@pytest.mark.parametrize("command, block, key, value, message", [
    ("deploy", "radio", "snr_threshold_db", 1e308, "transmit power (dBm) = 1e+308 gives a power ratio beyond the float range"),
    ("deploy", "radio", "noise_psd_dbm_hz", 2**70, "transmit power (dBm) = 1.1805916207174113e+21 gives a power ratio"),
    ("deploy", "environment", "excess_nlos_db", 1e308, "excess_nlos_db = 1e+308 gives a power ratio beyond the float range"),
    ("deploy", "environment", "sigmoid_a", 2**70, "the LoS sigmoid of Environment(name='urban', sigmoid_a=1.1805916207174113e+21"),
    # the free-space term overflows to inf, which once gave a plan of infinite power
    ("deploy", "radio", "carrier_frequency_hz", 1e308, "transmit power (dBm) = inf gives a power ratio beyond the float range"),
    ("deploy", "radio", "carrier_frequency_hz", 1e300, "path loss (dB) = 5"),
    ("evaluate", "environment", "excess_nlos_db", 2**70, "excess_nlos_db = 1.1805916207174113e+21 gives a power ratio"),
], ids=["scenario-snr_threshold_db", "scenario-noise_psd_dbm_hz", "scenario-excess_nlos_db", "scenario-sigmoid_a",
        "scenario-carrier_frequency_hz-1e308", "scenario-carrier_frequency_hz-1e300", "plan-excess_nlos_db"])
def test_huge_finite_db_field_exits_2_naming_the_failure(tmp_path, caplog, command, block, key, value, message):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    plan = tmp_path / "plan" / "plan.json"
    main(["deploy", str(scen), "--out-dir", str(plan.parent), "--method", "circle", "--num-uavs", "2"])
    edited = scen if command == "deploy" else plan
    payload = json.loads(edited.read_text())
    payload[block][key] = value
    edited.write_text(json.dumps(payload))
    if command == "deploy":
        for method in ("circle", "ellipse"):
            out = tmp_path / method
            assert main(["deploy", str(scen), "--out-dir", str(out), "--method", method, "--num-uavs", "2"]) == 2
            assert not out.exists()
    else:
        assert main(["evaluate", str(plan), str(scen), "--out-dir", str(tmp_path / "ev")]) == 2
        assert not (tmp_path / "ev").exists()
    assert message in caplog.text


@pytest.mark.parametrize("flag", ["--snr-threshold-db=1e308", "--noise-psd-dbm-hz=1e308", "--fixed-power-dbm=1e308"])
def test_huge_finite_db_flag_exits_2(tmp_path, caplog, flag):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = tmp_path / "out"
    assert main(["deploy", str(scen), "--out-dir", str(out), "--method", "circle", "--num-uavs", "2", flag]) == 2
    assert "transmit power (dBm) = 1e+308 gives a power ratio beyond the float range" in caplog.text
    assert not out.exists()


def test_sweep_records_a_huge_finite_db_field_as_bad_input_and_keeps_going(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    two = write_scenario(tmp_path / "two.json", two_blob_users(seed=2))
    payload = json.loads(two.read_text())
    payload["environment"]["excess_nlos_db"] = 1e308
    two.write_text(json.dumps(payload))
    manifest = tmp_path / "manifest.json"
    for overrides, statuses in (({}, ["ok", "ok", "bad_input", "bad_input"]), ({"snr_threshold_db": 1e308}, ["bad_input"] * 4)):
        manifest.write_text(json.dumps({
            "out_dir": "res", "scenarios": ["one.json", "two.json"], "methods": ["ellipse", "circle"],
            "circle": {"num_uavs": 2}, "overrides": overrides,
        }))
        assert main(["sweep", str(manifest)]) == 2
        rows = [line.split(",", 9) for line in (tmp_path / "res" / "runs.csv").read_text().splitlines()[1:]]
        assert [r[8] for r in rows] == statuses
        assert all("gives a power ratio beyond the float range" in r[9] for r in rows if r[8] != "ok")


def test_sweep_records_a_numpy_overflow_as_bad_input(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    # 0 dBm over a noise floor near -4900 dBm: evaluate's SNR ratio overflows in numpy
    manifest.write_text(json.dumps({
        "out_dir": "res", "scenarios": ["one.json"], "methods": ["ellipse", "circle"],
        "circle": {"num_uavs": 2, "fixed_power_dbm": 0}, "overrides": {"noise_psd_dbm_hz": -5000},
    }))
    assert main(["sweep", str(manifest)]) == 2
    rows = [line.split(",", 9) for line in (tmp_path / "res" / "runs.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[8], r[9]) for r in rows] == [("ellipse", "ok", ""), ("circle", "bad_input", "overflow encountered in power")]


def test_sweep_records_a_scenario_that_fails_to_load_and_keeps_going(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    two = write_scenario(tmp_path / "two.json", two_blob_users(seed=2))
    payload = json.loads(two.read_text())
    del payload["radio"]["bandwidth_hz"]
    two.write_text(json.dumps(payload))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "out_dir": "res", "scenarios": ["two.json", "one.json"], "methods": ["ellipse", "circle"], "circle": {"num_uavs": 2},
    }))
    assert main(["sweep", str(manifest)]) == 2
    rows = [line.split(",", 9) for line in (tmp_path / "res" / "runs.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[8]) for r in rows] == [
        ("ellipse", "two.json", "bad_input"), ("circle", "two.json", "bad_input"),
        ("ellipse", "one.json", "ok"), ("circle", "one.json", "ok"),
    ]
    assert all(r[2] == "" and "bandwidth_hz" in r[9] for r in rows[:2])
    assert all(r[2] == "24" and r[9] == "" for r in rows[2:])
    agg = {line.split(",")[0]: line.split(",") for line in (tmp_path / "res" / "aggregate.csv").read_text().splitlines()[1:]}
    assert agg["ellipse"][1] == "2" and agg["ellipse"][8] == "1"


# --- generated file fuzzer --------------------------------------------------

FUZZ_VALUES = ["NaN", "Infinity", "-Infinity", str(10**400), str(2**70), "1e308", "-1e308",
               '"x"', "null", "true", "[]", "[1]", "{}", "0", "-1", "0.5", "drop"]


@functools.cache
def fuzz_base() -> dict:
    """A generated scenario and its circle plan, as JSON values."""
    scenario = Scenario(Region(), generate_pcp(Region(), PcpConfig(seed=11, mean_daughters=5.0)), URBAN, RadioConfig(),
                        ClusteringConfig(k_max=6), PcpConfig(seed=11, mean_daughters=5.0))
    plan, _ = plan_scenario(scenario, "circle", num_uavs=4)
    return {"scenario": scenario_to_dict(scenario), "plan": json.loads(dump_canonical_json(plan_to_dict(plan, "circle")))}


def json_paths(node, path=()):
    """Every path into ``node``, through the first, second and last item of each list."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, (*path, key))
    elif isinstance(node, list):
        for i in sorted({0, 1, len(node) - 1} & set(range(len(node)))):
            yield from json_paths(node[i], (*path, i))


def mutated_text(payload, edits) -> str:
    """``payload`` as JSON text with each (path, value) edit applied in turn.

    A value is JSON text put in as written, or "drop" to delete the key or
    item; an edit whose path an earlier edit removed is skipped.
    """
    doc = {"root": copy.deepcopy(payload)}
    literals = {}
    for path, value in edits:
        parent, key = doc, "root"
        try:
            for step in path:
                parent, key = parent[key], step
            if not isinstance(parent, (dict, list)):  # an earlier edit put a literal there
                raise TypeError
            parent[key]
        except (KeyError, IndexError, TypeError):
            continue
        if value == "drop":
            del parent[key]
        else:
            parent[key] = f"@@{len(literals)}@@"
            literals[f'"@@{len(literals)}@@"'] = value
    text = json.dumps(doc.get("root", {}))
    for placeholder, value in literals.items():
        text = text.replace(placeholder, value)
    return text


fuzz_edits = st.lists(
    st.deferred(lambda: st.sampled_from([(name, path) for name, payload in fuzz_base().items() for path in json_paths(payload)]))
    .flatmap(lambda target: st.tuples(st.just(target[0]), st.just(target[1]), st.sampled_from(FUZZ_VALUES))),
    min_size=1, max_size=3,
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(fuzz_edits, st.sampled_from(["circle", "ellipse"]))
@example([("scenario", ("radio", "snr_threshold_db"), "1e308")], "circle")
@example([("scenario", ("radio", "noise_psd_dbm_hz"), str(2**70))], "circle")
@example([("scenario", ("environment", "excess_nlos_db"), "1e308")], "ellipse")
@example([("scenario", ("environment", "sigmoid_a"), str(2**70))], "circle")
@example([("plan", ("environment", "excess_nlos_db"), "1e308")], "circle")
@example([("plan", ("environment", "sigmoid_a"), str(2**70))], "circle")
def test_mutated_scenario_and_plan_files_exit_0_or_2(tmp_path_factory, edits, method):
    work = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, payload in fuzz_base().items():
        files[name] = work / f"{name}.json"
        files[name].write_text(mutated_text(payload, [(path, value) for target, path, value in edits if target == name]))
    argv = ["deploy", str(files["scenario"]), "--out-dir", str(work / "out"), "--method", method, "--num-uavs", "4"]
    assert main(argv) in (0, 2)
    assert main(["evaluate", str(files["plan"]), str(files["scenario"]), "--out-dir", str(work / "ev")]) in (0, 2)


# --- numbers read from files ------------------------------------------------

# (file, path to the value, the new value or a function of the old one, what the log says)
NUMBER_RULE_CASES = [
    ("scenario", ("users",), lambda users: [[str(x), str(y)] for x, y in users],
     "s.json: 'users' must be a non-empty list of [x, y] pairs of numbers"),
    ("scenario", ("clustering", "k_max"), True, "clustering: 'k_max' must be an integer, got True"),
    ("scenario", ("clustering", "k_max"), 2.7, "clustering: 'k_max' must be an integer, got 2.7"),
    ("scenario", ("pcp",), {"parent_intensity_per_m2": 9e-6, "cluster_radius_m": 80.0, "mean_daughters": 36.0, "seed": "7"},
     "pcp: 'seed' must be an integer, got '7'"),
    ("scenario", ("environment", "name"), 5, "environment: 'name' must be a string, got 5"),
    ("plan", ("uavs", 0, "tx_power_dbm"), str, "uav 0: 'tx_power_dbm' must be a number, got '"),
    ("plan", ("uavs", 0, "beam_deg"), [True, True], "uav 0: 'beam_deg' must be a number, got True"),
    ("plan", ("uavs", 0, "footprint", "b"), lambda b: [str(v) for v in b], "uav 0: footprint: 'b' must be a number, got '"),
    ("plan", ("radio", "bandwidth_hz"), "20000000", "radio: 'bandwidth_hz' must be a number, got '20000000'"),
    ("manifest", ("overrides", "k_max"), True, "'overrides': 'k_max' must be an integer, got True"),
    ("manifest", ("overrides", "k_max"), "3", "'overrides': 'k_max' must be an integer, got '3'"),
    ("manifest", ("overrides", "k_max"), 2.7, "'overrides': 'k_max' must be an integer, got 2.7"),
    ("manifest", ("overrides", "snr_threshold_db"), "5", "'overrides': 'snr_threshold_db' must be a number, got '5'"),
]


@pytest.mark.parametrize("kind, path, value, message", NUMBER_RULE_CASES, ids=[
    "users-strings", "k_max-true", "k_max-2.7", "seed-string", "env-name-number", "tx_power-string", "beam-bools",
    "footprint-b-strings", "bandwidth-string", "override-k_max-true", "override-k_max-string", "override-k_max-2.7",
    "override-snr-string",
])
def test_a_value_of_the_wrong_json_type_exits_2_naming_it_before_writing(tmp_path, caplog, kind, path, value, message):
    # each once ran with a value the file did not hold: True as 1, 2.7 as 2, a string as its number
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    plan = tmp_path / "plan" / "plan.json"
    assert main(["deploy", str(scen), "--out-dir", str(plan.parent), "--method", "circle", "--num-uavs", "4"]) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "out", "scenarios": ["s.json"], "overrides": {}}))
    edited = {"scenario": scen, "plan": plan, "manifest": manifest}[kind]
    payload = json.loads(edited.read_text())
    *parents, key = path
    node = functools.reduce(operator.getitem, parents, payload)
    node[key] = value(node[key]) if callable(value) else value
    edited.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = {
        "scenario": ["deploy", str(scen), "--out-dir", str(out), "--method", "circle", "--num-uavs", "4"],
        "plan": ["evaluate", str(plan), str(scen), "--out-dir", str(out)],
        "manifest": ["sweep", str(manifest)],
    }[kind]
    assert main(argv) == 2
    assert message in caplog.text
    assert not out.exists()


def number_edits():
    """(file, path, literal) for every number of ``fuzz_base``: a bool or a string, or 2.5 where an int stands."""
    for name, payload in fuzz_base().items():
        for path in json_paths(payload):
            value = functools.reduce(operator.getitem, path, payload)
            if type(value) in (int, float):
                for literal in ["true", "false", '"1.5"'] + ["2.5"] * (type(value) is int):
                    yield name, path, literal


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.deferred(lambda: st.sampled_from(list(number_edits()))))
@example(("scenario", ("clustering", "k_max"), "true"))
@example(("scenario", ("users", 0, 1), '"1.5"'))
@example(("plan", ("uavs", 0, "beam_deg", 1), "true"))
def test_a_bool_or_string_in_place_of_a_number_exits_2(tmp_path_factory, edit):
    name, path, literal = edit
    work = tmp_path_factory.mktemp("numbers")
    files = {}
    for target, payload in fuzz_base().items():
        files[target] = work / f"{target}.json"
        files[target].write_text(mutated_text(payload, [(path, literal)] if target == name else []))
    if name == "scenario":
        argv = ["deploy", str(files["scenario"]), "--out-dir", str(work / "out"), "--method", "circle", "--num-uavs", "4"]
    else:
        argv = ["evaluate", str(files["plan"]), str(files["scenario"]), "--out-dir", str(work / "out")]
    assert main(argv) == 2


# --- sweep ------------------------------------------------------------------

def test_sweep_generates_runs_and_compares_methods(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "out_dir": "sweep_out",
        "generate": {"count": 2, "master_seed": 3},
        "methods": ["ellipse", "circle"],
        "circle": {"num_uavs": "match"},
    }))
    assert main(["sweep", str(manifest)]) == 0
    out = tmp_path / "sweep_out"
    assert sorted(p.name for p in (out / "scenarios").glob("*.json")) == ["scenario_000.json", "scenario_001.json"]

    runs = (out / "runs.csv").read_text().splitlines()
    assert runs[0].startswith("method,scenario,")
    assert len(runs) == 5  # header + 2 scenarios x 2 methods
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 3
    by_method = {line.split(",")[0]: line.split(",") for line in agg[1:]}
    assert set(by_method) == {"ellipse", "circle"}
    # matched cell counts mean both methods field the same fleet
    ellipse_uavs = float(by_method["ellipse"][5])
    circle_uavs = float(by_method["circle"][5])
    assert ellipse_uavs == circle_uavs
    assert float(by_method["ellipse"][2]) < float(by_method["circle"][2])


def test_sweep_runs_only_the_scenarios_its_generate_wrote(tmp_path):
    manifest = tmp_path / "manifest.json"
    for count in (2, 1):  # the second, smaller run leaves scenario_001.json behind
        manifest.write_text(json.dumps({"out_dir": "out", "generate": {"count": count}}))
        assert main(["sweep", str(manifest)]) == 0
    rows = (tmp_path / "out" / "runs.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["scenario_000.json"]


def test_sweep_reads_integral_floats_as_their_ints(tmp_path):
    write_scenario(tmp_path / "seven.json", two_blob_users(seed=2)[:7])
    tables = []
    for kind in (int, float):
        manifest = tmp_path / f"{kind.__name__}.json"
        manifest.write_text(json.dumps({
            "out_dir": kind.__name__,
            "scenarios": ["seven.json"],
            "generate": {"count": kind(1), "master_seed": kind(3), "width": 300.0, "height": 300.0, "mean_daughters": 4.0},
            "methods": ["circle", "brute"],
            "circle": {"num_uavs": kind(2)},
            "brute": {"num_uavs": kind(2)},
        }))
        assert main(["sweep", str(manifest)]) == 0
        tables.append([(tmp_path / kind.__name__ / name).read_bytes() for name in ("runs.csv", "aggregate.csv")])
    assert tables[0] == tables[1]
    assert b",bad_input," not in tables[0][0]


def test_sweep_accepts_existing_scenarios(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "res", "scenarios": ["one.json"]}))
    assert main(["sweep", str(manifest)]) == 0
    runs = (tmp_path / "res" / "runs.csv").read_text().splitlines()
    assert len(runs) == 2
    assert runs[1].split(",")[7] == "true"  # converged


def test_sweep_records_failed_runs_and_keeps_going(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    write_scenario(tmp_path / "two.json", two_blob_users(seed=2))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "out_dir": "res",
        "scenarios": ["one.json", "two.json"],
        "methods": ["ellipse", "circle"],
        "circle": {"num_uavs": "match", "beam_deg": 80},
    }))
    assert main(["sweep", str(manifest)]) == 4  # the first failure is an infeasible packing
    lines = (tmp_path / "res" / "runs.csv").read_text().splitlines()
    assert lines[0].endswith(",converged,status,error")
    rows = [line.split(",", 9) for line in lines[1:]]
    assert [(r[0], r[8]) for r in rows] == [
        ("ellipse", "ok"), ("circle", "infeasible"), ("ellipse", "ok"), ("circle", "infeasible"),
    ]
    assert all(r[9] == "" for r in rows if r[8] == "ok")
    assert all("exceeds the lattice radius" in r[9] for r in rows if r[8] != "ok")
    agg = {line.split(",")[0]: line.split(",") for line in (tmp_path / "res" / "aggregate.csv").read_text().splitlines()[1:]}
    assert agg["ellipse"][1] == "2" and agg["ellipse"][8] == "0"
    assert agg["circle"][1] == "2" and agg["circle"][8] == "2"
    assert agg["circle"][2] == ""  # no successful circle run to average


def test_sweep_brute_over_its_user_cap_exits_2_with_rows(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "res", "scenarios": ["one.json"], "methods": ["brute", "ellipse"]}))
    assert main(["sweep", str(manifest)]) == 2
    rows = [line.split(",", 9) for line in (tmp_path / "res" / "runs.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[8]) for r in rows] == [("brute", "bad_input"), ("ellipse", "ok")]
    assert "cap is 10" in rows[0][9]


def test_sweep_rejects_unknown_keys(tmp_path):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    for extra in ({"mystery": 1}, {"overrides": {"seed": 3}}, {"overrides": {"env": "lunar"}}, {"overrides": [1]}, {"circle": 5},
                  {"methods": "ellipse"}, {"methods": []}, {"methods": [["ellipse"]]},
                  {"overrides": {"snr_threshold_db": "nan"}}, {"scenarios": 5}, {"scenarios": [5]},
                  {"scenarios": "one.json"}, {"out_dir": 5}, {"overrides": {"h_max": [1]}}):
        manifest.write_text(json.dumps({"out_dir": "x", "scenarios": ["one.json"], **extra}))
        assert main(["sweep", str(manifest)]) == 2
    manifest.write_text("[1]")
    assert main(["sweep", str(manifest)]) == 2


def test_sweep_manifest_nested_too_deeply_exits_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[" * 100_000)
    assert main(["sweep", str(manifest)]) == 2


def test_sweep_needs_scenarios(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "x"}))
    assert main(["sweep", str(manifest)]) == 2


@pytest.mark.parametrize(
    "extra", [{"overrides": {"env": "lunar"}}, {"methods": ["bogus"]}, {"generate": {"count": 1, "width": -5}}]
)
def test_bad_sweep_manifest_exits_2_before_writing(tmp_path, extra):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "out", "generate": {"count": 1}, **extra}))
    assert main(["sweep", str(manifest)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block, key, value", [
    ("circle", "num_uavs", 1e400),
    ("circle", "num_uavs", [2]),
    ("circle", "fixed_altitude_m", [1]),
    ("circle", "beam_deg", {}),
    ("circle", "num_uavs", 2.7),
    ("circle", "fixed_power_dbm", 1e400),
    ("circle", "beam_deg", 10**400),
    ("brute", "num_uavs", 0),
], ids=["num-1e400", "num-list", "altitude-list", "beam-object", "num-2.7", "power-1e400", "beam-10**400", "brute-num-0"])
def test_sweep_method_block_is_checked_before_writing(tmp_path, caplog, block, key, value):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "out", "scenarios": ["one.json"], "methods": ["ellipse", block], block: {key: value}}))
    assert main(["sweep", str(manifest)]) == 2
    assert f"'{block}': '{key}' must be" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    # a list or object environment name once raised TypeError: unhashable type
    ({"overrides": {"env": ["urban"]}}, "'overrides': 'env' must be one of"),
    ({"overrides": {"env": {"a": 1}}}, "'overrides': 'env' must be one of"),
    ({"overrides": {"env": None}}, "'overrides': 'env' must be one of"),
    # unknown keys in these blocks were once ignored; brute reads only num_uavs
    ({"generate": {"count": 1, "mean_daughter": 5}}, "unknown 'generate' keys ['mean_daughter']"),
    ({"circle": {"num_uav": 2}}, "unknown 'circle' keys ['num_uav']"),
    ({"brute": {"num_uavs": 2, "beam_deg": 60}}, "unknown 'brute' keys ['beam_deg']"),
    # generate errors were argparse usage errors of a command never typed, which raised SystemExit
    ({"generate": {"count": True}}, "'generate': 'count' must be an integer in [0, 1000000], got True"),
    ({"generate": {"count": 2.5}}, "'generate': 'count' must be an integer, got 2.5"),
    ({"generate": {"master_seed": "7"}}, "'generate': 'master_seed' must be an integer in [0, inf], got '7'"),
    ({"generate": {"width": True}}, "'generate': 'width' must be a number, got True"),
    ({"generate": {"mean_daughters": "36"}}, "'generate': 'mean_daughters' must be a number, got '36'"),
    ({"generate": {"env": 3}}, "'generate': 'env' must be one of"),
    # a bad h_max once gave a message without its name, or failed every run
    ({"overrides": {"h_max": "abc"}}, "'overrides': 'h_max' must be a number, got 'abc'"),
    ({"overrides": {"h_max": True}}, "'overrides': 'h_max' must be a number, got True"),
    ({"overrides": {"h_max": "nan"}}, "'overrides': 'h_max' must be a number, got 'nan'"),
    ({"overrides": {"h_max": float("nan")}}, "'overrides': 'h_max' must be above 0, got nan"),
    ({"overrides": {"h_max": -5}}, "'overrides': 'h_max' must be above 0, got -5.0"),
], ids=["env-list", "env-object", "env-null", "generate-unknown", "circle-unknown", "brute-unknown", "count-true",
        "count-float", "seed-string", "width-true", "daughters-string", "generate-env-number", "h_max-abc", "h_max-true",
        "h_max-nan-string", "h_max-nan", "h_max-negative"])
def test_bad_sweep_block_value_exits_2_naming_it_before_writing(tmp_path, caplog, extra, message):
    write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "out", "scenarios": ["one.json"], **extra}))
    assert main(["sweep", str(manifest)]) == 2
    assert message in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("master_seed", -1), ("count", 2 * 10**21)])
@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_bad_seed_or_count_exits_2_naming_it_before_writing(tmp_path, caplog, command, key, value):
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--out-dir", str(out), f"--{key.replace('_', '-')}", str(value)]
        name = f"--{key.replace('_', '-')} must be an integer in [0, "
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"out_dir": "out", "generate": {key: value}}))
        argv = ["sweep", str(manifest)]
        name = f"'generate': '{key}' must be an integer in [0, "
    assert main(argv) == 2
    assert name in caplog.text
    assert not out.exists()


def test_sweep_infinite_h_max_plans_like_deploy(tmp_path):
    scen = write_scenario(tmp_path / "one.json", two_blob_users(seed=1))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "out", "scenarios": ["one.json"], "overrides": {"h_max": float("inf")}}))
    assert main(["sweep", str(manifest)]) == 0
    assert main(["deploy", str(scen), "--out-dir", str(tmp_path / "plan"), "--h-max", "inf"]) == 0
    row = (tmp_path / "out" / "runs.csv").read_text().splitlines()[1].split(",")
    assert float(row[4]) == json.loads((tmp_path / "plan" / "plan.json").read_text())["total_power_mw"]


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("key, value, name", [
    ("width", "1e400", "width_m"),
    ("width", "nan", "width_m"),
    ("height", "inf", "height_m"),
    ("mean_daughters", "inf", "mean_daughters"),
    ("mean_daughters", "nan", "mean_daughters"),
    ("parent_intensity_per_km2", "inf", "parent_intensity_per_m2"),
    ("parent_intensity_per_km2", "nan", "parent_intensity_per_m2"),
    ("cluster_radius", "inf", "cluster_radius_m"),
    ("cluster_radius", "nan", "cluster_radius_m"),
])
def test_non_finite_scenario_field_exits_2_naming_it_before_writing(tmp_path, caplog, command, key, value, name):
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--out-dir", str(out), f"--{key.replace('_', '-')}", value]
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"out_dir": "out", "generate": {"count": 1, key: float(value)}}))
        argv = ["sweep", str(manifest)]
    assert main(argv) == 2
    assert f"{name} must be finite" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("flags", [
    {"mean_daughters": 1e300},  # 9e300 users
    {"width": 1e200, "height": 1e200},  # the area overflows to inf
    {"parent_intensity_per_km2": 1e300, "mean_daughters": 1e-300},  # 1e300 parents, about one user
], ids=["daughters-1e300", "area-inf", "parents-1e300"])
def test_huge_expected_draw_exits_2_naming_the_flags_before_writing(tmp_path, caplog, command, flags):
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--out-dir", str(out)]
        for key, value in flags.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
    else:
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"out_dir": "out", "generate": {"count": 1, **flags}}))
        argv = ["sweep", str(manifest)]
    assert main(argv) == 2
    assert "--width x --height x --parent-intensity-per-km2 x --mean-daughters expect" in caplog.text
    assert not out.exists()


# --- sweep manifest fuzzer --------------------------------------------------

# scenario paths a fuzzed manifest lists: two good files, then bad ones ("dir" is a directory, "missing.json" is absent)
SWEEP_FILES = ("good_a.json", "good_b.json", "invalid.json", "outside.json", "dir", "missing.json")
SWEEP_USERS = {"good_a.json": 24, "good_b.json": 7}
# deep nesting, JSON nested too deeply to parse, and strings a manifest reads; of all the values only
# "0" and "drop" are valid generate counts, so no case writes more than two scenarios
MANIFEST_FUZZ_VALUES = FUZZ_VALUES + [
    "[" * 50 + "]" * 50, '{"a": ' * 50 + "1" + "}" * 50, "[" * 100_000 + "]" * 100_000, '"match"', '"dense-urban"',
]


def sweep_manifest(scenarios) -> dict:
    """A manifest that sets every key of every block."""
    return {
        "out_dir": "out",
        "scenarios": list(scenarios),
        "generate": {"count": 2, "master_seed": 0, "width": 300.0, "height": 300.0, "parent_intensity_per_km2": 20.0,
                     "cluster_radius": 40.0, "mean_daughters": 4.0, "env": "urban"},
        "methods": ["ellipse", "circle", "brute"],
        "overrides": {"h_max": 1000.0, "env": "suburban", "carrier_frequency_hz": 2e9, "bandwidth_hz": 2e7,
                      "snr_threshold_db": 0.0, "noise_psd_dbm_hz": -170.0, "k_max": 6, "max_outer_iterations": 50},
        "circle": {"num_uavs": "match", "beam_deg": 30.0, "fixed_altitude_m": 100.0, "fixed_power_dbm": 30.0},
        "brute": {"num_uavs": 2},
    }


def write_sweep_files(work: Path) -> None:
    write_scenario(work / "good_a.json", two_blob_users(seed=1), k_max=6)
    write_scenario(work / "good_b.json", two_blob_users(seed=2)[:7], k_max=6)
    (work / "invalid.json").write_text("{")
    outside = json.loads((work / "good_a.json").read_text())
    outside["users"][3] = [5000.0, 5000.0]
    (work / "outside.json").write_text(json.dumps(outside))
    (work / "dir").mkdir()


sweep_cases = st.lists(st.sampled_from(SWEEP_FILES), max_size=3).flatmap(lambda names: st.tuples(
    st.just(names),
    st.lists(st.tuples(st.sampled_from(list(json_paths(sweep_manifest(names)))), st.sampled_from(MANIFEST_FUZZ_VALUES)),
             max_size=3),
))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sweep_cases)
@example((["good_a.json", "invalid.json", "good_b.json"], []))
@example((["good_a.json"], [(("overrides", "env"), '["urban"]')]))
@example((["good_a.json"], [(("generate", "mean_daughter"), "5")]))
@example((["good_b.json"], [(("circle", "num_uav"), "2")]))
@example((["good_a.json"], [(("generate", "count"), "true")]))
@example((["good_a.json"], [(("generate", "master_seed"), "-1")]))
@example((["good_a.json"], [(("overrides", "h_max"), '"nan"')]))
@example((["good_a.json"], [(("overrides", "h_max"), "Infinity")]))
def test_mutated_sweep_manifests_exit_with_a_cli_code(tmp_path_factory, case):
    names, edits = case
    work = tmp_path_factory.mktemp("sweep")
    write_sweep_files(work)
    manifest = work / "manifest.json"
    text = mutated_text(sweep_manifest(names), edits)
    manifest.write_text(text)
    try:
        _read_manifest(manifest)
    except ValueError:  # rejected by the decode: nothing is written
        before = sorted(work.rglob("*"))
        assert main(["sweep", str(manifest)]) == 2
        assert sorted(work.rglob("*")) == before
        return
    code = main(["sweep", str(manifest)])
    assert code in (0, 2, 3, 4)
    payload = json.loads(text)
    runs = manifest.parent / payload["out_dir"] / "runs.csv"
    if not runs.exists():  # generate failed, or out_dir is a file
        assert code == 2
        return
    count = payload["generate"].get("count", 1) if "generate" in payload else 0
    scenarios = [Path(p).name for p in payload.get("scenarios", [])] + [f"scenario_{i:03d}.json" for i in range(count)]
    methods = payload.get("methods", ["ellipse"])
    with runs.open(newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert [(r[0], r[1]) for r in rows] == [(m, s) for s in scenarios for m in methods]
    for method, scenario, num_users, *_, status, error in rows:
        if scenario in SWEEP_USERS:  # a good file keeps its rows whatever the bad ones do
            assert num_users == str(SWEEP_USERS[scenario])
        elif scenario in SWEEP_FILES:
            assert (num_users, status) == ("", "bad_input") and error


def test_console_entry_point_help():
    src = str(Path(uavcell.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "uavcell.cli", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    for sub in ("generate", "deploy", "evaluate", "sweep"):
        assert sub in proc.stdout


def test_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b"], [[np.float64(0.1), np.int64(3)]])
    assert path.read_bytes() == b"a,b\n0.1,3\n"


@pytest.mark.parametrize("runs", [False, True])
def test_importing_the_cli_loads_no_scipy(tmp_path, runs):
    # generate, evaluate and deploy --method circle call no scipy function, and
    # only ellipse clustering forks select_k's helper, so neither the import
    # nor generate and deploy --method circle or brute load multiprocessing
    src = str(Path(uavcell.__file__).resolve().parents[1])
    scen = tmp_path / "scenarios" / "scenario_000.json"
    commands = [
        ["generate", "--out-dir", str(scen.parent), "--mean-daughters", "3", "--width", "300", "--height", "300"],
        ["deploy", str(scen), "--out-dir", str(tmp_path / "circle"), "--method", "circle", "--num-uavs", "2"],
        ["deploy", str(scen), "--out-dir", str(tmp_path / "brute"), "--method", "brute"],
    ] if runs else []
    code = (
        "import sys, uavcell.cli\n"
        "from uavcell import clustering\n"
        f"assert [uavcell.cli.main(argv) for argv in {commands!r}] == [0] * {len(commands)}\n"
        "assert clustering._HELPER.proc is None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert all((tmp_path / method / "plan.json").exists() for method in ("circle", "brute")) == runs
