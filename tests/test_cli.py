import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from uavcell.baseline import brute_force_optimum
from uavcell.channel import ENVIRONMENTS, RadioConfig
from uavcell.cli import _write_csv, main, plan_from_dict, plan_scenario, plan_to_dict
from uavcell.clustering import ClusteringConfig
from uavcell.scenario import Region, Scenario, dump_canonical_json, load_scenario, save_scenario

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


def test_evaluate_missing_plan(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    assert main(["evaluate", str(tmp_path / "missing.json"), str(scen), "--out-dir", str(tmp_path / "o")]) == 2


def test_deploy_and_evaluate_on_a_directory_exit_2(tmp_path):
    scen = write_scenario(tmp_path / "s.json", two_blob_users())
    out = str(tmp_path / "o")
    assert main(["deploy", str(tmp_path), "--out-dir", out]) == 2
    assert main(["evaluate", str(tmp_path), str(scen), "--out-dir", out]) == 2


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


def test_sweep_needs_scenarios(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"out_dir": "x"}))
    assert main(["sweep", str(manifest)]) == 2


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "uavcell.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for sub in ("generate", "deploy", "evaluate", "sweep"):
        assert sub in proc.stdout


def test_csv_writes_numpy_scalars_as_plain_numbers(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b"], [[np.float64(0.1), np.int64(3)]])
    assert path.read_bytes() == b"a,b\n0.1,3\n"
