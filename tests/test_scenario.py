import dataclasses
import json

import numpy as np
import pytest

from oracles import pcp_retention_fraction
from uavcell.channel import ENVIRONMENTS, RadioConfig
from uavcell.clustering import ClusteringConfig
from uavcell.scenario import (
    PcpConfig,
    Region,
    Scenario,
    ScenarioFormatError,
    dump_canonical_json,
    generate_pcp,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

REGION = Region()


def make_scenario(seed=0):
    cfg = PcpConfig(seed=seed)
    return Scenario(
        region=REGION,
        users=generate_pcp(REGION, cfg),
        environment=ENVIRONMENTS["urban"],
        radio=RadioConfig(),
        clustering=ClusteringConfig(),
        pcp=cfg,
    )


# --- point process ----------------------------------------------------------

def test_generation_is_deterministic():
    a = generate_pcp(REGION, PcpConfig(seed=42))
    b = generate_pcp(REGION, PcpConfig(seed=42))
    np.testing.assert_array_equal(a, b)
    c = generate_pcp(REGION, PcpConfig(seed=43))
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_generated_users_stay_in_region():
    region = Region(width_m=600.0, height_m=400.0)
    for seed in range(10):
        pts = generate_pcp(region, PcpConfig(seed=seed))
        assert pts.ndim == 2 and pts.shape[1] == 2
        assert (pts[:, 0] >= 0.0).all() and (pts[:, 0] <= 600.0).all()
        assert (pts[:, 1] >= 0.0).all() and (pts[:, 1] <= 400.0).all()


def test_empty_realization_keeps_shape():
    pts = generate_pcp(REGION, PcpConfig(parent_intensity_per_m2=1e-12, seed=0))
    assert pts.shape == (0, 2)


def test_mean_count_matches_thinned_intensity():
    # expected count = parents * daughters, thinned by the edge losses of
    # daughter disks poking outside the region
    cfg = PcpConfig()
    counts = np.array([len(generate_pcp(REGION, dataclasses.replace(cfg, seed=s))) for s in range(4000)])
    retention = pcp_retention_fraction(REGION.width_m, REGION.height_m, cfg.cluster_radius_m)
    want = cfg.parent_intensity_per_m2 * REGION.area_m2 * cfg.mean_daughters * retention
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - want) < 3.0 * se


# --- file format ------------------------------------------------------------

def test_round_trip_preserves_everything(tmp_path):
    scenario = make_scenario(seed=11)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.region == scenario.region
    np.testing.assert_array_equal(loaded.users, scenario.users)
    assert loaded.environment == scenario.environment
    assert loaded.radio == scenario.radio
    assert loaded.clustering == scenario.clustering
    assert loaded.pcp == scenario.pcp


def test_serialization_is_canonical(tmp_path):
    scenario = make_scenario(seed=12)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(scenario, path_a)
    save_scenario(load_scenario(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_pcp_block_is_optional(tmp_path):
    scenario = dataclasses.replace(make_scenario(), pcp=None)
    path = tmp_path / "bare.json"
    save_scenario(scenario, path)
    payload = json.loads(path.read_text())
    assert "pcp" not in payload
    assert load_scenario(path).pcp is None


def test_missing_field_is_named():
    for block, key in ((None, "environment"), ("radio", "bandwidth_hz"), ("environment", "excess_los_db"), ("pcp", "seed")):
        payload = scenario_to_dict(make_scenario())
        del (payload if block is None else payload[block])[key]
        with pytest.raises(ScenarioFormatError, match=f"missing required field '{key}'") as info:
            scenario_from_dict(payload)
        assert info.value.field_name == key


@pytest.mark.parametrize("block, value", [
    ("radio", {"bandwidth_hz": "wide"}),
    ("environment", {"sigmoid_a": None}),
    ("clustering", {"k_max": 0}),
    ("region", [1000.0, 1000.0]),
])
def test_malformed_block_is_rejected(block, value):
    payload = scenario_to_dict(make_scenario())
    if isinstance(value, dict):
        payload[block].update(value)
    else:
        payload[block] = value
    with pytest.raises(ScenarioFormatError, match=f"scenario: {block}: "):
        scenario_from_dict(payload)


def test_values_are_coerced_to_field_types():
    payload = scenario_to_dict(make_scenario())
    payload["clustering"]["k_max"] = 6.0
    payload["radio"]["bandwidth_hz"] = 10
    scenario = scenario_from_dict(payload)
    assert type(scenario.clustering.k_max) is int and scenario.clustering.k_max == 6
    assert type(scenario.radio.bandwidth_hz) is float
    # no config field can be NaN or infinite, whether spelled as a string or a JSON literal
    for value in ("nan", "inf", "-inf", float("nan"), float("inf")):
        for block, key in (("radio", "snr_threshold_db"), ("environment", "sigmoid_a"), ("clustering", "k_max")):
            payload = scenario_to_dict(make_scenario())
            payload[block][key] = value
            with pytest.raises(ScenarioFormatError, match=f"{block}: .*'{key}'") as err:
                scenario_from_dict(json.loads(json.dumps(payload)))
            assert err.value.field_name == key


def test_unknown_field_warns_but_loads():
    # old files carry clustering.rng_seed, which no algorithm reads
    for block, key in ((None, "operator_notes"), ("clustering", "rng_seed"), ("radio", "gain_db")):
        payload = scenario_to_dict(make_scenario())
        (payload if block is None else payload[block])[key] = 3
        with pytest.warns(UserWarning, match=f"ignoring unknown field '{key}'"):
            scenario = scenario_from_dict(payload)
        assert len(scenario.users) > 0
        assert scenario.clustering == ClusteringConfig()


def test_out_of_region_user_is_rejected():
    payload = scenario_to_dict(make_scenario())
    payload["users"][1] = [2000.0, 50.0]
    with pytest.raises(ScenarioFormatError, match="user 1 lies outside the region"):
        scenario_from_dict(payload)


def test_empty_user_list_is_rejected():
    payload = scenario_to_dict(make_scenario())
    payload["users"] = []
    with pytest.raises(ScenarioFormatError, match="non-empty list"):
        scenario_from_dict(payload)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"region": }')
    with pytest.raises(ScenarioFormatError, match="invalid JSON at line 1"):
        load_scenario(path)


def test_canonical_dump_sorts_keys():
    text = dump_canonical_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# --- config validation ------------------------------------------------------

def test_region_validation():
    with pytest.raises(ValueError):
        Region(width_m=0.0)
    with pytest.raises(ValueError):
        Region(height_m=-5.0)
    assert Region(width_m=200.0, height_m=300.0).area_m2 == 60000.0


def test_pcp_config_validation():
    with pytest.raises(ValueError):
        PcpConfig(parent_intensity_per_m2=0.0)
    with pytest.raises(ValueError):
        PcpConfig(cluster_radius_m=-1.0)
    with pytest.raises(ValueError):
        PcpConfig(mean_daughters=0.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("cls, name", [
    (Region, "width_m"),
    (Region, "height_m"),
    (PcpConfig, "parent_intensity_per_m2"),
    (PcpConfig, "cluster_radius_m"),
    (PcpConfig, "mean_daughters"),
])
def test_region_and_pcp_config_reject_non_finite_fields_by_name(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**{name: value})
