import math

import numpy as np
import pytest

from uavcell.channel import (
    ENVIRONMENTS,
    SPEED_OF_LIGHT,
    Beam,
    Environment,
    RadioConfig,
    antenna_gain_db,
    avg_path_loss,
    avg_path_loss_array,
    dbm_to_mw,
)
from uavcell.channel import _fspl_db, _los_probability

RADIO = RadioConfig()


def test_fspl_reference_value():
    assert _fspl_db(math, 1000.0, 2.0e9) == pytest.approx(98.47, abs=0.01)


def test_fspl_doubling_adds_six_db():
    base = _fspl_db(math, 500.0, 2.0e9)
    assert _fspl_db(math, 1000.0, 2.0e9) - base == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


def test_fspl_zero_crossing_distance():
    d = SPEED_OF_LIGHT / (4.0 * math.pi * 2.0e9)
    assert _fspl_db(math, d, 2.0e9) == pytest.approx(0.0, abs=1e-9)


def test_gain_reference_value():
    assert antenna_gain_db(Beam(30.0, 30.0)) == pytest.approx(15.23, abs=0.01)


def test_gain_formula():
    assert antenna_gain_db(Beam(50.0, 30.0)) == pytest.approx(10.0 * math.log10(20.0), abs=1e-12)


def test_gain_narrower_beam_is_stronger():
    assert antenna_gain_db(Beam(10.0, 10.0)) > antenna_gain_db(Beam(20.0, 20.0))


def test_beam_validation():
    Beam(30.0, 30.0)  # equal widths are fine
    with pytest.raises(ValueError):
        Beam(20.0, 30.0)  # theta2 may not exceed theta1
    with pytest.raises(ValueError):
        Beam(30.0, 0.0)
    with pytest.raises(ValueError):
        Beam(90.0, 30.0)


def test_environment_table():
    assert set(ENVIRONMENTS) == {"suburban", "urban", "dense-urban", "high-rise"}
    assert (ENVIRONMENTS["suburban"].sigmoid_a, ENVIRONMENTS["suburban"].sigmoid_b) == (4.88, 0.43)
    assert (ENVIRONMENTS["urban"].sigmoid_a, ENVIRONMENTS["urban"].sigmoid_b) == (9.61, 0.16)
    assert (ENVIRONMENTS["dense-urban"].sigmoid_a, ENVIRONMENTS["dense-urban"].sigmoid_b) == (12.08, 0.11)
    assert (ENVIRONMENTS["high-rise"].sigmoid_a, ENVIRONMENTS["high-rise"].sigmoid_b) == (27.23, 0.08)
    for env in ENVIRONMENTS.values():
        assert env.excess_los_db == 3.0
        assert env.excess_nlos_db == 34.0


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment("bad", -1.0, 0.5)
    with pytest.raises(ValueError):
        Environment("bad", 1.0, 0.5, excess_los_db=40.0, excess_nlos_db=34.0)


def test_los_probability_urban_midslope():
    # hand-evaluated sigmoid at a 45 degree elevation
    assert _los_probability(math, 100.0, 100.0, ENVIRONMENTS["urban"]) == pytest.approx(0.9677, abs=1e-4)


def test_los_probability_monotone_in_elevation():
    env = ENVIRONMENTS["dense-urban"]
    probs = [_los_probability(math, h, 400.0, env) for h in np.linspace(10.0, 2000.0, 100)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    probs_r = [_los_probability(math, 300.0, r, env) for r in np.linspace(0.0, 2000.0, 100)]
    assert all(b < a for a, b in zip(probs_r, probs_r[1:]))


def test_los_probability_bounds_and_errors():
    for env in ENVIRONMENTS.values():
        p = _los_probability(math, 150.0, 560.0, env)  # 15 degree elevation
        assert 0.0 < p < 1.0
    # the link checks run before the loss, which holds the probability
    with pytest.raises(ValueError):
        avg_path_loss(0.0, 100.0, ENVIRONMENTS["urban"], RADIO)
    with pytest.raises(ValueError):
        avg_path_loss(100.0, -1.0, ENVIRONMENTS["urban"], RADIO)


def test_overhead_link_collapses_to_los_branch():
    # directly overhead in suburban the sigmoid saturates, leaving pure LoS
    env = ENVIRONMENTS["suburban"]
    h = 200.0
    got = avg_path_loss(h, 0.0, env, RADIO)
    want = 10.0 ** (_fspl_db(math, h, RADIO.carrier_frequency_hz) / 10.0) * 10.0 ** (env.excess_los_db / 10.0)
    assert got == pytest.approx(want, rel=1e-9)


def test_avg_path_loss_monotone_in_radius():
    for env in ENVIRONMENTS.values():
        vals = [avg_path_loss(300.0, r, env, RADIO) for r in np.arange(0.0, 1001.0, 10.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_avg_path_loss_unimodal_in_altitude():
    # at most one descent-to-ascent switch; the minimum may sit on a boundary
    for env in ENVIRONMENTS.values():
        vals = np.array([avg_path_loss(h, 500.0, env, RADIO) for h in np.arange(1.0, 6000.0, 1.0)])
        signs = np.sign(np.diff(vals))
        signs = signs[signs != 0.0]
        assert np.count_nonzero(np.diff(signs)) <= 1
    # suburban at this radius has the classic interior minimum
    vals = np.array([avg_path_loss(h, 500.0, ENVIRONMENTS["suburban"], RADIO) for h in np.arange(1.0, 2000.0, 1.0)])
    signs = np.sign(np.diff(vals))
    signs = signs[signs != 0.0]
    assert signs[0] < 0 and signs[-1] > 0


def test_avg_path_loss_env_ordering():
    vals = [avg_path_loss(300.0, 500.0, ENVIRONMENTS[n], RADIO) for n in ("suburban", "urban", "dense-urban", "high-rise")]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_heavier_nlos_excess_never_helps():
    heavy = Environment("urban", 9.61, 0.16, excess_nlos_db=40.0)
    for r in np.arange(0.0, 1001.0, 50.0):
        assert avg_path_loss(300.0, r, heavy, RADIO) >= avg_path_loss(300.0, r, ENVIRONMENTS["urban"], RADIO)


def test_beam_gain_divides_out():
    beam = Beam(40.0, 25.0)
    bare = avg_path_loss(300.0, 400.0, ENVIRONMENTS["urban"], RADIO)
    with_gain = avg_path_loss(300.0, 400.0, ENVIRONMENTS["urban"], RADIO, beam)
    assert bare / with_gain == pytest.approx(dbm_to_mw(antenna_gain_db(beam)), rel=1e-12)


def test_array_path_loss_matches_the_scalar_one_without_numpy_2_names(monkeypatch):
    monkeypatch.delattr(np, "atan2")  # numpy before 2.0 spells it arctan2 only
    beam, env = Beam(40.0, 25.0), ENVIRONMENTS["urban"]
    radii = np.arange(0.0, 1001.0, 50.0)
    want = [avg_path_loss(300.0, r, env, RADIO, beam) for r in radii]
    np.testing.assert_allclose(avg_path_loss_array(300.0, radii, env, RADIO, beam), want, rtol=1e-12)


def test_power_unit_round_trip():
    for dbm in (-30.0, 0.0, 23.0, 46.0):
        assert 10.0 * math.log10(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-12)
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-15)


def test_noise_power():
    assert RADIO.noise_power_dbm() == pytest.approx(-96.9897, abs=1e-4)


def test_radio_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        RadioConfig(carrier_frequency_hz=-1.0)


@pytest.mark.parametrize("name", ["carrier_frequency_hz", "noise_psd_dbm_hz", "bandwidth_hz", "snr_threshold_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_radio_config_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RadioConfig(**{name: value})


@pytest.mark.parametrize("name", ["sigmoid_a", "sigmoid_b", "excess_los_db", "excess_nlos_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_environment_rejects_non_finite_fields(name, value):
    fields = {"sigmoid_a": 9.61, "sigmoid_b": 0.16, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Environment("urban", **fields)
