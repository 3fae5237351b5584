"""Air-to-ground link budget: directional gain, FSPL and LoS/NLoS mixing."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Beam",
    "Environment",
    "ENVIRONMENTS",
    "RadioConfig",
    "antenna_gain_db",
    "avg_path_loss",
    "dbm_to_mw",
    "optimal_elevation_rad",
]

SPEED_OF_LIGHT = 299_792_458.0
# peak gain numerator for half-power beamwidths expressed in degrees
PEAK_GAIN_NUMERATOR = 30_000.0


@dataclass(frozen=True)
class Environment:
    """Propagation environment: LoS sigmoid shape and excess losses in dB."""

    name: str
    sigmoid_a: float
    sigmoid_b: float
    excess_los_db: float = 3.0
    excess_nlos_db: float = 34.0

    def __post_init__(self) -> None:
        if bad := [f.name for f in fields(self)[1:] if not math.isfinite(getattr(self, f.name))]:
            raise ValueError(f"{bad[0]} must be finite")
        if self.sigmoid_a <= 0.0 or self.sigmoid_b <= 0.0:
            raise ValueError("sigmoid constants must be positive")
        if not 0.0 <= self.excess_los_db <= self.excess_nlos_db:
            raise ValueError("excess losses must satisfy 0 <= LoS <= NLoS")


ENVIRONMENTS: dict[str, Environment] = {
    "suburban": Environment("suburban", 4.88, 0.43),
    "urban": Environment("urban", 9.61, 0.16),
    "dense-urban": Environment("dense-urban", 12.08, 0.11),
    "high-rise": Environment("high-rise", 27.23, 0.08),
}


@dataclass(frozen=True)
class RadioConfig:
    """Link-level constants shared by every UAV in a deployment."""

    carrier_frequency_hz: float = 2.0e9
    noise_psd_dbm_hz: float = -170.0
    bandwidth_hz: float = 20.0e6
    snr_threshold_db: float = 0.0

    def __post_init__(self) -> None:
        if bad := [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]:
            raise ValueError(f"{bad[0]} must be finite")
        if self.carrier_frequency_hz <= 0.0:
            raise ValueError("carrier frequency must be positive")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")

    def noise_power_dbm(self) -> float:
        return self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)


@dataclass(frozen=True)
class Beam:
    """Directional antenna main lobe, half-power half-widths in degrees."""

    theta1_deg: float  # along the footprint major axis
    theta2_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta2_deg <= self.theta1_deg < 90.0:
            raise ValueError("beam half-widths must satisfy 0 < theta2 <= theta1 < 90")


def antenna_gain_db(beam: Beam) -> float:
    """Main-lobe gain in dB; outside the lobe callers treat the gain as zero."""
    return 10.0 * math.log10(PEAK_GAIN_NUMERATOR / (beam.theta1_deg * beam.theta2_deg))


def avg_path_loss(
    altitude_m: float,
    horizontal_m: float,
    env: Environment,
    radio: RadioConfig,
    beam: Beam | None = None,
) -> float:
    """Probability-weighted path loss as a linear power ratio (>= 0).

    The LoS and NLoS branches share one free-space term and the antenna gain;
    pass ``beam=None`` to leave the gain out (the loss the altitude minimizes,
    since the beam is not yet known there).
    """
    _check_link(altitude_m, horizontal_m)
    return _avg_path_loss(math, altitude_m, horizontal_m, env, radio, beam)


def avg_path_loss_array(
    altitude_m: float, horizontal_m: np.ndarray, env: Environment, radio: RadioConfig, beam: Beam | None = None
) -> np.ndarray:
    """``avg_path_loss`` toward every entry of ``horizontal_m`` at once.

    The formula is the scalar one evaluated with numpy's elementwise
    functions, which may differ from ``math``'s in the last ulp.
    """
    _check_link(altitude_m, np.min(horizontal_m, initial=0.0))
    return _avg_path_loss(np, altitude_m, horizontal_m, env, radio, beam)


@functools.cache
def optimal_elevation_rad(env: Environment) -> float:
    """Cell-edge elevation angle minimizing the gain-free path loss in ``env``.

    At h = R tan(theta) the loss is R^2 mix(theta) / cos^2(theta) up to a
    constant, so R and the carrier do not move the optimum (Al-Hourani et
    al., IEEE WCL 2014).  In theta the loss falls at 0 and rises at pi/2, so
    bisection finds its minimum down to adjacent floats, which always ends.
    """
    los, nlos = _ratio(env.excess_los_db, "excess_los_db"), _ratio(env.excess_nlos_db, "excess_nlos_db")
    rise = (nlos - los) * env.sigmoid_b * math.degrees(1.0)  # -d(mix)/d(theta) = rise p (1 - p)

    lo, hi = 0.0, math.pi / 2.0
    while lo < (theta := 0.5 * (lo + hi)) < hi:
        p = _los_probability(math, math.sin(theta), math.cos(theta), env)
        falling = 2.0 * math.tan(theta) * (nlos - p * (nlos - los)) < rise * p * (1.0 - p)
        lo, hi = (theta, hi) if falling else (lo, theta)
    return hi


def _check_link(altitude_m: float, horizontal_m: float) -> None:
    if altitude_m <= 0.0:
        raise ValueError("altitude must be positive")
    if horizontal_m < 0.0:
        raise ValueError("horizontal distance must be non-negative")


# The link budget, written once for both paths: ``xp`` is ``math`` for one
# user and ``numpy`` for an array of users.

def _fspl_db(xp, distance_m, frequency_hz):
    return 20.0 * xp.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


def _los_probability(xp, altitude_m, horizontal_m, env: Environment):
    atan2 = math.atan2 if xp is math else xp.arctan2  # numpy spells it atan2 only from 2.0
    elevation_deg = xp.degrees(atan2(altitude_m, horizontal_m))
    try:
        return 1.0 / (1.0 + env.sigmoid_a * xp.exp(-env.sigmoid_b * (elevation_deg - env.sigmoid_a)))
    except (OverflowError, FloatingPointError):  # from math.exp, or numpy's under np.errstate(over="raise")
        raise ValueError(f"the LoS sigmoid of {env} is beyond the float range") from None


def _avg_path_loss(xp, altitude_m, horizontal_m, env: Environment, radio: RadioConfig, beam: Beam | None):
    base_db = _fspl_db(xp, xp.hypot(altitude_m, horizontal_m), radio.carrier_frequency_hz)
    if beam is not None:
        base_db -= antenna_gain_db(beam)
    p_los = _los_probability(xp, altitude_m, horizontal_m, env)
    try:
        mix = p_los * 10.0 ** (env.excess_los_db / 10.0) + (1.0 - p_los) * 10.0 ** (env.excess_nlos_db / 10.0)
        return 10.0 ** (base_db / 10.0) * mix
    except OverflowError:  # only a float's ratio raises; excess_los_db <= excess_nlos_db, so one of these does
        _ratio(env.excess_nlos_db, "excess_nlos_db")
        _ratio(base_db, "path loss (dB)")
        raise


def dbm_to_mw(power_dbm: float) -> float:
    return _ratio(power_dbm, "transmit power (dBm)")


def _ratio(db: float, name: str) -> float:
    """10^(db / 10); a ratio beyond the float range, or an infinite one, raises ValueError naming ``name``."""
    try:
        if (ratio := 10.0 ** (db / 10.0)) != math.inf:
            return ratio
    except OverflowError:
        pass
    raise ValueError(f"{name} = {db!r} gives a power ratio beyond the float range")
