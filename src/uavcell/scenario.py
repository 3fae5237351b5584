"""Scenario generation and the scenario file format.

User positions follow a Matern-style Poisson cluster process: Poisson parent
count, parents uniform over the region, Poisson-many daughters per parent
placed uniformly in a disk, everything falling outside the region dropped.
All randomness flows through one seeded PCG64 generator, so a scenario is a
pure function of its config.
"""

from __future__ import annotations

import io
import json
import math
import re
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import get_type_hints

import numpy as np
import orjson

from .channel import Environment, RadioConfig
from .clustering import ClusteringConfig

__all__ = [
    "PcpConfig",
    "Region",
    "Scenario",
    "ScenarioFormatError",
    "config_from_dict",
    "generate_pcp",
    "json_value",
    "load_scenario",
    "read_json",
    "save_scenario",
]


class ScenarioFormatError(ValueError):
    """Scenario file rejected; carries the offending field when known."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


@dataclass(frozen=True)
class Region:
    width_m: float = 1000.0
    height_m: float = 1000.0

    def __post_init__(self) -> None:
        if bad := [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]:
            raise ValueError(f"{bad[0]} must be finite")
        if self.width_m <= 0.0 or self.height_m <= 0.0:
            raise ValueError("region sides must be positive")

    @property
    def area_m2(self) -> float:
        return self.width_m * self.height_m

    def holds(self, points: np.ndarray) -> np.ndarray:
        """True where a point of the (n, 2) array lies in [0, width] x [0, height]."""
        x, y = points[:, 0], points[:, 1]
        return (x >= 0.0) & (x <= self.width_m) & (y >= 0.0) & (y <= self.height_m)


@dataclass(frozen=True)
class PcpConfig:
    parent_intensity_per_m2: float = 9e-6
    cluster_radius_m: float = 80.0
    mean_daughters: float = 36.0
    seed: int = 0

    def __post_init__(self) -> None:
        if bad := [f.name for f in fields(self)[:-1] if not math.isfinite(getattr(self, f.name))]:  # all but the seed
            raise ValueError(f"{bad[0]} must be finite")
        if self.parent_intensity_per_m2 <= 0.0:
            raise ValueError("parent intensity must be positive")
        if self.cluster_radius_m <= 0.0:
            raise ValueError("cluster radius must be positive")
        if self.mean_daughters <= 0.0:
            raise ValueError("mean daughters must be positive")


@dataclass
class Scenario:
    region: Region
    users: np.ndarray
    environment: Environment
    radio: RadioConfig
    clustering: ClusteringConfig
    pcp: PcpConfig | None = field(default=None)


def generate_pcp(region: Region, cfg: PcpConfig) -> np.ndarray:
    """Draw one realization of the cluster process; may be empty."""
    rng = np.random.default_rng(cfg.seed)
    n_parents = int(rng.poisson(cfg.parent_intensity_per_m2 * region.area_m2))
    parents = rng.uniform((0.0, 0.0), (region.width_m, region.height_m), (n_parents, 2))
    counts = rng.poisson(cfg.mean_daughters, n_parents)
    total = int(counts.sum())
    # uniform over the disk: radius via sqrt of a uniform draw
    radii = cfg.cluster_radius_m * np.sqrt(rng.uniform(size=total))
    angles = rng.uniform(0.0, 2.0 * math.pi, total)
    offsets = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts = np.repeat(parents, counts, axis=0) + offsets
    return pts[region.holds(pts)]


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as canonical JSON (sorted keys, fixed layout)."""
    Path(path).write_text(dump_canonical_json(_scenario_payload(scenario)), encoding="utf-8")


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path), source=str(path))


def read_json(path):
    """The JSON value in the file at ``path``; text that is not JSON, that nests deeper than the
    parser can recurse or that holds an int too long to convert raises ScenarioFormatError.

    Text that ``_plain_json`` passes is parsed by ``orjson``, which returns ``json.loads``'s
    value for it; any other text, and any that orjson rejects (NaN, 1e400, a syntax error), goes
    to ``json.loads`` as ``read_text`` decodes it, so values and messages are ``json``'s."""
    data = Path(path).read_bytes()
    if _plain_json(data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()  # read_text's decoding and newlines
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioFormatError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:  # an int literal longer than int() converts
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc


# digits and "-" to 9, every other byte to a space: twenty 9s in a row are an int literal of 20
# digits, or of "-" and 19, either of which may lie outside [-2**63, 2**64 - 1]
_NUMBER_RUNS = bytes(57 if 48 <= b <= 57 or b == 45 else 32 for b in range(256))
# "[" and "{" to the byte 1, "]" and "}" to 255 (-1 as an int8), the quote kept and every other byte
# deleted: what is left between pairs of quotes is in a string, the rest sums to the depth
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff"), bytes(sorted(set(range(256)) - set(b'[]{}"')))
_MAX_PLAIN_DEPTH = 100  # far below the ~1000 levels at which json.loads raises RecursionError


def _plain_json(data: bytes) -> bool:
    """True when ``orjson.loads(data)`` gives ``json.loads``'s value or rejects the text.

    The text holds no backslash, so every quote opens or closes a string and
    no escape (such as a lone ``\\ud800``, which json reads and orjson rejects)
    is met; no run of 20 digits and no "-" before 19, so every int literal
    lies in [-2**63, 2**64 - 1], which orjson reads as an int, not a float;
    and outside strings it nests at most ``_MAX_PLAIN_DEPTH`` brackets deep
    and never closes more than it opened.  orjson 3.8 has no depth limit of
    its own (a million levels crash the process), and json raises
    RecursionError near a thousand.
    """
    if b"\\" in data or b"9" * 20 in data.translate(_NUMBER_RUNS):
        return False
    steps = b"".join(data.translate(*_DEPTH_STEPS).split(b'"')[::2])  # those outside strings
    depth = np.cumsum(np.frombuffer(steps, dtype=np.int8))
    return not depth.size or 0 <= depth.min() and depth.max() <= _MAX_PLAIN_DEPTH


def dump_canonical_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte, with
    every numpy array in ``payload`` read as its ``tolist()``.

    ``json`` encodes in pure Python whenever ``indent`` is set; this walks the
    payload by the same rules, writes a list of ints (cell members) with one
    join and a float array (users) with one ``float_array_json`` call.  Unlike
    ``json`` it does not look for containers that hold themselves.
    """
    out = []
    _encode(payload, "\n", out)
    return "".join(out) + "\n"


def _encode(value, newline: str, out: list[str]) -> None:
    """Append the JSON of ``value``; ``newline`` starts a line at its depth."""
    if (text := _scalar(value)) is not None:
        out.append(text)
        return
    if isinstance(value, np.ndarray):
        if (data := float_array_json(value, orjson.OPT_INDENT_2)) is None:
            return _encode(value.tolist(), newline, out)
        out.append(data.decode().replace("\n", newline))
        return
    if not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    is_dict = isinstance(value, dict)
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = newline + "  "
    if not is_dict and set(map(type, value)) == {int}:
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
        return
    out.append("{" if is_dict else "[")
    for i, item in enumerate(sorted(value.items()) if is_dict else value):
        out.append("," + inner if i else inner)
        if is_dict:
            key, item = item
            text = key if isinstance(key, str) else _scalar(key)
            if text is None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
            out.append(encode_basestring_ascii(text) + ": ")
        _encode(item, inner, out)
    out.append(newline + ("}" if is_dict else "]"))


def _scalar(value) -> str | None:
    """The JSON of a string, number, bool or None; None for anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return None


def float_array_json(array, option: int = 0) -> bytes | None:
    """``orjson.dumps(array.tolist(), option=option)`` for a finite 2-D float64 array, from the
    array itself, with ``float.__repr__``'s text for every float; None for any other value.

    orjson writes ``repr``'s digits for floats that are 0 or of magnitude in [1e-4, 1e16), and
    otherwise ``1e16``, ``0.00001`` and ``2.5e-7`` for ``1e+16``, ``1e-05`` and ``2.5e-07``, so
    those are written again with ``repr``; json spells NaN and Infinity, orjson ``null``.
    """
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64 and array.ndim == 2):
        return None
    array = np.ascontiguousarray(array)  # orjson takes C order only
    if not np.isfinite(array).all():
        return None
    data = orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY | option)
    magnitude = np.abs(array)
    odd = np.flatnonzero(~((magnitude == 0.0) | ((magnitude >= 1e-4) & (magnitude < 1e16)))).tolist()
    if odd:
        # a comma parts two values of a row or two rows ("],["), so each piece holds one value
        pieces = data.split(b",")
        values = array.ravel()
        for i in odd:
            pieces[i] = _FLOAT_TEXT.sub(float.__repr__(values[i]).encode(), pieces[i])
        data = b",".join(pieces)
    return data


_FLOAT_TEXT = re.compile(rb"[-+.0-9e]+")


_field_types = cache(get_type_hints)  # string annotations compile again on every uncached call
# scenario blocks that hold one flat config dataclass each
_BLOCKS = {
    "region": Region,
    "environment": Environment,
    "radio": RadioConfig,
    "clustering": ClusteringConfig,
    "pcp": PcpConfig,
}


def scenario_to_dict(scenario: Scenario) -> dict:
    payload = _scenario_payload(scenario)
    payload["users"] = payload["users"].tolist()
    return payload


def _scenario_payload(scenario: Scenario) -> dict:
    """``scenario_to_dict`` with the users left as their (n, 2) float array."""
    payload = {
        name: asdict(getattr(scenario, name))
        for name in _BLOCKS
        if getattr(scenario, name) is not None
    }
    payload["users"] = np.atleast_2d(np.asarray(scenario.users, dtype=float))
    return payload


def scenario_from_dict(payload: dict, source: str = "scenario") -> Scenario:
    if not isinstance(payload, dict):
        raise ScenarioFormatError(f"{source}: expected a JSON object, got {type(payload).__name__}")
    _warn_unknown(payload, [f.name for f in fields(Scenario)], source)
    for f in fields(Scenario):
        if f.name != "pcp":
            _require(payload, f.name, source)
    try:
        kinds = set(map(type, chain.from_iterable(payload["users"])))  # one pass over every coordinate
        users = np.asarray(payload["users"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"{source}: malformed scenario: {exc}", "users") from exc
    if not kinds <= {int, float} or users.size == 0 or users.ndim != 2 or users.shape[1] != 2:
        raise ScenarioFormatError(f"{source}: 'users' must be a non-empty list of [x, y] pairs of numbers", "users")
    blocks = {
        name: config_from_dict(cls, payload[name], f"{source}: {name}")
        for name, cls in _BLOCKS.items()
        if name in payload
    }

    region = blocks["region"]
    bad = ~region.holds(users)
    if bad.any():
        raise ScenarioFormatError(
            f"{source}: user {int(np.flatnonzero(bad)[0])} lies outside the region", "users"
        )
    return Scenario(users=users, **blocks)


def config_from_dict(cls, raw, where: str):
    """Build the flat config dataclass ``cls`` from a JSON object.

    The inverse of ``dataclasses.asdict``.  Every field is required and is
    read by ``json_value`` as its annotated type, so no bool or string passes
    as a number and no number is NaN or infinite; unknown keys warn.  A
    missing or bad value raises ScenarioFormatError prefixed with ``where``.
    """
    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{where}: expected a JSON object, got {type(raw).__name__}", where)
    types = _field_types(cls)  # every field, in declaration order
    _warn_unknown(raw, types, where)
    values = {name: json_value(_require(raw, name, where), kind, name, where) for name, kind in types.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: malformed value: {exc}") from exc


def json_value(value, kind: type, name: str, where: str, finite: bool = True):
    """``value``, read from a file for field ``name``, as a ``kind``: a str field takes a JSON
    string, a float field a JSON int or float, an int field a JSON int or an integral float such
    as 6.0.  A bool or a string is never a number, and a number must be finite unless ``finite``
    is False; anything else raises ScenarioFormatError naming ``name`` after ``where``."""
    if type(value) is kind and kind is not float:  # a string, or an int for an int field
        return value
    if kind is not str and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range, read as json reads 1e400
            number = math.inf if value > 0 else -math.inf
        if finite and not math.isfinite(number):
            raise ScenarioFormatError(f"{where}: '{name}' must be finite, got {value!r}", name)
        if kind is float:
            return number
        if number.is_integer():
            return int(number)
    kinds = {str: "a string", float: "a number", int: "an integer"}
    raise ScenarioFormatError(f"{where}: '{name}' must be {kinds[kind]}, got {value!r}", name)


def _warn_unknown(raw: dict, known, where: str) -> None:
    for key in sorted(set(raw) - set(known)):
        warnings.warn(f"{where}: ignoring unknown field '{key}'", stacklevel=3)


def _require(payload: dict, key: str, source: str):
    if key not in payload:
        raise ScenarioFormatError(f"{source}: missing required field '{key}'", key)
    return payload[key]
