"""Batch front end: generate scenarios, deploy, evaluate, sweep.

Data goes to files (JSON plans and traces, RFC-4180 CSV tables); log lines go
to stderr.  Repeated runs with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import logging
import math
import statistics
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .baseline import CirclePackingConfig, PackingError, brute_force_plan, circle_pack_deploy
from .channel import Beam, ENVIRONMENTS, Environment, RadioConfig
from .clustering import AlgorithmTrace, ClusteringConfig, NoConvergenceError, ellipse_clustering
from .deployment import DeploymentPlan, UavDeployment, deploy, evaluate
from .geometry import Ellipse
from .scenario import (
    PcpConfig,
    Region,
    Scenario,
    ScenarioFormatError,
    config_from_dict,
    dump_canonical_json,
    float_array_json,
    generate_pcp,
    json_value,
    load_scenario,
    read_json,
    save_scenario,
)

__all__ = ["main", "plan_from_dict", "plan_scenario", "plan_to_dict"]

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INFEASIBLE = 4

log = logging.getLogger("uavcell")

_METHODS = ("ellipse", "circle", "brute")
_RADIO_OVERRIDES = ("carrier_frequency_hz", "bandwidth_hz", "snr_threshold_db", "noise_psd_dbm_hz")
_CLUSTERING_OVERRIDES = ("k_max", "max_outer_iterations")
_OVERRIDES = ("env",) + _RADIO_OVERRIDES + _CLUSTERING_OVERRIDES
# sweep row status per exit code of a failed run
_STATUS = {EXIT_PARSE_ERROR: "bad_input", EXIT_NO_CONVERGENCE: "no_convergence", EXIT_INFEASIBLE: "infeasible"}
_MAX_EXPECTED_USERS = 1e8  # generate draws no scenario expected to hold more parents or users
_MAX_COUNT = 10**6  # generate writes at most this many scenarios in one run
# the keys each block of a sweep manifest may hold; "" is the manifest itself
_MANIFEST_KEYS = {
    "": ("out_dir", "scenarios", "generate", "methods", "overrides", "circle", "brute"),
    "generate": ("count", "master_seed", "width", "height", "parent_intensity_per_km2", "cluster_radius", "mean_daughters", "env"),
    "overrides": ("h_max",) + _OVERRIDES,
    "circle": ("num_uavs", "beam_deg", "fixed_altitude_m", "fixed_power_dbm"),
    "brute": ("num_uavs",),
}
_RUN_COLUMNS = [
    "method", "scenario", "num_users", "num_uavs", "total_power_mw",
    "coverage_probability", "iterations", "converged", "status", "error",
]


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:  # a numpy overflow, division by zero or NaN is bad input too
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.handler(args)
    except (ScenarioFormatError, OSError, ValueError, FloatingPointError, NoConvergenceError) as exc:
        code = _exit_code(exc)
        log.error("infeasible baseline: %s" if code == EXIT_INFEASIBLE else "%s", exc)
        return code


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, NoConvergenceError):
        return EXIT_NO_CONVERGENCE
    if isinstance(exc, PackingError):
        return EXIT_INFEASIBLE
    return EXIT_PARSE_ERROR


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="uavcell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write seeded clustered-user scenarios")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--master-seed", type=int, default=0)
    gen.add_argument("--width", type=float, default=1000.0)
    gen.add_argument("--height", type=float, default=1000.0)
    gen.add_argument("--parent-intensity-per-km2", type=float, default=9.0)
    gen.add_argument("--cluster-radius", type=float, default=80.0)
    gen.add_argument("--mean-daughters", type=float, default=36.0)
    _override_flags(gen)
    gen.set_defaults(handler=cmd_generate)

    dep = sub.add_parser("deploy", help="plan a deployment for one scenario")
    dep.add_argument("scenario")
    dep.add_argument("--out-dir", required=True)
    dep.add_argument("--method", choices=_METHODS, default="ellipse")
    dep.add_argument("--h-max", type=float, default=1000.0)
    dep.add_argument("--num-uavs", type=int, help="cell count for circle/brute methods")
    dep.add_argument("--fixed-altitude", type=float, default=150.0)
    dep.add_argument("--fixed-power-dbm", type=float)
    dep.add_argument("--beam-deg", type=float, help="circular beam half-width for circle method")
    _override_flags(dep)
    dep.set_defaults(handler=cmd_deploy)

    ev = sub.add_parser("evaluate", help="score a plan against a scenario")
    ev.add_argument("plan")
    ev.add_argument("scenario")
    ev.add_argument("--out-dir", required=True)
    ev.set_defaults(handler=cmd_evaluate)

    sw = sub.add_parser("sweep", help="run a manifest of scenarios and aggregate")
    sw.add_argument("manifest")
    sw.set_defaults(handler=cmd_sweep)
    return parser


def _override_flags(cmd) -> None:
    # unset flags stay None and keep the scenario's values (the defaults, for generate)
    cmd.add_argument("--env", choices=sorted(ENVIRONMENTS))
    for key in _RADIO_OVERRIDES:
        cmd.add_argument(f"--{key.replace('_', '-')}", type=float)
    for key in _CLUSTERING_OVERRIDES:
        cmd.add_argument(f"--{key.replace('_', '-')}", type=int)


def _flag_overrides(args) -> dict:
    return {k: getattr(args, k) for k in _OVERRIDES if getattr(args, k) is not None}


def cmd_generate(args) -> int:
    region = Region(width_m=args.width, height_m=args.height)
    base = PcpConfig(
        parent_intensity_per_m2=args.parent_intensity_per_km2 / 1e6,
        cluster_radius_m=args.cluster_radius,
        mean_daughters=args.mean_daughters,
    )
    parents = base.parent_intensity_per_m2 * region.area_m2
    if not parents * max(base.mean_daughters, 1.0) <= _MAX_EXPECTED_USERS:  # also catches an infinite area
        raise ValueError(f"--width x --height x --parent-intensity-per-km2 x --mean-daughters expect {parents:.3g} parents "
                         f"and {parents * base.mean_daughters:.3g} users; generate draws at most {_MAX_EXPECTED_USERS:.0e} of each")
    _check_draw(args.count, args.master_seed, "--count", "--master-seed")
    template = _override_scenario(_default_scenario(region), _flag_overrides(args))
    out_dir = Path(args.out_dir)
    rng = np.random.default_rng(args.master_seed)
    seeds = rng.integers(0, 2**62, size=args.count)
    for i in range(args.count):
        pcp, users = _nonempty_realization(region, replace(base, seed=int(seeds[i])))
        scenario = replace(template, users=users, pcp=pcp)
        path = _scenario_path(out_dir, i)
        out_dir.mkdir(parents=True, exist_ok=True)  # made only once there is something to write
        save_scenario(scenario, path)
        log.info("wrote %s (%d users)", path, len(users))
    return EXIT_OK


def _check_draw(count, seed, count_name: str, seed_name: str) -> None:
    """Raise ValueError naming the setting unless generate can write ``count`` scenarios from master ``seed``."""
    for value, name, high in ((count, count_name, _MAX_COUNT), (seed, seed_name, math.inf)):
        if type(value) is not int or not 0 <= value <= high:
            raise ValueError(f"{name} must be an integer in [0, {high}], got {value!r}")


def _scenario_path(out_dir: Path, i: int) -> Path:
    """Where ``generate`` writes its ``i``-th scenario."""
    return out_dir / f"scenario_{i:03d}.json"


def _default_scenario(region: Region) -> Scenario:
    """A user-less urban scenario with default radio and clustering settings."""
    return Scenario(region, np.empty((0, 2)), ENVIRONMENTS["urban"], RadioConfig(), ClusteringConfig())


def _nonempty_realization(region: Region, base: PcpConfig) -> tuple[PcpConfig, np.ndarray]:
    cfg = base
    for attempt in range(1, 1001):
        users = generate_pcp(region, cfg)
        if len(users):
            return cfg, users
        # empty draw: reseed deterministically and try again
        cfg = replace(base, seed=(base.seed + attempt * 0x9E3779B97F4A7C15) % 2**62)
    raise ValueError("could not draw a non-empty scenario; intensity too low")


def plan_scenario(
    scenario: Scenario,
    method: str,
    *,
    h_max: float = 1000.0,
    num_uavs: int | None = None,
    beam_deg: float | None = None,
    fixed_altitude_m: float = 150.0,
    fixed_power_dbm: float | None = None,
) -> tuple[DeploymentPlan, AlgorithmTrace | None]:
    """Plan one scenario with ``method``; returns (plan, trace).

    The trace is the clustering record of the ``ellipse`` method and None
    for the baselines.  ``circle`` needs ``num_uavs``; ``brute`` defaults it
    to three cells, or one per user below that.  Raises NoConvergenceError
    (carrying the trace), PackingError or ValueError.
    """
    if method == "ellipse":
        _, cs, trace = ellipse_clustering(scenario.users, scenario.clustering)
        return deploy(cs, scenario.environment, scenario.radio, h_max=h_max), trace
    if method == "circle":
        if num_uavs is None:
            raise ValueError("circle method needs num_uavs")
        cfg = CirclePackingConfig(
            num_uavs=num_uavs,
            fixed_altitude_m=fixed_altitude_m,
            fixed_power_dbm=fixed_power_dbm,
            beam=None if beam_deg is None else Beam(theta1_deg=beam_deg, theta2_deg=beam_deg),
        )
        return circle_pack_deploy(scenario, cfg), None
    if method == "brute":
        num = min(3, len(scenario.users)) if num_uavs is None else num_uavs
        return brute_force_plan(scenario.users, num, scenario.environment, scenario.radio, h_max=h_max), None
    raise ValueError(f"unknown method {method!r}, expected one of {list(_METHODS)}")


def _override_scenario(scenario: Scenario, overrides: dict, where: str = "override") -> Scenario:
    """``scenario`` with radio/clustering fields and the environment replaced; the caller checks the names."""
    env = overrides.get("env")
    radio = {k: overrides[k] for k in _RADIO_OVERRIDES if k in overrides}
    clustering = {k: overrides[k] for k in _CLUSTERING_OVERRIDES if k in overrides}
    return replace(
        scenario,
        environment=scenario.environment if env is None else ENVIRONMENTS[env],
        radio=config_from_dict(RadioConfig, {**asdict(scenario.radio), **radio}, where),
        clustering=config_from_dict(ClusteringConfig, {**asdict(scenario.clustering), **clustering}, where),
    )


def cmd_deploy(args) -> int:
    scenario = _override_scenario(load_scenario(args.scenario), _flag_overrides(args))
    out_dir = Path(args.out_dir)
    try:
        plan, trace = plan_scenario(
            scenario,
            args.method,
            h_max=args.h_max,
            num_uavs=args.num_uavs,
            beam_deg=args.beam_deg,
            fixed_altitude_m=args.fixed_altitude,
            fixed_power_dbm=args.fixed_power_dbm,
        )
    except NoConvergenceError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "trace.json", exc.trace.to_dict())
        raise
    # made only once there is something to write, so a failed plan leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace is not None:
        _write_json(out_dir / "trace.json", trace.to_dict())
        log.info("%d cells after %d iterations", len(plan.uavs), len(trace.iterations))
    _write_json(out_dir / "plan.json", plan_to_dict(plan, args.method))
    log.info("plan: %d UAVs, %.6g mW total", len(plan.uavs), plan.total_power_mw)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    plan = _load_plan(args.plan)
    scenario = load_scenario(args.scenario)
    metrics = evaluate(plan, scenario.users)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_csv(
        out_dir / "metrics.csv",
        ["scenario", "num_users", "num_uavs", "coverage_probability", "total_power_mw", "min_snr_db", "mean_throughput_bps"],
        [[
            Path(args.scenario).name,
            len(scenario.users),
            metrics.num_uavs,
            metrics.coverage_probability,
            metrics.total_power_mw,
            min(metrics.per_user_snr_db),
            statistics.fmean(metrics.per_user_throughput_bps),
        ]],
    )
    ordered = sorted(metrics.per_user_throughput_bps)
    n = len(ordered)
    cdf = np.arange(1, n + 1) / n  # the bits of (i + 1) / n: both are correctly rounded quotients
    _write_csv(out_dir / "throughput_cdf.csv", ["throughput_bps", "cdf"], np.column_stack((ordered, cdf)))
    log.info("coverage %.4f, total power %.6g mW", metrics.coverage_probability, metrics.total_power_mw)
    return EXIT_OK


def cmd_sweep(args) -> int:
    out_dir, scenario_paths, generate, overrides, plans = _read_manifest(Path(args.manifest))
    if generate is not None:
        cmd_generate(generate)  # checks its own settings again before it writes
        # exactly the files this generate wrote, not those of an earlier, larger run
        scenario_paths += [_scenario_path(Path(generate.out_dir), i) for i in range(generate.count)]
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, aggregates, code = _run_sweep(scenario_paths, overrides, plans)
    _write_csv(out_dir / "runs.csv", _RUN_COLUMNS, [[row[c] for c in _RUN_COLUMNS] for row in rows])
    _write_csv(
        out_dir / "aggregate.csv",
        ["method", "num_scenarios", "mean_power_mw", "median_power_mw", "mean_coverage", "mean_num_uavs", "mean_iterations", "max_iterations", "non_converged"],
        aggregates,
    )
    failed = sum(row["status"] != "ok" for row in rows)
    log.info("sweep: %d runs, %d failed", len(rows), failed)
    return code


def _read_manifest(path: Path):
    """Every setting of the sweep manifest at ``path``, checked before anything is written.

    Returns (out_dir, scenario paths, the ``generate`` arguments or None,
    scenario overrides, [(method, ``plan_scenario`` keywords)]); a
    ``num_uavs`` of "match" is resolved by the run loop.  A bad value raises
    ValueError naming its block and key.
    """
    manifest = read_json(path)
    blocks = {}
    for block, keys in _MANIFEST_KEYS.items():
        spec = blocks[block] = manifest.get(block, {}) if block else manifest
        name = f"'{block}'" if block else "manifest"
        if not isinstance(spec, dict):
            raise ValueError(f"{path}: {name} must be a JSON object")
        if unknown := sorted(set(spec) - set(keys)):
            raise ValueError(f"{path}: unknown {name} keys {unknown}")
        if "env" in spec and spec["env"] not in sorted(ENVIRONMENTS):  # a list, so an unhashable name is just unknown
            raise ValueError(f"{path}: {name}: 'env' must be one of {sorted(ENVIRONMENTS)}, got {spec['env']!r}")
    if not isinstance(manifest.get("out_dir"), str):
        raise ValueError(f"{path}: manifest needs 'out_dir', a path")
    scenarios = manifest.get("scenarios", [])
    if not isinstance(scenarios, list) or not all(isinstance(p, str) for p in scenarios):
        raise ValueError(f"{path}: 'scenarios' must be a list of paths")
    methods = manifest.get("methods", ["ellipse"])
    if not isinstance(methods, list) or not methods or not all(m in _METHODS for m in methods):
        raise ValueError(f"{path}: 'methods' must be a non-empty list of names from {list(_METHODS)}, got {methods!r}")
    overrides = dict(blocks["overrides"])
    h_max = json_value(overrides.pop("h_max", 1000.0), float, "h_max", f"{path}: 'overrides'", finite=False)
    if not h_max > 0:
        raise ValueError(f"{path}: 'overrides': 'h_max' must be above 0, got {h_max!r}")
    _override_scenario(_default_scenario(Region()), overrides, f"{path}: 'overrides'")  # the radio and clustering fields
    keywords = {"ellipse": {"h_max": h_max}}
    for method in ("circle", "brute"):
        spec = dict(blocks[method])
        num = spec.pop("num_uavs", "match" if method == "circle" else None)
        if type(num) is float:  # an integral float such as 2.0 counts as its int
            num = json_value(num, int, "num_uavs", f"{path}: '{method}'")
        if num is not None and num != "match" and not (type(num) is int and num >= 1):
            raise ValueError(f"{path}: '{method}': 'num_uavs' must be an integer of at least 1 or \"match\", got {num!r}")
        numbers = {key: json_value(value, float, key, f"{path}: '{method}'") for key, value in spec.items()}
        keywords[method] = {"h_max": h_max, "num_uavs": num, **numbers}
    out_dir = path.parent / manifest["out_dir"]
    generate = None
    if "generate" in manifest:  # the parser's defaults, then the block's values
        generate = _build_parser().parse_args(["generate", "--out-dir", str(out_dir / "scenarios")])
        where = f"{path}: 'generate'"
        for key, value in blocks["generate"].items():
            if key in ("count", "master_seed") and type(value) is float:  # 2.0 counts as 2; _check_draw judges the rest
                value = json_value(value, int, key, where)
            setattr(generate, key, value if key in ("count", "master_seed", "env") else json_value(value, float, key, where, finite=False))
        _check_draw(generate.count, generate.master_seed, f"{where}: 'count'", f"{where}: 'master_seed'")
    if not scenarios and (generate is None or generate.count < 1):
        raise ValueError(f"{path}: no scenarios given or generated")
    return out_dir, [path.parent / p for p in scenarios], generate, overrides, [(m, keywords[m]) for m in methods]


def _run_sweep(scenario_paths, overrides, plans):
    """Run every (method, keywords) of ``plans`` on every scenario; returns (rows, aggregates, exit code).

    A failed run becomes a row with its status and error, and the exit code
    is the one ``main`` gives for the first failure; a scenario that fails to
    load fails each of its runs.  ``"num_uavs": "match"`` takes the cell count
    of the scenario's converged ellipse run.
    """
    rows = []
    code = EXIT_OK
    for path in scenario_paths:
        scenario, ellipse_m = None, None
        for method, keywords in plans:
            row = dict.fromkeys(_RUN_COLUMNS, "")
            row.update(method=method, scenario=Path(path).name, converged=True, status="ok")
            try:
                if scenario is None:
                    scenario = _override_scenario(load_scenario(path), overrides)
                row["num_users"] = len(scenario.users)
                if keywords.get("num_uavs") == "match":
                    if ellipse_m is None:
                        raise ValueError("num_uavs 'match' needs a converged ellipse run first")
                    keywords = {**keywords, "num_uavs": ellipse_m}
                plan, trace = plan_scenario(scenario, method, **keywords)
                coverage = evaluate(plan, scenario.users).coverage_probability
            except (OSError, ValueError, FloatingPointError, NoConvergenceError) as exc:
                failure = _exit_code(exc)
                code = code or failure
                row.update(status=_STATUS[failure], error=str(exc))
                if isinstance(exc, NoConvergenceError):
                    row.update(converged=False, iterations=len(exc.trace.iterations))
            else:
                row.update(num_uavs=len(plan.uavs), total_power_mw=plan.total_power_mw, coverage_probability=coverage)
                if trace is not None:
                    row["iterations"] = len(trace.iterations)
                if method == "ellipse":
                    ellipse_m = len(plan.uavs)
            rows.append(row)
    aggregates = []
    for method, _ in plans:
        runs = [r for r in rows if r["method"] == method]
        done = [r for r in runs if r["status"] == "ok"]
        powers = [r["total_power_mw"] for r in done]
        iters = [r["iterations"] for r in runs if r["iterations"] != ""]
        aggregates.append([
            method,
            len(runs),
            statistics.fmean(powers) if powers else "",
            statistics.median(powers) if powers else "",
            statistics.fmean([r["coverage_probability"] for r in done]) if done else "",
            statistics.fmean([r["num_uavs"] for r in done]) if done else "",
            statistics.fmean(iters) if iters else "",
            max(iters) if iters else "",
            len(runs) - len(done),
        ])
    return rows, aggregates, code


def plan_to_dict(plan: DeploymentPlan, method: str) -> dict:
    return {
        "method": method,
        "environment": asdict(plan.environment),
        "radio": asdict(plan.radio),
        "total_power_mw": float(plan.total_power_mw),
        "uavs": [
            {
                "position": [u.x, u.y, u.altitude_m],
                "orientation_rad": u.orientation_rad,
                "beam_deg": [u.beam.theta1_deg, u.beam.theta2_deg],
                "tx_power_dbm": u.tx_power_dbm,
                "footprint": {
                    "A": u.footprint.A.tolist(),
                    "b": u.footprint.b.tolist(),
                },
                "members": sorted(map(int, u.members)),
            }
            for u in plan.uavs
        ],
    }


def plan_from_dict(payload: dict) -> DeploymentPlan:
    """The plan of ``plan_to_dict``; a bad field raises ScenarioFormatError naming it."""
    uavs = []
    for i, raw in enumerate(payload["uavs"]):
        where = f"uav {i}"
        x, y, altitude = _floats(raw["position"], "position", where)
        members = raw["members"]
        if not isinstance(members, list) or not set(map(type, members)) <= {int}:
            raise ScenarioFormatError(f"{where}: 'members' must be a list of integer user indices", "members")
        footprint = Ellipse(
            A=[_floats(row, "A", f"{where}: footprint") for row in raw["footprint"]["A"]],
            b=_floats(raw["footprint"]["b"], "b", f"{where}: footprint"),
        )
        uavs.append(UavDeployment(
            x, y, altitude,
            orientation_rad=json_value(raw["orientation_rad"], float, "orientation_rad", where),
            beam=Beam(*_floats(raw["beam_deg"], "beam_deg", where)),
            tx_power_dbm=json_value(raw["tx_power_dbm"], float, "tx_power_dbm", where),
            footprint=footprint,
            members=frozenset(members),
        ))
    return DeploymentPlan(
        uavs=uavs,
        environment=config_from_dict(Environment, payload["environment"], "environment"),
        radio=config_from_dict(RadioConfig, payload["radio"], "radio"),
        total_power_mw=json_value(payload["total_power_mw"], float, "total_power_mw", "plan"),
    )


def _floats(values, name: str, where: str) -> list[float]:
    """Each item of the JSON list ``values`` read by ``json_value`` as a finite float."""
    return [json_value(value, float, name, where) for value in values]


def _load_plan(path) -> DeploymentPlan:
    payload = read_json(path)
    try:
        return plan_from_dict(payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"{path}: malformed plan: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(dump_canonical_json(payload), encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` byte for byte as ``csv.writer`` would.

    Lines end in ``\\n``, floats (numpy's too) with ``float.__repr__`` and
    bools as true/false.  A non-empty float64 array (the throughput CDF) is
    written from one ``float_array_json`` call where that applies; any other
    table goes row by row through ``csv.writer``, which quotes a cell holding
    a comma, a quote or a line break.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(map(_csv_cell, header))
    if isinstance(rows, np.ndarray) and rows.size and (data := float_array_json(rows)) is not None:
        text.write(data[2:-2].decode().replace("],[", "\n") + "\n")  # [[x,y],[x,y]] as x,y lines
    else:
        writer.writerows(map(_csv_cell, row) for row in rows)
    path.write_text(text.getvalue(), encoding="utf-8", newline="")


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return value


if __name__ == "__main__":
    sys.exit(main())
