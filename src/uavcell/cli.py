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
from itertools import chain
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
    generate_pcp,
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
    template = _override_scenario(_default_scenario(region), _flag_overrides(args))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.master_seed)
    seeds = rng.integers(0, 2**62, size=max(args.count, 0))
    for i in range(args.count):
        pcp, users = _nonempty_realization(region, replace(base, seed=int(seeds[i])))
        scenario = replace(template, users=users, pcp=pcp)
        path = _scenario_path(out_dir, i)
        save_scenario(scenario, path)
        log.info("wrote %s (%d users)", path, len(users))
    return EXIT_OK


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


def _override_scenario(scenario: Scenario, overrides: dict) -> Scenario:
    """``scenario`` with an environment name and radio/clustering fields replaced."""
    unknown = set(overrides) - set(_OVERRIDES)
    if unknown:
        raise ValueError(f"unknown override keys {sorted(unknown)}")
    env = overrides.get("env")
    if env is not None and env not in ENVIRONMENTS:
        raise ValueError(f"unknown environment {env!r}, expected one of {sorted(ENVIRONMENTS)}")
    radio = {k: overrides[k] for k in _RADIO_OVERRIDES if k in overrides}
    clustering = {k: overrides[k] for k in _CLUSTERING_OVERRIDES if k in overrides}
    return replace(
        scenario,
        environment=scenario.environment if env is None else ENVIRONMENTS[env],
        radio=config_from_dict(RadioConfig, {**asdict(scenario.radio), **radio}, "radio override"),
        clustering=config_from_dict(ClusteringConfig, {**asdict(scenario.clustering), **clustering}, "clustering override"),
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
    cdf = (np.arange(1, n + 1) / n).tolist()  # the bits of (i + 1) / n: both are correctly rounded quotients
    _write_csv(out_dir / "throughput_cdf.csv", ["throughput_bps", "cdf"], zip(ordered, cdf))
    log.info("coverage %.4f, total power %.6g mW", metrics.coverage_probability, metrics.total_power_mw)
    return EXIT_OK


def cmd_sweep(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest must be a JSON object")
    known = {"scenarios", "generate", "methods", "out_dir", "overrides", "circle", "brute"}
    unknown = set(manifest) - known
    if unknown:
        raise ValueError(f"{manifest_path}: unknown manifest keys {sorted(unknown)}")
    for key in ("generate", "overrides", "circle", "brute"):
        if not isinstance(manifest.get(key, {}), dict):
            raise ValueError(f"{manifest_path}: '{key}' must be a JSON object")
    if not isinstance(manifest.get("out_dir"), str):
        raise ValueError(f"{manifest_path}: manifest needs 'out_dir', a path")
    scenarios = manifest.get("scenarios", [])
    if not isinstance(scenarios, list) or not all(isinstance(p, str) for p in scenarios):
        raise ValueError(f"{manifest_path}: 'scenarios' must be a list of paths")
    methods = manifest.get("methods", ["ellipse"])
    if not isinstance(methods, list) or not methods or not all(isinstance(m, str) for m in methods):
        raise ValueError(f"{manifest_path}: 'methods' must be a non-empty list of method names")
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise ValueError(f"{manifest_path}: unknown methods {bad}")
    overrides = dict(manifest.get("overrides", {}))
    try:
        h_max = float(overrides.pop("h_max", 1000.0))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"'h_max' override must be a number: {exc}") from exc
    _override_scenario(_default_scenario(Region()), overrides)  # every override is checked before any file is written
    for method in ("circle", "brute"):
        _check_method_block(manifest.get(method, {}), f"{manifest_path}: '{method}'")
    out_dir = Path(manifest["out_dir"])
    if not out_dir.is_absolute():
        out_dir = manifest_path.parent / out_dir
    generate = _sweep_generate_args(manifest["generate"], out_dir) if "generate" in manifest else None
    if not scenarios and (generate is None or generate.count < 1):
        raise ValueError(f"{manifest_path}: no scenarios given or generated")

    scenario_paths = [
        p if Path(p).is_absolute() else manifest_path.parent / p
        for p in scenarios
    ]
    if generate is not None:
        cmd_generate(generate)  # checks its own flags before it writes
        # exactly the files this generate wrote, not those of an earlier, larger run
        scenario_paths += [_scenario_path(Path(generate.out_dir), i) for i in range(generate.count)]
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, aggregates, code = _run_sweep(manifest, methods, scenario_paths, overrides, h_max)
    _write_csv(out_dir / "runs.csv", _RUN_COLUMNS, [[row[c] for c in _RUN_COLUMNS] for row in rows])
    _write_csv(
        out_dir / "aggregate.csv",
        ["method", "num_scenarios", "mean_power_mw", "median_power_mw", "mean_coverage", "mean_num_uavs", "mean_iterations", "max_iterations", "non_converged"],
        aggregates,
    )
    failed = sum(row["status"] != "ok" for row in rows)
    log.info("sweep: %d runs, %d failed", len(rows), failed)
    return code


def _sweep_generate_args(spec: dict, out_dir: Path) -> argparse.Namespace:
    """The parsed ``generate`` command of a manifest's ``generate`` block."""
    argv = [
        "generate",
        "--out-dir", str(out_dir / "scenarios"),
        "--count", str(spec.get("count", 1)),
        "--master-seed", str(spec.get("master_seed", 0)),
    ]
    for key in ("width", "height", "parent_intensity_per_km2", "cluster_radius", "mean_daughters", "env"):
        if key in spec:
            argv += [f"--{key.replace('_', '-')}", str(spec[key])]
    return _build_parser().parse_args(argv)


def _run_sweep(manifest, methods, scenario_paths, overrides, h_max):
    """Run every method on every scenario; returns (rows, aggregates, exit code).

    A failed run becomes a row with its status and error, and the exit code
    is the one ``main`` gives for the first failure; a scenario that fails to
    load fails each of its runs.
    """
    rows = []
    code = EXIT_OK
    for path in scenario_paths:
        scenario, ellipse_m = None, None
        for method in methods:
            row = dict.fromkeys(_RUN_COLUMNS, "")
            row.update(method=method, scenario=Path(path).name, converged=True, status="ok")
            try:
                if scenario is None:
                    scenario = _override_scenario(load_scenario(path), overrides)
                row["num_users"] = len(scenario.users)
                options = _sweep_options(method, manifest.get(method, {}), ellipse_m)
                plan, trace = plan_scenario(scenario, method, h_max=h_max, **options)
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
    for method in methods:
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


def _check_method_block(spec: dict, where: str) -> None:
    """Raise ValueError naming the first bad value of a ``circle`` or ``brute`` block."""
    for key in ("beam_deg", "fixed_altitude_m", "fixed_power_dbm"):
        value = spec.get(key)
        try:
            finite = value is None or type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{where}: '{key}' must be a finite number, got {value!r}")
    num = spec.get("num_uavs")
    if num is not None and num != "match" and not (type(num) is int and num >= 1):
        raise ValueError(f"{where}: 'num_uavs' must be an integer of at least 1 or \"match\", got {num!r}")


def _sweep_options(method: str, spec: dict, ellipse_m: int | None) -> dict:
    """``plan_scenario`` keywords from the manifest block of ``method``.

    ``"num_uavs": "match"``, the circle default, takes the cell count of the
    scenario's converged ellipse run.
    """
    options = {k: float(spec[k]) for k in ("beam_deg", "fixed_altitude_m", "fixed_power_dbm") if spec.get(k) is not None}
    num = spec.get("num_uavs", "match" if method == "circle" else None)
    if num == "match":
        if ellipse_m is None:
            raise ValueError("num_uavs 'match' needs a converged ellipse run first")
        num = ellipse_m
    if num is not None:
        options["num_uavs"] = num
    return options


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
        x, y, altitude = (_finite(v, "position", where) for v in raw["position"])
        theta1, theta2 = (float(v) for v in raw["beam_deg"])
        members = raw["members"]
        if not isinstance(members, list) or not set(map(type, members)) <= {int}:
            raise ScenarioFormatError(f"{where}: 'members' must be a list of integer user indices", "members")
        uavs.append(
            UavDeployment(
                x=x,
                y=y,
                altitude_m=altitude,
                orientation_rad=_finite(raw["orientation_rad"], "orientation_rad", where),
                beam=Beam(theta1_deg=theta1, theta2_deg=theta2),
                tx_power_dbm=_finite(raw["tx_power_dbm"], "tx_power_dbm", where),
                footprint=Ellipse(
                    A=np.asarray(raw["footprint"]["A"], dtype=float),
                    b=np.asarray(raw["footprint"]["b"], dtype=float),
                ),
                members=frozenset(members),
            )
        )
    return DeploymentPlan(
        uavs=uavs,
        environment=config_from_dict(Environment, payload["environment"], "environment"),
        radio=config_from_dict(RadioConfig, payload["radio"], "radio"),
        total_power_mw=_finite(payload["total_power_mw"], "total_power_mw", "plan"),
    )


def _finite(value, name: str, where: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{where}: '{name}' must be finite, got {value!r}", name)
    return number


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
    bools as true/false.  A table of plain ints and floats in rows of the
    header's width never needs quotes and is formatted in one pass over all
    its cells; any other goes row by row through ``csv.writer``, which quotes
    a cell holding a comma, a quote or a line break.
    """
    rows = list(rows)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(map(_csv_cell, header))
    width = len(header)
    if width and set(map(len, rows)) == {width} and set(map(type, chain.from_iterable(rows))) <= {int, float}:
        cells = map(repr, chain.from_iterable(rows))
        text.write("\n".join(map(",".join, zip(*[cells] * width))) + "\n")
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
