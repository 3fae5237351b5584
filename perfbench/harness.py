"""One benchmark run in a fresh process: build a workload's inputs, run it, check it.

Started by ``run.py``, which pins BLAS/OpenMP to one thread and points
``PYTHONPATH`` at the checkout's ``src`` before this process imports numpy.
The run is a closed loop with one client and no think time: the next item
starts only after the previous one has finished and been checked.  Items are
timed without their output checks.  The report goes to the JSON file named
by ``--report``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports plus inputs

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.cluster.hierarchy import linkage
from scipy.special import betainc

import uavcell
from uavcell import baseline, channel, cli, clustering, deployment, geometry, scenario

from spans import Tracer, self_times

URBAN = channel.ENVIRONMENTS["urban"]
RADIO = channel.RadioConfig()
PACKAGE_MODULES = (uavcell, geometry, channel, clustering, deployment, scenario, baseline, cli)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (layer, spanned, work counters): every public function the workloads reach.
# avg_path_loss runs thousands of times per item, so it is counted without a
# span to keep tracing overhead low.
LAYERS = (
    ("geometry.mvee", True, lambda a, k, r: [("points", len(_arg(a, k, 0, "points")))]),
    ("clustering.select_k", True, lambda a, k, r: [("points", len(_arg(a, k, 0, "points")))]),
    ("clustering.grow_to_k", True, None),
    ("clustering.split_cluster", True, None),
    ("clustering.find_intersections", True, lambda a, k, r: [("pairs", math.comb(len(_arg(a, k, 0, "cs").clusters), 2))]),
    ("clustering.ellipse_clustering", True, None),
    ("deployment.deploy", True, None),
    ("deployment.optimal_altitude", True, None),
    ("deployment.evaluate", True, lambda a, k, r: [("users", len(_arg(a, k, 1, "users")))]),
    ("channel.avg_path_loss", False, None),
    ("baseline.brute_force_optimum", True, None),
    ("baseline.circle_pack_deploy", True, None),
    ("scenario.generate_pcp", True, None),
    ("scenario.save_scenario", True, lambda a, k, r: [("bytes", os.path.getsize(_arg(a, k, 1, "path")))]),
    ("scenario.load_scenario", True, lambda a, k, r: [("bytes", os.path.getsize(_arg(a, k, 0, "path")))]),
    ("cli.main", True, None),
)

# Layers whose wrapped callees make self time differ from busy time.
SELF_TIMED = (
    "clustering.grow_to_k",
    "clustering.ellipse_clustering",
    "deployment.deploy",
    "baseline.brute_force_optimum",
    "cli.main",
)

# Layers each workload must reach (the traced run fails on zero calls), and
# layers it must not reach.  A refactor that moves a call past a wrapper
# shows up here instead of as a silently missing number.
EXPECTED_CALLS = {
    "campaign": ("geometry.mvee", "clustering.select_k", "clustering.grow_to_k", "clustering.find_intersections"),
    "brute-tiny": ("baseline.brute_force_optimum", "geometry.mvee", "deployment.deploy"),
    "cli-dense": ("scenario.save_scenario", "scenario.load_scenario", "deployment.evaluate", "baseline.circle_pack_deploy"),
}
EXPECTED_ZERO = {
    "campaign": (),
    "brute-tiny": ("clustering.select_k",),
    "cli-dense": ("clustering.select_k", "geometry.mvee"),
}


@dataclass
class Outcome:
    """What the checks of one item found."""

    failures: list[str] = field(default_factory=list)
    power_mw: float = math.nan
    coverage: float = math.nan
    digest_line: str = ""
    counts: dict[str, float] = field(default_factory=dict)


def digest_line(memberships, total_power_mw: float) -> str:
    """Sorted cell memberships plus the repr of the plan's total power."""
    cells = sorted(sorted(int(i) for i in cell) for cell in memberships)
    return json.dumps(cells, separators=(",", ":")) + " " + repr(float(total_power_mw))


# The reference kernel is fixed work of the kinds the workloads do, calling
# no uavcell code: small numpy linear algebra, a scipy linkage, scalar math
# and indented JSON text.  On a shared 2-core VM the same code ran up to 40%
# faster or slower from one minute to the next, and the kernel tracks that
# drift.  End-to-end times are scaled to the speed at which the kernel takes
# REF_NOMINAL_S, so they compare across runs made at different times.
REF_NOMINAL_S = 0.009
SETUP_REF_RUNS = 11  # after set-up, to scale it; about 0.1 s
_REF_POINTS = np.random.default_rng(0).uniform(0.0, 1000.0, (150, 2))
_REF_LIFTED = np.column_stack([_REF_POINTS, np.ones(len(_REF_POINTS))])
_REF_DOCUMENT = {"users": np.random.default_rng(1).uniform(0.0, 1000.0, (500, 2)).tolist()}


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    q = _REF_LIFTED
    u = np.full(len(q), 1.0 / len(q))
    for _ in range(60):
        w = np.einsum("ij,jk,ik->i", q, np.linalg.inv(q.T @ (q * u[:, None])), q)
        u *= 0.99
        u[int(np.argmax(w))] += 0.01
    linkage(_REF_POINTS, method="ward")
    total = 0.0
    for i in range(3000):
        total += math.hypot(i, 1.0)
    json.loads(json.dumps(_REF_DOCUMENT, indent=2, sort_keys=True))
    return time.perf_counter() - start


def machine_speed(ref_samples) -> float:
    """Nominal over median reference time; above 1 when the machine runs fast."""
    return REF_NOMINAL_S / statistics.median(ref_samples)


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest integer percentile with at least ``beyond`` of ``n`` samples above it.

    Counted by nearest rank; None when ``n`` leaves no such percentile.
    """
    if n <= beyond:
        return None
    return (100 * (n - beyond)) // n


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile (0 < p < 1).

    A Beta-weighted mean of all order statistics.  A single order statistic
    of 30 items moved twice as much between runs on a 2-core Xeon VM.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of n labelled items into exactly k non-empty blocks."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def partition_count(n: int, max_blocks: int) -> int:
    """Set partitions of n items into at most ``max_blocks`` blocks."""
    return sum(stirling2(n, k) for k in range(1, min(n, max_blocks) + 1))


def presented(base: list[np.ndarray], seed: int, side: float) -> list[np.ndarray]:
    """The base instances as workload ``seed`` presents them to the program.

    Seed 0 keeps them as they are, in order.  Any other seed shuffles them and
    maps each through one of the eight symmetries of the square [0, side]^2,
    so the coordinates change while the work and the optimal plans do not.
    """
    if seed == 0:
        return list(base)
    rng = np.random.default_rng([seed, len(base)])
    out = []
    for i in rng.permutation(len(base)):
        k = int(rng.integers(8))
        x, y = base[i][:, 0], base[i][:, 1]
        if k & 1:
            x = side - x
        if k & 2:
            y = side - y
        if k & 4:
            x, y = y, x
        out.append(np.column_stack([x, y]))
    return out


class Campaign:
    """Default-config urban PCP scenarios through clustering, deploy and evaluate.

    The base scenarios are the acceptance campaign's first ``POOL`` seeds;
    seed 0 runs them unchanged.  Per-scenario times are heavy-tailed (p50
    about 0.4 s, max several seconds) and so is plan power, so a fresh random
    set of this size would move throughput and mean power by about 20% from
    one workload seed to the next.  See ``presented`` for what the seed does.
    """

    name = "campaign"
    POOL = 30
    WRITES_FILES = False

    def items(self, seed: int):
        region = scenario.Region()
        base = [scenario.generate_pcp(region, scenario.PcpConfig(seed=i)) for i in range(self.POOL)]
        return presented(base, seed, region.width_m)

    def run(self, users, workdir):
        _, cs, trace = clustering.ellipse_clustering(users)
        plan = deployment.deploy(cs, URBAN, RADIO)
        metrics = deployment.evaluate(plan, users)
        return cs, trace, plan, metrics

    def check(self, users, result, workdir) -> Outcome:
        cs, trace, plan, metrics = result
        out = Outcome(power_mw=plan.total_power_mw, coverage=metrics.coverage_probability)
        n = len(users)
        claimed = sorted(i for c in cs.clusters for i in c.members)
        if claimed != list(range(n)):
            out.failures.append("cells do not partition the users")
        inside = np.zeros(n, dtype=int)
        for uav in plan.uavs:
            q = np.linalg.norm(users @ uav.footprint.A - uav.footprint.b, axis=1)
            inside += q <= 1.0
        if inside.max() > 1:
            out.failures.append("a user lies inside two footprints")
        if not trace.converged:
            out.failures.append("clustering did not converge")
        if min(metrics.per_user_snr_db) < RADIO.snr_threshold_db - 1e-9:
            out.failures.append("a user is below the SNR threshold")
        if metrics.coverage_probability != 1.0:
            out.failures.append(f"coverage {metrics.coverage_probability} != 1")
        out.digest_line = digest_line((c.members for c in cs.clusters), plan.total_power_mw)
        out.counts = {
            "clustering.outer_iterations": len(trace.iterations),
            "clustering.cells": len(cs.clusters),
            "clustering.grown": sum(rec.k_origin for rec in trace.iterations),
        }
        return out


class BruteTiny:
    """Exhaustive reference partitions on fixed 7-user PCP instances, 3 UAVs.

    Each item is ``uavcell deploy --method brute`` as library calls: the
    brute-force optimum, one ellipse per group, deploy and evaluate.  The
    base instances are fixed, for the same reason as the campaign's: the
    optimal power of a random 7-user instance varies by 60-75% (its standard
    deviation over its mean).
    """

    name = "brute-tiny"
    POOL = 30
    WRITES_FILES = False
    USERS = 7
    UAVS = 3

    def items(self, seed: int):
        region = scenario.Region(500.0, 500.0)
        base = []
        for child in np.random.SeedSequence(2).spawn(self.POOL):
            rng = np.random.default_rng(child)
            while True:
                cfg = scenario.PcpConfig(
                    parent_intensity_per_m2=1.2e-5,
                    mean_daughters=4.0,
                    seed=int(rng.integers(2**62)),
                )
                users = scenario.generate_pcp(region, cfg)
                if len(users) >= self.USERS:
                    break
            base.append(users[np.sort(rng.choice(len(users), self.USERS, replace=False))])
        return presented(base, seed, region.width_m)

    def run(self, users, workdir):
        groups, power = baseline.brute_force_optimum(users, self.UAVS, URBAN, RADIO)
        cells = [
            clustering.Cluster(frozenset(g), geometry.mvee(users[sorted(g)])) for g in groups
        ]
        plan = deployment.deploy(clustering.ClusterSet(users=users, clusters=cells), URBAN, RADIO)
        metrics = deployment.evaluate(plan, users)
        return groups, power, plan, metrics

    def check(self, users, result, workdir) -> Outcome:
        groups, power, plan, metrics = result
        out = Outcome(power_mw=power, coverage=metrics.coverage_probability)
        claimed = sorted(i for g in groups for i in g)
        if claimed != list(range(len(users))) or any(not g for g in groups):
            out.failures.append("groups do not partition the users")
        if not (math.isfinite(power) and power > 0.0):
            out.failures.append(f"power {power!r} is not finite and positive")
        if not math.isclose(plan.total_power_mw, power, rel_tol=1e-9):
            out.failures.append("deployed plan power differs from the brute-force optimum")
        out.digest_line = digest_line(groups, power)
        out.counts = {"baseline.partitions": partition_count(len(users), self.UAVS)}
        return out


class CliDense:
    """The Quick-start round trip through ``uavcell.cli.main`` on dense scenarios.

    ``generate`` (360 mean daughters, about 2800 users), ``deploy --method
    circle`` with a fixed fleet, then ``evaluate``, all in this process and
    writing real files under the run's work directory.
    """

    name = "cli-dense"
    POOL = 100
    WRITES_FILES = True  # its first item must rerun byte-identically
    UAVS = 9

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        return [int(s) for s in rng.integers(0, 2**31, self.POOL)]

    def run(self, master_seed, workdir: Path):
        scen, plan, ev = workdir / "scenarios", workdir / "plan", workdir / "eval"
        scen_file = scen / "scenario_000.json"
        codes = (
            cli.main(["generate", "--out-dir", str(scen), "--count", "1",
                      "--master-seed", str(master_seed), "--mean-daughters", "360"]),
            cli.main(["deploy", str(scen_file), "--out-dir", str(plan),
                      "--method", "circle", "--num-uavs", str(self.UAVS)]),
            cli.main(["evaluate", str(plan / "plan.json"), str(scen_file), "--out-dir", str(ev)]),
        )
        return codes

    def check(self, master_seed, codes, workdir: Path) -> Outcome:
        out = Outcome()
        if codes != (0, 0, 0):
            out.failures.append(f"exit codes {codes}")
            return out
        payload = json.loads((workdir / "plan" / "plan.json").read_text(encoding="utf-8"))
        if cli.plan_to_dict(cli.plan_from_dict(payload), payload["method"]) != payload:
            out.failures.append("plan.json does not round-trip through plan_from_dict")
        with open(workdir / "eval" / "metrics.csv", encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        if float(row["total_power_mw"]) != payload["total_power_mw"]:
            out.failures.append("metrics.csv power differs from plan.json")
        out.power_mw = payload["total_power_mw"]
        out.coverage = float(row["coverage_probability"])
        out.digest_line = digest_line((u["members"] for u in payload["uavs"]), out.power_mw)
        out.counts = {"cli.bytes_written": sum(p.stat().st_size for p in workdir.rglob("*") if p.is_file())}
        return out


WORKLOADS = {w.name: w for w in (Campaign(), BruteTiny(), CliDense())}


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)  # reference kernel, once per item

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(o.digest_line.encode() + b"\n")
        return h.hexdigest()


def run_item(workload, item, workdir: Path):
    """Time one item, then check it; returns (seconds, Outcome)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        result = workload.run(item, workdir)
    except Exception as exc:  # a failed item is counted, and the loop goes on
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(failures=[f"raised {type(exc).__name__}: {exc}"])
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(item, result, workdir)
    except Exception as exc:
        return elapsed, Outcome(failures=[f"check raised {type(exc).__name__}: {exc}"])


def run_untraced(workload, items, seconds: float, workdir: Path) -> dict:
    """Whole passes over the items, as many as fit ``seconds`` best.

    The first pass's duration sets the number of passes, so a run lasts
    ``seconds`` give or take half a pass.  Whole passes keep the mix of
    items the same in every run.  Later passes must reproduce the first
    pass's plans exactly.
    """
    passes: list[PassResult] = []
    first_files = None
    loop_start = time.perf_counter()
    planned = 1
    while len(passes) < planned:
        res = PassResult()
        for idx, item in enumerate(items):
            res.ref.append(reference_seconds())
            elapsed, outcome = run_item(workload, item, workdir)
            if passes and outcome.digest_line != passes[0].outcomes[idx].digest_line:
                outcome.failures.append("plan differs from the first pass")
            if not passes and idx == 0 and workload.WRITES_FILES:
                first_files = _snapshot(workdir)
            res.times.append(elapsed)
            res.outcomes.append(outcome)
        if not passes:
            planned = max(1, round(seconds / (time.perf_counter() - loop_start)))
        passes.append(res)
    run_failures = []
    if first_files is not None:
        run_item(workload, items[0], workdir)
        if _snapshot(workdir) != first_files:
            run_failures.append("first item's files differ on rerun")
    shutil.rmtree(workdir, ignore_errors=True)
    return {"passes": passes, "run_failures": run_failures}


def _failed_items(passes: list[PassResult]) -> list[str]:
    return [
        f"pass {p} item {i}: {'; '.join(o.failures)}"
        for p, res in enumerate(passes)
        for i, o in enumerate(res.outcomes)
        if o.failures
    ]


def end_to_end(items, passes: list[PassResult], run_failures) -> dict:
    """Metrics of an untraced run, times scaled to the nominal machine speed.

    Each pass's times are scaled by that pass's ``machine_speed``.  An item's
    latency is the median of its passes, which damps the machine's bursty
    speed before the quantiles are taken.
    """
    speeds = [machine_speed(res.ref) for res in passes]
    samples = [
        [res.times[i] * speed for res, speed in zip(passes, speeds) if not res.outcomes[i].failures]
        for i in range(len(items))
    ]
    times = [t for s in samples for t in s]
    latencies = [statistics.median(s) for s in samples if s]
    raw_times = [t for res in passes for t, o in zip(res.times, res.outcomes) if not o.failures]
    first = passes[0].outcomes
    tail_pct = tail_percentile(len(items))
    attempted = sum(len(res.outcomes) for res in passes)
    failed = sum(1 for res in passes for o in res.outcomes if o.failures)
    ok = [o for o in first if not o.failures]
    metrics = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_s": (quantile(latencies, 0.5), "s"),
        "item_tail_s": (quantile(latencies, tail_pct / 100), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_total_power_mw": (statistics.fmean(o.power_mw for o in ok), "mW"),
        "mean_coverage": (statistics.fmean(o.coverage for o in ok), "ratio"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    } if times and ok else {}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed + len(run_failures),
        "failures": _failed_items(passes) + run_failures,
        "tail_percentile": tail_pct,
        "samples": len(times),
        "passes": len(passes),
        "machine_speed": speeds,
        "raw_items_per_s": len(raw_times) / sum(raw_times) if raw_times else None,
        "plan_digest": passes[0].digest(),
        "item_times": [res.times for res in passes],
        "ref_times": [res.ref for res in passes],
        "item_power_mw": [o.power_mw for o in first],
        "item_coverage": [o.coverage for o in first],
    }


def install_tracer(tracer: Tracer) -> dict[str, int]:
    """Wrap every layer at each lookup site; returns sites rebound per layer."""
    sites = {}
    for name, spanned, work in LAYERS:
        mod_name, func = name.split(".")
        original = getattr(getattr(uavcell, mod_name), func)
        wrapper = tracer.wrap(name, original, work=work, span=spanned)
        sites[name] = tracer.install(PACKAGE_MODULES, original, wrapper)
    return sites


def run_traced(workload, items, workdir: Path) -> dict:
    """One pass with each item run untraced and traced back to back.

    The order within each pair alternates, so drift in machine speed falls
    on both sides alike.  Both runs of an item must give the same plan.
    """
    tracer = Tracer()
    plain, traced = PassResult(), PassResult()
    sites = {}
    for idx, item in enumerate(items):
        for traced_turn in ((False, True) if idx % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.item = idx
                sites = install_tracer(tracer)
                try:
                    elapsed, outcome = run_item(workload, item, workdir)
                finally:
                    tracer.uninstall()
                traced.times.append(elapsed)
                traced.outcomes.append(outcome)
            else:
                elapsed, outcome = run_item(workload, item, workdir)
                plain.times.append(elapsed)
                plain.outcomes.append(outcome)
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "tracer": tracer,
        "plain": plain,
        "traced": traced,
        "sites": sites,
    }


def per_layer(items, traced_run: dict) -> dict:
    tracer: Tracer = traced_run["tracer"]
    plain: PassResult = traced_run["plain"]
    traced: PassResult = traced_run["traced"]
    spans = tracer.spans
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + st

    metrics: dict[str, tuple[float, str]] = {}
    for name, spanned, work in LAYERS:
        metrics[f"{name}.calls"] = (tracer.counts[f"{name}.calls"], "count")
        if spanned:
            metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for key, unit in (
        ("geometry.mvee.points", "count"),
        ("clustering.select_k.points", "count"),
        ("clustering.find_intersections.pairs", "count"),
        ("deployment.evaluate.users", "count"),
        ("scenario.save_scenario.bytes", "bytes"),
        ("scenario.load_scenario.bytes", "bytes"),
    ):
        metrics[key] = (tracer.counts[key], unit)

    totals: dict[str, float] = {}
    for o in traced.outcomes:
        for key, value in o.counts.items():
            totals[key] = totals.get(key, 0) + value
    grown = totals.get("clustering.grown", 0)
    partitions = totals.get("baseline.partitions", 0)
    brute_deploys = sum(
        1
        for s in spans
        if s.name == "deployment.deploy" and s.parent >= 0 and spans[s.parent].name == "baseline.brute_force_optimum"
    )
    metrics["clustering.outer_iterations"] = (totals.get("clustering.outer_iterations", 0), "count")
    metrics["clustering.cells"] = (totals.get("clustering.cells", 0), "count")
    metrics["clustering.kept_ratio"] = (totals.get("clustering.cells", 0) / grown if grown else 0.0, "ratio")
    metrics["baseline.partitions"] = (partitions, "count")
    metrics["baseline.feasible_ratio"] = (brute_deploys / partitions if partitions else 0.0, "ratio")
    metrics["cli.bytes_written"] = (totals.get("cli.bytes_written", 0), "bytes")

    plain_s, traced_s = sum(plain.times), sum(traced.times)
    attributed = sum(s.end - s.start for s in spans if s.parent < 0)
    metrics["trace.items"] = (len(items), "count")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.unattributed_frac"] = (1.0 - attributed / traced_s, "ratio")
    return metrics


def write_spans(spans, path: Path) -> None:
    """One CSV row per span: name, start and end in seconds, parent row, item."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "start_s", "end_s", "parent", "item"])
        writer.writerows((s.name, repr(s.start), repr(s.end), s.parent, s.item) for s in spans)


def trace_checks(workload, traced_run: dict, metrics: dict) -> list[str]:
    """Checks of the traced run as a whole, beyond each item's own checks."""
    failures = []
    if traced_run["plain"].digest() != traced_run["traced"].digest():
        failures.append("traced and untraced runs gave different plans")
    for name, sites in traced_run["sites"].items():
        if sites == 0:
            failures.append(f"{name}: no lookup site found to wrap")
    for name in EXPECTED_CALLS[workload.name]:
        if metrics[f"{name}.calls"][0] == 0:
            failures.append(f"{name}: expected calls on {workload.name}, recorded none")
    for name in EXPECTED_ZERO[workload.name]:
        if metrics[f"{name}.calls"][0] != 0:
            failures.append(f"{name}: expected no calls on {workload.name}, recorded {metrics[f'{name}.calls'][0]}")
    # the top-level spans must account for the traced item time, up to the
    # harness's own glue and whatever tracing itself added
    unattributed = metrics["trace.unattributed_frac"][0]
    if unattributed > max(metrics["trace.overhead_frac"][0], 0.0) + 0.01:
        failures.append(f"spans leave {unattributed:.1%} of traced item time unattributed")
    return failures


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "uavcell": str(Path(uavcell.__file__).parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    items = workload.items(args.seed)
    setup_s = time.perf_counter() - T0
    speed = machine_speed([reference_seconds() for _ in range(SETUP_REF_RUNS)])
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s * speed,
        "raw_setup_s": setup_s,
        "setup_machine_speed": speed,
        "environment": environment(),
    }
    if not args.setup_only:
        workdir = Path(args.workdir)
        if args.trace:
            traced_run = run_traced(workload, items, workdir)
            metrics = per_layer(items, traced_run)
            write_spans(traced_run["tracer"].spans, Path(args.report).with_suffix(".spans.csv"))
            item_failures = _failed_items([traced_run["plain"], traced_run["traced"]])
            run_failures = trace_checks(workload, traced_run, metrics)
            report.update(
                metrics=metrics,
                attempted=2 * len(items),
                failed=len(item_failures) + len(run_failures),
                failures=item_failures + run_failures,
                plan_digest=traced_run["plain"].digest(),
                traced_plan_digest=traced_run["traced"].digest(),
            )
        else:
            untraced = run_untraced(workload, items, args.seconds, workdir)
            report.update(end_to_end(items, untraced["passes"], untraced["run_failures"]))
    Path(args.report).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
