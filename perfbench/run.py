"""Benchmark of the uavcell pipeline: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Each run starts fresh processes of ``harness.py`` against the checkout's
``src`` with BLAS/OpenMP pinned to one thread.  Times are scaled to a nominal
machine speed by a reference kernel (see ``harness.py``).  Set-up (imports
plus input generation) is timed in three processes and reported as their
median.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object; the exit code is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "brute-tiny", "cli-dense")
SETUP_PROBES = 2  # extra processes that only set up; the run's own set-up is one more
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
MAX_FAILURE_LINES = 20


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, out_dir: Path, args, tag: str, setup_only: bool) -> dict:
    report = out_dir / f"{tag}.json"
    log = out_dir / f"{tag}.log"
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(out_dir / f"{tag}-work"), "--report", str(report),
    ]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=err, stderr=err, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not report.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"{tag} exited with {proc.returncode}:\n{tail}")
    return json.loads(report.read_text(encoding="utf-8"))


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "uavcell" / "__init__.py").is_file():
        print(f"no uavcell sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_child(root, out_dir, args, f"setup{i}", True) for i in range(probes)]
        result = run_child(root, out_dir, args, "run", False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for p in out_dir.glob("*-work"):
            shutil.rmtree(p, ignore_errors=True)

    setups.append(result)
    env = result["environment"]
    if Path(env["uavcell"]).resolve() != (root / "src" / "uavcell").resolve():
        print(f"imported uavcell from {env['uavcell']}, not from this checkout", file=sys.stderr)
        return 2
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    failures = result["failures"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"plan_digest {result['plan_digest']}")
    if args.trace:
        print(f"traced_plan_digest {result['traced_plan_digest']}")
    else:
        print(
            f"{result['samples']} items timed in {result['passes']} pass(es); "
            f"item_tail_s is p{result['tail_percentile']}"
        )
        print(
            "machine_speed per pass " + " ".join(f"{v:.4f}" for v in result["machine_speed"])
            + f"; unscaled items_per_s {result['raw_items_per_s']!r}"
        )
        print(
            "setup_s samples, scaled (unscaled): "
            + " ".join(f"{s['setup_s']:.4f} ({s['raw_setup_s']:.4f})" for s in setups)
        )
        print(f"failed_frac {result['failed'] / result['attempted']!r} ratio")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value!r} {unit}")
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {line}")
    if len(failures) > MAX_FAILURE_LINES:
        print(f"FAILED ... and {len(failures) - MAX_FAILURE_LINES} more")
    correct = not failures and result["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
