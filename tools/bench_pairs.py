"""Alternating benchmark pairs of two git revisions.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py BASE HEAD --workload brute-tiny --seeds 2001 2002 --pairs 10

Each revision is exported with ``git archive`` to its own temporary
directory, and each pair runs ``perfbench/run.py`` (the copy inside each
export, unchanged) once per side on the pair's seed, BASE first in even pairs
and HEAD first in odd ones.  Seeds are used in turn.  For every end-to-end
metric the script prints each side's median and quartiles and, where
``BENCHMARK.json`` gives a direction, the pairs HEAD won (ties count for
neither side) and whether a gain claim holds: HEAD wins at least nine tenths
of the pairs, and the medians differ by more than the distance between the
quartiles of BASE's runs.  The exports are removed at the end, also when the
script is interrupted or terminated; nothing is written in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WIN_SHARE = 0.9


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` extracted under ``into``."""
    archive = into / "tree.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", "--format=tar", rev], stdout=out, check=True)
    tree = into / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree)  # this repository's own export
    archive.unlink()
    return tree


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The metrics of one untraced ``perfbench/run.py`` run in ``tree``, at its own run length, as {name: value}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    # its own process group, so that an interrupted run stops with the harness processes it started
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not out.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{err[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    if not report["correct"]:
        print(f"warning: a run in {tree} on seed {seed} failed its output checks", file=sys.stderr)
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(name: str, base: list[float], head: list[float], better: str | None) -> str:
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    line = f"{name:<22} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  head {hm:.6g} [{h1:.6g}, {h3:.6g}]"
    if bm:
        line += f"  {100.0 * (hm - bm) / bm:+.1f}%"
    if better is None:
        return line
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0.0 for b, h in zip(base, head))
    holds = wins >= WIN_SHARE * len(base) and sign * (hm - bm) > b3 - b1
    return line + f"  wins {wins}/{len(base)}  claim {'holds' if holds else 'not met'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the runs stop and the exports go

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {}
        for side in ("base", "head"):
            (scratch / side).mkdir()
            trees[side] = export(getattr(args, side), scratch / side)
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        directions = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                runs[side].append(run_once(trees[side], args.workload, seed))
            base, head = runs["base"][-1], runs["head"][-1]
            print(f"pair {pair} seed {seed} " + " ".join(
                f"{name} {base[name]:.6g}->{head[name]:.6g}" for name in directions if name in base and name in head
            ), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload}: {args.pairs} pairs on seeds {' '.join(map(str, args.seeds))}")
    names = [name for name in runs["base"][0] if all(name in r for r in runs["base"] + runs["head"])]
    for name in names:
        print(summary(name, [r[name] for r in runs["base"]], [r[name] for r in runs["head"]], directions.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
