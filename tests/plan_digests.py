"""Digest lines of the plans of the acceptance campaign and of its brute-force instances.

One line per acceptance seed 0-99 (``ellipse_clustering`` then ``deploy``,
as in ``test_acceptance.py``) and one per brute-force instance (the first
seven users of each seed, at most three UAVs).  Each line is

    <kind> seed=<n> power_mw=<repr of total_power_mw> cells=<sorted memberships>

so two checkouts can be compared with ``diff``, and their memberships alone
with ``cut -d' ' -f1,2,4``.  After the plans come the lines

    fits <ellipse|brute> <kind> <count>

that count the fits of the campaign and of the brute-force instances by how
they ended: ``closed-form``, ``triangle``, ``quad``, ``five`` and
``stalled``.  They are counted by wrapping ``mvee`` where ``clustering`` and
``baseline`` call it.  The last three lines

    calls select_k <count>
    calls split_cluster <count>
    pairs farthest <count>

count the campaign's calls of the two clustering steps and the point pairs
whose distances ``split_cluster``'s farthest-pair search compares, wrapped
the same way.  Last come the lines

    files cli seed=<master seed> <file> <sha256>

with the digests of the four files of a ``generate --mean-daughters 360``,
``deploy --method circle --num-uavs 9``, ``evaluate`` round trip through the
command line, for master seeds 0-19, and then the lines

    files sweep <file> <sha256>

with the digests of the files of one ``sweep``: three scenarios generated
from master seed 0, each run by ``ellipse``, ``circle`` with the ellipse's
cell count, and ``brute``, which is over its user cap and fails as
``bad_input``.
pytest does not collect this file: ``test_digests.py`` compares the lines of
``digest_lines`` with the committed ``digests.txt``.  To see what a change
moved, run from the repository root

    PYTHONPATH=src python tests/plan_digests.py --compare tests/digests.txt

which prints one line per differing digest line: a plan line's kind, seed,
whether its memberships moved and its relative power change, or a ``fits``,
``calls``, ``pairs`` or ``files`` line by name.  It exits 1 if a membership
or a count moved, or the number of lines did.  A change that moves a line
regenerates the file:

    PYTHONPATH=src python tests/plan_digests.py > tests/digests.txt
"""

import argparse
import hashlib
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

from uavcell import baseline, clustering, geometry
from uavcell.baseline import brute_force_plan
from uavcell.channel import ENVIRONMENTS, RadioConfig
from uavcell.cli import main as cli_main
from uavcell.clustering import ellipse_clustering
from uavcell.deployment import deploy
from uavcell.scenario import PcpConfig, Region, generate_pcp

URBAN = ENVIRONMENTS["urban"]
RADIO = RadioConfig()
SEEDS = range(100)
BRUTE_USERS = 7
BRUTE_UAVS = 3
CLI_SEEDS = range(20)
KINDS = ("closed-form", "triangle", "quad", "five", "stalled")


def _line(kind: str, seed: int, plan) -> str:
    cells = sorted(sorted(u.members) for u in plan.uavs)
    return f"{kind} seed={seed} power_mw={plan.total_power_mw!r} cells={cells}".replace(", ", ",")


def digest_lines() -> list[str]:
    lines = []
    fits = {"ellipse": Counter(), "brute": Counter()}
    mvee = geometry.mvee

    def counted(tally):
        def fit(points):
            e = mvee(points)
            tally[e.fit.ending] += 1
            return e
        return fit

    work = Counter()
    select_k, split_cluster, distances = clustering.select_k, clustering.split_cluster, clustering._distance_matrix

    def called(name, step):
        def call(*args, **kwargs):
            work[f"calls {name}"] += 1
            return step(*args, **kwargs)
        return call

    def paired(points):
        work["pairs farthest"] += math.comb(len(points), 2)
        return distances(points)

    clustering.mvee, baseline.mvee = counted(fits["ellipse"]), counted(fits["brute"])
    clustering.select_k = called("select_k", select_k)
    clustering.split_cluster = called("split_cluster", split_cluster)
    clustering._distance_matrix = paired
    try:
        for seed in SEEDS:
            users = generate_pcp(Region(), PcpConfig(seed=seed))
            _, cells, _ = ellipse_clustering(users)
            lines.append(_line("ellipse", seed, deploy(cells, URBAN, RADIO)))
        for seed in SEEDS:
            users = generate_pcp(Region(), PcpConfig(seed=seed))[:BRUTE_USERS]
            lines.append(_line("brute", seed, brute_force_plan(users, BRUTE_UAVS, URBAN, RADIO)))
    finally:
        clustering.mvee, baseline.mvee = mvee, mvee
        clustering.select_k, clustering.split_cluster = select_k, split_cluster
        clustering._distance_matrix = distances
    for method, tally in fits.items():
        for kind in KINDS:
            lines.append(f"fits {method} {kind} {tally[kind]}")
    for name in ("calls select_k", "calls split_cluster", "pairs farthest"):
        lines.append(f"{name} {work[name]}")
    for seed in CLI_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            scen, plan, ev = Path(tmp) / "scenarios", Path(tmp) / "plan", Path(tmp) / "eval"
            scen_file = scen / "scenario_000.json"
            for argv in (
                ["generate", "--out-dir", str(scen), "--master-seed", str(seed), "--mean-daughters", "360"],
                ["deploy", str(scen_file), "--out-dir", str(plan), "--method", "circle", "--num-uavs", "9"],
                ["evaluate", str(plan / "plan.json"), str(scen_file), "--out-dir", str(ev)],
            ):
                if cli_main(argv) != 0:
                    raise SystemExit(f"uavcell {argv[0]} failed for master seed {seed}")
            for path in (scen_file, plan / "plan.json", ev / "metrics.csv", ev / "throughput_cdf.csv"):
                lines.append(f"files cli seed={seed} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "manifest.json"
        manifest.write_text(json.dumps({
            "out_dir": "out", "generate": {"count": 3, "master_seed": 0},
            "methods": ["ellipse", "circle", "brute"], "circle": {"num_uavs": "match"},
        }))
        if cli_main(["sweep", str(manifest)]) != 2:  # brute's rows are bad_input
            raise SystemExit("uavcell sweep did not exit 2")
        out = Path(tmp) / "out"
        for path in (out / "runs.csv", out / "aggregate.csv", *sorted((out / "scenarios").iterdir())):
            lines.append(f"files sweep {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


def compare(want: list[str], got: list[str]) -> bool:
    """Print how ``got`` differs from ``want`` line by line; True unless a
    membership, a count or the number of lines moved."""
    same = len(want) == len(got)
    if not same:
        print(f"{len(got)} lines, {len(want)} committed")
    for old, new in zip(want, got):
        if old == new:
            continue
        if old.startswith(("ellipse ", "brute ")):
            kind, seed, power, cells = old.split(" ", 3)
            _, _, new_power, new_cells = new.split(" ", 3)
            was, now = (float(text.partition("=")[2]) for text in (power, new_power))
            moved = cells != new_cells or not new.startswith(f"{kind} {seed} ")
            same = same and not moved
            print(f"{kind} {seed} memberships={'moved' if moved else 'same'} power_rel={(now - was) / was:+.3g}")
        else:
            name = old.rpartition(" ")[0]
            same = same and name.startswith("files ")
            print(f"{name}: {old.rpartition(' ')[2]} -> {new.rpartition(' ')[2]}")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the digest lines, or compare them with a committed file.")
    parser.add_argument("--compare", metavar="FILE", help="digest file to compare with, such as tests/digests.txt")
    args = parser.parse_args()
    if args.compare is None:
        print(*digest_lines(), sep="\n")
    else:
        raise SystemExit(0 if compare(Path(args.compare).read_text().splitlines(), digest_lines()) else 1)
