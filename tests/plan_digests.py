"""Print the plans of the acceptance campaign and of its brute-force instances.

One line per acceptance seed 0-99 (``ellipse_clustering`` then ``deploy``,
as in ``test_acceptance.py``) and one per brute-force instance (the first
seven users of each seed, at most three UAVs).  Each line is

    <kind> seed=<n> power_mw=<repr of total_power_mw> cells=<sorted memberships>

so two checkouts can be compared with ``diff``, and their memberships alone
with ``cut -d' ' -f1,2,4``.  pytest does not collect this file.  Run it from
the repository root against the checkout on ``PYTHONPATH``:

    PYTHONPATH=src python tests/plan_digests.py > digests.txt
"""

from uavcell.baseline import brute_force_plan
from uavcell.channel import ENVIRONMENTS, RadioConfig
from uavcell.clustering import ellipse_clustering
from uavcell.deployment import deploy
from uavcell.scenario import PcpConfig, Region, generate_pcp

URBAN = ENVIRONMENTS["urban"]
RADIO = RadioConfig()
SEEDS = range(100)
BRUTE_USERS = 7
BRUTE_UAVS = 3


def _line(kind: str, seed: int, plan) -> str:
    cells = sorted(sorted(u.members) for u in plan.uavs)
    return f"{kind} seed={seed} power_mw={plan.total_power_mw!r} cells={cells}".replace(", ", ",")


def main() -> None:
    for seed in SEEDS:
        users = generate_pcp(Region(), PcpConfig(seed=seed))
        _, cells, _ = ellipse_clustering(users)
        print(_line("ellipse", seed, deploy(cells, URBAN, RADIO)))
    for seed in SEEDS:
        users = generate_pcp(Region(), PcpConfig(seed=seed))[:BRUTE_USERS]
        print(_line("brute", seed, brute_force_plan(users, BRUTE_UAVS, URBAN, RADIO)))


if __name__ == "__main__":
    main()
