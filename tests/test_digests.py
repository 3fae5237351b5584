"""The plans of the acceptance campaign, of its brute-force instances and of
the command-line round trip stay those recorded in ``digests.txt``.

A change that moves a line regenerates the file (see ``plan_digests.py``)
and names each changed line and why.
"""

from pathlib import Path

from plan_digests import digest_lines

DIGESTS = Path(__file__).with_name("digests.txt")


def test_plans_and_fit_counts_match_the_committed_digests():
    want = DIGESTS.read_text().splitlines()
    got = digest_lines()
    for number, (old, new) in enumerate(zip(want, got), start=1):
        assert new == old, f"digests.txt line {number} differs:\n  committed {old}\n  now       {new}"
    assert len(got) == len(want), f"{len(got)} digest lines, {len(want)} committed"
