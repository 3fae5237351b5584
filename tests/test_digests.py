"""The plans of the acceptance campaign, of its brute-force instances and of
the command-line round trip stay those recorded in ``digests.txt``.

A change that moves a line regenerates the file (see ``plan_digests.py``)
and names each changed line and why.
"""

from pathlib import Path

from plan_digests import compare, digest_lines

DIGESTS = Path(__file__).with_name("digests.txt")


def test_plans_and_fit_counts_match_the_committed_digests():
    want = DIGESTS.read_text().splitlines()
    got = digest_lines()
    for number, (old, new) in enumerate(zip(want, got), start=1):
        assert new == old, f"digests.txt line {number} differs:\n  committed {old}\n  now       {new}"
    assert len(got) == len(want), f"{len(got)} digest lines, {len(want)} committed"


def test_compare_fails_only_on_moved_memberships_counts_or_line_numbers(capsys):
    plan = "ellipse seed=3 power_mw=0.5 cells=[[0,1],[2]]"
    want = [plan, "fits ellipse five 7", "files sweep runs.csv 0a"]
    assert compare(want, want)
    assert compare(want, [plan.replace("0.5", "0.5000000000001"), want[1], "files sweep runs.csv 0b"])
    assert "ellipse seed=3 memberships=same power_rel=+2e-13" in capsys.readouterr().out
    assert not compare(want, [plan.replace("[[0,1],[2]]", "[[0],[1,2]]"), *want[1:]])
    assert not compare(want, [plan, "fits ellipse five 8", want[2]])
    assert not compare(want, want[:2])
