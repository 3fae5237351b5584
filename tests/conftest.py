import os
from pathlib import Path

import pytest

from uavcell import clustering


def _living_children() -> list[str]:
    """``pid (command)`` of every child of this process that has not exited, read from /proc."""
    me, living = str(os.getpid()), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            head, tail = stat.read_text().rsplit(")", 1)
        except (FileNotFoundError, ProcessLookupError):  # gone while listed
            continue
        state, ppid = tail.split()[:2]
        if ppid == me and state not in ("Z", "X"):
            living.append(head + ")")
    return living


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_session():
    """After every test: the select_k helper is closed and reaped, and no other child of this process is left running."""
    yield
    clustering._HELPER.end()
    left = _living_children() if Path("/proc/self/stat").exists() else []
    assert not left, f"processes left running: {left}"
