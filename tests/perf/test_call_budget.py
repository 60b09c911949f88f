"""A deterministic host-cost budget: Python calls per baseline run.

Host wall time on a shared machine swings by tens of percent within
minutes; the number of Python calls a fixed run makes does not.  Under
``cProfile`` a run's total call count repeats exactly for one Python
minor version, whatever ``PYTHONHASHSEED`` is.  Each test here runs an
untraced tiny baseline -- closed loop or open loop -- in a fresh
interpreter under ``cProfile`` and fails when it makes more than
``TOLERANCE`` more calls than the count committed for the running minor
version.  A minor version with no committed count is skipped, and the
skip reason gives the measured count to commit.

A change that adds calls on purpose re-records the counts, and says
why, by pasting what this prints::

    PYTHONPATH=src python tests/perf/test_call_budget.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

#: Allowed rise over the committed count.
TOLERANCE = 0.01

#: Total Python calls of one profiled run: {(major, minor): {run: calls}}.
BUDGETS = {
    (3, 11): {"closed": 945760, "open": 1198749},
}

#: Builds the run in a fresh interpreter and profiles ``run()`` only.
PROGRAM = """
import cProfile, pstats, sys
from repro.harness import Experiment, tiny_scale
experiment = Experiment(tiny_scale(), replicas=3, seed=2009)
if sys.argv[1] == "closed":
    experiment = experiment.load("closed", wips=400.0).baseline()
else:
    experiment = experiment.load("open", wips=400.0, population=100_000)
profile = cProfile.Profile()
profile.enable()
experiment.run()
profile.disable()
print(pstats.Stats(profile).total_calls)
"""

SRC = Path(__file__).resolve().parents[2] / "src"


def count_calls(run: str) -> int:
    """Total Python calls of the untraced tiny ``run`` baseline."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", PROGRAM, run], env=env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1])


@pytest.mark.parametrize("run", ["closed", "open"])
def test_calls_stay_within_the_committed_budget(run):
    measured = count_calls(run)
    version = sys.version_info[:2]
    budget = BUDGETS.get(version, {}).get(run)
    if budget is None:
        pytest.skip(f"no call budget for Python {version[0]}.{version[1]}; "
                    f"the {run} run made {measured} calls")
    assert measured <= budget * (1 + TOLERANCE), (
        f"the {run} baseline made {measured} Python calls, more than "
        f"{TOLERANCE:.0%} over the committed {budget}: find the new calls "
        f"(python -m cProfile), or re-record the budget and say why")


if __name__ == "__main__":
    counts = {run: count_calls(run) for run in ("closed", "open")}
    print(f"    {sys.version_info[:2]}: {counts},")
