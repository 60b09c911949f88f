"""Figure 3 -- Speedup: saturated WIPS and WIRT vs. number of replicas.

Paper claims reproduced here (Section 5.2):

* browsing and shopping speed up almost identically, reaching ~2x at 12
  replicas (paper: S8~1.59, S12~1.97 for browsing; +11.3%/replica for
  shopping);
* the ordering profile "has by far crossed the threshold": its speedup
  collapses (paper: S8~1.29, ~+5.35%/replica);
* response time grows with the write ratio.
"""

import pytest

from repro.harness.report import compare, format_table
from repro.harness.sweeps import SPEEDUP_OFFERED_PER_REPLICA

from benchmarks.common import emit, experiment, run_once, sweep_replicas

#: Paper values read from Figure 3 / Section 5.2.
PAPER_SPEEDUP = {
    ("browsing", 8): 1.59, ("browsing", 12): 1.97,
    ("shopping", 8): 1.52, ("shopping", 12): 1.97,
    ("ordering", 8): 1.29, ("ordering", 12): 1.43,
}


@pytest.mark.benchmark(group="fig3")
def test_fig3_speedup(benchmark):
    def run():
        points = {}
        for profile in ("browsing", "shopping", "ordering"):
            for replicas in sweep_replicas():
                result = experiment(
                    "baseline", replicas=replicas, profile=profile,
                    offered_wips=SPEEDUP_OFFERED_PER_REPLICA * replicas)
                stats = result.whole_window()
                points[(profile, replicas)] = (stats.awips,
                                               stats.mean_wirt_s * 1000.0)
        return points

    points = run_once(benchmark, run)
    replicas_list = sweep_replicas()
    base = {profile: points[(profile, replicas_list[0])][0]
            for profile in ("browsing", "shopping", "ordering")}

    rows = []
    speedups = {}
    for profile in ("browsing", "shopping", "ordering"):
        for replicas in replicas_list:
            wips, wirt = points[(profile, replicas)]
            speedup = wips / base[profile]
            speedups[(profile, replicas)] = speedup
            paper = PAPER_SPEEDUP.get((profile, replicas))
            rows.append([f"{profile} {replicas}R", f"{wips:.0f}",
                         f"{wirt:.0f}", f"{speedup:.2f}",
                         "-" if paper is None else f"{paper:.2f}"])
    emit("fig3_speedup", format_table(
        "Figure 3: speedup (saturated load)",
        ["config", "WIPS", "WIRT ms", "S_k (measured)", "S_k (paper)"],
        rows))

    last = replicas_list[-1]
    # Shape assertions: who wins, by roughly what factor.
    assert speedups[("browsing", last)] > 1.5
    assert speedups[("shopping", last)] > 1.4
    assert speedups[("ordering", last)] < speedups[("shopping", last)]
    assert speedups[("ordering", last)] < 1.4  # crossed the threshold
    for replicas in replicas_list[1:]:
        assert points[("ordering", replicas)][1] > points[("shopping", replicas)][1]
        assert points[("shopping", replicas)][1] > points[("browsing", replicas)][1]
